"""JSON serialization for the dilatory/v1 schema.

Complex numbers are two-element [re, im] arrays; matrices carry explicit
"rows"/"cols" with row-major nested entries; every document records the
basis convention ("block-major,row-major") so files are self-describing.
Dumping uses sorted keys and repr-exact floats, so a fixed input always
produces identical bytes and parse(serialize(x)) returns x bit-exactly.

The decoders are where the CLI's input enters, and each of their checks
runs once.  Sizes ("rows", "cols", "k", "h", "blocks") must be JSON
integers; a float or a bool there is malformed input, never rounded.
``decode_matrix`` walks a matrix's entries once: "rows" rows of "cols"
[re, im] pairs, each level a JSON array of that length, then only JSON
numbers among the flattened values (null, a bool, a string or an int beyond
the float range is malformed input too), converted in one call.  Finiteness
is left to the ``OcpMap`` and ``AnchoredRep`` constructors the decoders
build.

The document builders ``matrix_doc``, ``ocp_map_doc``, ``anchored_rep_doc``
and ``certificate_doc`` leave each matrix's "entries" as its 2-D complex128
array; the public ``encode_*`` functions return the same documents with
those arrays turned into JSON-native [re, im] lists.

``dumps`` writes exactly the bytes of ``json.dumps(native, sort_keys=True,
indent=2) + "\n"``, where ``native`` is the document with its arrays turned
into lists: the same key order, escapes, float and int spellings and
layout, and a ``TypeError`` for whatever json rejects.  Any ndarray other
than a 2-D complex128 one is rejected too.  It does not call ``json.dumps``
because with ``indent`` json always runs its pure-Python encoder, one
generator step per float, and a certificate holds hundreds of thousands of
floats.  Instead a matrix array is written row by row: each distinct row,
keyed by its exact bytes (so -0.0 and 0.0 stay apart), is formatted once
by filling a ``%s`` template made once per row width and depth with the
``float.__repr__`` of its entries, or with json's ``NaN``/``Infinity``
spellings when the array holds a non-finite entry.  The pi images of a
canonical dilation, 0/1 matrices of mostly zero rows, have few distinct
rows.  Lists, matrices included, take the general per-value path.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import chain
from math import isfinite

import numpy as np

from .algebra import FdCStarAlgebra
from .cpmap import OcpMap
from .dilation import AnchoredRep, DilationCertificate
from .errors import MalformedInput
from .numerics import Tolerance

SCHEMA = "dilatory/v1"
BASIS_ORDER = "block-major,row-major"


def matrix_doc(m) -> dict:
    """The matrix object of m, its entries left as a complex128 array."""
    a = np.ascontiguousarray(m, dtype=np.complex128)
    rows, cols = a.shape
    return {"rows": rows, "cols": cols, "entries": a}


def _native(o):
    """o with every entries array turned into its nested [re, im] lists."""
    if isinstance(o, np.ndarray):
        rows, cols = o.shape
        return o.view(np.float64).reshape(rows, cols, 2).tolist()
    if isinstance(o, dict):
        return {key: _native(value) for key, value in o.items()}
    if isinstance(o, list):
        return [_native(item) for item in o]
    return o


def encode_matrix(m) -> dict:
    return _native(matrix_doc(m))


def _size(value) -> int:
    """A size field, which must be a non-negative JSON integer."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise MalformedInput(f"size {value!r} is not a non-negative integer")
    return value


def decode_matrix(obj) -> np.ndarray:
    """The complex128 matrix of a matrix object, its entries walked once
    (see the module docstring)."""
    try:
        rows = _size(obj["rows"])
        cols = _size(obj["cols"])
        entries = obj["entries"]
    except (KeyError, TypeError) as exc:
        raise MalformedInput(f"bad matrix object: {exc}") from exc
    bad_shape = f"matrix entries are not {rows} rows of {cols} [re, im] pairs"
    if not (_arrays_of_length([entries], rows) and _arrays_of_length(entries, cols)):
        raise MalformedInput(bad_shape)
    pairs = list(chain.from_iterable(entries))
    if not _arrays_of_length(pairs, 2):
        raise MalformedInput(bad_shape)
    flat = list(chain.from_iterable(pairs))
    kinds = set(map(type, flat))
    if not kinds <= {int, float}:
        names = ", ".join(sorted(k.__name__ for k in kinds - {int, float}))
        raise MalformedInput(f"bad matrix object: entries of type {names} are not JSON numbers")
    try:
        values = np.array(flat, dtype=np.float64)
    except OverflowError as exc:
        raise MalformedInput(f"bad matrix object: {exc}") from exc
    return values.view(np.complex128).reshape(rows, cols)


def _arrays_of_length(items, length: int) -> bool:
    """Whether every item is a JSON array (a list, or a tuple) of the given
    length; a string or an object has a length too."""
    return set(map(type, items)) <= {list, tuple} and set(map(len, items)) <= {length}


def encode_algebra(a: FdCStarAlgebra) -> dict:
    return {"blocks": list(a.blocks)}


def decode_algebra(obj) -> FdCStarAlgebra:
    try:
        blocks = obj["blocks"]
        if not isinstance(blocks, list):
            raise TypeError(f"blocks {blocks!r} is not a list")
        return FdCStarAlgebra(tuple(_size(n) for n in blocks))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad algebra object: {exc}") from exc


def encode_tolerance(tol: Tolerance) -> dict:
    return {"eps_rank": tol.eps_rank, "eps_eq": tol.eps_eq}


def ocp_map_doc(phi: OcpMap) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "ocp_map",
        "basis_order": BASIS_ORDER,
        "domain": encode_algebra(phi.domain),
        "k": phi.k,
        "basis_images": [matrix_doc(m) for m in phi.basis_images],
    }


def encode_ocp_map(phi: OcpMap) -> dict:
    return _native(ocp_map_doc(phi))


def decode_ocp_map(obj) -> OcpMap:
    _expect_kind(obj, "ocp_map")
    try:
        domain = decode_algebra(obj["domain"])
        k = _size(obj["k"])
        images = tuple(decode_matrix(m) for m in obj["basis_images"])
        return OcpMap(domain, k, images)
    except MalformedInput:
        raise
    except Exception as exc:
        raise MalformedInput(f"bad OCP map object: {exc}") from exc


def anchored_rep_doc(rep: AnchoredRep) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "anchored_rep",
        "basis_order": BASIS_ORDER,
        "domain": encode_algebra(rep.algebra),
        "k": rep.k,
        "h": rep.h,
        "pi_images": [matrix_doc(m) for m in rep.pi_images],
        "V": matrix_doc(rep.V),
    }


def encode_anchored_rep(rep: AnchoredRep) -> dict:
    return _native(anchored_rep_doc(rep))


def decode_anchored_rep(obj) -> AnchoredRep:
    _expect_kind(obj, "anchored_rep")
    try:
        algebra = decode_algebra(obj["domain"])
        k = _size(obj["k"])
        h = _size(obj["h"])
        images = tuple(decode_matrix(m) for m in obj["pi_images"])
        v = decode_matrix(obj["V"])
        return AnchoredRep(algebra, k, h, images, v)
    except MalformedInput:
        raise
    except Exception as exc:
        raise MalformedInput(f"bad anchored rep object: {exc}") from exc


def certificate_doc(cert: DilationCertificate) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "dilation_certificate",
        "basis_order": BASIS_ORDER,
        "dimension": cert.dimension,
        "rep": anchored_rep_doc(cert.rep),
        "Q": matrix_doc(cert.Q),
        "gram_eigenvalues": [float(x) for x in cert.gram_eigenvalues],
        "residuals": {k: float(v) for k, v in sorted(cert.residuals.items())},
        "rank_unstable": bool(cert.rank_unstable),
        "tolerance": encode_tolerance(cert.tol),
    }


def encode_certificate(cert: DilationCertificate) -> dict:
    return _native(certificate_doc(cert))


def _expect_kind(obj, kind: str):
    if not isinstance(obj, dict):
        raise MalformedInput(f"expected a JSON object of kind {kind!r}")
    if obj.get("schema", SCHEMA) != SCHEMA:
        raise MalformedInput(f"unsupported schema {obj.get('schema')!r}")
    if obj.get("kind", kind) != kind:
        raise MalformedInput(f"expected kind {kind!r}, got {obj.get('kind')!r}")


def dumps(obj: dict) -> str:
    """Canonical bytes: sorted keys, two-space indent, trailing newline.

    obj may hold 2-D complex128 arrays, written as json writes their
    ``[re, im]`` entry lists.
    """
    out: list[str] = []
    _write(obj, 0, out, {})
    out.append("\n")
    return "".join(out)


_encode_str = json.encoder.encode_basestring_ascii


def _float_str(x: float) -> str:
    if isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _key_str(key) -> str:
    if isinstance(key, str):
        return _encode_str(key)
    if isinstance(key, float):
        return _encode_str(_float_str(key))
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return _encode_str(int.__repr__(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _write(o, depth: int, out: list, row_text: dict):
    """Append the indented JSON of o at the given nesting depth to out.

    row_text[depth][row bytes] is the text of each matrix row written so far.
    """
    if isinstance(o, str):
        out.append(_encode_str(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(_float_str(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = "\n" + "  " * (depth + 1)
        out.append("[")
        sep = inner
        for item in o:
            out.append(sep)
            _write(item, depth + 1, out, row_text)
            sep = "," + inner
        out.append("\n" + "  " * depth + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = "\n" + "  " * (depth + 1)
        out.append("{")
        sep = inner
        for key, value in sorted(o.items()):
            out.append(sep + _key_str(key) + ": ")
            _write(value, depth + 1, out, row_text)
            sep = "," + inner
        out.append("\n" + "  " * depth + "}")
    elif type(o) is np.ndarray and o.ndim == 2 and o.dtype == np.complex128:
        _write_matrix(o, depth, out, row_text)
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _write_matrix(a: np.ndarray, depth: int, out: list, row_text: dict):
    """Append the JSON of a's [re, im] entry lists, each distinct row formatted once."""
    rows, cols = a.shape
    if rows == 0:
        out.append("[]")
        return
    if cols == 0:
        lines = ["[]"] * rows
    else:
        # one bytes key per row: equal keys are equal rows, bit for bit
        keys = np.ascontiguousarray(a).view(np.dtype((np.void, 16 * cols))).ravel().tolist()
        text = row_text.setdefault(depth, {})
        new = [key for key in dict.fromkeys(keys) if key not in text]
        if new:
            # _float_str spells a finite float as float.__repr__ does, so a
            # row's text depends only on its bytes and depth
            fmt = float.__repr__ if np.isfinite(a).all() else _float_str
            template = _row_template(cols, depth + 1)
            for key in new:
                text[key] = template % tuple(map(fmt, np.frombuffer(key).tolist()))
        lines = map(text.__getitem__, keys)
    inner = "\n" + "  " * (depth + 1)
    out.append("[" + inner + ("," + inner).join(lines) + "\n" + "  " * depth + "]")


@lru_cache(maxsize=None)
def _row_template(cols: int, depth: int) -> str:
    """The %s layout json gives a row of cols [re, im] pairs at this depth."""
    outer, pair, item = ("\n" + "  " * (depth + i) for i in range(3))
    cell = pair + "[" + item + "%s," + item + "%s" + pair + "]"
    return "[" + ",".join([cell] * cols) + outer + "]"


def loads(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"invalid JSON: {exc}") from exc
