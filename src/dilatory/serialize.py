"""JSON serialization for the dilatory/v1 schema.

Complex numbers are two-element [re, im] arrays; matrices carry explicit
"rows"/"cols" with row-major nested entries; every document records the
basis convention ("block-major,row-major") so files are self-describing.
Dumping uses sorted keys and repr-exact floats, so a fixed input always
produces identical bytes and parse(serialize(x)) returns x bit-exactly.

The decoders are where the CLI's input enters, and each of their checks
runs once.  Sizes ("rows", "cols", "k", "h", "blocks") must be JSON
integers; a float or a bool there is malformed input, never rounded.
A list of matrix objects (``basis_images`` of shape k x k, ``pi_images`` of
shape h x h) is read as one stack, and ``decode_matrix`` reads a stack of
one: every object must have the expected "rows" and "cols", then the
entries of all of them are walked together once, "rows" rows of "cols"
[re, im] pairs, each level a JSON array of that length, then only JSON
numbers among the flattened values (null, a bool, a string or an int beyond
the float range is malformed input too), converted in one call.  Finiteness
is left to the ``OcpMap`` and ``AnchoredRep`` constructors the decoders
build.

The document builders ``ocp_map_doc``, ``anchored_rep_doc`` and
``certificate_doc`` put the objects' own arrays in the document unchanged:
a map's basis images and a rep's pi images as their (count, side, side)
stacks, V, Q and the CLI's U as 2-D arrays.  The type of an array alone
says how it is written: a 2-D complex128 array is one matrix object
{"rows", "cols", "entries"}, with row-major nested [re, im] entries, and a
3-D one is the list of the matrix objects of its matrices.  Any other
ndarray is rejected with a ``TypeError``, as json rejects it.  ``_native``
expands the arrays of a document into those JSON-native objects (a
contiguous copy first, so any layout gives the same lists), and the public
``encode_*`` functions return it.

The whole writer contract is one line: ``dumps(doc) ==
json.dumps(_native(doc), sort_keys=True, indent=2) + "\n"``, the same key
order, escapes, float and int spellings and layout, and a ``TypeError``
for whatever json rejects.  ``dumps`` does not call ``json.dumps`` because
with ``indent`` json always runs its pure-Python encoder, one generator
step per float, and a certificate holds hundreds of thousands of floats.
Instead its cost follows the distinct rows and values:

- An array is written as one (count, rows, cols) stack, a 2-D array being
  a stack of one: the text around each matrix object's entries is built
  once, and the rows of all its matrices are de-duplicated together.  The
  pi images of a canonical dilation, 0/1 matrices of mostly zero rows,
  share most of their rows across the stack.
- Rows are keyed by their exact bytes, so -0.0 and 0.0 stay apart.  The
  float bits of the rows not yet written are de-duplicated again, and each
  distinct value is spelled once, with ``float.__repr__`` or json's
  ``NaN``/``Infinity`` spellings.  A row's text is its spellings slotted
  into the literal text json puts around them, joined once.
- Row texts carry their leading separator and go into the output list as
  they are; one join at the end builds the document.  A list of plain
  floats is written with one join.
- The row texts are kept for one ``dumps`` call and then dropped, so
  nothing keyed by data outlives the call.
"""

from __future__ import annotations

import json
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


def _is_matrices(o) -> bool:
    """Whether o is an array dumps writes: 2-D or 3-D complex128."""
    return type(o) is np.ndarray and o.dtype == np.complex128 and o.ndim in (2, 3)


def _native(o):
    """o with each 2-D complex128 array turned into its matrix object and
    each 3-D one into the list of them, entries as nested [re, im] lists."""
    if _is_matrices(o):
        a = np.ascontiguousarray(o)
        rows, cols = a.shape[-2:]
        entries = a.view(np.float64).reshape(*a.shape, 2).tolist()
        if a.ndim == 2:
            return {"rows": rows, "cols": cols, "entries": entries}
        return [{"rows": rows, "cols": cols, "entries": e} for e in entries]
    if isinstance(o, dict):
        return {key: _native(value) for key, value in o.items()}
    if isinstance(o, (list, tuple)):
        return [_native(item) for item in o]
    return o


def encode_matrix(m) -> dict:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    return _native(a)


def _size(value) -> int:
    """A size field, which must be a non-negative JSON integer."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise MalformedInput(f"size {value!r} is not a non-negative integer")
    return value


def _matrix_shape(obj) -> tuple[int, int]:
    try:
        return _size(obj["rows"]), _size(obj["cols"])
    except (KeyError, TypeError) as exc:
        raise MalformedInput(f"bad matrix object: {exc}") from exc


def decode_matrix(obj) -> np.ndarray:
    """The complex128 matrix of a matrix object, its entries walked once
    (see the module docstring)."""
    rows, cols = _matrix_shape(obj)
    return _decode_matrices([obj], rows, cols)[0]


def _decode_matrices(objs, rows: int, cols: int) -> np.ndarray:
    """The (count, rows, cols) complex128 stack of a JSON array of matrix
    objects, each of the given shape, their entries walked together once."""
    if type(objs) not in (list, tuple):
        raise MalformedInput("matrix objects are not a JSON array")
    entries = []
    for obj in objs:
        shape = _matrix_shape(obj)
        if shape != (rows, cols):
            raise MalformedInput(f"bad matrix object: {shape[0]}x{shape[1]}, expected {rows}x{cols}")
        entries.append(obj["entries"])
    bad_shape = f"matrix entries are not {rows} rows of {cols} [re, im] pairs"
    if not _arrays_of_length(entries, rows):
        raise MalformedInput(bad_shape)
    matrix_rows = list(chain.from_iterable(entries))
    if not _arrays_of_length(matrix_rows, cols):
        raise MalformedInput(bad_shape)
    pairs = list(chain.from_iterable(matrix_rows))
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
    return values.view(np.complex128).reshape(len(entries), rows, cols)


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
        "basis_images": phi.basis_images,
    }


def encode_ocp_map(phi: OcpMap) -> dict:
    return _native(ocp_map_doc(phi))


def decode_ocp_map(obj) -> OcpMap:
    _expect_kind(obj, "ocp_map")
    try:
        domain = decode_algebra(obj["domain"])
        k = _size(obj["k"])
        images = _decode_matrices(obj["basis_images"], k, k)
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
        "pi_images": rep.pi_images,
        "V": rep.V,
    }


def encode_anchored_rep(rep: AnchoredRep) -> dict:
    return _native(anchored_rep_doc(rep))


def decode_anchored_rep(obj) -> AnchoredRep:
    _expect_kind(obj, "anchored_rep")
    try:
        algebra = decode_algebra(obj["domain"])
        k = _size(obj["k"])
        h = _size(obj["h"])
        images = _decode_matrices(obj["pi_images"], h, h)
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
        "Q": cert.Q,
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

    obj may hold 2-D and 3-D complex128 arrays, written as json writes
    their matrix objects.  The text of each distinct matrix row is kept for
    this call only (see the module docstring).
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

    row_text[depth][row bytes] is the text of each matrix row written so far,
    its leading separator included.
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
        close = "\n" + "  " * depth + "]"
        if set(map(type, o)) == {float}:
            out.append("[" + inner + ("," + inner).join(map(_float_str, o)) + close)
        else:
            out.append("[")
            sep = inner
            for item in o:
                out.append(sep)
                _write(item, depth + 1, out, row_text)
                sep = "," + inner
            out.append(close)
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
    elif _is_matrices(o):
        _write_matrices(o, depth, out, row_text)
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _write_matrices(a: np.ndarray, depth: int, out: list, row_text: dict):
    """Append the JSON of a 2-D complex128 array, its matrix object, or of
    a 3-D one, the list of its matrix objects: the text around each
    object's entries is built once and the entries are one stack."""
    if a.ndim == 3 and not len(a):
        out.append("[]")
        return
    rows, cols = a.shape[-2:]
    # a list's matrix objects sit one level below the list
    level = depth + a.ndim - 2
    obj, key = ("\n" + "  " * (level + i) for i in (0, 1))
    head = "{" + key + '"cols": ' + int.__repr__(cols) + "," + key + '"entries": '
    tail = "," + key + '"rows": ' + int.__repr__(rows) + obj + "}"
    if a.ndim == 2:
        _write_stack(a[None], level + 1, out, row_text, head, "", tail)
    else:
        close = "\n" + "  " * depth + "]"
        _write_stack(a, level + 1, out, row_text, "[" + obj + head, tail + "," + obj + head, tail + close)


def _write_stack(stack: np.ndarray, depth: int, out: list, row_text: dict, before, between, after):
    """Append before, the [re, im] entry lists at this depth of each matrix
    of the (count, rows, cols) stack with between after all but the last,
    and after; each distinct row is formatted once."""
    count, rows, cols = stack.shape
    if stack.size == 0:
        empty: list[str] = []
        _write([[]] * rows, depth, empty, row_text)
        text = "".join(empty)
        out.append(before + text + (between + text) * (count - 1) + after)
        return
    # one bytes key per row: equal keys are equal rows, bit for bit
    keys = np.ascontiguousarray(stack).view(np.dtype((np.void, 16 * cols))).ravel().tolist()
    text = row_text.setdefault(depth, {})
    new = [key for key in dict.fromkeys(keys) if key not in text]
    if new:
        text.update(zip(new, _row_texts(new, cols, depth + 1)))
    lines = list(map(text.__getitem__, keys))
    # each row text starts with its "," separator, which a matrix's first row drops
    close = "\n" + "  " * depth + "]"
    joint = close + between + "["
    lines[rows::rows] = [joint + line[1:] for line in lines[rows::rows]]
    lines[0] = before + "[" + lines[0][1:]
    lines.append(close + after)
    out.extend(lines)


def _row_texts(keys: list, cols: int, depth: int) -> list:
    """The text of each row (keyed by its bytes) of cols [re, im] pairs at
    this depth, led by its "," separator: each distinct value is spelled
    once, and each row is its spellings slotted into the literal text
    json puts around them."""
    bits, inverse = np.unique(np.frombuffer(b"".join(keys), dtype=np.uint64), return_inverse=True)
    values = bits.view(np.float64)
    # _float_str spells a finite float as float.__repr__ does
    spell = float.__repr__ if np.isfinite(values).all() else _float_str
    names = np.array(list(map(spell, values.tolist())), dtype=object)
    outer, pair, item = ("\n" + "  " * (depth + i) for i in range(3))
    around = [pair + "]," + pair + "[" + item, "," + item] * cols
    around[0] = "," + outer + "[" + pair + "[" + item
    around.append(pair + "]" + outer + "]")
    template = [""] * (4 * cols + 1)
    template[::2] = around
    texts = []
    for row in names[inverse].reshape(len(keys), 2 * cols).tolist():
        template[1::2] = row
        texts.append("".join(template))
    return texts


def loads(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"invalid JSON: {exc}") from exc
