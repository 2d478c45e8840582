"""JSON serialization for the dilatory/v1 schema.

Complex numbers are two-element [re, im] arrays; matrices carry explicit
"rows"/"cols" with row-major nested entries; every document records the
basis convention ("block-major,row-major") so files are self-describing.
Dumping uses sorted keys and repr-exact floats, so a fixed input always
produces identical bytes and parse(serialize(x)) returns x bit-exactly.

``dumps`` writes exactly the bytes of ``json.dumps(obj, sort_keys=True,
indent=2) + "\n"``: the same key order, escapes, float and int spellings
and layout, and a ``TypeError`` for whatever json rejects.  It does not call
``json.dumps`` because with ``indent`` json always runs its pure-Python
encoder, one generator step per float, and a certificate holds hundreds of
thousands of floats.  Instead a row of finite [re, im] pairs, the bulk of
every matrix, is written in one step by filling a ``%s`` template made once
per row width and depth with the ``float.__repr__`` of its entries.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import chain
from math import isfinite

import numpy as np

from .algebra import AlgebraElement, FdCStarAlgebra, StarHom, check_star_hom
from .cpmap import OcpMap, is_completely_positive
from .dilation import AnchoredRep, DilationCertificate, validate_rep
from .errors import MalformedInput
from .numerics import DEFAULT_TOL, Tolerance

SCHEMA = "dilatory/v1"
BASIS_ORDER = "block-major,row-major"


def encode_matrix(m) -> dict:
    a = np.ascontiguousarray(m, dtype=np.complex128)
    rows, cols = a.shape
    entries = a.view(np.float64).reshape(rows, cols, 2).tolist()
    return {"rows": rows, "cols": cols, "entries": entries}


def decode_matrix(obj) -> np.ndarray:
    try:
        rows = int(obj["rows"])
        cols = int(obj["cols"])
        entries = obj["entries"]
        if len(entries) != rows:
            raise MalformedInput(f"matrix has {len(entries)} rows, expected {rows}")
        out = np.zeros((rows, cols), dtype=np.complex128)
        for i in range(rows):
            row = entries[i]
            if len(row) != cols:
                raise MalformedInput(f"row {i} has {len(row)} entries, expected {cols}")
            for j in range(cols):
                re, im = row[j]
                out[i, j] = complex(float(re), float(im))
    except MalformedInput:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise MalformedInput(f"bad matrix object: {exc}") from exc
    return out


def encode_algebra(a: FdCStarAlgebra) -> dict:
    return {"blocks": list(a.blocks)}


def decode_algebra(obj) -> FdCStarAlgebra:
    try:
        return FdCStarAlgebra(tuple(int(n) for n in obj["blocks"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad algebra object: {exc}") from exc


def encode_tolerance(tol: Tolerance) -> dict:
    return {"eps_rank": tol.eps_rank, "eps_eq": tol.eps_eq}


def decode_tolerance(obj) -> Tolerance:
    try:
        return Tolerance(float(obj["eps_rank"]), float(obj["eps_eq"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad tolerance object: {exc}") from exc


def encode_ocp_map(phi: OcpMap) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "ocp_map",
        "basis_order": BASIS_ORDER,
        "domain": encode_algebra(phi.domain),
        "k": phi.k,
        "basis_images": [encode_matrix(m) for m in phi.basis_images],
    }


def decode_ocp_map(obj) -> OcpMap:
    _expect_kind(obj, "ocp_map")
    try:
        domain = decode_algebra(obj["domain"])
        k = int(obj["k"])
        images = tuple(decode_matrix(m) for m in obj["basis_images"])
        return OcpMap(domain, k, images)
    except MalformedInput:
        raise
    except Exception as exc:
        raise MalformedInput(f"bad OCP map object: {exc}") from exc


def encode_element(a: AlgebraElement) -> list:
    return [encode_matrix(b) for b in a.block_data]


def decode_element(algebra: FdCStarAlgebra, obj) -> AlgebraElement:
    try:
        return AlgebraElement(algebra, tuple(decode_matrix(b) for b in obj))
    except MalformedInput:
        raise
    except Exception as exc:
        raise MalformedInput(f"bad algebra element: {exc}") from exc


def encode_star_hom(f: StarHom) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "star_hom",
        "basis_order": BASIS_ORDER,
        "source": encode_algebra(f.source),
        "target": encode_algebra(f.target),
        "basis_images": [encode_element(img) for img in f.basis_images],
    }


def decode_star_hom(obj) -> StarHom:
    _expect_kind(obj, "star_hom")
    try:
        source = decode_algebra(obj["source"])
        target = decode_algebra(obj["target"])
        images = tuple(decode_element(target, img) for img in obj["basis_images"])
        return StarHom(source, target, images)
    except MalformedInput:
        raise
    except Exception as exc:
        raise MalformedInput(f"bad star hom object: {exc}") from exc


def encode_anchored_rep(rep: AnchoredRep) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "anchored_rep",
        "basis_order": BASIS_ORDER,
        "domain": encode_algebra(rep.algebra),
        "k": rep.k,
        "h": rep.h,
        "pi_images": [encode_matrix(m) for m in rep.pi_images],
        "V": encode_matrix(rep.V),
    }


def decode_anchored_rep(obj) -> AnchoredRep:
    _expect_kind(obj, "anchored_rep")
    try:
        algebra = decode_algebra(obj["domain"])
        k = int(obj["k"])
        h = int(obj["h"])
        images = tuple(decode_matrix(m) for m in obj["pi_images"])
        v = decode_matrix(obj["V"])
        return AnchoredRep(algebra, k, h, images, v)
    except MalformedInput:
        raise
    except Exception as exc:
        raise MalformedInput(f"bad anchored rep object: {exc}") from exc


def encode_certificate(cert: DilationCertificate) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "dilation_certificate",
        "basis_order": BASIS_ORDER,
        "dimension": cert.dimension,
        "rep": encode_anchored_rep(cert.rep),
        "Q": encode_matrix(cert.Q),
        "gram_eigenvalues": [float(x) for x in cert.gram_eigenvalues],
        "residuals": {k: float(v) for k, v in sorted(cert.residuals.items())},
        "rank_unstable": bool(cert.rank_unstable),
        "tolerance": encode_tolerance(cert.tol),
    }


def _expect_kind(obj, kind: str):
    if not isinstance(obj, dict):
        raise MalformedInput(f"expected a JSON object of kind {kind!r}")
    if obj.get("schema", SCHEMA) != SCHEMA:
        raise MalformedInput(f"unsupported schema {obj.get('schema')!r}")
    if obj.get("kind", kind) != kind:
        raise MalformedInput(f"expected kind {kind!r}, got {obj.get('kind')!r}")


def dumps(obj: dict) -> str:
    """Canonical bytes: sorted keys, two-space indent, trailing newline."""
    out: list[str] = []
    _write(obj, 0, out)
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


def _write(o, depth: int, out: list):
    """Append the indented JSON of o at the given nesting depth to out."""
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
        flat = _pair_row(o)
        if flat is not None:
            out.append(_row_template(len(o), depth) % flat)
            return
        inner = "\n" + "  " * (depth + 1)
        out.append("[")
        sep = inner
        for item in o:
            out.append(sep)
            _write(item, depth + 1, out)
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
            _write(value, depth + 1, out)
            sep = "," + inner
        out.append("\n" + "  " * depth + "}")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _pair_row(o) -> tuple | None:
    """The float reprs of a row of finite [re, im] float pairs, else None."""
    if set(map(type, o)) != {list} or set(map(len, o)) != {2}:
        return None
    flat = tuple(chain.from_iterable(o))
    if set(map(type, flat)) != {float} or not all(map(isfinite, flat)):
        return None
    return tuple(map(float.__repr__, flat))


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


class InstanceBundle:
    """A self-contained scenario: algebras, maps, homs, reps, seed, tolerance.

    Objects cross-reference algebras by name.  Loading re-runs every validity
    gate (CP for maps, *-hom checks, representation checks) and rejects the
    bundle with a diagnostic when any fails.
    """

    def __init__(self, seed=0, tolerance=DEFAULT_TOL):
        self.seed = int(seed)
        self.tolerance = tolerance
        self.algebras: dict[str, FdCStarAlgebra] = {}
        self.ocp_maps: dict[str, OcpMap] = {}
        self.star_homs: dict[str, StarHom] = {}
        self.anchored_reps: dict[str, AnchoredRep] = {}

    def _algebra_name(self, algebra: FdCStarAlgebra) -> str:
        for name, existing in self.algebras.items():
            if existing.blocks == algebra.blocks:
                return name
        name = f"A{len(self.algebras)}"
        self.algebras[name] = algebra
        return name

    def add_map(self, name: str, phi: OcpMap):
        self._algebra_name(phi.domain)
        self.ocp_maps[name] = phi

    def add_hom(self, name: str, f: StarHom):
        self._algebra_name(f.source)
        self._algebra_name(f.target)
        self.star_homs[name] = f

    def add_rep(self, name: str, rep: AnchoredRep):
        self._algebra_name(rep.algebra)
        self.anchored_reps[name] = rep

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": "bundle",
            "basis_order": BASIS_ORDER,
            "seed": self.seed,
            "tolerance": encode_tolerance(self.tolerance),
            "algebras": {n: encode_algebra(a) for n, a in sorted(self.algebras.items())},
            "ocp_maps": {
                n: {
                    "domain": self._algebra_name(phi.domain),
                    "k": phi.k,
                    "basis_images": [encode_matrix(m) for m in phi.basis_images],
                }
                for n, phi in sorted(self.ocp_maps.items())
            },
            "star_homs": {
                n: {
                    "source": self._algebra_name(f.source),
                    "target": self._algebra_name(f.target),
                    "basis_images": [encode_element(img) for img in f.basis_images],
                }
                for n, f in sorted(self.star_homs.items())
            },
            "anchored_reps": {
                n: {
                    "algebra": self._algebra_name(rep.algebra),
                    "k": rep.k,
                    "h": rep.h,
                    "pi_images": [encode_matrix(m) for m in rep.pi_images],
                    "V": encode_matrix(rep.V),
                }
                for n, rep in sorted(self.anchored_reps.items())
            },
        }

    @classmethod
    def from_json(cls, obj) -> "InstanceBundle":
        _expect_kind(obj, "bundle")
        try:
            tol = decode_tolerance(obj["tolerance"])
            bundle = cls(seed=int(obj.get("seed", 0)), tolerance=tol)
            for name, payload in obj.get("algebras", {}).items():
                bundle.algebras[name] = decode_algebra(payload)

            def lookup(name):
                if name not in bundle.algebras:
                    raise MalformedInput(f"dangling algebra reference {name!r}")
                return bundle.algebras[name]

            for name, payload in obj.get("ocp_maps", {}).items():
                phi = OcpMap(
                    lookup(payload["domain"]),
                    int(payload["k"]),
                    tuple(decode_matrix(m) for m in payload["basis_images"]),
                )
                report = is_completely_positive(phi, tol)
                if not report.is_cp:
                    raise MalformedInput(
                        f"map {name!r} is not CP: min eigenvalues {report.min_eigenvalues}"
                    )
                bundle.ocp_maps[name] = phi
            for name, payload in obj.get("star_homs", {}).items():
                target = lookup(payload["target"])
                f = StarHom(
                    lookup(payload["source"]),
                    target,
                    tuple(decode_element(target, img) for img in payload["basis_images"]),
                )
                report = check_star_hom(f, tol)
                if not report.ok:
                    raise MalformedInput(
                        f"hom {name!r} fails the gate: {report.residuals}"
                    )
                bundle.star_homs[name] = f
            for name, payload in obj.get("anchored_reps", {}).items():
                rep = AnchoredRep(
                    lookup(payload["algebra"]),
                    int(payload["k"]),
                    int(payload["h"]),
                    tuple(decode_matrix(m) for m in payload["pi_images"]),
                    decode_matrix(payload["V"]),
                )
                report = validate_rep(rep, tol)
                if not report.ok:
                    raise MalformedInput(
                        f"rep {name!r} is not a representation: {report.residuals}"
                    )
                bundle.anchored_reps[name] = rep
        except MalformedInput:
            raise
        except Exception as exc:
            raise MalformedInput(f"bad bundle: {exc}") from exc
        return bundle
