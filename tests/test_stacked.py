"""Stacked basis images: the trust boundary, the loop definitions, the tracer's names.

Maps, representations and homomorphisms each hold their basis images as one
array.  The tests here pin where caller data is checked (constructors and the
CLI decoders), check every stacked computation bit for bit against the
per-image loop it replaced, and keep the benchmark tracer's function names
resolvable.
"""

import importlib
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dilatory.algebra import (
    AlgebraElement,
    FdCStarAlgebra,
    StarHom,
    check_star_hom,
    compose_homs,
    element_from_coefficients,
    representation_hom,
    unit_product_index,
)
from dilatory.cli import main
from dilatory.cpmap import (
    OcpMap,
    OcpMorphism,
    apply,
    check_morphism_variants,
    is_ocp_morphism,
    pullback,
    tracial_map,
)
from dilatory.dilation import (
    AnchoredRep,
    RepMorphism,
    is_rep_morphism,
    mediating_morphism,
    pi_apply,
    pullback_rep,
    restrict,
    stinespring_dilate,
    validate_rep,
)
from dilatory.errors import ShapeMismatch
from dilatory.geometry import purification_residuals
from dilatory.laws import _fake_unital_padding
from dilatory.numerics import Tolerance, block_diag, dagger, max_abs
from dilatory.randgen import (
    complex_gaussian,
    inflate_rep,
    random_cp_map,
    random_dilation_pair,
    random_hom,
    random_unitary,
    rng_for,
)
from dilatory.serialize import encode_anchored_rep, encode_ocp_map

TOL = Tolerance()


def embed_element(a: AlgebraElement) -> np.ndarray:
    """Block-diagonal embedding into M_N, N the ambient dimension."""
    return block_diag(a.block_data)


def unit_star_index(algebra: FdCStarAlgebra, alpha: int) -> int:
    """Index of the adjoint of matrix unit alpha: E_ab* = E_ba."""
    j, a, b = algebra.basis_labels()[alpha]
    return algebra.basis_index(j, b, a)
BAD = [complex(math.nan, 0.0), complex(0.0, math.inf), complex(-math.inf, 0.0)]
M2 = FdCStarAlgebra((2,))


def _with(m, bad):
    out = np.array(m, dtype=np.complex128)
    out[0, -1] = bad
    return out


def _rep():
    return stinespring_dilate(random_cp_map(rng_for(7, 0), (1, 2), 2), TOL).rep


# --- the trust boundary ----------------------------------------------------


@pytest.mark.parametrize("bad", BAD)
def test_constructors_reject_non_finite_entries(bad):
    phi = tracial_map(2, 2)
    images = [np.array(m) for m in phi.basis_images]
    images[2] = _with(images[2], bad)
    with pytest.raises(ValueError):
        OcpMap(M2, 2, tuple(images))
    rep = _rep()
    pis = [np.array(m) for m in rep.pi_images]
    pis[-1] = _with(pis[-1], bad)
    with pytest.raises(ValueError):
        AnchoredRep(rep.algebra, rep.k, rep.h, tuple(pis), rep.V)
    with pytest.raises(ValueError):
        AnchoredRep(rep.algebra, rep.k, rep.h, rep.pi_images, _with(rep.V, bad))
    with pytest.raises(ValueError):
        AlgebraElement(FdCStarAlgebra((1, 2)), (np.eye(1), _with(np.eye(2), bad)))
    with pytest.raises(ValueError):
        OcpMorphism(phi, phi, _with(np.eye(2), bad))
    with pytest.raises(ValueError):
        RepMorphism(_with(np.eye(2), bad), np.eye(3))
    with pytest.raises(ValueError):
        RepMorphism(np.eye(2), _with(np.eye(3), bad))


def test_constructors_reject_wrong_counts_and_shapes():
    phi = tracial_map(2, 2)
    images = list(phi.basis_images)
    with pytest.raises(ShapeMismatch):
        OcpMap(M2, 2, tuple(images[:-1]))
    with pytest.raises(ShapeMismatch):
        OcpMap(M2, 2, tuple(images + images[:1]))
    with pytest.raises(ShapeMismatch):
        OcpMap(M2, 2, tuple(images[:-1]) + (np.eye(3),))
    with pytest.raises(ShapeMismatch):
        OcpMap(M2, 3, tuple(images))
    rep = _rep()
    pis = list(rep.pi_images)
    with pytest.raises(ShapeMismatch):
        AnchoredRep(rep.algebra, rep.k, rep.h, tuple(pis[1:]), rep.V)
    with pytest.raises(ShapeMismatch):
        AnchoredRep(rep.algebra, rep.k, rep.h, tuple(pis[1:]) + (np.eye(rep.h + 1),), rep.V)
    with pytest.raises(ShapeMismatch):
        AnchoredRep(rep.algebra, rep.k, rep.h + 1, tuple(pis), rep.V)
    with pytest.raises(ShapeMismatch):
        AnchoredRep(rep.algebra, rep.k, rep.h, tuple(pis), rep.V[:-1])
    with pytest.raises(ShapeMismatch):
        AlgebraElement(FdCStarAlgebra((1, 2)), (np.eye(1),))
    with pytest.raises(ShapeMismatch):
        AlgebraElement(FdCStarAlgebra((1, 2)), (np.eye(1), np.eye(3)))
    with pytest.raises(ShapeMismatch):
        OcpMorphism(phi, tracial_map(2, 3), np.eye(2))
    with pytest.raises(ShapeMismatch):
        RepMorphism(np.eye(2)[0], np.eye(3))
    with pytest.raises(ShapeMismatch):
        RepMorphism(np.eye(2), np.ones((2, 3, 3)))


def _spoil(doc: dict, key: str, index: int, bad: str) -> str:
    """The JSON text of doc with one entry of one matrix spelled as bad."""
    matrix = doc[key][index] if isinstance(doc[key], list) else doc[key]
    matrix["entries"][0][0][1] = "@BAD@"
    return json.dumps(doc).replace('"@BAD@"', bad)


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_cli_rejects_non_finite_json_entries(tmp_path, capsys, bad):
    phi = random_cp_map(rng_for(11, 0), (2,), 2)
    path = tmp_path / "phi.json"
    path.write_text(_spoil(encode_ocp_map(phi), "basis_images", 1, bad))
    assert main(["dilate", str(path)]) == 3
    assert "finite" in capsys.readouterr().err

    _, _, rep1, rep2 = random_dilation_pair(rng_for(12, 0), (2,), 2, TOL, [1], [1])
    good = tmp_path / "good.json"
    good.write_text(json.dumps(encode_anchored_rep(rep2)))
    for key, index in (("pi_images", 2), ("V", 0)):
        spoiled = tmp_path / f"{key}.json"
        spoiled.write_text(_spoil(encode_anchored_rep(rep1), key, index, bad))
        assert main(["purify", str(spoiled), str(good)]) == 3
        assert "finite" in capsys.readouterr().err
        assert main(["purify", str(good), str(spoiled)]) == 3
        assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ['"1e0"', "true", "false", "null"])
def test_cli_rejects_json_entries_that_are_not_numbers(tmp_path, capsys, bad):
    phi = random_cp_map(rng_for(11, 0), (2,), 2)
    path = tmp_path / "phi.json"
    path.write_text(_spoil(encode_ocp_map(phi), "basis_images", 1, bad))
    assert main(["dilate", str(path)]) == 3
    assert "not JSON numbers" in capsys.readouterr().err

    _, _, rep1, rep2 = random_dilation_pair(rng_for(12, 0), (2,), 2, TOL, [1], [1])
    good = tmp_path / "good.json"
    good.write_text(json.dumps(encode_anchored_rep(rep2)))
    for key, index in (("pi_images", 2), ("V", 0)):
        spoiled = tmp_path / f"{key}.json"
        spoiled.write_text(_spoil(encode_anchored_rep(rep1), key, index, bad))
        assert main(["purify", str(spoiled), str(good)]) == 3
        assert "not JSON numbers" in capsys.readouterr().err
        assert main(["purify", str(good), str(spoiled)]) == 3
        assert "not JSON numbers" in capsys.readouterr().err


# --- the benchmark tracer's names --------------------------------------------


def test_traced_names_resolve():
    # bench/spans.py installs its wrappers with getattr, so a name that no
    # longer resolves would crash a traced benchmark run instead of a test
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer, names in spans.TRACED.items():
        module = importlib.import_module(f"dilatory.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"dilatory.{layer}.{name}"
    for layer, cls_name, method in spans.TRACED_METHODS:
        cls = getattr(importlib.import_module(f"dilatory.{layer}"), cls_name)
        assert callable(cls.__dict__.get(method)), f"dilatory.{layer}.{cls_name}.{method}"


# --- stacked forms against the per-image loops they replaced ----------------


def _same(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def _loop_extend(coeffs, images):
    out = np.zeros(np.shape(images)[1:], dtype=complex)
    for c, img in zip(coeffs, images):
        if c != 0:
            out += c * img
    return out


def _loop_elements(f: StarHom):
    return [element_from_coefficients(f.target, c) for c in f.matrix.T]


def _loop_hom_apply(f: StarHom, a: AlgebraElement) -> AlgebraElement:
    out = f.target.zero()
    for c, img in zip(a.coefficients(), _loop_elements(f)):
        if c != 0:
            out = out + c * img
    return out


def _loop_check_star_hom(f: StarHom, tol: Tolerance):
    src = f.source
    unit = embed_element(_loop_hom_apply(f, src.unit()))
    unit_res = max_abs(unit - embed_element(f.target.unit()))
    images = [embed_element(img) for img in _loop_elements(f)]
    mult_res = 0.0
    for alpha in range(src.dim):
        for beta in range(src.dim):
            gamma = unit_product_index(src, alpha, beta)
            expected = images[gamma] if gamma is not None else 0.0
            mult_res = max(mult_res, max_abs(images[alpha] @ images[beta] - expected))
    star_res = 0.0
    for alpha in range(src.dim):
        star_res = max(
            star_res, max_abs(dagger(images[alpha]) - images[unit_star_index(src, alpha)])
        )
    residuals = {"unital": unit_res, "multiplicative": mult_res, "star": star_res}
    return {key: value <= tol.eps_eq for key, value in residuals.items()}, residuals


def _same_gate(f: StarHom, tol: Tolerance = TOL):
    report = check_star_hom(f, tol)
    decisions, residuals = _loop_check_star_hom(f, tol)
    assert report.residuals == residuals
    got = {"unital": report.unital, "multiplicative": report.multiplicative,
           "star": report.star_preserving}
    assert got == decisions
    return report


def _sparse_coefficients(rng, dim):
    c = complex_gaussian(rng, dim, 1)[:, 0]
    c[rng.random(dim) < 0.3] = 0.0
    return c


_blocks = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple)


@settings(deadline=None, max_examples=40)
@given(blocks=_blocks, k=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_stacked_forms_equal_their_loops(blocks, k, seed):
    rng = rng_for(seed, 0)
    algebra = FdCStarAlgebra(blocks)
    phi = random_cp_map(rng, blocks, k, kraus_rank=int(rng.integers(1, 3)))
    a = element_from_coefficients(algebra, _sparse_coefficients(rng, algebra.dim))
    _same(apply(phi, a), _loop_extend(a.coefficients(), phi.basis_images))

    cert = stinespring_dilate(phi, TOL)
    rep = inflate_rep(rng, cert, [int(x) for x in rng.integers(0, 2, len(blocks))])
    _same(pi_apply(rep, a), _loop_extend(a.coefficients(), rep.pi_images))
    _same(
        restrict(rep).basis_images,
        np.stack([dagger(rep.V) @ img @ rep.V for img in rep.pi_images]),
    )

    # homomorphisms: apply, composition, pullbacks and the gate; f starts
    # from at most two blocks of at most M_2, so g o f stays small
    f = random_hom(rng, FdCStarAlgebra(tuple(min(n, 2) for n in blocks[:2])), max_mult=1)
    g = random_hom(rng, f.target, max_mult=1)
    for hom in (f, g):
        b = element_from_coefficients(hom.source, _sparse_coefficients(rng, hom.source.dim))
        got, expected = hom.apply(b), _loop_hom_apply(hom, b)
        for x, y in zip(got.block_data, expected.block_data):
            _same(x, y)
    composite = compose_homs(g, f)
    _same(
        composite.matrix,
        np.stack([_loop_hom_apply(g, img).coefficients() for img in _loop_elements(f)], axis=1),
    )
    psi = random_cp_map(rng, g.target.blocks, 1, kraus_rank=1)
    pulled = np.stack(
        [_loop_extend(img.coefficients(), psi.basis_images) for img in _loop_elements(g)]
    )
    _same(pullback(psi, g, TOL).basis_images, pulled)
    top = stinespring_dilate(psi, TOL).rep
    pulled_rep = np.stack(
        [_loop_extend(img.coefficients(), top.pi_images) for img in _loop_elements(g)]
    )
    _same(pullback_rep(top, g).pi_images, pulled_rep)
    for hom in (f, g, composite):
        assert _same_gate(hom).ok
    source = f.source
    _same_gate(StarHom(source, f.target, complex_gaussian(rng, f.target.dim, source.dim)))

    # representations through the gate, as maps into M_h
    assert validate_rep(rep, TOL) == _same_gate(representation_hom(algebra, rep.pi_images))
    broken = rep.pi_images.copy()
    broken[-1] += 1e-3 * complex_gaussian(rng, rep.h, rep.h)
    assert not _same_gate(representation_hom(algebra, broken)).ok

    # intertwiner residuals, on a morphism and on a non-morphism each
    x = random_unitary(rng, k)
    conj = OcpMap(algebra, k, tuple(x @ img @ dagger(x) for img in phi.basis_images))
    for t, target in ((x, conj), (complex_gaussian(rng, k, k), conj), (x, phi)):
        res = 0.0
        r23 = r22 = r24 = 0.0
        for p, q in zip(phi.basis_images, target.basis_images):
            res = max(res, max_abs(t @ p - q @ t))
            r23 = max(r23, max_abs(t @ p @ dagger(t) - q))
            r22 = max(r22, max_abs(t @ p - q @ t))
            r24 = max(r24, max_abs(dagger(t) @ q @ t - p))
        assert is_ocp_morphism(t, phi, target, TOL) == (res <= TOL.eps_eq, res)
        variants = check_morphism_variants(t, phi, target, TOL)
        assert variants.residuals == {"diagram_23": r23, "diagram_22": r22, "diagram_24": r24}
        assert (variants.diagram_23, variants.diagram_22, variants.diagram_24) == tuple(
            r <= TOL.eps_eq for r in (r23, r22, r24)
        )

    med = mediating_morphism(rep, cert=cert)
    junk = RepMorphism(med.T, complex_gaussian(rng, rep.h, cert.rep.h))
    for m in (med, junk):
        inter = 0.0
        for p, q in zip(cert.rep.pi_images, rep.pi_images):
            inter = max(inter, max_abs(m.L @ p - q @ m.L))
        report = is_rep_morphism(m, cert.rep, rep, TOL)
        assert report.residuals["intertwine"] == inter
        others = (report.residuals["squareV"], report.residuals["squareVstar"])
        assert report.ok == (max(inter, *others) <= TOL.eps_eq)
    assert is_rep_morphism(med, cert.rep, rep, TOL).ok

    u = complex_gaussian(rng, rep.h, cert.rep.h)
    inter = 0.0
    for p, q in zip(cert.rep.pi_images, rep.pi_images):
        inter = max(inter, max_abs(u @ p - q @ u))
    assert purification_residuals(u, cert.rep, rep)["intertwine"] == inter


def test_padding_control_gate_equals_its_loop():
    report = _same_gate(_fake_unital_padding())
    assert report.unital and report.star_preserving and not report.multiplicative
