"""Stacked basis images: the trust boundary and the loop definitions.

Maps, representations and homomorphisms each hold their basis images as one
array.  The tests here pin where caller data is checked (constructors and the
CLI decoders) and check every stacked computation bit for bit against the
per-image loop it replaced.  The *-hom gate checks the matrix-unit
presentation; the pairwise loop stays here as its reference, and the gate's
docstring bound ties the two together.
"""

import json
import math

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
from reference import pi_apply, representation_hom

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


def _presentation_bound(f: StarHom, residuals) -> float:
    """check_star_hom's docstring bound on the pairwise residual, from the
    presentation's residuals and the largest image norm."""
    images = f.embedded_images()
    side = images.shape[1]
    mu = float(np.linalg.norm(images, 2, axis=(1, 2)).max())
    d = sum(f.source.blocks)
    rho, sigma, eps = (side * residuals[key] for key in ("multiplicative", "star", "unital"))
    c = 1.0 + 2.0 * mu + 2.0 * mu**2
    eta = c * rho + sigma * (mu + 0.5 + sigma / 4.0)
    delta = math.sqrt(mu**2 * eps + mu * (1.0 + (d - 1) * mu) * eta)
    if (d - 2) * delta < 1.0:
        delta = min(delta, (mu**2 * eps + 2.0 * mu * eta) / (1.0 - (d - 2) * delta))
    across = mu**2 * (delta + mu * sigma + sigma**2 / 4.0) + 2.0 * mu**2 * c * rho + (c * rho) ** 2
    return max(c * rho, across if f.source.num_blocks > 1 else 0.0)


def _against_reference(f: StarHom, tol: Tolerance = TOL):
    """check_star_hom and the pairwise loop on f, with what the gate's
    docstring states of the two asserted: the unital and star residuals are
    the same, and the pairwise residual lies in the band from the gate's own
    multiplicative residual to its bound, widened by rounding."""
    report = check_star_hom(f, tol)
    decisions, residuals = _loop_check_star_hom(f, tol)
    slack = 16 * f.embedded_images().shape[1] * np.finfo(float).eps
    assert report.residuals["unital"] == residuals["unital"]
    assert report.residuals["star"] == residuals["star"]
    band = (
        report.residuals["multiplicative"] - slack,
        _presentation_bound(f, report.residuals) + slack,
    )
    assert band[0] <= residuals["multiplicative"] <= band[1]
    return report, decisions, band


def _same_gate(f: StarHom, tol: Tolerance = TOL):
    # the gate checks the presentation, a subset of the loop's pairwise
    # products; no verdict differs on the maps passed here
    report, decisions, _ = _against_reference(f, tol)
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


@settings(deadline=None, max_examples=30)
@given(
    blocks=_blocks,
    k=st.integers(1, 3),
    tilt=st.sampled_from([0.0, 1e-12, 1e-3]),
    seed=st.integers(0, 2**16),
)
def test_validate_rep_gates_the_images_as_held(blocks, k, tilt, seed):
    """validate_rep's report is check_star_hom's on the induced map A -> M_h,
    bit for bit, on canonical, inflated and tilted reps; it builds no
    embedded copy of the images."""
    rng = rng_for(seed, 0)
    cert = stinespring_dilate(random_cp_map(rng, blocks, k, kraus_rank=2), TOL)
    inflated = inflate_rep(rng, cert, [int(x) for x in rng.integers(0, 2, len(blocks))])
    images = inflated.pi_images.copy()
    images[-1] += tilt * complex_gaussian(rng, inflated.h, inflated.h)
    tilted = AnchoredRep(inflated.algebra, k, inflated.h, images, inflated.V)
    copies = []
    real = StarHom.embedded_images
    for rep in (cert.rep, inflated, tilted):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(StarHom, "embedded_images", lambda f: copies.append(f) or real(f))
            got = validate_rep(rep, TOL)
        assert copies == []
        expected = check_star_hom(representation_hom(rep.algebra, rep.pi_images), TOL)
        assert got == expected
        assert [x.hex() for x in got.residuals.values()] == [
            x.hex() for x in expected.residuals.values()
        ]


def test_padding_control_gate_equals_its_loop():
    report = _same_gate(_fake_unital_padding())
    assert report.unital and report.star_preserving and not report.multiplicative
    # P_01 P_10 = E_00 (+) 0 against P_00 = E_00 (+) 1_3 / 2
    assert report.residuals["multiplicative"] == 0.5


# --- the presentation gate against the pairwise reference --------------------


def _tilted(images, algebra: FdCStarAlgebra, theta: float):
    """Block 0's images conjugated by a rotation through theta that tilts a
    vector of range P^0_00 toward one of range P^1_00.  Every relation within
    a block and every adjoint stay exact; only the unit relation sees that
    the blocks are no longer orthogonal."""
    u = np.linalg.eigh(images[0])[1][:, -1]
    v = np.linalg.eigh(images[algebra.basis_index(1, 0, 0)])[1][:, -1]
    v = v - (u.conj() @ v) * u
    v /= np.linalg.norm(v)
    plane = np.outer(u, u.conj()) + np.outer(v, v.conj())
    turn = np.outer(v, u.conj()) - np.outer(u, v.conj())
    w = np.eye(len(u)) + (np.cos(theta) - 1.0) * plane + np.sin(theta) * turn
    n = algebra.blocks[0]
    out = images.copy()
    out[: n * n] = w @ images[: n * n] @ dagger(w)
    return out


def _perturbed(rng, images, algebra: FdCStarAlgebra, kind: str, delta: float):
    """pi plus a perturbation of size delta: an independent Gaussian per
    image, one that keeps pi(a*) = pi(a)* (Hermitian), S pi S^-1 with
    S = 1 + delta X (keeps the products), (1 + delta) pi, or the tilt of
    _tilted through delta."""
    dim, h, _ = images.shape
    if kind == "tilt":
        return _tilted(images, algebra, delta)
    if kind == "similarity":
        s = np.eye(h) + delta * complex_gaussian(rng, h, h)
        return s @ images @ np.linalg.inv(s)
    if kind == "scaling":
        return (1.0 + delta) * images
    g = np.stack([complex_gaussian(rng, h, h) for _ in range(dim)])
    if kind == "hermitian":
        star = [unit_star_index(algebra, alpha) for alpha in range(dim)]
        g = g + np.conj(g[star]).transpose(0, 2, 1)
    return images + delta * g


@settings(deadline=None, max_examples=80)
@given(
    blocks=st.sampled_from([(1,), (2,), (3,), (1, 1), (1, 2), (2, 2), (1, 1, 1), (2, 3)]),
    kind=st.sampled_from(("gaussian", "hermitian", "similarity", "scaling", "tilt", "hom")),
    log_delta=st.floats(-14.0, -3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_presentation_residuals_bound_the_pairwise_gate(blocks, kind, log_delta, seed):
    # the docstring bound holds on perturbed representations and on perturbed
    # homomorphisms into targets of one or two blocks, and outside the band
    # between the presentation's residual and that bound the verdicts agree
    rng = np.random.default_rng(seed)
    algebra = FdCStarAlgebra(blocks)
    delta = 10.0**log_delta
    if kind == "hom":
        f = random_hom(rng, algebra)
        f = StarHom(algebra, f.target, f.matrix + delta * complex_gaussian(rng, *f.matrix.shape))
    else:
        if kind == "tilt" and len(blocks) < 2:
            blocks, algebra = (1, 2), FdCStarAlgebra((1, 2))
        _, _, rep, _ = random_dilation_pair(rng, blocks, 2, TOL, [1] * len(blocks))
        images = _perturbed(rng, rep.pi_images, algebra, kind, delta)
        f = representation_hom(algebra, images)
    report, decisions, (low, high) = _against_reference(f)
    if TOL.within(high) or not TOL.within(low):
        assert report.multiplicative == decisions["multiplicative"]


def test_unit_relation_catches_a_cross_block_tilt():
    # block 0 tilted toward block 1 by 1e-3: within each block the
    # presentation is exact, yet products across the blocks fail
    _, _, rep, _ = random_dilation_pair(rng_for(83, 0), (2, 3), 2, TOL, [1, 1])
    f = representation_hom(rep.algebra, _tilted(rep.pi_images, rep.algebra, 1e-3))
    report, decisions, _ = _against_reference(f)
    assert report.multiplicative and report.star_preserving and not report.unital
    assert not decisions["multiplicative"]
