import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dilatory.algebra import AlgebraElement, FdCStarAlgebra, StarHom
from dilatory.cpmap import (
    OcpMap,
    OcpMorphism,
    ad_map,
    apply,
    check_morphism_variants,
    choi_blocks,
    compose_morphisms,
    dagger_morphism,
    identity_morphism,
    is_completely_positive,
    is_ocp_morphism,
    is_unital,
    pullback,
    tracial_map,
)
from dilatory.errors import ShapeMismatch
from dilatory.laws import example_27, example_28
from dilatory.numerics import Tolerance, hermitian_eig, max_abs
from dilatory.randgen import random_cp_map, random_hom, random_unitary, rng_for
from reference import ampliation_apply, matrix_units

TOL = Tolerance()


def unit_star_index(algebra: FdCStarAlgebra, alpha: int) -> int:
    """Index of the adjoint of matrix unit alpha: E_ab* = E_ba."""
    j, a, b = algebra.basis_labels()[alpha]
    return algebra.basis_index(j, b, a)


def rank_psd(m, tol):
    """Spectral rank and PSD test of a Hermitian matrix, as in test_numerics."""
    w, _ = hermitian_eig(m)
    if w.size == 0:
        return 0, True
    lam_max, lam_min = float(w[0]), float(w[-1])
    rank = 0 if lam_max <= tol.eps_rank else int(np.count_nonzero(w > tol.eps_rank * lam_max))
    return rank, lam_min >= -tol.eps_rank * max(lam_max, 1.0)


M2 = FdCStarAlgebra((2,))


def transpose_map(n=2):
    domain = FdCStarAlgebra((n,))
    images = []
    for _, a, b in domain.basis_labels():
        e = np.zeros((n, n), dtype=complex)
        e[b, a] = 1.0
        images.append(e)
    return OcpMap(domain, n, tuple(images))


def test_apply_tracial_unit():
    tau = tracial_map(2, 3)
    np.testing.assert_allclose(apply(tau, tau.domain.unit()), np.eye(3), atol=1e-15)


def test_apply_zero_element():
    tau = tracial_map(2, 2)
    assert max_abs(apply(tau, tau.domain.zero())) == 0.0


def test_apply_linearity_oracle():
    phi = random_cp_map(rng_for(0, 0), (2,), 2)
    units = matrix_units(M2)
    total = units[0] + units[3]  # E_11 + E_22
    direct = apply(phi, total)
    summed = phi.basis_images[0] + phi.basis_images[3]
    assert max_abs(direct - summed) <= 1e-14


def test_ampliation_n1_reduces_to_apply():
    phi = random_cp_map(rng_for(1, 0), (2,), 2)
    e12 = matrix_units(M2)[1]
    out = ampliation_apply(phi, 1, [[e12]])
    assert max_abs(out - apply(phi, e12)) == 0.0


def test_ampliation_transpose_witness():
    # sum E_ij (x) E_ij is PSD but its image under the transpose map is not
    phi = transpose_map(2)
    units = matrix_units(M2)
    grid = [[units[M2.basis_index(0, i, j)] for j in range(2)] for i in range(2)]
    out = ampliation_apply(phi, 2, grid)
    w, _ = hermitian_eig(out)
    assert w[-1] < -0.5


def test_ampliation_tracial_preserves_psd():
    tau = tracial_map(2, 2)
    rng = rng_for(2, 0)
    c = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    psd = c.conj().T @ c  # PSD element of M_2(M_2)
    grid = [
        [
            AlgebraElement(M2, (psd[2 * i : 2 * i + 2, 2 * j : 2 * j + 2],))
            for j in range(2)
        ]
        for i in range(2)
    ]
    out = ampliation_apply(tau, 2, grid)
    _, is_psd = rank_psd(out, TOL)
    assert is_psd


def test_choi_ad_map_rank_one():
    rng = rng_for(3, 0)
    t = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    phi = ad_map(t)
    blocks = choi_blocks(phi)
    assert len(blocks) == 1
    rank, psd = rank_psd(blocks[0], TOL)
    assert (rank, psd) == (1, True)


def test_choi_tracial_delta_pattern():
    # direct evaluation: the aggregated Choi block of tr/m is I_m / m
    for m in (2, 3):
        tau = tracial_map(m, 1)
        blocks = choi_blocks(tau)
        np.testing.assert_allclose(blocks[0], np.eye(m) / m, atol=1e-15)


def test_choi_blocks_match_entry_definition():
    # entry ((a, s), (c, t)) of block j is phi(E^{(j)}_{ac})[s, t]
    phi = random_cp_map(rng_for(5, 0), (2, 1, 3), 2, kraus_rank=2)
    k = phi.k
    for j, (n, block) in enumerate(zip(phi.domain.blocks, choi_blocks(phi))):
        expected = np.zeros((n * k, n * k), dtype=complex)
        for a in range(n):
            for c in range(n):
                img = phi.basis_images[phi.domain.basis_index(j, a, c)]
                expected[a * k : (a + 1) * k, c * k : (c + 1) * k] = img
        np.testing.assert_array_equal(block, expected)


def test_choi_zero_map():
    phi = OcpMap(FdCStarAlgebra((2, 1)), 2, np.zeros((5, 2, 2)))
    for block in choi_blocks(phi):
        assert max_abs(block) == 0.0
        _, psd = rank_psd(block, TOL)
        assert psd


def test_is_cp_ad_maps_and_combinations():
    rng = rng_for(4, 0)
    t = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert is_completely_positive(ad_map(t), TOL).is_cp
    combo = random_cp_map(rng, (2,), 2, kraus_rank=3)
    assert is_completely_positive(combo, TOL).is_cp


def test_is_cp_transpose_fails():
    report = is_completely_positive(transpose_map(2), TOL)
    assert not report.is_cp
    assert report.min_eigenvalues[0] == pytest.approx(-1.0, abs=1e-12)


def test_choi_equals_ampliation_criterion():
    # brute-force equivalence at small dims: CP maps keep PSD grids PSD for
    # n <= 3, and the transpose witness fails at some n <= 3
    rng = rng_for(5, 0)
    tau = random_cp_map(rng, (2,), 2, kraus_rank=2)
    units = matrix_units(M2)
    for n in (1, 2, 3):
        c = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
        psd = c.conj().T @ c
        grid = [
            [
                AlgebraElement(M2, (psd[2 * i : 2 * i + 2, 2 * j : 2 * j + 2],))
                for j in range(n)
            ]
            for i in range(n)
        ]
        out = ampliation_apply(tau, n, grid)
        _, is_psd = rank_psd(out, TOL)
        assert is_psd
    phi = transpose_map(2)
    grid = [[units[M2.basis_index(0, i, j)] for j in range(2)] for i in range(2)]
    w, _ = hermitian_eig(ampliation_apply(phi, 2, grid))
    assert w[-1] < -TOL.eps_rank


def test_is_unital():
    assert is_unital(tracial_map(2, 2), TOL)
    doubled = OcpMap(M2, 2, tuple(2.0 * m for m in tracial_map(2, 2).basis_images))
    assert not is_unital(doubled, TOL)
    # Ad_T is unital whenever T* is an isometry, i.e. T is a co-isometry
    rng = rng_for(6, 0)
    t = random_unitary(rng, 3)[:, :2].conj().T  # 2x3 with T T* = I_2
    assert is_unital(ad_map(t), TOL)


def test_tracial_map_values():
    tau = tracial_map(2, 2)
    np.testing.assert_allclose(apply(tau, tau.domain.unit()), np.eye(2), atol=1e-15)
    e12 = matrix_units(M2)[1]
    assert max_abs(apply(tracial_map(2, 1), e12)) == 0.0
    # composite of tr/m with the unique unital map C -> M_p equals tau
    tr = tracial_map(2, 1)
    composite_images = [complex(img[0, 0]) * np.eye(3) for img in tr.basis_images]
    tau23 = tracial_map(2, 3)
    for built, expected in zip(composite_images, tau23.basis_images):
        assert max_abs(built - expected) <= 1e-15


def test_ad_map_identities():
    ident = ad_map(np.eye(2))
    for img, unit in zip(ident.basis_images, matrix_units(M2)):
        np.testing.assert_array_equal(img, unit.block_data[0])
    rng = rng_for(7, 0)
    s = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    t = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    # Ad_S o Ad_T = Ad_{ST}, Ad_S applied to each image of Ad_T
    lhs = [apply(ad_map(s), AlgebraElement(M2, (img,))) for img in ad_map(t).basis_images]
    for a, b in zip(lhs, ad_map(s @ t).basis_images):
        assert max_abs(a - b) <= 1e-12


def test_ad_of_example_isometry_is_operator_state():
    phi, psi, t = example_27()
    # Ad_{T*} composed with psi gives back phi on the basis
    tstar = t.conj().T
    for img_psi, img_phi in zip(psi.basis_images, phi.basis_images):
        assert max_abs(tstar @ img_psi @ t - img_phi) <= 1e-14


def test_tracial_any_T_is_morphism():
    rng = rng_for(8, 0)
    tau = tracial_map(2, 2)
    sigma = tracial_map(2, 3)
    t = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    ok, res = is_ocp_morphism(t, tau, sigma, TOL)
    assert ok and res <= 1e-14


def test_example_27_morphism_and_variants():
    phi, psi, t = example_27()
    ok, _ = is_ocp_morphism(t, phi, psi, TOL)
    assert ok
    report = check_morphism_variants(t, phi, psi, TOL)
    assert (report.diagram_23, report.diagram_22, report.diagram_24) == (False, True, True)


@settings(deadline=None, max_examples=30)
@given(log_s=st.floats(-12.0, 12.0))
@example(log_s=-12.0)
@example(log_s=12.0)
def test_counterexample_patterns_hold_at_every_scale(log_s):
    # every diagram is homogeneous in (phi, psi), so s phi, s psi keep the pattern
    s = 10.0**log_s
    for (phi, psi, t), pattern in (
        (example_27(), (False, True, True)),
        (example_28(), (False, False, True)),
    ):
        scaled = [OcpMap(m.domain, m.k, s * m.basis_images) for m in (phi, psi)]
        report = check_morphism_variants(t, *scaled, TOL)
        assert (report.diagram_23, report.diagram_22, report.diagram_24) == pattern


def test_example_28_fails_morphism():
    phi, psi, t = example_28()
    ok, res = is_ocp_morphism(t, phi, psi, TOL)
    assert not ok and res >= 0.4
    report = check_morphism_variants(t, phi, psi, TOL)
    assert (report.diagram_23, report.diagram_22, report.diagram_24) == (False, False, True)


def test_variants_unitary_case():
    rng = rng_for(9, 0)
    phi = random_cp_map(rng, (2,), 2)
    u = random_unitary(rng, 2)
    psi = OcpMap(M2, 2, tuple(u @ m @ u.conj().T for m in phi.basis_images))
    report = check_morphism_variants(u, phi, psi, TOL)
    assert report.diagram_23 and report.diagram_22 and report.diagram_24


def test_variants_implication_chain_for_isometries():
    # sampled instances never violate 23 => 22 => 24 when T is an isometry
    rng = rng_for(10, 0)
    for i in range(25):
        phi = random_cp_map(rng, (2,), 2, kraus_rank=2, unital=True)
        k2 = int(rng.integers(2, 4))
        t = random_unitary(rng, k2)[:, :2]
        psi_images = tuple(t @ m @ t.conj().T for m in phi.basis_images)
        psi = OcpMap(M2, k2, psi_images)
        report = check_morphism_variants(t, phi, psi, TOL)
        flags = (report.diagram_23, report.diagram_22, report.diagram_24)
        assert flags not in [(True, False, False), (True, True, False), (True, False, True), (False, True, False)]


def test_pullback_identity_and_functoriality():
    from dilatory.algebra import identity_hom

    rng = rng_for(13, 0)
    phi = random_cp_map(rng, (2,), 2)
    same = pullback(phi, identity_hom(M2), TOL)
    for a, b in zip(same.basis_images, phi.basis_images):
        assert max_abs(a - b) == 0.0

    f = random_hom(rng, FdCStarAlgebra((1, 2)), max_mult=1)
    g = random_hom(rng, f.target, max_mult=1)
    psi = random_cp_map(rng, g.target.blocks, 2)
    from dilatory.algebra import compose_homs

    lhs = pullback(pullback(psi, g, TOL), f, TOL)
    rhs = pullback(psi, compose_homs(g, f), TOL)
    for a, b in zip(lhs.basis_images, rhs.basis_images):
        assert max_abs(a - b) <= 1e-12


def test_pullback_scalar_hom():
    phi = random_cp_map(rng_for(14, 0), (3,), 2, unital=True)
    algebra = FdCStarAlgebra((3,))
    bang = StarHom(FdCStarAlgebra((1,)), algebra, (algebra.unit(),))  # C -> A
    pulled = pullback(phi, bang, TOL)
    np.testing.assert_allclose(pulled.basis_images[0], np.eye(2), atol=1e-12)


def test_cp_maps_are_selfadjoint():
    rng = rng_for(16, 0)
    phi = random_cp_map(rng, (2, 1), 2, kraus_rank=2)
    report = is_completely_positive(phi, TOL)
    assert report.selfadjoint_residual <= TOL.eps_eq


def test_selfadjoint_residual_is_per_unit_definition():
    # a non-Hermitian map: the residual read off the Choi blocks is the
    # per-unit definition max |phi(b)* - phi(b*)|, bit for bit
    rng = rng_for(18, 0)
    domain = FdCStarAlgebra((2, 1, 3))
    images = tuple(
        rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        for _ in range(domain.dim)
    )
    phi = OcpMap(domain, 3, images)
    expected = max(
        max_abs(images[alpha].conj().T - images[unit_star_index(domain, alpha)])
        for alpha in range(domain.dim)
    )
    report = is_completely_positive(phi, TOL)
    assert expected > 0.1
    assert report.selfadjoint_residual == expected
    assert not report.is_cp


def test_dagger_morphism_roundtrip():
    phi, psi, t = example_27()
    m = OcpMorphism(phi, psi, t)
    flipped = dagger_morphism(m, TOL)
    ok, _ = is_ocp_morphism(flipped.T, psi, phi, TOL)
    assert ok
    again = dagger_morphism(flipped, TOL)
    assert max_abs(again.T - t) == 0.0


def test_compose_morphisms_needs_the_middle_map():
    rng = rng_for(18, 0)
    tau, sigma, chi = tracial_map(2, 2), tracial_map(2, 3), tracial_map(2, 4)
    f = OcpMorphism(tau, sigma, rng.standard_normal((3, 2)))
    g = OcpMorphism(sigma, chi, rng.standard_normal((4, 3)))
    # same algebra and k as sigma, another map: g o f' is not a morphism
    other = random_cp_map(rng, (2,), 3, kraus_rank=2)
    f_other = OcpMorphism(tau, other, np.zeros((3, 2)))
    with pytest.raises(ShapeMismatch):
        compose_morphisms(g, f_other)
    copy = OcpMap(sigma.domain, sigma.k, sigma.basis_images.copy())
    composite = compose_morphisms(g, OcpMorphism(tau, copy, f.T))
    assert composite.source is tau and composite.target is chi
    assert np.array_equal(composite.T, g.T @ f.T)


def test_dagger_identity_and_contravariance():
    rng = rng_for(17, 0)
    tau = tracial_map(2, 2)
    sigma = tracial_map(2, 3)
    chi = tracial_map(2, 4)
    ident = identity_morphism(tau)
    assert max_abs(dagger_morphism(ident, TOL).T - np.eye(2)) == 0.0
    f = OcpMorphism(tau, sigma, rng.standard_normal((3, 2)))
    g = OcpMorphism(sigma, chi, rng.standard_normal((4, 3)))
    lhs = dagger_morphism(compose_morphisms(g, f), TOL).T
    rhs = compose_morphisms(dagger_morphism(f, TOL), dagger_morphism(g, TOL)).T
    assert max_abs(lhs - rhs) == 0.0
