import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dilatory.algebra import (
    FdCStarAlgebra,
    check_star_hom,
    diagonal_units,
)
from dilatory import numerics
from dilatory.cpmap import kraus_map, tracial_map
from dilatory.dilation import (
    AnchoredRep,
    is_rep_morphism,
    mediating_morphism,
    stinespring_dilate,
)
from dilatory.errors import (
    DegenerateDimension,
    DilatoryError,
    NotEquivalent,
    NotExtension,
    NotPartialIsometry,
    NotRepresentation,
    RestrictionMismatch,
    ShapeMismatch,
)
from dilatory.geometry import (
    _verify_purification,
    classify_partial_isometries,
    connecting_morphism,
    extend_partial_isometry,
    is_extension,
    is_intertwining_extension,
    normal_form_general_rep,
    partial_isometry_report,
    purification_residuals,
    purify_partial,
    purify_unitary,
)
from dilatory.numerics import Tolerance, kron, max_abs
from dilatory.randgen import (
    boxplus_rep_images,
    complex_gaussian,
    inflate_rep,
    random_cp_map,
    random_dilation_pair,
    random_unitary,
    rng_for,
)
from reference import matrix_units, representation_hom
from test_stacked import _loop_check_star_hom, _perturbed

TOL = Tolerance()


def random_partial_isometry(rng, rows, cols, rank):
    u = random_unitary(rng, rows)[:, :rank]
    v = random_unitary(rng, cols)[:, :rank]
    return u @ v.conj().T


def test_report_isometry():
    rng = rng_for(50, 0)
    iso = random_unitary(rng, 4)[:, :2]
    report = partial_isometry_report(iso, TOL)
    assert report.is_partial_isometry
    assert report.initial_space_basis.shape == (2, 2)
    # initial space is the full domain
    b = report.initial_space_basis
    assert max_abs(b @ b.conj().T - np.eye(2)) <= 1e-10


def test_report_diag_half():
    report = partial_isometry_report(np.diag([1.0, 0.5]), TOL)
    assert not report.is_partial_isometry
    assert report.residual == pytest.approx(3.0 / 8.0, abs=1e-15)


def test_report_zero():
    report = partial_isometry_report(np.zeros((3, 2)), TOL)
    assert report.is_partial_isometry
    assert report.initial_space_basis.shape == (2, 0)


def test_dual_definition_agreement_bulk():
    # 500 samples, clean and perturbed at scales well away from the cutoff
    count = 0
    for i in range(125):
        rng = rng_for(51, i)
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 6))
        rank = int(rng.integers(0, min(rows, cols) + 1))
        clean = random_partial_isometry(rng, rows, cols, rank)
        tiny = clean + 1e-13 * rng.standard_normal((rows, cols))
        rough = clean + 1e-3 * rng.standard_normal((rows, cols))
        gauss = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        for sample in (clean, tiny, rough, gauss):
            report = partial_isometry_report(sample, TOL)
            assert report.is_partial_isometry == report.restricted_isometry_ok
            count += 1
    assert count == 500


_SAMPLE_KINDS = ("clean", "noisy", "scaled", "zero", "gaussian")


@settings(deadline=None, max_examples=60)
@given(
    specs=st.lists(
        st.tuples(
            st.integers(1, 12), st.integers(1, 12), st.integers(0, 12), st.sampled_from(_SAMPLE_KINDS)
        ),
        min_size=1,
        max_size=12,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_classification_matches_per_matrix_reports(specs, seed):
    """The padded batch decides as the per-matrix reports do, on sides 1-12:
    partial isometries of every rank (0 included), the zero matrix, noisy
    and 1.01-scaled partial isometries and plain Gaussians."""
    rng = np.random.default_rng(seed)
    matrices = []
    for rows, cols, rank, kind in specs:
        clean = random_partial_isometry(rng, rows, cols, min(rank, rows, cols))
        matrices.append(
            {
                "clean": clean,
                "noisy": clean + 1e-3 * rng.standard_normal((rows, cols)),
                "scaled": 1.01 * clean,
                "zero": np.zeros((rows, cols)),
                "gaussian": complex_gaussian(rng, rows, cols),
            }[kind]
        )
    residual, algebraic, restricted = classify_partial_isometries(matrices, TOL)
    # the per-matrix report loop the batch replaced, kept as its reference
    reports = [partial_isometry_report(m, TOL) for m in matrices]
    assert algebraic.tolist() == [r.is_partial_isometry for r in reports]
    assert restricted.tolist() == [r.restricted_isometry_ok for r in reports]
    # padding and batching may move the residual's last bits, never more
    np.testing.assert_allclose(residual, [r.residual for r in reports], rtol=1e-12, atol=1e-14)


def test_batched_classification_of_no_matrices():
    residual, algebraic, restricted = classify_partial_isometries([], TOL)
    assert residual.shape == algebraic.shape == restricted.shape == (0,)


def test_extension_reflexive_and_examples():
    rng = rng_for(52, 0)
    l = random_partial_isometry(rng, 3, 3, 2)
    assert is_extension(l, l, TOL)
    assert is_extension(np.diag([1.0, 0.0]), np.eye(2), TOL)
    e11 = np.diag([1.0, 0.0])
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert not is_extension(e11, swap, TOL)


def test_extension_gates():
    with pytest.raises(NotPartialIsometry):
        is_extension(np.diag([1.0, 0.5]), np.eye(2), TOL)
    with pytest.raises(NotPartialIsometry):
        is_extension(np.eye(2), np.diag([1.0, 0.5]), TOL)


def test_extension_partial_order_properties():
    # antisymmetry at tolerance and transitivity on sampled chains
    for i in range(20):
        rng = rng_for(53, i)
        n = int(rng.integers(2, 5))
        u = random_unitary(rng, n)
        v = random_unitary(rng, n)
        r1 = int(rng.integers(0, n))
        r2 = int(rng.integers(r1, n))
        small = u[:, :r1] @ v[:, :r1].conj().T
        mid = u[:, :r2] @ v[:, :r2].conj().T
        big = u @ v.conj().T
        assert is_extension(small, mid, TOL)
        assert is_extension(mid, big, TOL)
        assert is_extension(small, big, TOL)  # transitivity witness
        if r1 < r2:
            assert not is_extension(mid, small, TOL)  # antisymmetry direction
        # mutual extension forces equality on the union of initial spaces
        assert is_extension(small, small, TOL)


def test_mutual_extension_forces_agreement():
    # antisymmetry at tolerance: L <= M and M <= L imply equality on the
    # union of the initial spaces
    for i in range(10):
        rng = rng_for(74, i)
        n = int(rng.integers(2, 5))
        rank = int(rng.integers(0, n + 1))
        l = random_partial_isometry(rng, n, n, rank)
        m = l.copy()
        if is_extension(l, m, TOL) and is_extension(m, l, TOL):
            bl = partial_isometry_report(l, TOL).initial_space_basis
            bm = partial_isometry_report(m, TOL).initial_space_basis
            union = np.hstack([bl, bm])
            assert max_abs((l - m) @ union) <= 1e-9


def test_intertwining_extension_transitive():
    rng = rng_for(75, 0)
    n, p = 2, 3
    basis = []
    for a in range(n):
        for b in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[a, b] = 1.0
            basis.append(e)
    pi_images = [kron(e, np.eye(p)) for e in basis]
    u = random_unitary(rng, p)
    v = random_unitary(rng, p)
    small = kron(np.eye(n), u[:, :1] @ v[:, :1].conj().T)
    mid = kron(np.eye(n), u[:, :2] @ v[:, :2].conj().T)
    big = kron(np.eye(n), u @ v.conj().T)
    assert is_intertwining_extension(small, mid, pi_images, pi_images, TOL)
    assert is_intertwining_extension(mid, big, pi_images, pi_images, TOL)
    assert is_intertwining_extension(small, big, pi_images, pi_images, TOL)


def test_intertwining_extension_trivial_and_tensor():
    rng = rng_for(54, 0)
    n, p = 2, 3
    basis = []
    for a in range(n):
        for b in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[a, b] = 1.0
            basis.append(e)
    pi_images = [kron(e, np.eye(p)) for e in basis]
    partial = random_partial_isometry(rng, p, p, 1)
    lifted = kron(np.eye(n), partial)
    assert is_intertwining_extension(lifted, lifted, pi_images, pi_images, TOL)
    unit = extend_partial_isometry(partial, TOL)
    assert is_intertwining_extension(lifted, kron(np.eye(n), unit), pi_images, pi_images, TOL)


def test_extension_in_non_commutant_direction_fails_to_intertwine():
    # under A -> A (x) 1_2: extend 1 (x) E11 by swapping the complement
    # vectors ACROSS the tensor factor; a unitary extension, not an intertwiner
    n = p = 2
    basis = []
    for a in range(n):
        for b in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[a, b] = 1.0
            basis.append(e)
    pi_images = [kron(e, np.eye(p)) for e in basis]
    e11 = np.diag([1.0, 0.0]).astype(complex)
    lifted = kron(np.eye(n), e11)  # initial space span{e_i (x) f_1}
    ident = np.eye(4)
    # e_1 (x) f_2 <-> e_2 (x) f_2
    bad = lifted + np.outer(ident[3], ident[1]) + np.outer(ident[1], ident[3])
    assert partial_isometry_report(bad, TOL).is_partial_isometry
    assert is_extension(lifted, bad, TOL)
    assert not is_intertwining_extension(lifted, bad, pi_images, pi_images, TOL)


def test_intertwining_extension_gate():
    e11 = np.diag([1.0, 0.0])
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NotExtension):
        is_intertwining_extension(e11, swap, [np.eye(2)], [np.eye(2)], TOL)


def test_extend_unitary_stays():
    rng = rng_for(55, 0)
    u = random_unitary(rng, 3)
    out = extend_partial_isometry(u, TOL)
    assert max_abs(out - u) <= 1e-10


def test_extend_e11_gives_identity():
    out = extend_partial_isometry(np.diag([1.0, 0.0]), TOL)
    np.testing.assert_allclose(out, np.eye(2), atol=1e-12)


def test_extend_shapes():
    rng = rng_for(56, 0)
    tall = random_partial_isometry(rng, 3, 2, 1)
    out = extend_partial_isometry(tall, TOL)
    assert max_abs(out.conj().T @ out - np.eye(2)) <= 1e-10  # isometry
    assert is_extension(tall, out, TOL)

    wide = random_partial_isometry(rng, 2, 3, 1)
    out_w = extend_partial_isometry(wide, TOL)
    assert max_abs(out_w @ out_w.conj().T - np.eye(2)) <= 1e-10  # co-isometry
    assert is_extension(wide, out_w, TOL)

    square = random_partial_isometry(rng, 3, 3, 2)
    out_s = extend_partial_isometry(square, TOL)
    assert max_abs(out_s @ out_s.conj().T - np.eye(3)) <= 1e-10
    assert max_abs(out_s.conj().T @ out_s - np.eye(3)) <= 1e-10


def test_extend_gate():
    with pytest.raises(NotPartialIsometry):
        extend_partial_isometry(np.diag([1.0, 0.5]), TOL)


def test_kron_preserves_partial_isometry_both_ways():
    for i in range(100):
        rng = rng_for(57, i)
        rows = int(rng.integers(1, 4))
        cols = int(rng.integers(1, 4))
        rank = int(rng.integers(0, min(rows, cols) + 1))
        l = random_partial_isometry(rng, rows, cols, rank)
        m = int(rng.integers(1, 4))
        assert partial_isometry_report(kron(np.eye(m), l), TOL).is_partial_isometry
        bad = l + 0.05 * rng.standard_normal((rows, cols))
        if not partial_isometry_report(bad, TOL).is_partial_isometry:
            assert not partial_isometry_report(kron(np.eye(m), bad), TOL).is_partial_isometry


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_partial_isometry_kron_property(rows, cols, m, seed):
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(0, min(rows, cols) + 1))
    u = random_unitary(rng, rows)[:, :rank]
    v = random_unitary(rng, cols)[:, :rank]
    sample = u @ v.conj().T
    assert partial_isometry_report(sample, TOL).is_partial_isometry
    assert partial_isometry_report(kron(np.eye(m), sample), TOL).is_partial_isometry
    extended = extend_partial_isometry(sample, TOL)
    assert is_extension(sample, extended, TOL)


def test_composite_of_partial_isometries_can_fail():
    p = np.array([[1.0, 0.0], [0.0, 0.0]])
    q = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
    assert partial_isometry_report(p, TOL).is_partial_isometry
    assert partial_isometry_report(q, TOL).is_partial_isometry
    composite = partial_isometry_report(p @ q, TOL)
    assert not composite.is_partial_isometry
    assert composite.residual >= 1e-3


def test_normal_form_identity_rep():
    n = 3
    units = [e.block_data[0] for e in matrix_units(FdCStarAlgebra((n,)))]
    (p,), r = normal_form_general_rep(units, FdCStarAlgebra((n,)), TOL)
    assert p == 1
    np.testing.assert_allclose(r, np.eye(n), atol=1e-12)


def test_normal_form_tensor_rep():
    n, mult = 2, 2
    units = [kron(e.block_data[0], np.eye(mult)) for e in matrix_units(FdCStarAlgebra((n,)))]
    (p,), r = normal_form_general_rep(units, FdCStarAlgebra((n,)), TOL)
    assert p == mult
    np.testing.assert_allclose(r, np.eye(n * mult), atol=1e-12)


def test_normal_form_conjugated_roundtrip():
    rng = rng_for(59, 0)
    n, mult = 2, 3
    x = random_unitary(rng, n * mult)
    units = [
        x @ kron(e.block_data[0], np.eye(mult)) @ x.conj().T
        for e in matrix_units(FdCStarAlgebra((n,)))
    ]
    (p,), r = normal_form_general_rep(units, FdCStarAlgebra((n,)), TOL)
    assert p == mult
    for e, img in zip(matrix_units(FdCStarAlgebra((n,))), units):
        target = kron(e.block_data[0], np.eye(mult))
        assert max_abs(r @ img @ r.conj().T - target) <= 1e-10


def test_normal_form_rejects_non_rep():
    units = [e.block_data[0] for e in matrix_units(FdCStarAlgebra((2,)))]
    broken = [u.copy() for u in units]
    broken[1] = 0.5 * broken[1]
    with pytest.raises(NotRepresentation):
        normal_form_general_rep(broken, FdCStarAlgebra((2,)), TOL)


def test_normal_form_general_identity_blocks():
    algebra = FdCStarAlgebra((2, 3))
    images = boxplus_rep_images(algebra, (1, 1))
    mults, r = normal_form_general_rep(images, algebra, TOL)
    assert mults == (1, 1)
    assert max_abs(r @ r.conj().T - np.eye(5)) <= 1e-10


def test_normal_form_general_killed_block():
    algebra = FdCStarAlgebra((2, 3))
    images = boxplus_rep_images(algebra, (2, 0))
    mults, r = normal_form_general_rep(images, algebra, TOL)
    assert mults == (2, 0)


def test_normal_form_general_conjugated_pattern():
    rng = rng_for(60, 0)
    algebra = FdCStarAlgebra((2, 1))
    pattern = (2, 1)
    images = boxplus_rep_images(algebra, pattern)
    h = sum(n * c for n, c in zip(algebra.blocks, pattern))
    x = random_unitary(rng, h)
    images = [x @ img @ x.conj().T for img in images]
    mults, r = normal_form_general_rep(images, algebra, TOL)
    assert mults == pattern
    for img, ref in zip(images, boxplus_rep_images(algebra, pattern)):
        assert max_abs(r @ img @ r.conj().T - ref) <= 1e-10


def test_connecting_morphism_same_rep_is_identity():
    rng = rng_for(61, 0)
    phi = random_cp_map(rng, (2,), 2, kraus_rank=2)
    cert = stinespring_dilate(phi, TOL)
    link = connecting_morphism(cert.rep, cert.rep, TOL)
    assert max_abs(link.L - np.eye(cert.dimension)) <= 1e-10


def test_connecting_morphism_between_inflations():
    rng = rng_for(62, 0)
    phi, cert, rep1, rep2 = random_dilation_pair(rng, (2,), 2, TOL, extra1=[1], extra2=[2])
    link = connecting_morphism(rep1, rep2, TOL)
    report = partial_isometry_report(link.L, TOL)
    assert report.is_partial_isometry
    assert report.initial_space_basis.shape[1] == cert.dimension  # rank d
    assert is_rep_morphism(link, rep1, rep2, TOL).ok


def test_connecting_morphism_conjugated_minimal_part():
    rng = rng_for(63, 0)
    phi = random_cp_map(rng, (2,), 2, kraus_rank=2)
    cert = stinespring_dilate(phi, TOL)
    x = random_unitary(rng, cert.dimension)
    rep2 = AnchoredRep(
        cert.rep.algebra,
        cert.rep.k,
        cert.rep.h,
        tuple(x @ img @ x.conj().T for img in cert.rep.pi_images),
        x @ cert.rep.V,
    )
    link = connecting_morphism(cert.rep, rep2, TOL)
    assert max_abs(link.L - x) <= 1e-9


def test_connecting_morphism_uniqueness_on_initial_space():
    # any other valid (id, M) agrees with L on the reachable subspace of rep1
    rng = rng_for(64, 0)
    phi, cert, rep1, rep2 = random_dilation_pair(rng, (2,), 2, TOL, extra1=[1], extra2=[1])
    link = connecting_morphism(rep1, rep2, TOL)
    u = purify_unitary(rep1, rep2, TOL)
    basis = partial_isometry_report(link.L, TOL).initial_space_basis
    proj = basis @ basis.conj().T
    assert max_abs((u - link.L) @ proj) <= 1e-8


def test_connecting_gate_restriction_mismatch():
    rng = rng_for(65, 0)
    phi1 = random_cp_map(rng, (2,), 2, kraus_rank=2)
    phi2 = random_cp_map(rng, (2,), 2, kraus_rank=2)
    c1 = stinespring_dilate(phi1, TOL)
    c2 = stinespring_dilate(phi2, TOL)
    with pytest.raises(RestrictionMismatch):
        connecting_morphism(c1.rep, c2.rep, TOL)


def test_purify_unitary_conjugated_instance():
    rng = rng_for(66, 0)
    phi, cert, rep1, _ = random_dilation_pair(rng, (2,), 2, TOL, extra1=[1], extra2=[0])
    x = random_unitary(rng, rep1.h)
    rep2 = AnchoredRep(
        rep1.algebra,
        rep1.k,
        rep1.h,
        tuple(x @ img @ x.conj().T for img in rep1.pi_images),
        x @ rep1.V,
    )
    u = purify_unitary(rep1, rep2, TOL)
    res = purification_residuals(u, rep1, rep2)
    assert max(res.values()) <= 1e-9


def test_purify_unitary_identical_reps():
    rng = rng_for(67, 0)
    phi, cert, rep1, _ = random_dilation_pair(rng, (1, 2), 2, TOL, extra1=[0, 1], extra2=[0, 0])
    u = purify_unitary(rep1, rep1, TOL)
    res = purification_residuals(u, rep1, rep1)
    assert max(res.values()) <= 1e-9


def test_purify_unitary_gns_trace_pair():
    rng = rng_for(68, 0)
    omega = tracial_map(2, 1)
    cert = stinespring_dilate(omega, TOL)
    rep1 = cert.rep
    x = random_unitary(rng, cert.dimension)
    rep2 = AnchoredRep(
        rep1.algebra,
        1,
        rep1.h,
        tuple(x @ img @ x.conj().T for img in rep1.pi_images),
        x @ rep1.V,
    )
    u = purify_unitary(rep1, rep2, TOL)
    res = purification_residuals(u, rep1, rep2)
    assert max(res.values()) <= 1e-9


def test_purify_unitary_rejects_inequivalent():
    rng = rng_for(69, 0)
    phi, cert, rep1, rep2 = random_dilation_pair(rng, (2,), 2, TOL, extra1=[0], extra2=[1])
    with pytest.raises(NotEquivalent):
        purify_unitary(rep1, rep2, TOL)


def test_purify_refuses_the_zero_map():
    # anchors at 0 restrict to the zero map, which has no dilation
    _, _, rep1, rep2 = random_dilation_pair(rng_for(77, 0), (1, 2), 2, TOL, [1, 0], [1, 0])
    zero1, zero2 = _scaled(rep1, 0.0), _scaled(rep2, 0.0)
    for purify in (purify_unitary, purify_partial, connecting_morphism):
        with pytest.raises(DegenerateDimension):
            purify(zero1, zero2, TOL)


def test_purify_partial_equal_multiplicities_reduces():
    rng = rng_for(70, 0)
    phi, cert, rep1, rep2 = random_dilation_pair(rng, (2,), 2, TOL, extra1=[1], extra2=[1])
    u, label = purify_partial(rep1, rep2, TOL)
    assert label == "unitary"
    res = purification_residuals(u, rep1, rep2)
    assert max(res.values()) <= 1e-9


def test_purify_partial_mixed_witness():
    # multiplicity surplus changes sign across the two blocks
    rng = rng_for(71, 0)
    phi, cert, rep1, rep2 = random_dilation_pair(
        rng, (1, 2), 1, TOL, extra1=[2, 0], extra2=[0, 2]
    )
    u, label = purify_partial(rep1, rep2, TOL)
    assert label == "mixed"
    res = purification_residuals(u, rep1, rep2)
    assert res["anchor"] <= 1e-8
    assert res["intertwine"] <= 1e-8
    # neither an isometry nor a co-isometry
    assert res["isometry_defect"] > 1e-3
    assert res["coisometry_defect"] > 1e-3
    # yet a partial isometry extending the connecting morphism
    assert partial_isometry_report(u, TOL).is_partial_isometry
    link = connecting_morphism(rep1, rep2, TOL)
    assert is_extension(link.L, u, TOL)
    assert is_intertwining_extension(
        link.L, u, list(rep1.pi_images), list(rep2.pi_images), TOL
    )


def test_purify_partial_minimal_vs_inflated_is_isometry():
    rng = rng_for(72, 0)
    phi, cert, rep1, rep2 = random_dilation_pair(rng, (2,), 2, TOL, extra1=[0], extra2=[1])
    u, label = purify_partial(rep1, rep2, TOL)
    assert label == "isometry"
    assert max_abs(u.conj().T @ u - np.eye(rep1.h)) <= 1e-9


# the identities each purification label promises, as residual names
_LABEL_IDENTITIES = {
    "unitary": ("isometry_defect", "coisometry_defect"),
    "isometry": ("isometry_defect",),
    "co-isometry": ("coisometry_defect",),
    "mixed": (),
}


@settings(deadline=None, max_examples=60)
@given(
    blocks=st.sampled_from([(1,), (2,), (3,), (1, 2), (2, 3), (1, 1, 2)]),
    k=st.integers(1, 3),
    junk=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=3, max_size=3),
    killed=st.integers(-1, 2),
    log_s=st.floats(-12.0, 12.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_purify_outputs_extend_connecting_morphism(blocks, k, junk, killed, log_s, seed):
    # the connecting morphism, built from a fresh dilation and two mediating
    # morphisms, is the reference: the U read off the normal forms extends it
    # and satisfies the identities its label names.  On a multi-block algebra
    # the map may kill one block, which then carries junk only (or nothing).
    rng = np.random.default_rng(seed)
    extra1, extra2 = (list(side[: len(blocks)]) for side in zip(*junk))
    dead = [j == killed and len(blocks) > 1 for j in range(len(blocks))]
    families = [
        [(0.0 if d else 1.0) * complex_gaussian(rng, k, n) for _ in range(2)]
        for n, d in zip(blocks, dead)
    ]
    cert = stinespring_dilate(kraus_map(families, FdCStarAlgebra(blocks), k), TOL)
    rep1, rep2 = (_scaled(inflate_rep(rng, cert, e), 10.0**log_s) for e in (extra1, extra2))
    u, label = purify_partial(rep1, rep2, TOL)
    link = connecting_morphism(rep1, rep2, TOL)
    assert is_intertwining_extension(
        link.L, u, list(rep1.pi_images), list(rep2.pi_images), TOL
    )
    res = purification_residuals(u, rep1, rep2)
    for name in _LABEL_IDENTITIES[label]:
        assert res[name] <= 1e-9, name
    if extra1 == extra2:
        assert label == "unitary"


def test_purification_self_check_verifies_the_label():
    # U' = U (1 + P1), P1 the projection onto rep1's unreachable part,
    # intertwines and carries V to W, but U'* U' = 1 + 3 P1: not an isometry
    rng = rng_for(76, 0)
    _, cert, rep1, rep2 = random_dilation_pair(rng, (2, 1), 2, TOL, [1, 0], [2, 0])
    u, label = purify_partial(rep1, rep2, TOL)
    assert label == "isometry"
    m = mediating_morphism(rep1, cert=cert).L
    bad = u @ (2.0 * np.eye(rep1.h) - m @ m.conj().T)
    res = purification_residuals(bad, rep1, rep2)
    assert res["intertwine"] <= 1e-9 and res["anchor"] <= 1e-9
    assert res["isometry_defect"] > 1.0
    _verify_purification(u, rep1, rep2, TOL, require_unitary=False, label="isometry")
    with pytest.raises(DilatoryError, match="not isometry") as refused:
        _verify_purification(bad, rep1, rep2, TOL, require_unitary=False, label="isometry")
    assert not isinstance(refused.value, NotEquivalent)
    # a "mixed" U must be a partial isometry, U U* U = U; U' is not one
    _verify_purification(u, rep1, rep2, TOL, require_unitary=False, label="mixed")
    with pytest.raises(DilatoryError, match="not mixed") as refused:
        _verify_purification(bad, rep1, rep2, TOL, require_unitary=False, label="mixed")
    assert not isinstance(refused.value, NotEquivalent)
    # a unitary label is checked with and without the flag
    _, _, rep3, rep4 = random_dilation_pair(rng, (2, 1), 2, TOL, [1, 0], [1, 0])
    u34 = purify_unitary(rep3, rep4, TOL)
    m3 = connecting_morphism(rep3, rep3, TOL).L
    bad34 = u34 @ (2.0 * np.eye(rep3.h) - m3)
    with pytest.raises(NotEquivalent):
        _verify_purification(bad34, rep3, rep4, TOL, require_unitary=True)
    with pytest.raises(DilatoryError, match="not unitary"):
        _verify_purification(bad34, rep3, rep4, TOL, require_unitary=False)


def test_normal_form_general_rejects_malformed_images():
    algebra = FdCStarAlgebra((1, 2))
    images = boxplus_rep_images(algebra, (1, 1))
    wrong_shape = list(images)
    wrong_shape[2] = np.zeros((3, 4))
    with pytest.raises(ShapeMismatch):
        normal_form_general_rep(wrong_shape, algebra, TOL)
    empty = [np.zeros((0, 0))] * algebra.dim
    with pytest.raises(DegenerateDimension):
        normal_form_general_rep(empty, algebra, TOL)
    broken = list(images)
    broken[1] = 0.5 * broken[1]
    with pytest.raises(NotRepresentation):
        normal_form_general_rep(broken, algebra, TOL)
    skew = list(images)
    skew[0] = skew[0] + 1e-3 * np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
    with pytest.raises(NotRepresentation):
        normal_form_general_rep(skew, algebra, TOL)


def test_normal_form_one_eigensolve_per_block(monkeypatch):
    rng = rng_for(69, 0)
    algebra = FdCStarAlgebra((2, 3, 1))
    x = random_unitary(rng, 7)
    images = x @ boxplus_rep_images(algebra, (2, 0, 3)) @ x.conj().T
    calls = []
    eig = numerics.hermitian_eig
    monkeypatch.setattr(numerics, "hermitian_eig", lambda m: calls.append(1) or eig(m))
    mults, _ = normal_form_general_rep(images, algebra, TOL)
    assert mults == (2, 0, 3)
    assert len(calls) == algebra.num_blocks


def _inflated_images(rng, algebra, k):
    """Images of an inflated dilation; some blocks are killed by the map and
    stay killed unless the junk summand revives them."""
    killed = [bool(rng.integers(0, 2)) for _ in algebra.blocks]
    killed[int(rng.integers(0, algebra.num_blocks))] = False
    families = [
        [(0.0 if dead else 1.0) * complex_gaussian(rng, k, n) for _ in range(2)]
        for n, dead in zip(algebra.blocks, killed)
    ]
    cert = stinespring_dilate(kraus_map(families, algebra, k), TOL)
    extra = [int(rng.integers(0, 2)) for _ in algebra.blocks]
    dead = tuple(d and not e for d, e in zip(killed, extra))
    return inflate_rep(rng, cert, extra).pi_images, dead


def _direct_sum(a, b):
    h1, h2 = a.shape[1], b.shape[1]
    out = np.zeros((len(a), h1 + h2, h1 + h2), dtype=np.complex128)
    out[:, :h1, :h1] = a
    out[:, h1:, h1:] = b
    return out


@settings(deadline=None, max_examples=30)
@given(
    blocks=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_normal_form_metamorphic(blocks, k, seed):
    rng = np.random.default_rng(seed)
    algebra = FdCStarAlgebra(tuple(blocks))
    images, dead = _inflated_images(rng, algebra, k)
    mults, r = normal_form_general_rep(images, algebra, TOL)
    assert tuple(c == 0 for c in mults) == dead
    h = images.shape[1]
    assert max_abs(r @ r.conj().T - np.eye(h)) <= 1e-10
    assert max_abs(r.conj().T @ r - np.eye(h)) <= 1e-10
    assert max_abs(r @ images @ r.conj().T - boxplus_rep_images(algebra, mults)) <= 1e-10
    # invariant under a change of basis
    x = random_unitary(rng, h)
    assert normal_form_general_rep(x @ images @ x.conj().T, algebra, TOL)[0] == mults
    # additive under direct sums
    other, _ = _inflated_images(rng, algebra, k)
    other_mults, _ = normal_form_general_rep(other, algebra, TOL)
    summed, _ = normal_form_general_rep(_direct_sum(images, other), algebra, TOL)
    assert summed == tuple(a + b for a, b in zip(mults, other_mults))


def _scaled(rep, s):
    return AnchoredRep(rep.algebra, rep.k, rep.h, rep.pi_images, np.sqrt(s) * rep.V)


@settings(deadline=None, max_examples=30)
@given(
    blocks=st.sampled_from([(2, 3), (2,), (1, 2), (3,)]),
    log_s=st.floats(-12.0, 12.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_purify_decision_is_scale_free(blocks, log_s, seed):
    # both anchors scaled by sqrt(s): the restrictions scale by s
    rng = np.random.default_rng(seed)
    s = 10.0**log_s
    junk = [1] * len(blocks)
    _, _, rep1, rep2 = random_dilation_pair(rng, blocks, 3, TOL, extra1=junk, extra2=junk)
    _, _, other, _ = random_dilation_pair(rng, blocks, 3, TOL, extra1=junk)
    rep1, rep2, other = _scaled(rep1, s), _scaled(rep2, s), _scaled(other, s)
    u = purify_unitary(rep1, rep2, TOL)
    assert max_abs(u @ u.conj().T - np.eye(rep1.h)) <= 1e-8
    with pytest.raises(RestrictionMismatch):
        purify_unitary(rep1, other, TOL)


@settings(deadline=None, max_examples=20)
@given(
    blocks=st.sampled_from([(2, 3), (2,), (1, 2), (3,)]),
    log_s=st.floats(12.0, 24.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_purification_self_check_is_scale_free_at_large_scales(blocks, log_s, seed):
    # the anchor residual |U V - W| grows with sqrt(s); the self-check weighs it
    # against the anchors, so valid pairs purify and a wrong U is still refused
    rng = np.random.default_rng(seed)
    s = 10.0**log_s
    junk = [1] * len(blocks)
    _, _, rep1, rep2 = random_dilation_pair(rng, blocks, 3, TOL, extra1=junk, extra2=junk)
    rep1, rep2 = _scaled(rep1, s), _scaled(rep2, s)
    u = purify_unitary(rep1, rep2, TOL)
    assert max_abs(u @ u.conj().T - np.eye(rep1.h)) <= 1e-8
    u_partial, label = purify_partial(rep1, rep2, TOL)
    assert label == "unitary"
    _verify_purification(u_partial, rep1, rep2, TOL, require_unitary=True)
    with pytest.raises(DilatoryError):
        _verify_purification(1.01 * u, rep1, rep2, TOL, require_unitary=False)
    with pytest.raises(DilatoryError):
        _verify_purification(1.01 * u, rep1, rep2, TOL, require_unitary=True)


def test_normal_form_refuses_a_skew_unit_image_as_not_a_representation():
    # max|pi(E_00)| is 0.405, so a skew part that check_star_hom passes
    # (star residual 8e-10 <= eps_eq) fails the normal form's symmetry test,
    # which is relative to the largest entry
    rng = rng_for(5, 0)
    _, _, rep, _ = random_dilation_pair(rng, (2, 3), 2, TOL, [1, 1], [0, 0])
    g = complex_gaussian(rng, 15, 15)
    skew = g - g.conj().T
    images = rep.pi_images.copy()
    images[0] += 4e-10 * skew / max_abs(skew)
    assert check_star_hom(representation_hom(rep.algebra, images), TOL).ok
    with pytest.raises(NotRepresentation):
        normal_form_general_rep(images, rep.algebra, TOL)


@pytest.mark.parametrize("eps_eq", [1e-9, 1e-6])
def test_normal_form_symmetry_gate_sits_at_eps_eq_times_the_largest_entry(eps_eq):
    # P = pi(E_00) = E_00 (x) 1_2 has max|P| = 1; P + d (E_01 - E_10) has
    # max|P - P*| = 2 d exactly and the same Hermitian part, so the threshold
    # of the symmetry test is d = eps_eq / 2, and the normal form and unit
    # residuals (about d) pass on either side of it
    tol = Tolerance(eps_eq=eps_eq)
    algebra = FdCStarAlgebra((2, 1))
    images = boxplus_rep_images(algebra, (2, 1))
    skew = np.zeros_like(images[0])
    skew[0, 1], skew[1, 0] = 1.0, -1.0
    for factor, accepted in ((1.0 - 1e-6, True), (1.0 + 1e-6, False)):
        tilted = images.copy()
        tilted[0] += 0.5 * eps_eq * factor * skew
        if accepted:
            assert normal_form_general_rep(tilted, algebra, tol)[0] == (2, 1)
        else:
            with pytest.raises(NotRepresentation, match="not Hermitian"):
                normal_form_general_rep(tilted, algebra, tol)


def _spy(monkeypatch, module, name) -> list:
    """Record the calls of module.name, wherever a dilatory module bound it."""
    calls, real = [], getattr(module, name)

    def spied(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spied)
    for other in list(sys.modules.values()):
        if other.__name__.startswith("dilatory") and getattr(other, name, None) is real:
            monkeypatch.setattr(other, name, spied)
    return calls


def test_normal_form_and_purification_run_no_star_hom_gate(monkeypatch):
    import dilatory.algebra

    gated = _spy(monkeypatch, dilatory.algebra, "check_star_hom")
    _, _, rep1, rep2 = random_dilation_pair(rng_for(80, 0), (2, 3), 2, TOL, [1, 0], [1, 0])
    _, _, rep3, _ = random_dilation_pair(rng_for(80, 1), (2, 3), 2, TOL, [0, 1])
    normal_form_general_rep(rep1.pi_images, rep1.algebra, TOL)
    purify_unitary(rep1, rep2, TOL)
    purify_partial(rep1, rep2, TOL)
    with pytest.raises(NotRepresentation):
        normal_form_general_rep(1.001 * rep3.pi_images, rep3.algebra, TOL)
    assert gated == []


def test_purification_builds_no_dilation(monkeypatch):
    # U is read off the normal forms: one SVD per block both dilations
    # reach, and no dilation, mediating morphism or connecting morphism
    import dilatory.dilation
    import dilatory.geometry

    _, _, rep1, rep2 = random_dilation_pair(rng_for(80, 2), (2, 3, 1), 2, TOL, [1, 0, 0], [2, 0, 1])
    spied = [
        (dilatory.dilation, "stinespring_dilate"),
        (dilatory.dilation, "mediating_morphism"),
        (dilatory.geometry, "connecting_morphism"),
        (numerics, "svd"),
    ]
    calls = {name: _spy(monkeypatch, module, name) for module, name in spied}
    assert purify_partial(rep1, rep2, TOL)[1] == "isometry"
    assert {name: len(c) for name, c in calls.items()} == {
        "stinespring_dilate": 0,
        "mediating_morphism": 0,
        "connecting_morphism": 0,
        "svd": 3,
    }


def test_extension_takes_one_svd(monkeypatch):
    full = _spy(monkeypatch, numerics, "svd")
    right = _spy(monkeypatch, numerics, "right_singular")
    rng = rng_for(81, 0)
    for rows, cols, rank in ((3, 3, 2), (4, 2, 1), (2, 5, 2)):
        l = random_partial_isometry(rng, rows, cols, rank)
        out = extend_partial_isometry(l, TOL)
        assert (len(full), len(right)) == (1, 0)
        assert is_extension(l, out, TOL)
        full.clear()
        right.clear()
    with pytest.raises(NotPartialIsometry, match="residual 3.750e-01"):
        extend_partial_isometry(np.diag([1.0, 0.5]), TOL)
    assert (len(full), len(right)) == (1, 0)


def test_is_extension_takes_one_svd(monkeypatch):
    # only L's initial space needs singular vectors; M is decided by its residual
    right = _spy(monkeypatch, numerics, "right_singular")
    rng = rng_for(82, 0)
    for rows, cols, rank in ((3, 3, 2), (4, 2, 1), (2, 5, 2)):
        l = random_partial_isometry(rng, rows, cols, rank)
        assert is_extension(l, extend_partial_isometry(l, TOL), TOL)
    assert len(right) == 3


PERTURBATIONS = ("gaussian", "hermitian", "similarity", "scaling")


def _gate_bounds(e, e1, h, d):
    """normal_form_general_rep's docstring bounds on the pairwise *-hom
    check's residuals, from the normal form residual e and the unit residual e1."""
    f = h * (d * e + e1) / (1.0 - h * e1)
    he = h * e
    return {
        "unital": e1,
        "star": 2.0 * he / (1.0 - f),
        "multiplicative": (3.0 * he + he**2 + (1.0 + he) ** 2 * f / (1.0 - f)) / (1.0 - f),
    }


@settings(deadline=None, max_examples=80)
@given(
    blocks=st.sampled_from([(1,), (2,), (3,), (4,), (5,), (1, 1), (1, 2), (2, 2), (2, 3)]),
    junk=st.lists(st.integers(0, 1), min_size=2, max_size=2),
    kind=st.sampled_from(PERTURBATIONS),
    log_delta=st.floats(-13.0, -5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_normal_form_acceptance_bounds_the_star_hom_gate(blocks, junk, kind, log_delta, seed):
    # the pairwise *-hom check is the reference: whatever the normal form
    # accepts, its residuals are within the bounds of the docstring (plus
    # rounding); check_star_hom's own multiplicative residual is smaller
    rng = np.random.default_rng(seed)
    _, _, rep, _ = random_dilation_pair(rng, blocks, 2, TOL, junk[: len(blocks)])
    algebra = rep.algebra
    images = _perturbed(rng, rep.pi_images, algebra, kind, 10.0**log_delta)
    try:
        mults, r = normal_form_general_rep(images, algebra, TOL)
    except NotRepresentation:
        return
    h = images.shape[1]
    e = max_abs(r @ images @ r.conj().T - boxplus_rep_images(algebra, mults))
    e1 = max_abs(sum(images[i] for i in diagonal_units(algebra)) - np.eye(h))
    bounds = _gate_bounds(e, e1, h, sum(algebra.blocks))
    residuals = _loop_check_star_hom(representation_hom(algebra, images), TOL)[1]
    for name, bound in bounds.items():
        assert residuals[name] <= bound + 16 * h * np.finfo(float).eps, name


def _off_diagonal_scaled(rng, images):
    out = images.copy()
    out[1] *= 0.5  # E_01 of the (2, 3) algebra's first block
    return out


def _skew_unit(rng, images):
    g = complex_gaussian(rng, images.shape[1], images.shape[1])
    out = images.copy()
    out[0] += 1e-3 * (g - g.conj().T)
    return out


@pytest.mark.parametrize(
    "breaks",
    [
        _off_diagonal_scaled,
        lambda rng, images: _perturbed(rng, images, None, "scaling", 1e-3),
        lambda rng, images: _perturbed(rng, images, None, "similarity", 1e-2),
        _skew_unit,
    ],
    ids=["off-diagonal-unit-scaled", "non-unital", "non-unitary-similarity", "skew-unit-image"],
)
def test_normal_form_refuses_what_the_gate_refuses_widely(breaks):
    rng = rng_for(82, 0)
    _, _, rep1, rep2 = random_dilation_pair(rng, (2, 3), 2, TOL, [1, 1], [1, 1])
    images = breaks(rng, rep1.pi_images)
    residuals = check_star_hom(representation_hom(rep1.algebra, images), TOL).residuals
    assert max(residuals.values()) > 1e4 * TOL.eps_eq
    with pytest.raises(NotRepresentation):
        normal_form_general_rep(images, rep1.algebra, TOL)
    broken = AnchoredRep(rep1.algebra, rep1.k, rep1.h, images, rep1.V)
    for purify in (purify_unitary, purify_partial):
        with pytest.raises(NotRepresentation):
            purify(broken, rep2, TOL)
