import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dilatory.algebra import (
    FdCStarAlgebra,
    StarHom,
    AlgebraElement,
    check_star_hom,
    commutant,
    compose_homs,
    element_from_coefficients,
    identity_hom,
    matrix_units,
    unit_product_index,
)
from dilatory import algebra as algebra_module, randgen
from dilatory.dilation import stinespring_dilate
from dilatory.errors import ShapeMismatch
from dilatory.numerics import Tolerance, block_diag, kron, max_abs
from dilatory.randgen import (
    boxplus_rep_images,
    hom_from_multiplicities,
    inflate_rep,
    random_cp_map,
    random_unitary,
    rng_for,
)

TOL = Tolerance()


def embed_element(a: AlgebraElement) -> np.ndarray:
    """Block-diagonal embedding into M_N, N the ambient dimension."""
    return block_diag(a.block_data)


def unit_star_index(algebra: FdCStarAlgebra, alpha: int) -> int:
    """Index of the adjoint of matrix unit alpha: E_ab* = E_ba."""
    j, a, b = algebra.basis_labels()[alpha]
    return algebra.basis_index(j, b, a)


def test_algebra_dimensions():
    a = FdCStarAlgebra((1, 2, 3))
    assert a.dim == 1 + 4 + 9
    assert a.ambient_dim == 6
    with pytest.raises(ValueError):
        FdCStarAlgebra(())
    with pytest.raises(ValueError):
        FdCStarAlgebra((0,))


def test_matrix_units_scalar_block():
    units = matrix_units(FdCStarAlgebra((1,)))
    assert len(units) == 1
    np.testing.assert_array_equal(units[0].block_data[0], [[1.0]])


def test_matrix_units_m2_order():
    units = matrix_units(FdCStarAlgebra((2,)))
    expected = []
    for a in range(2):
        for b in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[a, b] = 1.0
            expected.append(e)
    for unit, e in zip(units, expected):
        np.testing.assert_array_equal(unit.block_data[0], e)


def test_matrix_units_product_table():
    # delta rule oracle, brute force over all pairs of (1, 2)
    algebra = FdCStarAlgebra((1, 2))
    units = matrix_units(algebra)
    labels = algebra.basis_labels()
    for alpha, x in enumerate(units):
        for beta, y in enumerate(units):
            product = embed_element(x @ y)
            j1, a, b = labels[alpha]
            j2, c, d = labels[beta]
            if j1 == j2 and b == c:
                expected = embed_element(units[algebra.basis_index(j1, a, d)])
            else:
                expected = np.zeros_like(product)
            np.testing.assert_array_equal(product, expected)
            gamma = unit_product_index(algebra, alpha, beta)
            if gamma is None:
                assert max_abs(product) == 0.0
            else:
                np.testing.assert_array_equal(product, embed_element(units[gamma]))


@pytest.mark.parametrize("blocks", [(1,), (3,), (1, 2), (2, 1, 3)])
def test_label_tables_match_definitions(blocks):
    # the tables cached per algebra against the explicit enumeration
    algebra = FdCStarAlgebra(blocks)
    labels = [(j, a, b) for j, n in enumerate(blocks) for a in range(n) for b in range(n)]
    assert algebra.basis_labels() == labels
    assert algebra == FdCStarAlgebra(list(blocks))
    assert hash(algebra) == hash(FdCStarAlgebra(blocks))
    assert repr(algebra) == f"FdCStarAlgebra(blocks={blocks!r})"
    for alpha, (j, a, b) in enumerate(labels):
        assert algebra.basis_index(j, a, b) == alpha
        assert labels[unit_star_index(algebra, alpha)] == (j, b, a)
        for beta, (j2, c, d) in enumerate(labels):
            gamma = unit_product_index(algebra, alpha, beta)
            expected = (j, a, d) if (j, b) == (j2, c) else None
            assert (labels[gamma] if gamma is not None else None) == expected


@pytest.mark.parametrize("mults", [(1, 0, 2), (0, 3, 1), (2, 2, 2), (0, 0, 0)])
def test_boxplus_rep_images_match_kron_definition(mults):
    # a -> (+)_j a_j (x) 1_{c_j}, built unit by unit from kron and block_diag
    algebra = FdCStarAlgebra((2, 1, 3))
    images = boxplus_rep_images(algebra, mults)
    for (j, a, b), img in zip(algebra.basis_labels(), images):
        pieces = []
        for i, (n, c) in enumerate(zip(algebra.blocks, mults)):
            e = np.zeros((n, n))
            if i == j:
                e[a, b] = 1.0
            pieces.append(kron(e, np.eye(c)))
        np.testing.assert_array_equal(img, block_diag(pieces))


def test_units_resolve_identity():
    algebra = FdCStarAlgebra((2, 3))
    units = matrix_units(algebra)
    total = algebra.zero()
    for j, n in enumerate(algebra.blocks):
        for a in range(n):
            total = total + units[algebra.basis_index(j, a, a)]
    np.testing.assert_array_equal(embed_element(total), np.eye(5))


def test_embed_unit_and_second_block():
    algebra = FdCStarAlgebra((1, 2))
    np.testing.assert_array_equal(embed_element(algebra.unit()), np.eye(3))
    e12 = matrix_units(algebra)[algebra.basis_index(1, 0, 1)]
    m = embed_element(e12)
    expected = np.zeros((3, 3))
    expected[1, 2] = 1.0
    np.testing.assert_array_equal(m, expected)


def test_embed_is_homomorphism():
    rng = rng_for(5, 0)
    algebra = FdCStarAlgebra((2, 3))
    x = element_from_coefficients(algebra, rng.standard_normal(algebra.dim) + 1j * rng.standard_normal(algebra.dim))
    y = element_from_coefficients(algebra, rng.standard_normal(algebra.dim) + 1j * rng.standard_normal(algebra.dim))
    assert max_abs(embed_element(x @ y) - embed_element(x) @ embed_element(y)) <= 1e-12
    assert max_abs(embed_element(x.star()) - embed_element(x).conj().T) == 0.0


def test_check_star_hom_identity():
    report = check_star_hom(identity_hom(FdCStarAlgebra((2,))), TOL)
    assert report.ok
    assert max(report.residuals.values()) == 0.0


def test_check_star_hom_diagonal_embedding():
    source = FdCStarAlgebra((2,))
    target = FdCStarAlgebra((2, 2))
    images = []
    for unit in matrix_units(source):
        block = unit.block_data[0]
        images.append(AlgebraElement(target, (block, block)))
    report = check_star_hom(StarHom(source, target, tuple(images)), TOL)
    assert report.ok


def test_check_star_hom_transpose_antihom():
    source = FdCStarAlgebra((2,))
    images = []
    for unit in matrix_units(source):
        images.append(AlgebraElement(source, (unit.block_data[0].T,)))
    report = check_star_hom(StarHom(source, source, tuple(images)), TOL)
    assert report.star_preserving
    assert report.unital
    assert not report.multiplicative
    # the defect is visible on E_12 E_21 = E_11 whose image mismatches
    assert report.residuals["multiplicative"] >= 0.5


def test_hom_composition_closure():
    rng = rng_for(6, 0)
    from dilatory.randgen import random_hom

    f = random_hom(rng, FdCStarAlgebra((1, 2)), max_mult=2)
    g = random_hom(rng, f.target, max_mult=1)
    assert check_star_hom(f, TOL).ok
    assert check_star_hom(g, TOL).ok
    assert check_star_hom(compose_homs(g, f), TOL).ok


def test_commutant_of_full_matrix_units():
    for n in (2, 3):
        algebra = FdCStarAlgebra((n,))
        gens = [embed_element(u) for u in matrix_units(algebra)]
        basis = commutant(gens, n, TOL)
        assert len(basis) == 1
        # scalars only
        x = basis[0]
        assert max_abs(x - x[0, 0] * np.eye(n)) <= 1e-9


def test_commutant_of_identity():
    basis = commutant([np.eye(3)], 3, TOL)
    assert len(basis) == 9


def test_commutant_boxplus_closed_form():
    # generators M_n (x) 1_c per block; commutant dim must be sum c_j^2
    algebra = FdCStarAlgebra((2, 1))
    mults = (2, 3)
    images = boxplus_rep_images(algebra, mults)
    ambient = sum(n * c for n, c in zip(algebra.blocks, mults))
    basis = commutant(images, ambient, TOL)
    assert len(basis) == sum(c * c for c in mults)
    for x in basis:
        for g in images:
            assert max_abs(x @ g - g @ x) <= 1e-9


def test_commutant_orthonormal_and_commutes():
    rng = rng_for(7, 0)
    algebra = FdCStarAlgebra((2,))
    mults = (2,)
    images = boxplus_rep_images(algebra, mults)
    u = random_unitary(rng, 4)
    images = [u @ g @ u.conj().T for g in images]
    basis = commutant(images, 4, TOL)
    assert len(basis) == 4
    gram = np.array(
        [[np.trace(x.conj().T @ y) for y in basis] for x in basis]
    )
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-10)


def test_commutant_shape_gate():
    with pytest.raises(ShapeMismatch):
        commutant([np.eye(2)], 3, TOL)


def _commutator_stack(generators, n):
    ident = np.eye(n)
    return np.vstack(
        [np.kron(ident, s) - np.kron(s.T, ident)
         for g in generators for s in (g, g.conj().T)]
    )


def test_commutant_projector_matches_full_svd_null_space():
    # reference: the null space from a full SVD of the same commutator stack
    for i in range(12):
        rng = rng_for(8, i)
        t = int(rng.integers(1, 3))
        algebra = FdCStarAlgebra(tuple(int(rng.integers(1, 3)) for _ in range(t)))
        mults = [int(rng.integers(1, 3)) for _ in range(t)]
        images = boxplus_rep_images(algebra, mults)
        ambient = sum(n * c for n, c in zip(algebra.blocks, mults))
        u = random_unitary(rng, ambient)
        images = [u @ g @ u.conj().T for g in images]
        basis = commutant(images, ambient, TOL)
        cols = np.stack([x.reshape(-1, order="F") for x in basis], axis=1)
        _, sing, vh = np.linalg.svd(_commutator_stack(images, ambient))
        # commutant's cutoff: relative to the top singular value, and rank 0
        # when that value is below eps_rank (scalar generators, as for M_1 here)
        rank = 0 if sing[0] <= TOL.eps_rank else int(
            np.count_nonzero(sing > TOL.eps_rank * sing[0])
        )
        null = vh[rank:].conj().T
        assert cols.shape[1] == null.shape[1] == sum(c * c for c in mults)
        assert max_abs(cols @ cols.conj().T - null @ null.conj().T) <= 1e-10


def test_commutant_large_carrier_stays_small():
    # (5,) at h = 15: the stack is 11250 x 225, so a full U would be 2.0 GB
    rng = rng_for(9, 0)
    phi = random_cp_map(rng, (5,), 2, kraus_rank=2)
    rep = inflate_rep(rng, stinespring_dilate(phi, TOL), [1])
    assert rep.h == 15
    tracemalloc.start()
    try:
        basis = commutant(rep.pi_images, rep.h, TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(basis) == 3 * 3
    assert peak < 300 * 2**20


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**16), log_scale=st.floats(-30.0, 12.0))
def test_commutant_dimension_is_scale_free(seed, log_scale):
    # {s g} and {g} have the same commutant, scalar generators (M_1) included
    rng = rng_for(seed, 0)
    t = int(rng.integers(1, 3))
    algebra = FdCStarAlgebra(tuple(int(rng.integers(1, 3)) for _ in range(t)))
    mults = [int(rng.integers(1, 3)) for _ in range(t)]
    images = boxplus_rep_images(algebra, mults)
    ambient = sum(n * c for n, c in zip(algebra.blocks, mults))
    u = random_unitary(rng, ambient)
    images = [u @ g @ u.conj().T for g in images]
    s = 10.0**log_scale
    expected = sum(c * c for c in mults)
    assert len(commutant(images, ambient, TOL)) == expected
    assert len(commutant([s * g for g in images], ambient, TOL)) == expected


def _check_against_reference(generators, n):
    """commutant against the null space of the full commutator stack, taken
    from its full SVD at commutant's cutoff."""
    basis = commutant(generators, n, TOL)
    _, sing, vh = np.linalg.svd(_commutator_stack(generators, n), full_matrices=False)
    top = sing[0]
    scale = max(np.linalg.norm(g) for g in generators)
    op_scale = max(np.linalg.norm(g, 2) for g in generators)
    # commutant's stand-in for the top singular value is known only to
    # within a factor n, so a value that close to a cut may fall either way
    assume(not TOL.eps_rank * scale < top <= n * TOL.eps_rank * scale)
    if top <= TOL.eps_rank * scale:
        rank = 0
    else:
        assume(not np.any((sing > TOL.eps_rank * top / n) & (sing <= TOL.eps_rank * top)))
        # a relative cut below the rounding of the generators themselves is
        # decided by noise, in the reference as much as in commutant
        assume(TOL.eps_rank * top > 1e-12 * op_scale)
        rank = int(np.count_nonzero(sing > TOL.eps_rank * top))
    null = vh[rank:].conj().T
    cols = np.stack([x.reshape(-1, order="F") for x in basis], axis=1)
    assert cols.shape == null.shape
    assert max_abs(cols.conj().T @ cols - np.eye(cols.shape[1])) <= 1e-13
    # two null spaces of one operator differ by rounding (relative to the
    # generators) over the spectral gap
    gap = sing[rank - 1] if rank else np.inf
    assert max_abs(cols @ cols.conj().T - null @ null.conj().T) <= 1e-13 * (1.0 + op_scale / gap)
    # commutation holds to rounding, plus what the cut counts as zero
    below = sing[rank] if rank < sing.size else 0.0
    for x in basis:
        for g in generators:
            assert max_abs(x @ g - g @ x) <= 1e-13 * op_scale + below
    return basis


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    blocks=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    data=st.data(),
)
def test_commutant_matches_stacked_reference_on_conjugated_boxplus(seed, blocks, data):
    rng = np.random.default_rng(seed)
    mults = data.draw(st.lists(st.integers(0, 2), min_size=len(blocks), max_size=len(blocks)))
    if not any(mults):
        mults[0] = 1
    algebra = FdCStarAlgebra(tuple(blocks))
    h = sum(n * c for n, c in zip(blocks, mults))
    u = random_unitary(rng, h)
    images = list(u @ boxplus_rep_images(algebra, mults) @ u.conj().T)
    basis = _check_against_reference(images, h)
    assert len(basis) == sum(c * c for c in mults)


@settings(deadline=None, max_examples=12)
@given(
    seed=st.integers(0, 2**32 - 1),
    case=st.sampled_from([((3,), (5,)), ((2, 3), (4, 3)), ((1, 1, 2), (5, 4, 3)), ((2, 2), (3, 3))]),
)
def test_commutant_split_into_groups_matches_stacked_reference(seed, case):
    # block n with multiplicity c gives n clusters of c^2 unknowns, and the
    # clusters whose first unknowns lie in one stretch of 16 form a group:
    # these cases have 2 to 4 groups, and each pair of groups is folded over
    # its own unknowns, fewer than all of them
    blocks, mults = case
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, sum(n * c for n, c in zip(blocks, mults)))
    images = list(u @ boxplus_rep_images(FdCStarAlgebra(blocks), mults) @ u.conj().T)
    widths, qr = [], np.linalg.qr
    with mock.patch.object(np.linalg, "qr", lambda a, mode: widths.append(a.shape[1]) or qr(a, mode)):
        basis = _check_against_reference(images, len(u))
    assert len(basis) == sum(c * c for c in mults)
    assert min(widths) < sum(n * c * c for n, c in zip(blocks, mults))


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    h=st.integers(2, 7),
    log_delta=st.floats(-12.0, -3.0),
    conjugate=st.booleans(),
)
def test_commutant_near_degenerate_spectrum(seed, h, log_delta, conjugate):
    # pairs of diagonal entries k and k (1 + delta): the generic element has
    # eigenvalue gaps from 1e-12 to 1e-3 of its spread, inside one cluster
    rng = np.random.default_rng(seed)
    delta = 10.0**log_delta
    base = np.repeat(np.arange(1, h), 2)[:h].astype(float)
    diag = np.diag(base * (1.0 + delta * (np.arange(h) % 2)))
    x = random_unitary(rng, h) if conjugate else np.eye(h)
    _check_against_reference([x @ diag @ x.conj().T], h)


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 2**32 - 1), h=st.integers(2, 5))
def test_commutant_of_a_shift_is_scalars(seed, h):
    # a non-normal generator: the shift's own commutant is its polynomials
    # (dimension h), but with its adjoint it generates M_h, so only scalars
    x = random_unitary(np.random.default_rng(seed), h)
    shift = np.diag(np.ones(h - 1), 1)
    assert len(_check_against_reference([x @ shift @ x.conj().T], h)) == 1


@pytest.mark.parametrize("n", [1, 2, 5])
def test_commutant_of_scalars_and_of_nothing_is_everything(n):
    for generators in ([], [3.0 * np.eye(n)], [np.eye(n), -2j * np.eye(n), np.zeros((n, n))]):
        basis = commutant(generators, n, TOL)
        assert len(basis) == n * n
        cols = np.stack([x.reshape(-1) for x in basis], axis=1)
        assert max_abs(cols.conj().T @ cols - np.eye(n * n)) <= 1e-13


def test_commutant_of_4_4_at_h24_is_small():
    # (4, 4), Kraus rank 2 and one junk copy per block: multiplicities (3, 3)
    rng = rng_for(10, 0)
    phi = random_cp_map(rng, (4, 4), 2, kraus_rank=2)
    rep = inflate_rep(rng, stinespring_dilate(phi, TOL), [1, 1])
    assert rep.h == 24
    tracemalloc.start()
    try:
        basis = commutant(rep.pi_images, rep.h, TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(basis) == 18
    assert peak < 100 * 2**20
    for x in basis:
        assert max_abs(x @ rep.pi_images - rep.pi_images @ x) <= 1e-13


@pytest.mark.parametrize("seed", [0, 1])
def test_commutant_counts_a_split_below_the_relative_cut(seed):
    # eigenvalues 1 and 1 + 1.8e-8: the commutator stack's singular values
    # are about 2.5e-8 and 1e-17, and eps_rank times the first, 2.5e-17,
    # would count the rounding as rank; the cut's floor at the rounding of
    # the generator does not, so the commutant keeps both eigenprojections
    x = random_unitary(np.random.default_rng(seed), 2)
    g = x @ np.diag([1.0, 1.0 + 1.8e-8]) @ x.conj().T
    basis = commutant([g], 2, TOL)
    assert len(basis) == 2
    cols = np.stack([b.reshape(-1) for b in basis], axis=1)
    assert max_abs(cols.conj().T @ cols - np.eye(2)) <= 1e-13
    for b in basis:
        assert max_abs(b @ g - g @ b) <= 1e-13
    # eigenvectors across a gap of 1.8e-8 are good to about eps / 1.8e-8
    for i in range(2):
        p = np.outer(x[:, i], x[:, i].conj()).reshape(-1)
        assert max_abs(cols @ (cols.conj().T @ p) - p) <= 1e-6


def _hermitian_system(generators, n):
    """commutant's real system over all n^2 Hermitian unknowns (one cluster,
    the standard basis): the rows are the real and imaginary parts of the
    entries of [S, B_k], B_k the Hilbert-Schmidt-orthonormal Hermitian basis."""
    unknowns, terms, _ = algebra_module._hermitian_layout((n,))
    stack = np.array(generators, dtype=np.complex128).reshape(len(generators), n, n)
    block = algebra_module._hermitian_columns(stack, terms, unknowns)
    return block.reshape(unknowns, -1).view(np.float64).T


@settings(deadline=None, max_examples=80)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(0, 4),
    n=st.integers(1, 5),
    log_scale=st.floats(-12.0, 12.0),
)
def test_hermitian_system_has_the_complex_stack_singular_values_over_sqrt2(
    seed, count, n, log_scale
):
    # complex Gaussians are not closed under adjoints; the complex stack over
    # S and S* has sqrt 2 times the singular values of the real system over
    # Hermitian unknowns, which every rank decision of commutant relies on
    rng = np.random.default_rng(seed)
    s = 10.0**log_scale
    generators = [s * randgen.complex_gaussian(rng, n, n) for _ in range(count)]
    real = np.linalg.svd(_hermitian_system(generators, n), compute_uv=False)
    stack = _commutator_stack(generators, n) if generators else np.zeros((0, n * n))
    ref = np.linalg.svd(stack, compute_uv=False)
    assert real.shape == ref.shape
    assert max_abs(np.sqrt(2.0) * real - ref) <= 1e-13 * (ref[0] if ref.size else 0.0)
    basis = commutant(generators, n, TOL)
    for x in basis:
        assert max_abs(x - x.conj().T) <= 1e-14
    cols = np.stack([x.reshape(-1) for x in basis], axis=1)
    assert max_abs(cols.conj().T @ cols - np.eye(len(basis))) <= 1e-13


# rep-audit's (blocks, k, Kraus rank, junk multiplicities), h from 1 to 15,
# and (4, 4) at h = 24
AUDIT_SHAPES = [
    ((3,), 3, 3, (2,)), ((2, 2), 2, 2, (1, 1)), ((4,), 2, 2, (0,)), ((3,), 2, 2, (1,)),
    ((2, 2), 2, 1, (1, 1)), ((2,), 3, 3, (2,)), ((1, 2), 3, 2, (1, 1)),
    ((1,), 1, 1, (0,)), ((1,), 2, 2, (1,)), ((2,), 1, 1, (0,)), ((2,), 2, 1, (1,)),
    ((2,), 2, 2, (0,)), ((1, 1), 1, 1, (1, 0)), ((1, 1), 2, 2, (1, 1)),
    ((1, 2), 1, 1, (0, 1)), ((2,), 1, 1, (2,)), ((3,), 1, 1, (0,)),
    ((1, 1, 1), 1, 1, (1, 0, 1)), ((3,), 1, 1, (1,)), ((1, 2), 2, 1, (0, 0)),
    ((4, 4), 2, 2, (1, 1)),
]


@pytest.mark.parametrize("i, shape", list(enumerate(AUDIT_SHAPES)))
def test_commutant_matches_the_normal_form(i, shape):
    # two independent routes to one subspace: R pi(a) R* = (+)_j a_j (x) 1_{c_j},
    # so the commutant is R* ((+)_j 1_{n_j} (x) M_{c_j}) R, with the
    # Hilbert-Schmidt-orthonormal basis R* (1_{n_j} (x) E_pq / sqrt n_j) R
    from dilatory.geometry import normal_form_general_rep

    blocks, k, rank, extra = shape
    rng = rng_for(11, i)
    phi = random_cp_map(rng, blocks, k, kraus_rank=rank)
    rep = inflate_rep(rng, stinespring_dilate(phi, TOL), list(extra))
    mults, r = normal_form_general_rep(rep.pi_images, rep.algebra, TOL)
    reference = []
    for j, (n, c) in enumerate(zip(blocks, mults)):
        for unit in np.eye(c * c).reshape(c * c, c, c):
            parts = [kron(np.eye(n), unit) / np.sqrt(n) if jj == j else np.zeros((nn * cc,) * 2)
                     for jj, (nn, cc) in enumerate(zip(blocks, mults))]
            reference.append(r.conj().T @ block_diag(parts) @ r)
    basis = commutant(rep.pi_images, rep.h, TOL)
    assert len(basis) == len(reference) == sum(c * c for c in mults)
    cols = np.stack([x.reshape(-1) for x in basis], axis=1)
    ref = np.stack([z.reshape(-1) for z in reference], axis=1)
    assert max_abs(ref.conj().T @ ref - np.eye(ref.shape[1])) <= 1e-13
    assert max_abs(cols @ cols.conj().T - ref @ ref.conj().T) <= 1e-13


def boxplus_reference(algebra, mults):
    """boxplus_rep_images as it was built before its index cache: one np.ix_
    scatter per block."""
    h = sum(n * c for n, c in zip(algebra.blocks, mults))
    out = np.zeros((algebra.dim, h, h), dtype=np.complex128)
    row = 0
    for j, (n, c) in enumerate(zip(algebra.blocks, mults)):
        offset = algebra.basis_index(j, 0, 0)
        a, b, rho = np.ix_(range(n), range(n), range(c))
        out[offset + a * n + b, row + a * c + rho, row + b * c + rho] = 1.0
        row += n * c
    return out


def copies_reference(source, row):
    """The units of hom_from_multiplicities' target block before its index
    cache: E_ab of source block j at 1_m (x) E_ab, one np.ix_ per block."""
    size = sum(m * n for m, n in zip(row, source.blocks))
    units = np.zeros((source.dim, size, size), dtype=np.complex128)
    start = 0
    for j, (n, m) in enumerate(zip(source.blocks, row)):
        offset = source.basis_index(j, 0, 0)
        rho, a, b = np.ix_(range(m), range(n), range(n))
        units[offset + a * n + b, start + rho * n + a, start + rho * n + b] = 1.0
        start += n * m
    return units


@pytest.mark.parametrize(
    "blocks, mults",
    [((2, 1, 3), (1, 0, 2)), ((2, 1, 3), (0, 0, 0)), ((1,), (4,)), ((3, 2), (2, 2))],
)
def test_boxplus_rep_images_are_fresh_and_equal_the_per_block_scatter(blocks, mults):
    algebra = FdCStarAlgebra(blocks)
    first = boxplus_rep_images(algebra, mults)
    expected = boxplus_reference(algebra, mults)
    assert first.flags.writeable and first.tobytes() == expected.tobytes()
    first[...] = 7.0
    again = boxplus_rep_images(algebra, list(mults))
    assert again.shape == expected.shape and again.tobytes() == expected.tobytes()
    h, ones = algebra_module._boxplus_ones(algebra.blocks, tuple(mults))
    assert h == expected.shape[1] and not any(axis.flags.writeable for axis in ones)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hom_from_multiplicities_equals_the_per_block_scatter(seed):
    rng = np.random.default_rng(seed)
    source = FdCStarAlgebra((1, 2))
    rows = [[1, 1], [2, 0], [0, 2]]
    unitaries = [random_unitary(rng, m + 2 * n) for m, n in rows]
    for _ in range(2):
        f = hom_from_multiplicities(source, rows, unitaries)
        columns = [
            (u @ copies_reference(source, row) @ u.conj().T).reshape(source.dim, -1)
            for row, u in zip(rows, unitaries)
        ]
        expected = np.concatenate(columns, axis=1).T
        assert f.matrix.tobytes() == expected.tobytes()
        f.matrix[...] = 0.0
    ones = randgen._copies_ones(source.blocks, (2, 0))
    assert not any(axis.flags.writeable for axis in ones)
