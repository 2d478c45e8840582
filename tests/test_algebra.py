import tracemalloc

import numpy as np
import pytest

from dilatory.algebra import (
    FdCStarAlgebra,
    StarHom,
    AlgebraElement,
    check_star_hom,
    commutant,
    compose_homs,
    element_from_coefficients,
    embed_element,
    identity_hom,
    matrix_units,
    unit_product_index,
)
from dilatory.dilation import stinespring_dilate
from dilatory.errors import ShapeMismatch
from dilatory.numerics import Tolerance, max_abs
from dilatory.randgen import (
    boxplus_rep_images,
    inflate_rep,
    random_cp_map,
    random_unitary,
    rng_for,
)

TOL = Tolerance()


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
