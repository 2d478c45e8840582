import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dilatory.errors import NotHermitian, ShapeMismatch
from dilatory.numerics import (
    Tolerance,
    as_matrix,
    hermitian_eig,
    kron,
    max_abs,
    rank_psd,
    right_singular,
    svd,
)

TOL = Tolerance()


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a + a.conj().T


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(eps_rank=0.0)
    with pytest.raises(ValueError):
        Tolerance(eps_eq=-1.0)
    with pytest.raises(ValueError):
        Tolerance(eps_rank=1e-30)


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ShapeMismatch):
        as_matrix(np.zeros(3))


def test_eig_identity():
    w, u = hermitian_eig(np.eye(3), TOL)
    np.testing.assert_allclose(w, [1.0, 1.0, 1.0])
    np.testing.assert_allclose(u.conj().T @ u, np.eye(3), atol=1e-14)


def test_eig_diagonal_descending():
    w, u = hermitian_eig(np.diag([2.0, 0.0, -1.0]), TOL)
    np.testing.assert_allclose(w, [2.0, 0.0, -1.0], atol=1e-15)
    # standard basis columns, up to the sorting permutation
    np.testing.assert_allclose(np.abs(u), np.eye(3), atol=1e-14)


def test_eig_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]), TOL)


def test_eig_roundtrip_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        h = random_hermitian(rng, 6)
        w, u = hermitian_eig(h, TOL)
        np.testing.assert_allclose(u @ np.diag(w) @ u.conj().T, h, atol=1e-12)


def test_eig_bit_identical_repeats():
    rng = np.random.default_rng(1)
    h = random_hermitian(rng, 8)
    w1, u1 = hermitian_eig(h, TOL)
    w2, u2 = hermitian_eig(h.copy(), TOL)
    assert np.array_equal(w1, w2)
    assert np.array_equal(u1, u2)


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2**32 - 1))
def test_eig_orthonormal_and_reconstructs(n, seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, n)
    w, u = hermitian_eig(h, TOL)
    assert max_abs(u.conj().T @ u - np.eye(n)) <= 1e-12
    assert max_abs(u @ np.diag(w) @ u.conj().T - h) <= 1e-11


def test_rank_psd_zero():
    assert rank_psd(np.zeros((3, 3)), TOL) == (0, True)


def test_rank_psd_cutoff():
    rank, psd = rank_psd(np.diag([1.0, 1e-20]), Tolerance(eps_rank=1e-12))
    assert (rank, psd) == (1, True)


def test_rank_psd_negative():
    rank, psd = rank_psd(np.diag([1.0, -1.0]), TOL)
    assert rank == 1 and not psd


def test_rank_psd_trace_state_gram():
    # brute-force Gram of the trace state on M_2: entries tr(E_ab* E_cd)/2
    units = []
    for a in range(2):
        for b in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[a, b] = 1.0
            units.append(e)
    g = np.array(
        [[np.trace(x.conj().T @ y) / 2.0 for y in units] for x in units]
    )
    rank, psd = rank_psd(g, TOL)
    assert (rank, psd) == (4, True)


def test_rank_monotone_under_zero_padding():
    rng = np.random.default_rng(2)
    h = random_hermitian(rng, 4)
    h = h @ h.conj().T  # PSD, full rank generically
    rank, _ = rank_psd(h, TOL)
    padded = np.zeros((6, 6), dtype=complex)
    padded[:4, :4] = h
    rank_p, psd_p = rank_psd(padded, TOL)
    assert rank_p == rank and psd_p


def test_kron_identities():
    np.testing.assert_array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))
    e12 = np.zeros((2, 2))
    e12[0, 1] = 1.0
    out = kron(e12, np.eye(2))
    expected = np.zeros((4, 4))
    expected[0, 2] = expected[1, 3] = 1.0
    np.testing.assert_array_equal(out, expected)


def test_kron_mixed_product_oracle():
    rng = np.random.default_rng(3)
    a, b, c, d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(4))
    lhs = kron(a, b) @ kron(c, d)
    rhs = kron(a @ c, b @ d)
    assert max_abs(lhs - rhs) <= 1e-12


def test_svd_identity():
    u, s, v = svd(np.eye(3))
    np.testing.assert_allclose(s, np.ones(3))
    np.testing.assert_allclose(u, np.eye(3), atol=1e-14)
    np.testing.assert_allclose(v, np.eye(3), atol=1e-14)


def test_svd_rank_one_column():
    m = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    _, s, _ = svd(m)
    np.testing.assert_allclose(s, [1.0], atol=1e-14)


def test_svd_reconstruction_oracle():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    u, s, v = svd(m)
    sigma = np.zeros((3, 5))
    sigma[:3, :3] = np.diag(s)
    assert max_abs(u @ sigma @ v.conj().T - m) <= 1e-12


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_right_singular_matches_full_svd(rows, cols, rank, seed):
    # tall, square and wide inputs of every rank from 0 to full
    rng = np.random.default_rng(seed)
    rank = min(rank, rows, cols)
    left = rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))
    right = rng.standard_normal((rank, cols)) + 1j * rng.standard_normal((rank, cols))
    m = left @ right
    s, v = right_singular(m)
    ref = np.linalg.svd(m, compute_uv=False)
    scale = max(1.0, float(ref[0]) if ref.size else 0.0)
    assert s.shape == ref.shape
    assert max_abs(s - ref) <= 1e-12 * scale
    assert v.shape == (cols, cols)
    assert max_abs(v.conj().T @ v - np.eye(cols)) <= 1e-12
    assert max_abs(m @ v[:, rank:]) <= 1e-12 * scale
    top = v[np.argmax(np.abs(v), axis=0), np.arange(cols)]
    assert np.all(top.real > 0) and max_abs(top.imag) <= 1e-14
    s2, v2 = right_singular(m.copy())
    assert s.tobytes() == s2.tobytes()
    assert v.tobytes() == v2.tobytes()
