import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dilatory import numerics
from dilatory.algebra import commutant
from dilatory.cpmap import OcpMap, choi_blocks, is_completely_positive
from dilatory.errors import ShapeMismatch
from dilatory.numerics import (
    Tolerance,
    _fix_phases,
    as_matrix,
    hermitian_eig,
    kron,
    linear_extension,
    max_abs,
    right_singular,
    svd,
)
from dilatory.randgen import complex_gaussian, random_cp_map, rng_for

TOL = Tolerance()


def rank_psd(m, tol):
    """Spectral rank and positive-semidefiniteness of a Hermitian matrix.

    rank counts eigenvalues above ``eps_rank * lambda_max`` (zero when the
    whole spectrum sits below ``eps_rank`` in absolute terms); the matrix is
    PSD when the smallest eigenvalue is above ``-eps_rank * max(lambda_max, 1)``.
    """
    w, _ = hermitian_eig(m)
    if w.size == 0:
        return 0, True
    lam_max, lam_min = float(w[0]), float(w[-1])
    rank = 0 if lam_max <= tol.eps_rank else int(np.count_nonzero(w > tol.eps_rank * lam_max))
    return rank, lam_min >= -tol.eps_rank * max(lam_max, 1.0)


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
    # eps_eq = inf would pass every residual, and inf * 0 is NaN
    with pytest.raises(ValueError):
        Tolerance(eps_eq=float("inf"))


def test_tolerance_rejects_relative_cutoff_of_one():
    # eps_rank is relative to lambda_max, so 1 or more zeroes every spectrum
    with pytest.raises(ValueError):
        Tolerance(eps_rank=1.0)
    with pytest.raises(ValueError):
        Tolerance(eps_rank=10.0)
    assert Tolerance(eps_rank=0.5, eps_eq=10.0).eps_eq == 10.0


def test_only_numerics_reads_the_tolerance_fields():
    # every gate decides through Tolerance.within or Tolerance.cut; only
    # serialize.encode_tolerance may read the fields, to write them out
    offenders = []
    for path in sorted(Path(numerics.__file__).parent.glob("*.py")):
        if path.name == "numerics.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        for node in ast.walk(tree):
            if path.name == "serialize.py" and getattr(node, "name", None) == "encode_tolerance":
                allowed.update(id(inner) for inner in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("eps_eq", "eps_rank"):
                if id(node) not in allowed:
                    offenders.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert offenders == []


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ShapeMismatch):
        as_matrix(np.zeros(3))


def test_eig_identity():
    w, u = hermitian_eig(np.eye(3))
    np.testing.assert_allclose(w, [1.0, 1.0, 1.0])
    np.testing.assert_allclose(u.conj().T @ u, np.eye(3), atol=1e-14)


def test_eig_diagonal_descending():
    w, u = hermitian_eig(np.diag([2.0, 0.0, -1.0]))
    np.testing.assert_allclose(w, [2.0, 0.0, -1.0], atol=1e-15)
    # standard basis columns, up to the sorting permutation
    np.testing.assert_allclose(np.abs(u), np.eye(3), atol=1e-14)


def test_eig_roundtrip_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        h = random_hermitian(rng, 6)
        w, u = hermitian_eig(h)
        np.testing.assert_allclose(u @ np.diag(w) @ u.conj().T, h, atol=1e-12)


def test_eig_bit_identical_repeats():
    rng = np.random.default_rng(1)
    h = random_hermitian(rng, 8)
    w1, u1 = hermitian_eig(h)
    w2, u2 = hermitian_eig(h.copy())
    assert np.array_equal(w1, w2)
    assert np.array_equal(u1, u2)


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2**32 - 1))
def test_eig_orthonormal_and_reconstructs(n, seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, n)
    w, u = hermitian_eig(h)
    assert max_abs(u.conj().T @ u - np.eye(n)) <= 1e-12
    assert max_abs(u @ np.diag(w) @ u.conj().T - h) <= 1e-11


@settings(deadline=None, max_examples=40)
@given(
    blocks=st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple),
    k=st.integers(1, 3),
    tilt=st.sampled_from([0.0, 1e-12, 1e-3]),
    extra=st.integers(0, 3),
    seed=st.integers(0, 2**16),
)
def test_callers_hand_the_eigensolver_exactly_hermitian_matrices(blocks, k, tilt, extra, seed):
    """Why hermitian_eig checks nothing.  commutant hands it T + T*, exactly
    Hermitian.  The CP gate hands it each Choi block C, Hermitian or not (a
    tilt of phi(E_0) makes it not), and weighs max|C - C*| itself; what eigh
    decomposes is the Hermitian part (C + C*) / 2, exactly Hermitian and
    bit for bit the matrix the gate used to hand over, so a symmetry test
    on it could never fail."""
    rng = rng_for(seed, 0)
    phi = random_cp_map(rng, blocks, k, kraus_rank=2)
    images = phi.basis_images.copy()
    images[0] += tilt * complex_gaussian(rng, k, k)
    phi = OcpMap(phi.domain, k, images)
    generators = [complex_gaussian(rng, k, k) for _ in range(extra)] + list(images)
    handed, decomposed = [], []
    real_eig, real_eigh = numerics.hermitian_eig, np.linalg.eigh

    def eig_spy(m):
        handed.append(np.array(m))
        return real_eig(m)

    def eigh_spy(a, *args, **kwargs):
        decomposed.append(np.array(a))
        return real_eigh(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "hermitian_eig", eig_spy)
        mp.setattr(np.linalg, "eigh", eigh_spy)
        is_completely_positive(phi, TOL)
        cp_handed, cp_decomposed = handed[:], decomposed[:]
        del handed[:], decomposed[:]
        commutant(generators, k, TOL)

    chois = choi_blocks(phi)
    assert len(cp_handed) == len(cp_decomposed) == len(chois)
    for c, m, a in zip(chois, cp_handed, cp_decomposed):
        assert np.array_equal(m, c)
        assert np.array_equal(a, a.conj().T)
        assert np.array_equal(a, 0.5 * (c + c.conj().T))
    assert len(handed) == len(decomposed) == 1
    assert np.array_equal(handed[0], handed[0].conj().T)
    assert np.array_equal(decomposed[0], handed[0])


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


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_right_singular_keeps_a_real_input_real(rows, cols, rank, seed):
    # commutant's system over Hermitian unknowns is real; the phase rule on
    # a real V is a sign, the largest entry of each column made positive
    rng = np.random.default_rng(seed)
    rank = min(rank, rows, cols)
    m = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    s, v = right_singular(m)
    ref = np.linalg.svd(m, compute_uv=False)
    scale = max(1.0, float(ref[0]) if ref.size else 0.0)
    assert s.dtype == v.dtype == np.float64
    assert max_abs(s - ref) <= 1e-12 * scale
    assert v.shape == (cols, cols)
    assert max_abs(v.T @ v - np.eye(cols)) <= 1e-12
    assert max_abs(m @ v[:, rank:]) <= 1e-12 * scale
    assert np.all(v[np.argmax(np.abs(v), axis=0), np.arange(cols)] > 0)
    s2, v2 = right_singular(m.copy())
    assert v.tobytes() == v2.tobytes()


@settings(deadline=None, max_examples=200)
@given(
    shapes=st.tuples(*[st.integers(0, 4)] * 4),
    real=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_kron_bytes_equal_numpy_kron(shapes, real, seed):
    rng = np.random.default_rng(seed)
    r1, c1, r2, c2 = shapes
    a = rng.standard_normal((r1, c1))
    if not real:
        a = a + 1j * rng.standard_normal((r1, c1))
    b = rng.standard_normal((r2, c2)) + 1j * rng.standard_normal((r2, c2))
    out = kron(a, b)
    ref = np.kron(a.astype(np.complex128), b)
    assert out.dtype == ref.dtype and out.shape == ref.shape
    assert out.tobytes() == ref.tobytes()


_ENTRIES = [0.0, -0.0, 1.5, -2.25, 1e-300, 3.0]


@settings(deadline=None, max_examples=150)
@given(
    dim=st.integers(1, 6),
    c_shape=st.lists(st.integers(0, 3), max_size=2),
    s_shape=st.lists(st.integers(0, 3), max_size=2),
    complex_coeffs=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_linear_extension_equals_the_basis_order_loop(dim, c_shape, s_shape, complex_coeffs, seed):
    rng = np.random.default_rng(seed)

    def draw(shape, complex_):
        a = rng.choice(_ENTRIES, size=shape) * rng.standard_normal(shape).round()
        return a + 1j * rng.choice(_ENTRIES, size=shape) if complex_ else a

    coeffs = draw((dim, *c_shape), complex_coeffs)
    images = draw((dim, *s_shape), True)
    # the plain loop the docstring names, kept as the reference
    ref = np.zeros((*c_shape, *s_shape), dtype=np.complex128)
    for alpha in range(dim):
        ref += np.multiply.outer(coeffs[alpha], images[alpha])
    out = linear_extension(coeffs, images)
    assert out.shape == ref.shape and out.tobytes() == ref.tobytes()


def test_linear_extension_sums_one_output_at_a_time():
    """Each of the s outputs is summed on its own, so the peak stays within
    a few results, where all t * s terms at once would be t results."""
    import tracemalloc

    rng = np.random.default_rng(5)
    t, s, m = 16, 16, 24
    coeffs = rng.standard_normal((t, s)) + 1j * rng.standard_normal((t, s))
    images = rng.standard_normal((t, m, m)) + 1j * rng.standard_normal((t, m, m))
    result_bytes = s * m * m * 16
    tracemalloc.start()
    try:
        linear_extension(coeffs, images)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * result_bytes


def fix_phases_loop(u):
    """The per-column phase rule _fix_phases replaced, kept as its reference:
    conj(z) / abs(z) in numpy scalar arithmetic, z the first entry of
    largest np.abs in the column; a zero column keeps phase 1."""
    phases = np.ones(u.shape[1], dtype=np.complex128)
    for j in range(u.shape[1]):
        col = u[:, j]
        z = col[int(np.argmax(np.abs(col)))]
        if abs(z) > 0.0:
            phases[j] = np.conj(z) / abs(z)
    return phases


# entries that make ties, signed zeros, real negative and purely imaginary maxima
_PHASE_ENTRIES = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1e-300, -3.0]


@st.composite
def phase_inputs(draw):
    rows = draw(st.integers(1, 9))
    cols = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["eigenvectors", "gaussian", "lattice", "axes"]))
    if kind == "eigenvectors":
        w, u = np.linalg.eigh(random_hermitian(rng, rows))
        u = u[:, np.argsort(-w, kind="stable")]
    elif kind == "gaussian":
        u = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    elif kind == "lattice":
        # equal moduli in one column (ties), and both zeros in both parts
        pick = rng.integers(0, len(_PHASE_ENTRIES), (2, rows, cols))
        u = np.empty((rows, cols), dtype=np.complex128)
        u.real = np.take(_PHASE_ENTRIES, pick[0])
        u.imag = np.take(_PHASE_ENTRIES, pick[1])
    else:
        # each column's largest entry real negative, purely imaginary or zero
        u = 0.1 * (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
        top = rng.integers(0, rows, cols)
        u[top, np.arange(cols)] = np.choose(
            rng.integers(0, 3, cols), [-2.0 + 0j, 2j * rng.choice([-1, 1], cols), 0j]
        )
    zero = draw(st.lists(st.integers(0, u.shape[1] - 1), max_size=2))
    u[:, zero] = draw(st.sampled_from([0.0, -0.0, complex(-0.0, -0.0)]))
    return u


@settings(deadline=None, max_examples=400)
@given(phase_inputs(), st.booleans())
def test_stacked_phase_fix_equals_the_scalar_loop_bit_for_bit(u, strided):
    if strided:
        u = np.asfortranarray(u)[:, ::-1]
    got, expected = _fix_phases(u), fix_phases_loop(u)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
