"""Dense complex linear-algebra kernel.

Deterministic Hermitian eigendecomposition, SVD, tolerance-based rank and
positivity tests, and Kronecker products.  Every decomposition applies the
same phase-fixing rule (largest-magnitude entry of each vector made real and
positive), so repeated runs on the same input are bit-identical and
downstream constructions are reproducible.

There are two SVD kernels.  ``svd`` returns the full left basis U and serves
only the callers that read U's orthogonal complement
(``geometry.extend_partial_isometry``, ``cpmap.decompose_opstate_morphism``).
``right_singular`` returns ``(s, V)`` without ever forming U and serves the
callers that need only a rank or a null space (``algebra.commutant``,
``dilation.is_minimal``, ``geometry.partial_isometry_report``).  A
commutant's commutator stack has 2 h^2 rows per generator on C^h, and its
full U is square in that count: 2.0 GB for the 25 generators of M_5 on C^15.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, NotHermitian, ShapeMismatch

_MACHINE_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class Tolerance:
    """Numerical cutoffs: ``eps_rank`` for spectra, ``eps_eq`` for residuals.

    ``eps_rank`` is a relative spectral cutoff (an eigenvalue below
    eps_rank * lambda_max counts as zero); ``eps_eq`` bounds max-abs residuals
    in equality tests.
    """

    eps_rank: float = 1e-9
    eps_eq: float = 1e-9

    def __post_init__(self):
        if not (self.eps_rank > 0.0 and self.eps_eq > 0.0):
            raise ValueError("tolerances must be strictly positive")
        if self.eps_rank < _MACHINE_EPS:
            raise ValueError("eps_rank below machine epsilon")


DEFAULT_TOL = Tolerance()


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting NaN/Inf entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(m).T


def max_abs(m) -> float:
    """Entrywise max-modulus norm; 0.0 for empty arrays."""
    a = np.asarray(m)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def _fix_phases(u: np.ndarray) -> np.ndarray:
    """Return the diagonal of unit phases that canonicalizes columns of u.

    For each column, the entry of largest modulus (first such row on ties) is
    rotated to the positive real axis.  Zero columns are left alone.
    """
    phases = np.ones(u.shape[1], dtype=np.complex128)
    for j in range(u.shape[1]):
        col = u[:, j]
        i = int(np.argmax(np.abs(col)))
        z = col[i]
        if abs(z) > 0.0:
            phases[j] = np.conj(z) / abs(z)
    return phases


def hermitian_eig(m, tol: Tolerance = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, u)`` with eigenvalues ``w`` real and sorted descending and
    ``u`` the matching orthonormal eigenvector columns, phase-fixed.  Ties in
    the sorted spectrum keep the decomposition's native column order.

    Raises NotHermitian when the symmetry residual exceeds ``eps_eq`` and
    ConvergenceFailure if the underlying iteration fails.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"matrix is {a.shape}, not square")
    sym = max_abs(a - dagger(a))
    if sym > tol.eps_eq:
        raise NotHermitian(f"symmetry residual {sym:.3e} exceeds {tol.eps_eq:.3e}")
    try:
        w, u = np.linalg.eigh(0.5 * (a + dagger(a)))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    order = np.argsort(-w, kind="stable")
    w = w[order]
    u = u[:, order]
    u = u * _fix_phases(u)
    return w, u


def rank_psd(m, tol: Tolerance = DEFAULT_TOL):
    """Spectral rank and positive-semidefiniteness of a Hermitian matrix.

    rank counts eigenvalues above ``eps_rank * lambda_max`` (zero when the
    whole spectrum sits below ``eps_rank`` in absolute terms); the matrix is
    PSD when the smallest eigenvalue is above ``-eps_rank * max(lambda_max, 1)``.
    """
    w, _ = hermitian_eig(m, tol)
    if w.size == 0:
        return 0, True
    lam_max = float(w[0])
    lam_min = float(w[-1])
    if lam_max <= tol.eps_rank:
        rank = 0
    else:
        rank = int(np.count_nonzero(w > tol.eps_rank * lam_max))
    is_psd = lam_min >= -tol.eps_rank * max(lam_max, 1.0)
    return rank, is_psd


def kron(a, b) -> np.ndarray:
    """Kronecker product, left factor major: (i, alpha) -> i * cols_b + alpha."""
    return np.kron(as_matrix(a), as_matrix(b))


def svd(m):
    """Singular value decomposition ``m = u @ diag(s) @ dagger(v)``.

    Singular values descend; the phase of each left-singular column is fixed
    and the matching right column is rotated by the same phase so the
    reconstruction is exact.
    """
    a = as_matrix(m)
    try:
        u, s, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    v = dagger(vh)
    r = min(a.shape)
    phases = _fix_phases(u[:, :r])
    u = u.copy()
    v = v.copy()
    u[:, :r] *= phases
    v[:, :r] *= phases
    return u, s, v


def right_singular(m):
    """Singular values and right singular vectors ``(s, v)``, never forming U.

    ``s`` descends and ``v`` is square, so its trailing columns span the null
    space.  A tall input is first reduced to its triangular factor R of
    ``m = QR``, which has the same ``s`` and ``v``, and only R is decomposed
    (Chan's R-SVD).  Every column of ``v`` is phase-fixed.
    """
    a = as_matrix(m)
    try:
        if a.shape[0] > a.shape[1]:
            a = np.linalg.qr(a, mode="r")
        _, s, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    v = dagger(vh)
    return s, v * _fix_phases(v)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.complex128)


def op_norm(m) -> float:
    """Spectral (operator) norm; 0.0 for empty matrices."""
    a = as_matrix(m)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def block_diag(blocks) -> np.ndarray:
    """Direct sum of matrices; empty blocks contribute nothing."""
    blocks = [as_matrix(b) for b in blocks]
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = zeros(rows, cols)
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out
