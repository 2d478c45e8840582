"""Dense linear-algebra kernel, complex except where a caller hands it a
real system.

Deterministic Hermitian eigendecomposition, SVD, tolerances, and Kronecker
products.  Every decomposition applies the same phase-fixing rule
(largest-magnitude entry of each vector made real and positive; on a real
vector that is a sign), so repeated runs on the same input are bit-identical
and downstream constructions are reproducible.

The phase rule runs on all columns at once and reproduces, bit for bit, the
per-column scalar rule ``conj(z) / abs(z)`` it replaced, z the first entry
of largest ``np.abs``.  Two details make that hold.  The modulus is
``np.hypot(re, im)``: numpy's scalar ``abs`` of a complex number equals it,
while the array ``np.abs`` differs from it in the last bit on about a third
of all entries.  And numpy divides a complex scalar by a real one in Smith's
form, as a complex divisor a + 0i: with r = 1 / a, the real part is
``(re + im * 0) * r`` and the imaginary part ``(im - re * 0) * r`` (re, im
those of conj(z)), which is also what keeps signed zeros the same.

There are three SVD kernels.  ``svd`` returns the full left basis U and
serves only the callers that read U's orthogonal complement
(``geometry.extend_partial_isometry``, ``cpmap.decompose_opstate_morphism``).
``right_singular`` returns ``(s, V)`` without ever forming U and serves the
callers that need only a rank or a null space; on a tall input U would be
square in the row count.  It keeps a real input real: ``algebra.commutant``
hands it the real triangular factor of its system over Hermitian unknowns,
while ``dilation.is_minimal`` (the adjoint of its spanning columns) and
``geometry.partial_isometry_report`` (the caller's matrix, coerced by
``as_matrix``) hand it complex arrays.  All three build or coerce what they
pass, so it checks nothing.  ``singular_values`` returns only
the values, for a whole stack of matrices in one call
(``geometry.classify_partial_isometries``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, ShapeMismatch

_MACHINE_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class Tolerance:
    """The one accept/reject rule.  A residual passes when it is at most
    eps_eq times a scale its caller names, the size of what it compares, so
    no verdict moves when the inputs are rescaled (backward error: Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 1-2); a spectral
    value counts above eps_rank times its spectrum's top, or a caller's
    floor.  eps_eq is finite, as inf * 0 is NaN.  The scales, m = max|.|:

    - T: phi -> psi: m(T) max(m(phi), m(psi)) (is_ocp_morphism, diagram 22),
      max(m(T)^2 m(phi), m(psi)) (diagram 23), phi and psi swapped (24);
    - (T, L): (pi, V) -> (rho, W): m(L) max(m(pi), m(rho)) (intertwine),
      max(m(L) m(V), m(W) m(T)) (squareV), max(m(T) m(V), m(W) m(L)) (squareVstar);
    - m of the input (CP self-adjointness, the symmetry of each pi(E^j_00) in
      the normal form), of the larger restriction (connecting_morphism), 10 m
      of the larger anchor (purification);
    - each identity a = b of a law report: max(m(a), m(b)), the larger side;
      the gates a law runs keep their own scales;
    - cuts of lambda_max (CP gate, dilation rank, rank_unstable), s_max
      (is_minimal), commutant's top, floored at its rounding;
    - 1 where rescaling changes the right answer (the *-hom gate, units,
      isometries, partial isometries, extensions, the normal form); 10 for
      tensor_factor_extract and the purification.
    """

    eps_rank: float = 1e-9
    eps_eq: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.eps_eq < np.inf:
            raise ValueError("eps_eq must be positive and finite")
        if not _MACHINE_EPS <= self.eps_rank < 1.0:
            raise ValueError("eps_rank must lie in [machine epsilon, 1): 1 zeroes every spectrum")

    def within(self, residual, scale: float = 1.0):
        """The residual test: residual <= eps_eq * scale (elementwise on arrays)."""
        return residual <= self.eps_eq * scale

    def cut(self, top: float, floor: float = 0.0) -> float:
        """The spectral cut max(eps_rank * top, floor); a value counts above it."""
        return max(self.eps_rank * top, floor)


DEFAULT_TOL = Tolerance()


def as_matrix(m) -> np.ndarray:
    """Coerce a caller's matrix to a 2-D complex128 array, rejecting NaN/Inf.

    This is the trust boundary: constructors and the entry points that take
    a caller's matrix call it (or ``as_stack`` for a family of basis
    images); helpers that only see arrays the package built do not.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got ndim={a.ndim}")
    _require_finite(a)
    return a


def as_stack(images, count: int | None = None, side: int | None = None) -> np.ndarray:
    """Coerce a caller's basis images to one (count, side, side) complex128 array.

    ``images`` is an iterable of square matrices or a 3-D array; ``count``
    and ``side`` default to whatever the images have.  Finiteness is checked
    once, on the whole stack.
    """
    images = images if isinstance(images, np.ndarray) else list(images)
    try:
        a = np.asarray(images, dtype=np.complex128)
    except ValueError as exc:
        if len({np.shape(m) for m in images}) > 1:
            raise ShapeMismatch("basis images have different shapes") from exc
        raise
    if a.ndim != 3:
        raise ShapeMismatch(f"expected a stack of matrices, got ndim={a.ndim}")
    if count is not None and a.shape[0] != count:
        raise ShapeMismatch(f"{a.shape[0]} basis images for a basis of {count}")
    side = a.shape[1] if side is None else side
    if a.shape[1:] != (side, side):
        raise ShapeMismatch(f"image shape {a.shape[1:]} != ({side}, {side})")
    _require_finite(a)
    return a


def _require_finite(a: np.ndarray):
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")


def linear_extension(coeffs, images) -> np.ndarray:
    """sum_alpha coeffs[alpha] images[alpha], summed over the leading axis.

    coeffs has shape (dim,) + c and images (dim,) + s; the result has shape
    c + s.  Each output (each entry of c) is summed on its own, so only its
    dim terms of shape s are held at once, never all dim * c of them.  The
    terms are added in basis order: accumulate never reorders, whereas sum
    may add pairwise when the summed axis ends up innermost.  With the final
    + 0 (which only turns -0.0 into 0.0) the result equals, bit for bit, the
    loop out = 0; out += coeffs[alpha] * images[alpha].
    """
    c = np.asarray(coeffs)
    p = np.asarray(images)
    columns = c.reshape(len(c), -1).T
    out = np.empty((len(columns),) + p.shape[1:], dtype=np.result_type(c, p))
    for j, column in enumerate(columns):
        terms = column.reshape(column.shape + (1,) * (p.ndim - 1)) * p
        np.add.accumulate(terms, out=terms)
        out[j] = terms[-1]
    return out.reshape(c.shape[1:] + p.shape[1:]) + 0.0


def frozen_index(parts) -> tuple[np.ndarray, ...]:
    """One flat, read-only index array per axis, from per-block tuples of
    broadcastable index arrays: the positions of a scatter cached by shape."""
    flat = [[x.ravel() for x in np.broadcast_arrays(*part)] for part in parts]
    index = tuple(np.concatenate(axis) for axis in zip(*flat))
    for axis in index:
        axis.setflags(write=False)
    return index


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(m).T


def max_abs(m) -> float:
    """Entrywise max-modulus norm; 0.0 for empty arrays."""
    a = np.asarray(m)
    if a.size == 0:
        return 0.0
    return float(np.abs(a).max())


def _fix_phases(u: np.ndarray) -> np.ndarray:
    """Return the diagonal of unit phases that canonicalizes columns of u.

    For each column, the entry of largest modulus (first such row on ties) is
    rotated to the positive real axis.  Zero columns are left alone.  All
    columns in one pass, with the scalar arithmetic of the module docstring.
    """
    phases = np.ones(u.shape[1], dtype=np.complex128)
    if u.size == 0:
        return phases
    z = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    re, im = z.real, -z.imag
    modulus = np.hypot(re, im)
    live = modulus > 0.0
    r = 1.0 / np.where(live, modulus, 1.0)
    phases.real[live] = ((re + im * 0.0) * r)[live]
    phases.imag[live] = ((im - re * 0.0) * r)[live]
    return phases


def hermitian_eig(m):
    """Eigendecomposition of the Hermitian part (m + m*) / 2 of a square matrix.

    Returns ``(w, u)`` with eigenvalues ``w`` real and sorted descending and
    ``u`` the matching orthonormal eigenvector columns, phase-fixed.  Ties in
    the sorted spectrum keep the decomposition's native column order.

    It checks nothing, not even finiteness: whether m is Hermitian enough,
    and at what scale, is its caller's decision.  commutant passes T + T*,
    Hermitian by construction; the CP gate passes each Choi block C and
    weighs max|C - C*| itself, and geometry.normal_form_general_rep tests
    each pi(E^j_00) before its eigensolve.  Raises ConvergenceFailure if the
    underlying iteration fails.
    """
    a = np.asarray(m, dtype=np.complex128)
    try:
        w, u = np.linalg.eigh(0.5 * (a + dagger(a)))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    order = np.argsort(-w, kind="stable")
    w = w[order]
    u = u[:, order]
    u = u * _fix_phases(u)
    return w, u


def kron(a, b) -> np.ndarray:
    """Kronecker product of two matrices, left factor major: (i, alpha) ->
    i * cols_b + alpha.  One broadcast product, the same products as np.kron."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    shape = (a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(shape)


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
    (Chan's R-SVD).  A real input stays real, and each column of ``v`` gets
    the sign that makes its largest entry positive; a complex one gets the
    phase rule.  ``m`` is an array the package built or already coerced:
    nothing is checked here.
    """
    try:
        if m.shape[0] > m.shape[1]:
            m = np.linalg.qr(m, mode="r")
        _, s, vh = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    v = dagger(vh)
    if np.iscomplexobj(v):
        return s, v * _fix_phases(v)
    return s, v * _fix_signs(v)


def _fix_signs(v: np.ndarray) -> np.ndarray:
    """The phase rule on a real matrix: the sign of each column's first entry
    of largest modulus, or 1 for a zero column."""
    if v.size == 0:
        return np.ones(v.shape[1])
    top = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    return np.where(top < 0.0, -1.0, 1.0)


def singular_values(stack) -> np.ndarray:
    """Singular values, descending, of each matrix of a stack, from one
    stacked LAPACK call that forms no singular vectors."""
    try:
        return np.linalg.svd(stack, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc


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
    blocks = [np.asarray(b, dtype=np.complex128) for b in blocks]
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = zeros(rows, cols)
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out
