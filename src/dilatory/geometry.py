"""Partial isometries, representation normal forms, and purification.

A partial isometry is detected by the algebraic test L = L L* L and
cross-checked against the restricted-isometry definition on its initial
space.  Representations of matrix blocks are brought to the normal form
R pi(a) R* = a (x) 1 by transporting an orthonormal basis of range pi(E_11)
with the units pi(E_i1); purification then reduces to extending, block by
block, the tensor factor of the connecting morphism between two dilations of
the same map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .algebra import AlgebraElement, FdCStarAlgebra, StarHom, check_star_hom
from .dilation import (
    AnchoredRep,
    RepMorphism,
    mediating_morphism,
    restrict,
    stinespring_dilate,
)
from .errors import (
    DegenerateDimension,
    DilatoryError,
    NonIntegralMultiplicity,
    NotEquivalent,
    NotExtension,
    NotPartialIsometry,
    NotRepresentation,
    NotTensorForm,
    RestrictionMismatch,
    ShapeMismatch,
)
from .numerics import DEFAULT_TOL, Tolerance, as_matrix, dagger, kron, max_abs


@dataclass(frozen=True, eq=False)
class PartialIsometryReport:
    """Outcome of the L = L L* L test together with the initial space.

    ``initial_space_basis`` holds orthonormal columns spanning ker(L) perp;
    ``initial_defect`` is the largest deviation of a retained singular value
    from 1, so ``restricted_isometry_ok`` re-decides the same question from
    the restricted-isometry definition.
    """

    is_partial_isometry: bool
    initial_space_basis: np.ndarray
    residual: float
    initial_defect: float
    eps_eq: float

    @property
    def restricted_isometry_ok(self) -> bool:
        return self.initial_defect <= self.eps_eq


def partial_isometry_report(l, tol: Tolerance = DEFAULT_TOL) -> PartialIsometryReport:
    mat = as_matrix(l)
    residual = max_abs(mat @ dagger(mat) @ mat - mat)
    sing, v = numerics.right_singular(mat)
    keep = sing > tol.eps_rank
    basis = v[:, : int(np.count_nonzero(keep))]
    defect = float(np.max(np.abs(sing[keep] - 1.0))) if np.any(keep) else 0.0
    return PartialIsometryReport(
        is_partial_isometry=residual <= tol.eps_eq,
        initial_space_basis=basis,
        residual=residual,
        initial_defect=defect,
        eps_eq=tol.eps_eq,
    )


def is_extension(l, m, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether M agrees with L on L's initial space (L <= M)."""
    lmat = as_matrix(l)
    mmat = as_matrix(m)
    if lmat.shape != mmat.shape:
        raise ShapeMismatch("extension candidates must have equal shape")
    rep_l = partial_isometry_report(lmat, tol)
    rep_m = partial_isometry_report(mmat, tol)
    if not rep_l.is_partial_isometry:
        raise NotPartialIsometry(f"L residual {rep_l.residual:.3e}")
    if not rep_m.is_partial_isometry:
        raise NotPartialIsometry(f"M residual {rep_m.residual:.3e}")
    basis = rep_l.initial_space_basis
    proj = basis @ dagger(basis)
    return max_abs((mmat - lmat) @ proj) <= tol.eps_eq


def is_intertwining_extension(
    l, m, pi_images, rho_images, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """L trianglelefteq M: an extension that also intertwines pi and rho."""
    if not is_extension(l, m, tol):
        raise NotExtension("M does not extend L on its initial space")
    mmat = as_matrix(m)
    for a, b in zip(pi_images, rho_images):
        if max_abs(mmat @ as_matrix(a) - as_matrix(b) @ mmat) > tol.eps_eq:
            return False
    return True


def extend_partial_isometry(l, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Maximal extension agreeing with L on its initial space.

    Unitary when L is square, an isometry when rows exceed columns, a
    co-isometry otherwise; built by matching the orthonormal complements of
    the initial and final spaces in the (phase-fixed) SVD order, so the
    choice is deterministic.
    """
    mat = as_matrix(l)
    report = partial_isometry_report(mat, tol)
    if not report.is_partial_isometry:
        raise NotPartialIsometry(f"residual {report.residual:.3e}")
    u, sing, v = numerics.svd(mat)
    rank = int(np.count_nonzero(sing > tol.eps_rank))
    rows, cols = mat.shape
    u1, v1 = u[:, :rank], v[:, :rank]
    u2, v2 = u[:, rank:], v[:, rank:]
    extra = min(rows - rank, cols - rank)
    out = u1 @ dagger(v1)
    if extra > 0:
        out = out + u2[:, :extra] @ dagger(v2[:, :extra])
    return out


def tensor_factor_extract(o, n: int, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Recover P from an operator of the form 1_n (x) P.

    P is the partial trace over the first factor divided by n; if the
    reconstruction misses O by more than 10 eps_eq the input did not have
    tensor form (e.g. it was not an intertwiner) and NotTensorForm is raised.
    """
    mat = as_matrix(o)
    n = int(n)
    if n < 1 or mat.shape[0] % n or mat.shape[1] % n:
        raise ShapeMismatch(f"shape {mat.shape} is not n p x n q for n = {n}")
    p, q = mat.shape[0] // n, mat.shape[1] // n
    out = numerics.zeros(p, q)
    for i in range(n):
        out += mat[i * p : (i + 1) * p, i * q : (i + 1) * q]
    out /= n
    rebuilt = kron(numerics.eye(n), out)
    residual = max_abs(mat - rebuilt)
    if residual > 10.0 * tol.eps_eq:
        raise NotTensorForm(f"reconstruction residual {residual:.3e}")
    return out


def _rep_gate(pi_images, algebra: FdCStarAlgebra, h: int, tol: Tolerance):
    """Raise NotRepresentation unless the images define a *-hom A -> M_h."""
    if h < 1:
        raise DegenerateDimension(f"h={h}; must be >= 1")
    target = FdCStarAlgebra((h,))
    hom = StarHom(algebra, target, tuple(AlgebraElement(target, (m,)) for m in pi_images))
    report = check_star_hom(hom, tol)
    if not report.ok:
        raise NotRepresentation(f"not a unital *-representation: {report.residuals}")


def normal_form_matrix_rep(pi_images, n: int, tol: Tolerance = DEFAULT_TOL):
    """Multiplicity p and unitary R with R pi(a) R* = a (x) 1_p, for pi on M_n.

    Columns of R* are pi(E_{i1}) w_alpha with {w_alpha} an orthonormal basis
    of range pi(E_11), ordered i major.
    """
    images = [as_matrix(m) for m in pi_images]
    n = int(n)
    if len(images) != n * n:
        raise ShapeMismatch(f"expected {n * n} images for M_{n}")
    h = images[0].shape[0]
    algebra = FdCStarAlgebra((n,))
    _rep_gate(images, algebra, h, tol)
    if h % n:
        raise NonIntegralMultiplicity(f"dim {h} is not a multiple of {n}")
    p = h // n

    e11 = images[algebra.basis_index(0, 0, 0)]
    w, u = numerics.hermitian_eig(e11, tol)
    if int(np.count_nonzero(w > 0.5)) != p:
        raise NotRepresentation("range of pi(E_11) has the wrong dimension")
    basis = u[:, :p]

    r_star = numerics.zeros(h, h)
    for i in range(n):
        cols = images[algebra.basis_index(0, i, 0)] @ basis
        r_star[:, i * p : (i + 1) * p] = cols
    r = dagger(r_star)

    worst = 0.0
    for idx, (_, a, b) in enumerate(algebra.basis_labels()):
        e = numerics.zeros(n, n)
        e[a, b] = 1.0
        worst = max(worst, max_abs(r @ images[idx] @ r_star - kron(e, numerics.eye(p))))
    if worst > tol.eps_eq:
        raise NotRepresentation(f"normal form residual {worst:.3e}")
    return p, r


def normal_form_general_rep(pi_images, algebra: FdCStarAlgebra, tol: Tolerance = DEFAULT_TOL):
    """Multiplicities (c_1, ..., c_t) and unitary R onto the block normal form.

    The central projections pi(0 + ... + 1_{n_j} + ... + 0) split the carrier;
    each nonzero piece is a multiple of the defining representation of its
    block and is straightened by normal_form_matrix_rep.  Zero multiplicities
    contribute empty factors and are skipped.
    """
    images = [as_matrix(m) for m in pi_images]
    if len(images) != algebra.dim:
        raise ShapeMismatch("need one image per matrix unit")
    h = images[0].shape[0]
    _rep_gate(images, algebra, h, tol)

    mults = []
    rows = []
    consumed = 0
    for j, n in enumerate(algebra.blocks):
        central = numerics.zeros(h, h)
        for a in range(n):
            central += images[algebra.basis_index(j, a, a)]
        w, u = numerics.hermitian_eig(central, tol)
        hj = int(np.count_nonzero(w > 0.5))
        if hj % n:
            raise NonIntegralMultiplicity(
                f"block {j}: subspace dimension {hj} not divisible by {n}"
            )
        mults.append(hj // n)
        if hj == 0:
            continue
        basis = u[:, :hj]
        sub_images = [
            dagger(basis) @ images[algebra.basis_index(j, a, b)] @ basis
            for a in range(n)
            for b in range(n)
        ]
        _, r_j = normal_form_matrix_rep(sub_images, n, tol)
        rows.append(r_j @ dagger(basis))
        consumed += hj
    if consumed != h:
        raise NotRepresentation("central projections do not exhaust the carrier")
    r = np.vstack(rows) if rows else numerics.zeros(0, h)
    return tuple(mults), r


def restriction_mismatch(rep1: AnchoredRep, rep2: AnchoredRep) -> float:
    phi1 = restrict(rep1)
    phi2 = restrict(rep2)
    return max(
        max_abs(a - b) for a, b in zip(phi1.basis_images, phi2.basis_images)
    )


def connecting_morphism(
    rep1: AnchoredRep, rep2: AnchoredRep, tol: Tolerance = DEFAULT_TOL
) -> RepMorphism:
    """The canonical partial isometry (id_K, L) between two dilations.

    L composes the adjoint of the mediating isometry into rep1 with the
    mediating isometry into rep2, both taken from one canonical dilation of
    the shared restriction; its initial space is the reachable subspace of
    rep1 and it maps it unitarily onto the reachable subspace of rep2.
    """
    if rep1.algebra.blocks != rep2.algebra.blocks or rep1.k != rep2.k:
        raise ShapeMismatch("representations anchor different spaces")
    mismatch = restriction_mismatch(rep1, rep2)
    if mismatch > tol.eps_eq:
        raise RestrictionMismatch(f"restrictions differ by {mismatch:.3e}")
    cert = stinespring_dilate(restrict(rep1), tol, check_cp=False)
    m1 = mediating_morphism(rep1, tol, cert=cert)
    m2 = mediating_morphism(rep2, tol, cert=cert)
    return RepMorphism(numerics.eye(rep1.k), m2.L @ dagger(m1.L))


def _purify_pipeline(rep1: AnchoredRep, rep2: AnchoredRep, tol: Tolerance):
    """Normal forms, connecting morphism, and per-block tensor factors."""
    c1, r = normal_form_general_rep(rep1.pi_images, rep1.algebra, tol)
    c2, s = normal_form_general_rep(rep2.pi_images, rep2.algebra, tol)
    link = connecting_morphism(rep1, rep2, tol)
    o = s @ link.L @ dagger(r)
    factors = []
    row = col = 0
    for n, cj, dj in zip(rep1.algebra.blocks, c1, c2):
        rows_j, cols_j = n * dj, n * cj
        block = o[row : row + rows_j, col : col + cols_j]
        if cj == 0 or dj == 0:
            factors.append(numerics.zeros(dj, cj))
        else:
            factors.append(tensor_factor_extract(block, n, tol))
        row += rows_j
        col += cols_j
    return c1, c2, r, s, link, factors


def _assemble(rep_blocks, mults1, mults2, r, s, extensions) -> np.ndarray:
    pieces = []
    for n, cj, dj, m in zip(rep_blocks, mults1, mults2, extensions):
        if cj == 0 and dj == 0:
            continue
        pieces.append(kron(numerics.eye(n), m))
    middle = numerics.block_diag(pieces)
    return dagger(s) @ middle @ r


def purify_unitary(
    rep1: AnchoredRep, rep2: AnchoredRep, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Unitary intertwiner U with U pi(a) = rho(a) U and U V = W.

    Exists whenever the two dilations of the same map carry unitarily
    equivalent representations (equal multiplicity vectors).  The unitary is
    not unique; this one extends the connecting morphism blockwise through
    the deterministic completion, so callers should assert its properties
    rather than its entries.
    """
    c1, c2, r, s, _, factors = _purify_pipeline(rep1, rep2, tol)
    if c1 != c2:
        raise NotEquivalent(
            f"multiplicity vectors {c1} and {c2} differ; use purify_partial"
        )
    extensions = [extend_partial_isometry(p, tol) for p in factors]
    u = _assemble(rep1.algebra.blocks, c1, c2, r, s, extensions)
    _verify_purification(u, rep1, rep2, tol, require_unitary=True)
    return u


def purify_partial(
    rep1: AnchoredRep, rep2: AnchoredRep, tol: Tolerance = DEFAULT_TOL
):
    """Maximal intertwining extension between possibly inequivalent dilations.

    Each tensor factor is extended to an isometry or a co-isometry depending
    on which multiplicity is larger; when the comparison changes sign across
    blocks the result is neither, yet still maximal for the intertwining
    extension order.  Returns (U, label) with label one of "unitary",
    "isometry", "co-isometry", "mixed".
    """
    c1, c2, r, s, _, factors = _purify_pipeline(rep1, rep2, tol)
    extensions = [extend_partial_isometry(p, tol) for p in factors]
    u = _assemble(rep1.algebra.blocks, c1, c2, r, s, extensions)
    _verify_purification(u, rep1, rep2, tol, require_unitary=False)
    grows = any(c < d for c, d in zip(c1, c2))
    shrinks = any(c > d for c, d in zip(c1, c2))
    if not grows and not shrinks:
        label = "unitary"
    elif grows and shrinks:
        label = "mixed"
    elif grows:
        label = "isometry"
    else:
        label = "co-isometry"
    return u, label


def purification_residuals(u, rep1: AnchoredRep, rep2: AnchoredRep) -> dict:
    mat = as_matrix(u)
    inter = 0.0
    for a, b in zip(rep1.pi_images, rep2.pi_images):
        inter = max(inter, max_abs(mat @ a - b @ mat))
    return {
        "intertwine": inter,
        "anchor": max_abs(mat @ rep1.V - rep2.V),
        "isometry_defect": max_abs(dagger(mat) @ mat - numerics.eye(mat.shape[1])),
        "coisometry_defect": max_abs(mat @ dagger(mat) - numerics.eye(mat.shape[0])),
    }


def _verify_purification(u, rep1, rep2, tol: Tolerance, require_unitary: bool):
    res = purification_residuals(u, rep1, rep2)
    bound = 10.0 * tol.eps_eq
    if res["intertwine"] > bound or res["anchor"] > bound:
        raise DilatoryError(f"purification residuals too large: {res}")
    if require_unitary and max(res["isometry_defect"], res["coisometry_defect"]) > bound:
        raise NotEquivalent(f"assembled map is not unitary: {res}")
