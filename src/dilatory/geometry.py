"""Partial isometries, representation normal forms, and purification.

A partial isometry is detected by the algebraic test L = L L* L and
cross-checked against the restricted-isometry definition on its initial
space (Halmos and McLaughlin, Partial isometries, 1963).  Both tests are
written once, over a stack of matrices: partial_isometry_report decides one
matrix as a stack of one, and classify_partial_isometries decides a whole
list in one zero-padded batch.  A representation is brought to the normal form
R pi(a) R* = (+)_j a_j (x) 1_{c_j} straight off its matrix units: the
multiplicity space of block j is range pi(E^j_00), and the units pi(E^j_a0)
carry an orthonormal basis of it across the block (Davidson, C*-Algebras by
Example, ch. III).  That normal form is also the representation gate: its
residual and the unit residual bound every *-hom residual, so no *-hom check
runs first.  Purification then reduces to extending, block by block, the tensor
factor of the connecting morphism between two dilations of the same map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .algebra import FdCStarAlgebra, boxplus_rep_images, diagonal_units
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
    NotEquivalent,
    NotExtension,
    NotPartialIsometry,
    NotRepresentation,
    NotTensorForm,
    RestrictionMismatch,
    ShapeMismatch,
)
from .numerics import DEFAULT_TOL, Tolerance, as_matrix, as_stack, dagger, kron, max_abs


@dataclass(frozen=True, eq=False)
class PartialIsometryReport:
    """Outcome of the L = L L* L test together with the initial space.

    ``initial_space_basis`` holds orthonormal columns spanning ker(L) perp;
    ``initial_defect`` is the largest deviation of a retained singular value
    from 1, so ``restricted_isometry_ok`` re-decides the same question from
    the restricted-isometry definition.
    """

    is_partial_isometry: bool
    restricted_isometry_ok: bool
    initial_space_basis: np.ndarray
    residual: float
    initial_defect: float


def _dual_tests(stack: np.ndarray, sing: np.ndarray, tol: Tolerance):
    """Both definitions for each matrix L of a stack, given its singular
    values: the residual max|L L* L - L| and the defect max|s - 1| over the
    s above the cut of 1, then the two verdicts.  Scale 1 throughout: the
    singular values of a partial isometry are 0 or 1, so s L is not one."""
    cube = stack @ np.conj(stack.swapaxes(-1, -2)) @ stack
    residual = np.max(np.abs(cube - stack), axis=(-2, -1), initial=0.0)
    defect = np.max(np.abs(sing - 1.0), axis=-1, where=sing > tol.cut(1.0), initial=0.0)
    return residual, defect, tol.within(residual), tol.within(defect)


def partial_isometry_report(l, tol: Tolerance = DEFAULT_TOL) -> PartialIsometryReport:
    mat = as_matrix(l)
    sing, v = numerics.right_singular(mat)
    residual, defect, algebraic, restricted = _dual_tests(mat[None], sing[None], tol)
    return PartialIsometryReport(
        is_partial_isometry=bool(algebraic[0]),
        restricted_isometry_ok=bool(restricted[0]),
        initial_space_basis=v[:, : int(np.count_nonzero(sing > tol.cut(1.0)))],
        residual=float(residual[0]),
        initial_defect=float(defect[0]),
    )


def classify_partial_isometries(matrices, tol: Tolerance = DEFAULT_TOL):
    """Both verdicts of partial_isometry_report for a list of matrices, in
    one batch: returns the residuals and the algebraic and restricted-isometry
    verdicts, each an array in list order.

    The matrices are zero-padded into one (count, side, side) stack, with one
    batched residual and one batched svd(compute_uv=False).  Padding changes
    neither verdict: the padded entries of L L* L - L are exact zeros, and
    the extra singular values are 0, below the cut.
    """
    side = max((max(np.shape(m)) for m in matrices), default=0)
    stack = np.zeros((len(matrices), side, side), dtype=np.complex128)
    for j, m in enumerate(matrices):
        rows, cols = np.shape(m)
        stack[j, :rows, :cols] = m
    stack = as_stack(stack)
    sing = numerics.singular_values(stack)
    residual, _, algebraic, restricted = _dual_tests(stack, sing, tol)
    return residual, algebraic, restricted


def is_extension(l, m, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether M agrees with L on L's initial space (L <= M), at scale 1.
    Only L's initial space needs an SVD; M needs only its residual."""
    lmat = as_matrix(l)
    mmat = as_matrix(m)
    if lmat.shape != mmat.shape:
        raise ShapeMismatch("extension candidates must have equal shape")
    rep_l = partial_isometry_report(lmat, tol)
    if not rep_l.is_partial_isometry:
        raise NotPartialIsometry(f"L residual {rep_l.residual:.3e}")
    residual_m, _, algebraic_m, _ = _dual_tests(mmat[None], np.zeros((1, 0)), tol)
    if not algebraic_m[0]:
        raise NotPartialIsometry(f"M residual {residual_m[0]:.3e}")
    basis = rep_l.initial_space_basis
    proj = basis @ dagger(basis)
    return tol.within(max_abs((mmat - lmat) @ proj))


def is_intertwining_extension(
    l, m, pi_images, rho_images, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """L trianglelefteq M: an extension that also intertwines pi and rho (scale 1)."""
    if not is_extension(l, m, tol):
        raise NotExtension("M does not extend L on its initial space")
    mmat = as_matrix(m)
    pi = as_stack(pi_images)
    rho = as_stack(rho_images, len(pi))
    return tol.within(max_abs(mmat @ pi - rho @ mmat))


def extend_partial_isometry(l, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Maximal extension agreeing with L on its initial space.

    Unitary when L is square, an isometry when rows exceed columns, a
    co-isometry otherwise; built by matching the orthonormal complements of
    the initial and final spaces in the (phase-fixed) SVD order, so the
    choice is deterministic.
    """
    mat = as_matrix(l)
    u, sing, v = numerics.svd(mat)
    residual, _, algebraic, _ = _dual_tests(mat[None], sing[None], tol)
    if not algebraic[0]:
        raise NotPartialIsometry(f"residual {residual[0]:.3e}")
    rank = int(np.count_nonzero(sing > tol.cut(1.0)))
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
    reconstruction misses O at scale 10 the input did not have tensor form
    (e.g. it was not an intertwiner) and NotTensorForm is raised.
    """
    mat = as_matrix(o)
    n = int(n)
    if n < 1 or mat.shape[0] % n or mat.shape[1] % n:
        raise ShapeMismatch(f"shape {mat.shape} is not n p x n q for n = {n}")
    p, q = mat.shape[0] // n, mat.shape[1] // n
    diagonal_blocks = mat.reshape(n, p, n, q)[range(n), :, range(n)]
    out = numerics.linear_extension(np.ones(n), diagonal_blocks) / n
    rebuilt = kron(numerics.eye(n), out)
    residual = max_abs(mat - rebuilt)
    # |O| <= 1 (a block of isometries); the 10 allows for the normal forms' rounding
    if not tol.within(residual, 10.0):
        raise NotTensorForm(f"reconstruction residual {residual:.3e}")
    return out


def normal_form_general_rep(pi_images, algebra: FdCStarAlgebra, tol: Tolerance = DEFAULT_TOL):
    """Multiplicities (c_1, ..., c_t) and unitary R onto the block normal form.

    The multiplicity space of block j is range pi(E^j_00), c_j its rank (one
    eigensolve per block); the units pi(E^j_a0) carry its orthonormal basis
    across the block, and those columns, ordered a major, are the rows of R
    for block j.  A killed block contributes none.  It is also the gate: it
    raises NotRepresentation unless each P = pi(E^j_00) is Hermitian (the
    residual max|P - P*| at the scale max|P|; the eigensolve then takes its
    Hermitian part), the ranks fill C^h, and e1 = max|sum_i pi(E_ii) - 1|
    and e = max_a |R pi(a) R* - B(a)| (B the normal form) pass at scale 1,
    as no multiple of a representation is one.  Then ||R R* - 1|| <= f =
    h (d e + e1) / (1 - h e1), d = sum_j n_j, and for f < 1 the residuals
    of the check over all pairs of basis images, which bound check_star_hom's,
    are at most e1 (unital), 2 h e / (1 - f) (star) and (3 h e + (h e)^2 +
    (1 + h e)^2 f / (1 - f)) / (1 - f) (multiplicative), exactly.
    """
    images = as_stack(pi_images, algebra.dim)
    h = images.shape[1]
    if h < 1:
        raise DegenerateDimension(f"h={h}; must be >= 1")
    unit = max_abs(images[diagonal_units(algebra)].sum(axis=0) - numerics.eye(h))
    if not tol.within(unit):
        raise NotRepresentation(f"unit residual {unit:.3e}")
    mults, columns = [], []
    for n, offset in zip(algebra.blocks, algebra._offsets):
        p = images[offset]
        skew, scale = max_abs(p - dagger(p)), max_abs(p)
        if not tol.within(skew, scale):
            raise NotRepresentation(
                f"pi(E_00) is not Hermitian: symmetry residual {skew:.3e} "
                f"at largest entry {scale:.3e}"
            )
        w, u = numerics.hermitian_eig(p)
        c = int(np.count_nonzero(w > 0.5))
        mults.append(c)
        # column (a, alpha) is pi(E_a0) u_alpha
        carried = images[offset : offset + n * n : n] @ u[:, :c]
        columns.append(carried.transpose(1, 0, 2).reshape(h, n * c))
    if sum(n * c for n, c in zip(algebra.blocks, mults)) != h:
        raise NotRepresentation("the ranges of the pi(E_00) do not fill the carrier")
    r = dagger(np.concatenate(columns, axis=1))
    worst = max_abs(r @ images @ dagger(r) - boxplus_rep_images(algebra, mults))
    if not tol.within(worst):
        raise NotRepresentation(f"normal form residual {worst:.3e}")
    return tuple(mults), r


def connecting_morphism(
    rep1: AnchoredRep, rep2: AnchoredRep, tol: Tolerance = DEFAULT_TOL
) -> RepMorphism:
    """The canonical partial isometry (id_K, L) between two dilations.

    L composes the adjoint of the mediating isometry into rep1 with the
    mediating isometry into rep2, both taken from one canonical dilation of
    the shared restriction; its initial space is the reachable subspace of
    rep1 and it maps it unitarily onto the reachable subspace of rep2.  The
    two restrictions must agree at the scale of the larger one.
    """
    if rep1.algebra.blocks != rep2.algebra.blocks or rep1.k != rep2.k:
        raise ShapeMismatch("representations anchor different spaces")
    phi1, phi2 = restrict(rep1), restrict(rep2)
    mismatch = max_abs(phi1.basis_images - phi2.basis_images)
    scale = max(max_abs(phi1.basis_images), max_abs(phi2.basis_images))
    if not tol.within(mismatch, scale):
        raise RestrictionMismatch(f"restrictions differ by {mismatch:.3e} at scale {scale:.3e}")
    cert = stinespring_dilate(phi1, tol, check_cp=False)
    m1 = mediating_morphism(rep1, cert=cert)
    m2 = mediating_morphism(rep2, cert=cert)
    return RepMorphism(numerics.eye(rep1.k), m2.L @ dagger(m1.L))


def _purify_pipeline(rep1: AnchoredRep, rep2: AnchoredRep, tol: Tolerance):
    """Normal forms and the per-block tensor factors of the connecting
    morphism."""
    c1, r = normal_form_general_rep(rep1.pi_images, rep1.algebra, tol)
    c2, s = normal_form_general_rep(rep2.pi_images, rep2.algebra, tol)
    o = s @ connecting_morphism(rep1, rep2, tol).L @ dagger(r)
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
    return c1, c2, r, s, factors


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
    c1, c2, r, s, factors = _purify_pipeline(rep1, rep2, tol)
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
    c1, c2, r, s, factors = _purify_pipeline(rep1, rep2, tol)
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
    return {
        "intertwine": max_abs(mat @ rep1.pi_images - rep2.pi_images @ mat),
        "anchor": max_abs(mat @ rep1.V - rep2.V),
        "isometry_defect": max_abs(dagger(mat) @ mat - numerics.eye(mat.shape[1])),
        "coisometry_defect": max_abs(mat @ dagger(mat) - numerics.eye(mat.shape[0])),
    }


def _verify_purification(u, rep1, rep2, tol: Tolerance, require_unitary: bool):
    """Refuse U unless it intertwines, carries V onto W and, when asked, is
    unitary.  The anchor residual |U V - W| is weighed against the larger
    anchor, so rescaling both anchors moves no decision; the other residuals
    are scale-free.  Each at 10 times its scale, as in tensor_factor_extract."""
    res = purification_residuals(u, rep1, rep2)
    anchor_scale = 10.0 * max(max_abs(rep1.V), max_abs(rep2.V))
    if not (tol.within(res["intertwine"], 10.0) and tol.within(res["anchor"], anchor_scale)):
        raise DilatoryError(f"purification residuals too large: {res}")
    unitary = max(res["isometry_defect"], res["coisometry_defect"])
    if require_unitary and not tol.within(unitary, 10.0):
        raise NotEquivalent(f"assembled map is not unitary: {res}")
