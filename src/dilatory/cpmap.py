"""Operator-valued completely positive maps on finite-dimensional C*-algebras.

A map phi: A -> B(C^k) is stored by its images on the matrix-unit basis of A
as one (dim, k, k) array, phi(E_alpha) at index alpha, and extended
linearly.  The OcpMap constructor checks the shape and the finiteness of the
whole stack once; every computation below works on the stack at once.
Complete positivity is decided by positivity of the
per-block Choi matrices, with the ampliation kept around as an independent
cross-check.  Morphisms of such maps are plain linear maps T intertwining the
two actions, T phi(a) = psi(a) T.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .algebra import (
    AlgebraElement,
    FdCStarAlgebra,
    StarHom,
    check_star_hom,
)
from .errors import InvalidHom, NotIsometry, NotMorphism, ShapeMismatch
from .numerics import DEFAULT_TOL, Tolerance, as_matrix, as_stack, dagger, linear_extension, max_abs


@dataclass(frozen=True, eq=False)
class OcpMap:
    """Candidate CP map A -> B(C^k), its images one (dim, k, k) array.

    Any sequence of k-by-k matrices, one per matrix unit, is accepted.
    """

    domain: FdCStarAlgebra
    k: int
    basis_images: np.ndarray

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("output dimension k must be at least 1")
        images = as_stack(self.basis_images, self.domain.dim, self.k)
        object.__setattr__(self, "basis_images", images)


def apply(phi: OcpMap, a: AlgebraElement) -> np.ndarray:
    """Evaluate phi on an algebra element by linear extension."""
    if a.algebra.blocks != phi.domain.blocks:
        raise ShapeMismatch("element not in the domain of the map")
    return linear_extension(a.coefficients(), phi.basis_images)


def ampliation_apply(phi: OcpMap, n: int, block_matrix) -> np.ndarray:
    """Apply the n-ampliation to an n-by-n grid of algebra elements."""
    if n < 1:
        raise ShapeMismatch("ampliation order must be positive")
    rows = list(block_matrix)
    if len(rows) != n or any(len(list(r)) != n for r in rows):
        raise ShapeMismatch(f"expected an {n}x{n} grid of elements")
    return np.block([[apply(phi, a) for a in row] for row in rows])


def choi_blocks(phi: OcpMap) -> list[np.ndarray]:
    """Per-block Choi matrices; phi is CP iff every one of them is PSD.

    Block j yields the (n_j k)-square matrix with entry
    ((a, s), (c, t)) = phi(E^{(j)}_{ac})[s, t].
    """
    k = phi.k
    out = []
    for offset, n in zip(phi.domain._offsets, phi.domain.blocks):
        images = phi.basis_images[offset : offset + n * n]
        # [a, c, s, t] -> [(a, s), (c, t)]
        out.append(images.reshape(n, n, k, k).transpose(0, 2, 1, 3).reshape(n * k, n * k))
    return out


@dataclass(frozen=True)
class CpReport:
    is_cp: bool
    min_eigenvalues: tuple[float, ...]
    selfadjoint_residual: float
    selfadjoint: bool
    eigensystems: tuple = field(repr=False, compare=False)


def is_completely_positive(phi: OcpMap, tol: Tolerance = DEFAULT_TOL) -> CpReport:
    """Choi positivity on every block plus self-adjointness of the images.

    One eigensolve per block, of its Hermitian part, kept for the dilation.
    C_j is Hermitian exactly when phi(b*) = phi(b)* on block j; the residual
    max |C_j - C_j*| is weighed against the largest Choi entry, and no
    smallest eigenvalue may lie below minus the cut of the largest over all
    blocks, floored at 0.  So s phi gets the decision of phi for every s > 0.
    """
    blocks = choi_blocks(phi)
    sa = max(max_abs(c - dagger(c)) for c in blocks)
    eigs = tuple(numerics.hermitian_eig(c) for c in blocks)
    mins = tuple(float(w[-1]) for w, _ in eigs)
    lam_max = max(0.0, max(float(w[0]) for w, _ in eigs))
    selfadjoint = tol.within(sa, max_abs(phi.basis_images))
    return CpReport(
        is_cp=selfadjoint and min(mins) >= -tol.cut(lam_max),
        min_eigenvalues=mins,
        selfadjoint_residual=sa,
        selfadjoint=selfadjoint,
        eigensystems=eigs,
    )


def is_unital(phi: OcpMap, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether phi(1) = 1, at scale 1: a multiple s phi is not unital."""
    return tol.within(max_abs(apply(phi, phi.domain.unit()) - numerics.eye(phi.k)))


def tracial_map(m: int, p: int) -> OcpMap:
    """The map A -> tr(A)/m * 1_p from M_m to B(C^p)."""
    if m < 1 or p < 1:
        raise ValueError("dimensions must be positive")
    weights = np.eye(m).reshape(-1) / m  # tr(E_ab) / m
    return OcpMap(FdCStarAlgebra((m,)), p, weights[:, None, None] * numerics.eye(p))


def ad_map(t) -> OcpMap:
    """The adjoint action A -> T A T* from M_n to B(C^rows(T)), n = cols(T)."""
    mat = as_matrix(t)
    n = mat.shape[1]
    units = numerics.eye(n * n).reshape(n * n, n, n)
    return OcpMap(FdCStarAlgebra((n,)), mat.shape[0], mat @ units @ dagger(mat))


def kraus_map(operators, domain: FdCStarAlgebra, k: int) -> OcpMap:
    """CP map from Kraus families, one list of k-by-n_j operators per block."""
    ops = [[as_matrix(t) for t in family] for family in operators]
    if len(ops) != domain.num_blocks:
        raise ShapeMismatch("need one Kraus family per block")
    for family, n in zip(ops, domain.blocks):
        for t in family:
            if t.shape != (k, n):
                raise ShapeMismatch(f"Kraus operator shape {t.shape} != ({k}, {n})")
    images = []
    for family, n in zip(ops, domain.blocks):
        units = numerics.eye(n * n).reshape(n * n, n, n)
        block = np.zeros((n * n, k, k), dtype=np.complex128)
        for t in family:
            block += t @ units @ dagger(t)
        images.append(block)
    return OcpMap(domain, k, np.concatenate(images))


def zero_map(domain: FdCStarAlgebra, k: int) -> OcpMap:
    return OcpMap(domain, k, np.zeros((domain.dim, k, k), dtype=np.complex128))


def compose_maps(psi: OcpMap, phi: OcpMap) -> OcpMap:
    """psi o phi, where psi is defined on the full matrix algebra M_{phi.k}."""
    if psi.domain.blocks != (phi.k,):
        raise ShapeMismatch(
            f"psi must be defined on M_{phi.k} to compose, has domain {psi.domain.blocks}"
        )
    # the coefficients of phi(E_alpha) on the matrix units of M_k are its entries
    coeffs = phi.basis_images.reshape(phi.domain.dim, -1).T
    return OcpMap(phi.domain, psi.k, linear_extension(coeffs, psi.basis_images))


@dataclass(frozen=True, eq=False)
class OcpMorphism:
    """A linear map T with T phi(a) = psi(a) T for all a."""

    source: OcpMap
    target: OcpMap
    T: np.ndarray

    def __post_init__(self):
        mat = as_matrix(self.T)
        if self.source.domain.blocks != self.target.domain.blocks:
            raise ShapeMismatch("morphisms need a common domain algebra")
        if mat.shape != (self.target.k, self.source.k):
            raise ShapeMismatch(
                f"T shape {mat.shape} != ({self.target.k}, {self.source.k})"
            )
        object.__setattr__(self, "T", mat)


def is_ocp_morphism(t, phi: OcpMap, psi: OcpMap, tol: Tolerance = DEFAULT_TOL):
    """Whether T phi(a) = psi(a) T on the basis, at the scale max|T|
    max(max|phi|, max|psi|); returns (bool, max residual)."""
    mat = as_matrix(t)
    if phi.domain.blocks != psi.domain.blocks:
        raise ShapeMismatch("maps live over different algebras")
    if mat.shape != (psi.k, phi.k):
        raise ShapeMismatch(f"T shape {mat.shape} != ({psi.k}, {phi.k})")
    res = max_abs(mat @ phi.basis_images - psi.basis_images @ mat)
    scale = max_abs(mat) * max(max_abs(phi.basis_images), max_abs(psi.basis_images))
    return tol.within(res, scale), res


@dataclass(frozen=True)
class MorphismVariantReport:
    """The three commuting-square variants for a candidate T.

    diagram_23: Ad_T o phi = psi (conjugation onto the target),
    diagram_22: T phi = psi T (the intertwining square),
    diagram_24: Ad_{T*} o psi = phi (conjugation back).
    For isometric T the truth values never violate 23 => 22 => 24.
    """

    diagram_23: bool
    diagram_22: bool
    diagram_24: bool
    residuals: dict = field(default_factory=dict)


def check_morphism_variants(
    t, phi: OcpMap, psi: OcpMap, tol: Tolerance = DEFAULT_TOL
) -> MorphismVariantReport:
    """The three diagrams for T, diagram 22 being is_ocp_morphism's verdict."""
    mat = as_matrix(t)
    diagram_22, r22 = is_ocp_morphism(mat, phi, psi, tol)
    p, q = phi.basis_images, psi.basis_images
    r23 = max_abs(mat @ p @ dagger(mat) - q)
    r24 = max_abs(dagger(mat) @ q @ mat - p)
    m_t, m_p, m_q = max_abs(mat), max_abs(p), max_abs(q)
    return MorphismVariantReport(
        diagram_23=tol.within(r23, max(m_t * m_t * m_p, m_q)),
        diagram_22=diagram_22,
        diagram_24=tol.within(r24, max(m_t * m_t * m_q, m_p)),
        residuals={"diagram_23": r23, "diagram_22": r22, "diagram_24": r24},
    )


@dataclass(frozen=True, eq=False)
class OpStateDecomposition:
    """Block structure of a morphism of operator states.

    The target space splits as range(T) + its complement; psi compresses to
    a copy of phi on the first summand and to some operator state psi2 on the
    second.  basis_l1 is T itself, so the unitary onto range(T) is T.
    """

    unitary: np.ndarray
    psi1: OcpMap
    psi2: OcpMap | None
    basis_l1: np.ndarray
    basis_l2: np.ndarray


def decompose_opstate_morphism(
    t, phi: OcpMap, psi: OcpMap, tol: Tolerance = DEFAULT_TOL
) -> OpStateDecomposition:
    """Split a morphism of operator states into a direct sum.

    Requires phi, psi unital CP and T an isometric morphism (T*T = 1 at
    scale 1: a multiple of an isometry is not one).  Returns the
    unitary onto range(T) (T itself), the compressions psi1 = T* psi T and
    psi2 on the orthogonal complement, and orthonormal bases of both summands.
    """
    mat = as_matrix(t)
    iso_res = max_abs(dagger(mat) @ mat - numerics.eye(phi.k))
    if not tol.within(iso_res):
        raise NotIsometry(f"T*T - I residual {iso_res:.3e}")
    ok, res = is_ocp_morphism(mat, phi, psi, tol)
    if not ok:
        raise NotMorphism(f"intertwining residual {res:.3e}")

    ell, k = mat.shape
    u_full, _, _ = numerics.svd(mat)
    basis_l2 = u_full[:, k:]
    psi1 = OcpMap(phi.domain, k, dagger(mat) @ psi.basis_images @ mat)
    psi2 = None
    if ell > k:
        psi2 = OcpMap(phi.domain, ell - k, dagger(basis_l2) @ psi.basis_images @ basis_l2)
    return OpStateDecomposition(
        unitary=mat, psi1=psi1, psi2=psi2, basis_l1=mat, basis_l2=basis_l2
    )


def pullback(phi: OcpMap, f: StarHom, tol: Tolerance = DEFAULT_TOL) -> OcpMap:
    """phi o f on the source of f; preserves complete positivity."""
    report = check_star_hom(f, tol)
    if not report.ok:
        raise InvalidHom(f"not a *-homomorphism: residuals {report.residuals}")
    return pullback_ungated(phi, f)


def pullback_ungated(phi: OcpMap, f: StarHom) -> OcpMap:
    """phi o f without the *-hom gate, for a caller whose own gate checks f
    (the law suite, whose checkers gate every sampled hom at entry)."""
    if f.target.blocks != phi.domain.blocks:
        raise InvalidHom("target of f is not the domain of phi")
    return OcpMap(f.source, phi.k, linear_extension(f.matrix, phi.basis_images))


def dagger_morphism(m: OcpMorphism, tol: Tolerance = DEFAULT_TOL) -> OcpMorphism:
    """Adjoint morphism T* running the other way; requires m valid."""
    ok, res = is_ocp_morphism(m.T, m.source, m.target, tol)
    if not ok:
        raise NotMorphism(f"input morphism residual {res:.3e}")
    return OcpMorphism(m.target, m.source, dagger(m.T))


def compose_morphisms(g: OcpMorphism, f: OcpMorphism) -> OcpMorphism:
    """g o f, for g out of the map f lands in: the same domain, the same k
    and bit-equal basis images."""
    mid, end = g.source, f.target
    same = mid.domain.blocks == end.domain.blocks and mid.k == end.k
    if not same or mid.basis_images.tobytes() != end.basis_images.tobytes():
        raise ShapeMismatch("morphisms are not composable: g does not start where f ends")
    return OcpMorphism(f.source, g.target, g.T @ f.T)


def identity_morphism(phi: OcpMap) -> OcpMorphism:
    return OcpMorphism(phi, phi, numerics.eye(phi.k))


def unique_unital_hom_from_scalars(target: FdCStarAlgebra) -> StarHom:
    """The only unital *-homomorphism C -> A, sending 1 to the unit."""
    scalars = FdCStarAlgebra((1,))
    return StarHom(scalars, target, (target.unit(),))


__all__ = [
    "OcpMap",
    "OcpMorphism",
    "CpReport",
    "MorphismVariantReport",
    "OpStateDecomposition",
    "apply",
    "ampliation_apply",
    "choi_blocks",
    "is_completely_positive",
    "is_unital",
    "tracial_map",
    "ad_map",
    "kraus_map",
    "zero_map",
    "is_ocp_morphism",
    "check_morphism_variants",
    "decompose_opstate_morphism",
    "pullback",
    "pullback_ungated",
    "dagger_morphism",
    "compose_morphisms",
    "identity_morphism",
    "unique_unital_hom_from_scalars",
]
