"""Operator-valued completely positive maps on finite-dimensional C*-algebras.

A map phi: A -> B(C^k) is stored by its images on the matrix-unit basis of A
and extended linearly.  Complete positivity is decided by positivity of the
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
    unit_star_index,
)
from .errors import InvalidHom, NotIsometry, NotMorphism, ShapeMismatch
from .numerics import DEFAULT_TOL, Tolerance, as_matrix, dagger, max_abs, rank_psd


@dataclass(frozen=True, eq=False)
class OcpMap:
    """Candidate CP map A -> B(C^k), one k-by-k image per matrix unit."""

    domain: FdCStarAlgebra
    k: int
    basis_images: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("output dimension k must be at least 1")
        images = tuple(as_matrix(m) for m in self.basis_images)
        if len(images) != self.domain.dim:
            raise ShapeMismatch("need one image per matrix unit of the domain")
        for img in images:
            if img.shape != (self.k, self.k):
                raise ShapeMismatch(f"image shape {img.shape} != ({self.k}, {self.k})")
        object.__setattr__(self, "basis_images", images)


def apply(phi: OcpMap, a: AlgebraElement) -> np.ndarray:
    """Evaluate phi on an algebra element by linear extension."""
    if a.algebra.blocks != phi.domain.blocks:
        raise ShapeMismatch("element not in the domain of the map")
    coeffs = a.coefficients()
    out = numerics.zeros(phi.k, phi.k)
    for c, img in zip(coeffs, phi.basis_images):
        if c != 0:
            out += c * img
    return out


def ampliation_apply(phi: OcpMap, n: int, block_matrix) -> np.ndarray:
    """Apply the n-ampliation to an n-by-n grid of algebra elements."""
    if n < 1:
        raise ShapeMismatch("ampliation order must be positive")
    rows = list(block_matrix)
    if len(rows) != n or any(len(list(r)) != n for r in rows):
        raise ShapeMismatch(f"expected an {n}x{n} grid of elements")
    k = phi.k
    out = numerics.zeros(n * k, n * k)
    for i in range(n):
        for j in range(n):
            out[i * k : (i + 1) * k, j * k : (j + 1) * k] = apply(phi, rows[i][j])
    return out


def choi_blocks(phi: OcpMap) -> list[np.ndarray]:
    """Per-block Choi matrices; phi is CP iff every one of them is PSD.

    Block j yields the (n_j k)-square matrix with entry
    ((a, s), (c, t)) = phi(E^{(j)}_{ac})[s, t].
    """
    k = phi.k
    out = []
    for j, n in enumerate(phi.domain.blocks):
        c = numerics.zeros(n * k, n * k)
        for a in range(n):
            for b in range(n):
                img = phi.basis_images[phi.domain.basis_index(j, a, b)]
                c[a * k : (a + 1) * k, b * k : (b + 1) * k] = img
        out.append(c)
    return out


@dataclass(frozen=True)
class CpReport:
    is_cp: bool
    min_eigenvalues: tuple[float, ...]
    selfadjoint_residual: float


def is_completely_positive(phi: OcpMap, tol: Tolerance = DEFAULT_TOL) -> CpReport:
    """Choi positivity on every block plus self-adjointness of the images."""
    sa = 0.0
    for alpha in range(phi.domain.dim):
        beta = unit_star_index(phi.domain, alpha)
        sa = max(sa, max_abs(dagger(phi.basis_images[alpha]) - phi.basis_images[beta]))
    mins = []
    all_psd = True
    for block in choi_blocks(phi):
        herm = 0.5 * (block + dagger(block))
        w, _ = numerics.hermitian_eig(herm, tol)
        mins.append(float(w[-1]) if w.size else 0.0)
        _, psd = rank_psd(herm, tol)
        all_psd = all_psd and psd
    return CpReport(
        is_cp=all_psd and sa <= tol.eps_eq,
        min_eigenvalues=tuple(mins),
        selfadjoint_residual=sa,
    )


def is_unital(phi: OcpMap, tol: Tolerance = DEFAULT_TOL) -> bool:
    return max_abs(apply(phi, phi.domain.unit()) - numerics.eye(phi.k)) <= tol.eps_eq


def tracial_map(m: int, p: int) -> OcpMap:
    """The map A -> tr(A)/m * 1_p from M_m to B(C^p)."""
    if m < 1 or p < 1:
        raise ValueError("dimensions must be positive")
    domain = FdCStarAlgebra((m,))
    images = []
    for _, a, b in domain.basis_labels():
        images.append((1.0 / m if a == b else 0.0) * numerics.eye(p))
    return OcpMap(domain, p, tuple(images))


def ad_map(t, domain_dim: int) -> OcpMap:
    """The adjoint action A -> T A T* from M_n to B(C^rows(T))."""
    mat = as_matrix(t)
    n = int(domain_dim)
    if mat.shape[1] != n:
        raise ShapeMismatch(f"T has {mat.shape[1]} columns, domain is M_{n}")
    domain = FdCStarAlgebra((n,))
    images = []
    for _, a, b in domain.basis_labels():
        e = numerics.zeros(n, n)
        e[a, b] = 1.0
        images.append(mat @ e @ dagger(mat))
    return OcpMap(domain, mat.shape[0], tuple(images))


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
    for j, a, b in domain.basis_labels():
        n = domain.blocks[j]
        e = numerics.zeros(n, n)
        e[a, b] = 1.0
        img = numerics.zeros(k, k)
        for t in ops[j]:
            img += t @ e @ dagger(t)
        images.append(img)
    return OcpMap(domain, k, tuple(images))


def zero_map(domain: FdCStarAlgebra, k: int) -> OcpMap:
    return OcpMap(domain, k, tuple(numerics.zeros(k, k) for _ in range(domain.dim)))


def compose_maps(psi: OcpMap, phi: OcpMap) -> OcpMap:
    """psi o phi, where psi is defined on the full matrix algebra M_{phi.k}."""
    if psi.domain.blocks != (phi.k,):
        raise ShapeMismatch(
            f"psi must be defined on M_{phi.k} to compose, has domain {psi.domain.blocks}"
        )
    images = []
    for img in phi.basis_images:
        value = AlgebraElement(psi.domain, (img,))
        images.append(apply(psi, value))
    return OcpMap(phi.domain, psi.k, tuple(images))


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
    """Whether T phi(a) = psi(a) T on the basis; returns (bool, max residual)."""
    mat = as_matrix(t)
    if phi.domain.blocks != psi.domain.blocks:
        raise ShapeMismatch("maps live over different algebras")
    if mat.shape != (psi.k, phi.k):
        raise ShapeMismatch(f"T shape {mat.shape} != ({psi.k}, {phi.k})")
    res = 0.0
    for img_phi, img_psi in zip(phi.basis_images, psi.basis_images):
        res = max(res, max_abs(mat @ img_phi - img_psi @ mat))
    return res <= tol.eps_eq, res


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
    mat = as_matrix(t)
    if mat.shape != (psi.k, phi.k):
        raise ShapeMismatch(f"T shape {mat.shape} != ({psi.k}, {phi.k})")
    r23 = r22 = r24 = 0.0
    for img_phi, img_psi in zip(phi.basis_images, psi.basis_images):
        r23 = max(r23, max_abs(mat @ img_phi @ dagger(mat) - img_psi))
        r22 = max(r22, max_abs(mat @ img_phi - img_psi @ mat))
        r24 = max(r24, max_abs(dagger(mat) @ img_psi @ mat - img_phi))
    return MorphismVariantReport(
        diagram_23=r23 <= tol.eps_eq,
        diagram_22=r22 <= tol.eps_eq,
        diagram_24=r24 <= tol.eps_eq,
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

    Requires phi, psi unital CP and T an isometric morphism.  Returns the
    unitary onto range(T) (T itself), the compressions psi1 = T* psi T and
    psi2 on the orthogonal complement, and orthonormal bases of both summands.
    """
    mat = as_matrix(t)
    iso_res = max_abs(dagger(mat) @ mat - numerics.eye(phi.k))
    if iso_res > tol.eps_eq:
        raise NotIsometry(f"T*T - I residual {iso_res:.3e}")
    ok, res = is_ocp_morphism(mat, phi, psi, tol)
    if not ok:
        raise NotMorphism(f"intertwining residual {res:.3e}")

    ell, k = mat.shape
    u_full, _, _ = numerics.svd(mat)
    basis_l2 = u_full[:, k:]
    psi1 = OcpMap(
        phi.domain, k, tuple(dagger(mat) @ img @ mat for img in psi.basis_images)
    )
    psi2 = None
    if ell > k:
        psi2 = OcpMap(
            phi.domain,
            ell - k,
            tuple(dagger(basis_l2) @ img @ basis_l2 for img in psi.basis_images),
        )
    return OpStateDecomposition(
        unitary=mat, psi1=psi1, psi2=psi2, basis_l1=mat, basis_l2=basis_l2
    )


def pullback(phi: OcpMap, f: StarHom, tol: Tolerance = DEFAULT_TOL) -> OcpMap:
    """phi o f on the source of f; preserves complete positivity."""
    if f.target.blocks != phi.domain.blocks:
        raise InvalidHom("target of f is not the domain of phi")
    report = check_star_hom(f, tol)
    if not report.ok:
        raise InvalidHom(f"not a *-homomorphism: residuals {report.residuals}")
    return OcpMap(f.source, phi.k, tuple(apply(phi, img) for img in f.basis_images))


def dagger_morphism(m: OcpMorphism, tol: Tolerance = DEFAULT_TOL) -> OcpMorphism:
    """Adjoint morphism T* running the other way; requires m valid."""
    ok, res = is_ocp_morphism(m.T, m.source, m.target, tol)
    if not ok:
        raise NotMorphism(f"input morphism residual {res:.3e}")
    return OcpMorphism(m.target, m.source, dagger(m.T))


def compose_morphisms(g: OcpMorphism, f: OcpMorphism) -> OcpMorphism:
    """g o f."""
    if g.source.k != f.target.k or g.source.domain.blocks != f.target.domain.blocks:
        raise ShapeMismatch("morphisms are not composable")
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
    "dagger_morphism",
    "compose_morphisms",
    "identity_morphism",
    "unique_unital_hom_from_scalars",
]
