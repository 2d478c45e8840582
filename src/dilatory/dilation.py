"""Minimal Stinespring dilations and their universal property.

The dilation of a CP map phi: A -> B(C^k) is built from the Gram matrix of
the sesquilinear form <a (x) v, b (x) w> = <v, phi(a* b) w> on A (x) C^k.
An eigendecomposition G = U L U* yields quotient coordinates Q = L+^{1/2} U+*
onto the support of the form: Q kills the null space, carries the induced
inner product exactly (Q* Q = G), and in finite dimension the quotient is
already complete.  The representation acts by compressed left multiplication
Q M_a Q+ and the anchor V sends e_s to the class of 1_A (x) e_s.

Morphisms of CP maps transport along the construction (L_T), algebra maps
induce comparison isometries between dilations (L_f), and every other
dilation of the same map receives a canonical mediating isometry from the
minimal one (m); these are the raw ingredients of the adjunction laws checked
in the laws module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .algebra import (
    AlgebraElement,
    FdCStarAlgebra,
    StarHom,
    StarHomReport,
    check_star_hom,
    unit_product_index,
)
from .cpmap import OcpMap, is_completely_positive, is_ocp_morphism, pullback
from .errors import (
    DegenerateDimension,
    NotCompletelyPositive,
    NotMinimal,
    NotMorphism,
    ShapeMismatch,
)
from .numerics import DEFAULT_TOL, Tolerance, as_matrix, dagger, kron, max_abs


@dataclass(frozen=True, eq=False)
class AnchoredRep:
    """A representation pi of A on C^h together with an anchor V: C^k -> C^h."""

    algebra: FdCStarAlgebra
    k: int
    h: int
    pi_images: tuple[np.ndarray, ...]
    V: np.ndarray

    def __post_init__(self):
        if self.k < 1 or self.h < 1:
            raise DegenerateDimension(f"k={self.k}, h={self.h}; both must be >= 1")
        images = tuple(as_matrix(m) for m in self.pi_images)
        if len(images) != self.algebra.dim:
            raise ShapeMismatch("need one image per matrix unit")
        for img in images:
            if img.shape != (self.h, self.h):
                raise ShapeMismatch(f"pi image shape {img.shape} != ({self.h}, {self.h})")
        v = as_matrix(self.V)
        if v.shape != (self.h, self.k):
            raise ShapeMismatch(f"V shape {v.shape} != ({self.h}, {self.k})")
        object.__setattr__(self, "pi_images", images)
        object.__setattr__(self, "V", v)

    def as_star_hom(self) -> StarHom:
        """pi as a map into the one-block algebra M_h, for validation."""
        target = FdCStarAlgebra((self.h,))
        return StarHom(
            self.algebra,
            target,
            tuple(AlgebraElement(target, (img,)) for img in self.pi_images),
        )


def pi_apply(rep: AnchoredRep, a: AlgebraElement) -> np.ndarray:
    if a.algebra.blocks != rep.algebra.blocks:
        raise ShapeMismatch("element not in the represented algebra")
    out = numerics.zeros(rep.h, rep.h)
    for c, img in zip(a.coefficients(), rep.pi_images):
        if c != 0:
            out += c * img
    return out


def validate_rep(rep: AnchoredRep, tol: Tolerance = DEFAULT_TOL) -> StarHomReport:
    """check_star_hom applied to the induced map A -> M_h."""
    return check_star_hom(rep.as_star_hom(), tol)


def is_preserving(rep: AnchoredRep, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether the anchor V is an isometry."""
    return max_abs(dagger(rep.V) @ rep.V - numerics.eye(rep.k)) <= tol.eps_eq


@dataclass(frozen=True, eq=False)
class RepMorphism:
    """A pair (T, L) between anchored representations."""

    T: np.ndarray
    L: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "T", as_matrix(self.T))
        object.__setattr__(self, "L", as_matrix(self.L))


@dataclass(frozen=True)
class RepMorphismReport:
    ok: bool
    residuals: dict = field(default_factory=dict)


def is_rep_morphism(
    m: RepMorphism, src: AnchoredRep, dst: AnchoredRep, tol: Tolerance = DEFAULT_TOL
) -> RepMorphismReport:
    """Verify the intertwining square and both anchor squares.

    L pi(a) = rho(a) L on the basis, L V = W T, and T V* = W* L.
    """
    if src.algebra.blocks != dst.algebra.blocks:
        raise ShapeMismatch("representations are over different algebras")
    if m.T.shape != (dst.k, src.k) or m.L.shape != (dst.h, src.h):
        raise ShapeMismatch(
            f"(T, L) shapes {m.T.shape}, {m.L.shape} do not fit the representations"
        )
    inter = 0.0
    for img_src, img_dst in zip(src.pi_images, dst.pi_images):
        inter = max(inter, max_abs(m.L @ img_src - img_dst @ m.L))
    square_v = max_abs(m.L @ src.V - dst.V @ m.T)
    square_vstar = max_abs(m.T @ dagger(src.V) - dagger(dst.V) @ m.L)
    ok = max(inter, square_v, square_vstar) <= tol.eps_eq
    return RepMorphismReport(
        ok=ok,
        residuals={"intertwine": inter, "squareV": square_v, "squareVstar": square_vstar},
    )


@dataclass(frozen=True, eq=False)
class DilationCertificate:
    """Minimal dilation plus the quotient data used to build it.

    Q maps A (x) C^k coordinates onto the d-dimensional quotient and
    satisfies Q Q+ = I and Q* Q = Gram matrix; the full Gram spectrum and the
    tolerance are kept so the rank decision can be audited.
    """

    rep: AnchoredRep
    source: OcpMap
    Q: np.ndarray
    q_pinv: np.ndarray
    gram_eigenvalues: np.ndarray
    tol: Tolerance
    rank_unstable: bool
    residuals: dict = field(default_factory=dict)

    @property
    def dimension(self) -> int:
        return self.rep.h

    def cyclic_vector(self) -> np.ndarray:
        """The vector [1_A] for a state (k = 1) dilation."""
        if self.rep.k != 1:
            raise ShapeMismatch("cyclic vector is only defined for k = 1")
        return self.rep.V[:, 0]


def _cp_gate(phi: OcpMap, tol: Tolerance):
    report = is_completely_positive(phi, tol)
    if not report.is_cp:
        raise NotCompletelyPositive(
            f"map is not completely positive; Choi min eigenvalues {report.min_eigenvalues}, "
            f"self-adjointness residual {report.selfadjoint_residual:.3e}",
            min_eigenvalues=report.min_eigenvalues,
        )


def gram_matrix(phi: OcpMap, tol: Tolerance = DEFAULT_TOL, check_cp: bool = True) -> np.ndarray:
    """Gram matrix of the induced form on A (x) C^k, basis index major.

    Entry ((alpha, s), (beta, t)) is <e_s, phi(b_alpha* b_beta) e_t>; the
    delta rule collapses the products of matrix units, so each block
    contributes its Choi data along a shared left index.
    """
    if check_cp:
        _cp_gate(phi, tol)
    algebra = phi.domain
    k = phi.k
    d_total = algebra.dim * k
    g = numerics.zeros(d_total, d_total)
    for j, n in enumerate(algebra.blocks):
        for a in range(n):
            for b in range(n):
                alpha = algebra.basis_index(j, a, b)
                for d in range(n):
                    beta = algebra.basis_index(j, a, d)
                    img = phi.basis_images[algebra.basis_index(j, b, d)]
                    g[alpha * k : (alpha + 1) * k, beta * k : (beta + 1) * k] = img
    return g


def left_mult_matrix(algebra: FdCStarAlgebra, k: int, coeffs) -> np.ndarray:
    """Matrix of xi -> a xi on A (x) C^k coordinates, a given by basis coeffs."""
    c = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
    dim = algebra.dim
    out = numerics.zeros(dim * k, dim * k)
    ident = numerics.eye(k)
    for alpha in range(dim):
        if c[alpha] == 0:
            continue
        for beta in range(dim):
            gamma = unit_product_index(algebra, alpha, beta)
            if gamma is not None:
                out[gamma * k : (gamma + 1) * k, beta * k : (beta + 1) * k] += (
                    c[alpha] * ident
                )
    return out


def unit_coordinates(phi: OcpMap) -> np.ndarray:
    """Coordinates of 1_A (x) e_s, one column per s."""
    algebra = phi.domain
    k = phi.k
    x = numerics.zeros(algebra.dim * k, k)
    for j, n in enumerate(algebra.blocks):
        for a in range(n):
            alpha = algebra.basis_index(j, a, a)
            for s in range(k):
                x[alpha * k + s, s] = 1.0
    return x


def stinespring_dilate(
    phi: OcpMap, tol: Tolerance = DEFAULT_TOL, check_cp: bool = True
) -> DilationCertificate:
    """Minimal Stinespring dilation of a CP map.

    The quotient dimension d is the Gram rank at the eps_rank cutoff; an
    eigenvalue within a factor of 10 of the cutoff flags the certificate as
    rank-unstable without rejecting it.  The zero map is rejected: its
    dilation space would be empty.
    """
    if check_cp:
        _cp_gate(phi, tol)
    algebra = phi.domain
    k = phi.k
    g = gram_matrix(phi, tol, check_cp=False)
    w, u = numerics.hermitian_eig(g, tol)
    lam_max = float(w[0])
    if lam_max <= tol.eps_rank:
        raise DegenerateDimension("Gram matrix vanishes; the zero map has no dilation here")
    cut = tol.eps_rank * lam_max
    d = int(np.count_nonzero(w > cut))
    rank_unstable = bool(np.any((w > cut / 10.0) & (w < cut * 10.0)))

    roots = np.sqrt(w[:d])
    q = roots[:, None] * dagger(u[:, :d])
    q_pinv = u[:, :d] / roots[None, :]

    support = q_pinv @ q
    eye_big = numerics.eye(algebra.dim * k)
    pi_images = []
    leakage = 0.0
    dim = algebra.dim
    for alpha in range(dim):
        coeffs = np.zeros(dim)
        coeffs[alpha] = 1.0
        m_a = left_mult_matrix(algebra, k, coeffs)
        pi_images.append(q @ m_a @ q_pinv)
        leakage = max(leakage, max_abs(q @ m_a @ (eye_big - support)))

    v = q @ unit_coordinates(phi)
    rep = AnchoredRep(algebra, k, d, tuple(pi_images), v)

    restriction = 0.0
    for alpha in range(dim):
        restriction = max(
            restriction,
            max_abs(dagger(v) @ pi_images[alpha] @ v - phi.basis_images[alpha]),
        )
    return DilationCertificate(
        rep=rep,
        source=phi,
        Q=q,
        q_pinv=q_pinv,
        gram_eigenvalues=w,
        tol=tol,
        rank_unstable=rank_unstable,
        residuals={"restriction": restriction, "leakage": leakage},
    )


def restrict(rep: AnchoredRep) -> OcpMap:
    """The CP map a -> V* pi(a) V recovered from an anchored representation."""
    v = rep.V
    return OcpMap(
        rep.algebra, rep.k, tuple(dagger(v) @ img @ v for img in rep.pi_images)
    )


def stine_on_morphism(
    t,
    phi: OcpMap,
    psi: OcpMap,
    tol: Tolerance = DEFAULT_TOL,
    src_cert: DilationCertificate | None = None,
    dst_cert: DilationCertificate | None = None,
) -> RepMorphism:
    """Transport a morphism T of CP maps to (T, L_T) between the dilations.

    L_T is the compression of id_A (x) T to the two quotients; it is an
    isometry whenever T is, and the assignment is functorial.
    """
    mat = as_matrix(t)
    ok, res = is_ocp_morphism(mat, phi, psi, tol)
    if not ok:
        raise NotMorphism(f"T is not a morphism of CP maps; residual {res:.3e}")
    src_cert = src_cert if src_cert is not None else stinespring_dilate(phi, tol)
    dst_cert = dst_cert if dst_cert is not None else stinespring_dilate(psi, tol)
    lifted = kron(numerics.eye(phi.domain.dim), mat)
    l_t = dst_cert.Q @ lifted @ src_cert.q_pinv
    return RepMorphism(mat, l_t)


def pullback_rep(rep: AnchoredRep, f: StarHom) -> AnchoredRep:
    """(K, H, pi o f, V) over the source of f."""
    if f.target.blocks != rep.algebra.blocks:
        raise ShapeMismatch("target of f is not the represented algebra")
    images = tuple(pi_apply(rep, img) for img in f.basis_images)
    return AnchoredRep(f.source, rep.k, rep.h, images, rep.V)


def stine_f(
    phi: OcpMap,
    f: StarHom,
    tol: Tolerance = DEFAULT_TOL,
    cert: DilationCertificate | None = None,
    pulled_cert: DilationCertificate | None = None,
) -> RepMorphism:
    """Comparison isometry (id_K, L_f) from the dilation of phi o f.

    L_f compresses f (x) id_K between the two quotients; it lands in the
    pullback along f of the dilation of phi and satisfies the oplax
    composition law L_{f o f'} = L_f L_{f'}.
    """
    cert = cert if cert is not None else stinespring_dilate(phi, tol)
    phi_f = pullback(phi, f, tol)
    pulled_cert = pulled_cert if pulled_cert is not None else stinespring_dilate(
        phi_f, tol, check_cp=False
    )
    f_mat = np.stack([img.coefficients() for img in f.basis_images], axis=1)
    lifted = kron(f_mat, numerics.eye(phi.k))
    l_f = cert.Q @ lifted @ pulled_cert.q_pinv
    return RepMorphism(numerics.eye(phi.k), l_f)


def _span_columns(rep: AnchoredRep) -> np.ndarray:
    """Columns pi(b_alpha) V e_s spanning the reachable subspace."""
    cols = numerics.zeros(rep.h, rep.algebra.dim * rep.k)
    for alpha, img in enumerate(rep.pi_images):
        block = img @ rep.V
        cols[:, alpha * rep.k : (alpha + 1) * rep.k] = block
    return cols


def mediating_morphism(
    rep: AnchoredRep,
    tol: Tolerance = DEFAULT_TOL,
    cert: DilationCertificate | None = None,
) -> RepMorphism:
    """Canonical isometry (id_K, m) from the minimal dilation of restrict(rep).

    m sends the class of b_alpha (x) e_s to pi(b_alpha) V e_s.  It is an
    isometry whether or not V is, and on the canonical dilation itself it is
    the identity.
    """
    cert = cert if cert is not None else stinespring_dilate(
        restrict(rep), tol, check_cp=False
    )
    m = _span_columns(rep) @ cert.q_pinv
    return RepMorphism(numerics.eye(rep.k), m)


def universal_factorization(
    t,
    phi: OcpMap,
    target: AnchoredRep,
    tol: Tolerance = DEFAULT_TOL,
    cert: DilationCertificate | None = None,
) -> RepMorphism:
    """The unique morphism out of the canonical dilation restricting to T.

    Realizes the class of sum a_i (x) v_i going to sum rho(a_i) W T v_i,
    which is exactly the mediating morphism of the target composed with L_T.
    """
    mat = as_matrix(t)
    psi = restrict(target)
    ok, res = is_ocp_morphism(mat, phi, psi, tol)
    if not ok:
        raise NotMorphism(
            f"T is not a morphism into the restriction of the target; residual {res:.3e}"
        )
    cert = cert if cert is not None else stinespring_dilate(phi, tol)
    wt = target.V @ mat
    cols = numerics.zeros(target.h, phi.domain.dim * phi.k)
    for alpha, img in enumerate(target.pi_images):
        cols[:, alpha * phi.k : (alpha + 1) * phi.k] = img @ wt
    return RepMorphism(mat, cols @ cert.q_pinv)


def is_minimal(rep: AnchoredRep, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether pi(A) V(C^k) spans the whole carrier space."""
    # rank(cols) = rank(cols*); the tall orientation keeps the discarded V at h x h
    sing, _ = numerics.right_singular(dagger(_span_columns(rep)))
    smax = float(sing[0]) if sing.size else 0.0
    if smax <= tol.eps_rank:
        return False
    rank = int(np.count_nonzero(sing > tol.eps_rank * smax))
    return rank == rep.h


def minimal_unitary(
    rep: AnchoredRep,
    tol: Tolerance = DEFAULT_TOL,
    cert: DilationCertificate | None = None,
) -> RepMorphism:
    """Unitary (id_K, U) from the canonical dilation onto a minimal dilation.

    The dilation space is canonical only up to unitary, so without the
    originating certificate the comparison is pinned to the freshly computed
    canonical dilation of restrict(rep); pass ``cert`` to compare against an
    existing one (then the canonical dilation itself maps by the identity).
    """
    if not is_minimal(rep, tol):
        raise NotMinimal("representation is not minimal; no unitary comparison exists")
    morphism = mediating_morphism(rep, tol, cert=cert)
    u = morphism.L
    defect = max(
        max_abs(dagger(u) @ u - numerics.eye(u.shape[1])),
        max_abs(u @ dagger(u) - numerics.eye(u.shape[0])),
    )
    if defect > tol.eps_eq:
        raise NotMinimal(f"mediating morphism is not unitary; defect {defect:.3e}")
    return morphism


def gns(omega: OcpMap, tol: Tolerance = DEFAULT_TOL) -> DilationCertificate:
    """Dilation of a positive linear functional (k = 1) with cyclic vector."""
    if omega.k != 1:
        raise ShapeMismatch("GNS expects a scalar-valued map (k = 1)")
    return stinespring_dilate(omega, tol)
