"""Minimal Stinespring dilations and their universal property.

The dilation of a CP map phi: A -> B(C^k) is the quotient of A (x) C^k by the
null space of the form <a (x) v, b (x) w> = <v, phi(a* b) w>.  Matrix units
multiply by the delta rule, so the Gram matrix of the form is the direct sum
of 1_{n_j} (x) C_j over the Choi blocks C_j of phi, and the whole construction
follows from one Hermitian eigendecomposition C_j = U_j L_j U_j* per block
(Choi, Lin. Alg. Appl. 10, 1975; Paulsen, Completely Bounded Maps and
Operator Algebras, ch. 4).  With r_j the number of eigenvalues above the
relative cutoff:

- q_j = L_j^{1/2} U_j* on those r_j eigenvectors (the CP gate's eigensolve),
  and the quotient coordinates Q = (+)_j 1_{n_j} (x) q_j satisfy Q* Q = G and
  Q Q+ = I, with Q+ = (+)_j 1_{n_j} (x) U_j L_j^{-1/2};
- the carrier has dimension d = sum_j n_j r_j, ordered (block, row, Kraus
  index), and pi(a) = (+)_j a_j (x) 1_{r_j} is already in normal form;
- the anchor V sends e_s to the class of 1_A (x) e_s: its rows (j, ., rho)
  form K_rho*, for K_rho the Kraus operators of phi on block j.  The class of
  b_alpha (x) e_s is pi(b_alpha) V e_s: Q is derived, only Q+ is stored.

An anchored representation holds pi(E_alpha) as one (dim, h, h) array, like
the (dim, k, k) images of an OcpMap; its constructor checks the shapes and
the finiteness of that stack and of V once, and everything downstream (the
restriction V* pi V, the spanning vectors pi(b_alpha) V e_s, pullbacks along
a *-homomorphism) is one stacked product or one linear extension.

Morphisms of CP maps transport along the construction (L_T), algebra maps
induce comparison isometries between dilations (L_f), and every other
dilation of the same map receives a canonical mediating isometry from the
minimal one (m).  Each is span columns times Q+ of its source, and each is
fixed by a morphism and the certificates at its two ends: a certificate
holds the map it dilates, so no transport takes that map separately.  These
are the raw ingredients of the adjunction laws checked in the laws module.
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
    _check_presentation,
    boxplus_rep_images,
    element_from_coefficients,
)
from .cpmap import OcpMap, choi_blocks, is_completely_positive, is_ocp_morphism
from .errors import (
    DegenerateDimension,
    NotCompletelyPositive,
    NotHermitian,
    NotMinimal,
    NotMorphism,
    ShapeMismatch,
)
from .numerics import DEFAULT_TOL, Tolerance, as_matrix, as_stack, dagger, kron, max_abs


@dataclass(frozen=True, eq=False)
class AnchoredRep:
    """A representation pi of A on C^h together with an anchor V: C^k -> C^h.

    pi_images is one (dim, h, h) array; any sequence of h-by-h matrices, one
    per matrix unit, is accepted.
    """

    algebra: FdCStarAlgebra
    k: int
    h: int
    pi_images: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        if self.k < 1 or self.h < 1:
            raise DegenerateDimension(f"k={self.k}, h={self.h}; both must be >= 1")
        images = as_stack(self.pi_images, self.algebra.dim, self.h)
        v = as_matrix(self.V)
        if v.shape != (self.h, self.k):
            raise ShapeMismatch(f"V shape {v.shape} != ({self.h}, {self.k})")
        object.__setattr__(self, "pi_images", images)
        object.__setattr__(self, "V", v)


def pi_apply(rep: AnchoredRep, a: AlgebraElement) -> np.ndarray:
    if a.algebra.blocks != rep.algebra.blocks:
        raise ShapeMismatch("element not in the represented algebra")
    return numerics.linear_extension(a.coefficients(), rep.pi_images)


def validate_rep(rep: AnchoredRep, tol: Tolerance = DEFAULT_TOL) -> StarHomReport:
    """check_star_hom's verdict on the induced map A -> M_h: the matrix-unit
    presentation of each block and the unit, whose residuals bound those of
    all pairs of images as its docstring states.  M_h is one block, so the
    images are checked as the rep holds them, with no copy and no second
    finiteness scan (the constructor made that one)."""
    return _check_presentation(rep.algebra, rep.pi_images, tol)


def is_preserving(rep: AnchoredRep, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether the anchor V is an isometry, at scale 1 (s V is not one)."""
    return tol.within(max_abs(dagger(rep.V) @ rep.V - numerics.eye(rep.k)))


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

    L pi(a) = rho(a) L on the basis, L V = W T, and T V* = W* L, each at
    the scale of the terms it compares (numerics.Tolerance).
    """
    if src.algebra.blocks != dst.algebra.blocks:
        raise ShapeMismatch("representations are over different algebras")
    if m.T.shape != (dst.k, src.k) or m.L.shape != (dst.h, src.h):
        raise ShapeMismatch(
            f"(T, L) shapes {m.T.shape}, {m.L.shape} do not fit the representations"
        )
    inter = max_abs(m.L @ src.pi_images - dst.pi_images @ m.L)
    square_v = max_abs(m.L @ src.V - dst.V @ m.T)
    square_vstar = max_abs(m.T @ dagger(src.V) - dagger(dst.V) @ m.L)
    t, l, v, w = (max_abs(x) for x in (m.T, m.L, src.V, dst.V))
    ok = (
        tol.within(inter, l * max(max_abs(src.pi_images), max_abs(dst.pi_images)))
        and tol.within(square_v, max(l * v, w * t))
        and tol.within(square_vstar, max(t * v, w * l))
    )
    return RepMorphismReport(
        ok=ok,
        residuals={"intertwine": inter, "squareV": square_v, "squareVstar": square_vstar},
    )


@dataclass(frozen=True, eq=False)
class DilationCertificate:
    """Minimal dilation plus the quotient data used to build it.

    Q, read off rep, maps A (x) C^k coordinates onto the d-dimensional
    quotient and satisfies Q Q+ = I and Q* Q = Gram matrix; the full Gram
    spectrum (descending) and the tolerance are kept so the rank decision can
    be audited.
    """

    rep: AnchoredRep
    source: OcpMap
    q_pinv: np.ndarray
    gram_eigenvalues: np.ndarray
    tol: Tolerance
    residuals: dict = field(default_factory=dict)

    @property
    def rank_unstable(self) -> bool:
        """Whether a Gram eigenvalue lies within a factor of 10 of the cutoff."""
        spectrum = self.gram_eigenvalues
        cut = self.tol.cut(float(spectrum[0]))
        return bool(np.any((spectrum > cut / 10.0) & (spectrum < cut * 10.0)))

    @property
    def Q(self) -> np.ndarray:
        return _span_columns(self.rep)

    @property
    def dimension(self) -> int:
        return self.rep.h

    def cyclic_vector(self) -> np.ndarray:
        """The vector [1_A] for a state (k = 1) dilation."""
        if self.rep.k != 1:
            raise ShapeMismatch("cyclic vector is only defined for k = 1")
        return self.rep.V[:, 0]


def _cp_gate(phi: OcpMap, tol: Tolerance, check_cp: bool):
    report = is_completely_positive(phi, tol)
    if check_cp and not report.is_cp:
        raise NotCompletelyPositive(
            f"map is not completely positive; Choi min eigenvalues {report.min_eigenvalues}, "
            f"self-adjointness residual {report.selfadjoint_residual:.3e}",
            min_eigenvalues=report.min_eigenvalues,
        )
    if not report.selfadjoint:
        raise NotHermitian(f"Choi symmetry residual {report.selfadjoint_residual:.3e}")
    return report.eigensystems


def gram_matrix(phi: OcpMap, tol: Tolerance = DEFAULT_TOL, check_cp: bool = True) -> np.ndarray:
    """Gram matrix of the induced form on A (x) C^k, basis index major.

    Entry ((alpha, s), (beta, t)) is <e_s, phi(b_alpha* b_beta) e_t>.  By the
    delta rule it vanishes unless alpha = (j, a, b) and beta = (j, a, c), where
    it is C_j[(b, s), (c, t)]; so G is the direct sum of 1_{n_j} (x) C_j.  The
    construction never forms G; it is the reference Q is checked against.
    """
    _cp_gate(phi, tol, check_cp)
    return numerics.block_diag(
        [kron(numerics.eye(n), c) for n, c in zip(phi.domain.blocks, choi_blocks(phi))]
    )


def left_mult_matrix(algebra: FdCStarAlgebra, k: int, coeffs) -> np.ndarray:
    """Matrix of xi -> a xi on A (x) C^k coordinates, a given by basis coeffs.

    a E_bc = sum_z a_j[z, b] E_zc on block j, so the matrix is the direct sum
    of a_j (x) 1_{n_j}, tensored with 1_k.  The reference pi is checked against.
    """
    a = element_from_coefficients(algebra, coeffs)
    left = [kron(a_j, numerics.eye(n)) for a_j, n in zip(a.block_data, algebra.blocks)]
    return kron(numerics.block_diag(left), numerics.eye(k))


def stinespring_dilate(
    phi: OcpMap, tol: Tolerance = DEFAULT_TOL, check_cp: bool = True
) -> DilationCertificate:
    """Minimal Stinespring dilation of a CP map, one eigensolve per Choi block.

    The quotient dimension d is the Gram rank at the eps_rank cutoff,
    relative to the largest eigenvalue over all blocks; an eigenvalue within a
    factor of 10 of the cutoff flags the certificate as rank-unstable without
    rejecting it.  Only a map with no positive Choi eigenvalue is rejected as
    the zero map (its dilation space would be empty), so the decision does
    not depend on the scale of the map.  It reuses the CP gate's eigensolves;
    with check_cp off, only Choi blocks that are not Hermitian raise there.
    """
    eigs = _cp_gate(phi, tol, check_cp)
    algebra = phi.domain
    k = phi.k
    # the Gram spectrum: each Choi eigenvalue n_j times, descending
    spectrum = np.concatenate([np.repeat(w, n) for (w, _), n in zip(eigs, algebra.blocks)])
    spectrum = -np.sort(-spectrum)
    lam_max = float(spectrum[0])
    if lam_max <= 0.0:
        raise DegenerateDimension("Gram matrix vanishes; the zero map has no dilation here")
    cut = tol.cut(lam_max)

    ranks, q_pinv_blocks, v_blocks = [], [], []
    leakage = 0.0
    for n, (w, u) in zip(algebra.blocks, eigs):
        r = int(np.count_nonzero(w > cut))
        roots = np.sqrt(w[:r])
        q_j = roots[:, None] * dagger(u[:, :r])
        q_pinv_j = u[:, :r] / roots[None, :]
        # Q M_a (I - Q+ Q) is E_ab (x) (q_j - q_j q_j+ q_j) on block j
        leakage = max(leakage, max_abs(q_j - q_j @ q_pinv_j @ q_j))
        ranks.append(r)
        q_pinv_blocks.append(kron(numerics.eye(n), q_pinv_j))
        # V[(a, rho), s] = q_j[rho, (a, s)]
        v_blocks.append(q_j.reshape(r, n, k).transpose(1, 0, 2).reshape(n * r, k))
    images = boxplus_rep_images(algebra, ranks)
    v = np.concatenate(v_blocks)
    rep = AnchoredRep(algebra, k, images.shape[1], images, v)
    restriction = max_abs(dagger(v) @ images @ v - phi.basis_images)
    return DilationCertificate(
        rep=rep,
        source=phi,
        q_pinv=numerics.block_diag(q_pinv_blocks),
        gram_eigenvalues=spectrum,
        tol=tol,
        residuals={"restriction": restriction, "leakage": leakage},
    )


def restrict(rep: AnchoredRep) -> OcpMap:
    """The CP map a -> V* pi(a) V recovered from an anchored representation."""
    return OcpMap(rep.algebra, rep.k, dagger(rep.V) @ rep.pi_images @ rep.V)


def stine_on_morphism(
    t, tol: Tolerance = DEFAULT_TOL, *, src_cert: DilationCertificate, dst_cert: DilationCertificate
) -> RepMorphism:
    """Transport a morphism T of CP maps to (T, L_T) between the dilations.

    T must be a morphism from the map src_cert dilates to the map dst_cert
    dilates.  L_T compresses id_A (x) T to the quotients, as span columns at
    the anchor W T times Q+ (W from dst_cert, Q+ from src_cert); it is an
    isometry whenever T is, and is functorial.
    """
    mat = as_matrix(t)
    ok, res = is_ocp_morphism(mat, src_cert.source, dst_cert.source, tol)
    if not ok:
        raise NotMorphism(f"T is not a morphism of CP maps; residual {res:.3e}")
    return RepMorphism(mat, _transport(mat, dst_cert.rep, src_cert))


def _transport(mat: np.ndarray, rep: AnchoredRep, cert: DilationCertificate) -> np.ndarray:
    """The L both transports of T build, into rep out of the canonical
    dilation cert: the span columns of rep at the anchor V T times Q+.
    It does not gate T; each caller has."""
    return _span_columns(rep, rep.V @ mat) @ cert.q_pinv


def pullback_rep(rep: AnchoredRep, f: StarHom) -> AnchoredRep:
    """(K, H, pi o f, V) over the source of f."""
    if f.target.blocks != rep.algebra.blocks:
        raise ShapeMismatch("target of f is not the represented algebra")
    images = numerics.linear_extension(f.matrix, rep.pi_images)
    return AnchoredRep(f.source, rep.k, rep.h, images, rep.V)


def stine_f(
    f: StarHom, *, cert: DilationCertificate, pulled_cert: DilationCertificate
) -> RepMorphism:
    """Comparison isometry (id_K, L_f) from the dilation of phi o f, for phi
    the map cert dilates and pulled_cert the dilation of phi o f.

    L_f compresses f (x) id_K between the two quotients (f on the basis axis
    of Q, times Q+); it lands in the pullback along f of the dilation of phi
    and satisfies the oplax composition law L_{f o f'} = L_f L_{f'}.  f is
    not gated here: the pullback that pulled_cert dilates gates it.
    """
    k = cert.rep.k
    q = cert.Q.reshape(cert.dimension, -1, k)
    l_f = (f.matrix.T @ q).reshape(cert.dimension, -1) @ pulled_cert.q_pinv
    return RepMorphism(numerics.eye(k), l_f)


def _span_columns(rep: AnchoredRep, anchor: np.ndarray | None = None) -> np.ndarray:
    """Columns pi(b_alpha) W e_s, alpha major, for the anchor W (default V);
    with V they span the reachable subspace."""
    anchor = rep.V if anchor is None else anchor
    cols = np.ascontiguousarray((rep.pi_images @ anchor).transpose(1, 0, 2))
    return cols.reshape(rep.h, -1)


def mediating_morphism(rep: AnchoredRep, *, cert: DilationCertificate) -> RepMorphism:
    """Canonical isometry (id_K, m) from the minimal dilation of restrict(rep).

    m sends the class of b_alpha (x) e_s to pi(b_alpha) V e_s, the class taken
    in ``cert``, a dilation of restrict(rep).  It is an isometry whether or
    not V is, and on the canonical dilation itself it is the identity.
    """
    m = _span_columns(rep) @ cert.q_pinv
    return RepMorphism(numerics.eye(rep.k), m)


def universal_factorization(
    t, target: AnchoredRep, tol: Tolerance = DEFAULT_TOL, *, cert: DilationCertificate
) -> RepMorphism:
    """The unique morphism out of the canonical dilation ``cert`` restricting
    to T, for T a morphism from the map cert dilates to restrict(target).

    Realizes the class of sum a_i (x) v_i going to sum rho(a_i) W T v_i,
    which is exactly the mediating morphism of the target composed with L_T.
    """
    mat = as_matrix(t)
    ok, res = is_ocp_morphism(mat, cert.source, restrict(target), tol)
    if not ok:
        raise NotMorphism(
            f"T is not a morphism into the restriction of the target; residual {res:.3e}"
        )
    return RepMorphism(mat, _transport(mat, target, cert))


def is_minimal(rep: AnchoredRep, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether pi(A) V(C^k) spans the whole carrier space.

    The rank cut is relative to the largest singular value of the spanning
    columns, so the answer does not change when V is rescaled.
    """
    # rank(cols) = rank(cols*); the tall orientation keeps the discarded V at h x h
    sing, _ = numerics.right_singular(dagger(_span_columns(rep)))
    return int(np.count_nonzero(sing > tol.cut(float(sing[0])))) == rep.h


def minimal_unitary(
    rep: AnchoredRep, tol: Tolerance = DEFAULT_TOL, *, cert: DilationCertificate
) -> RepMorphism:
    """Unitary (id_K, U) from the canonical dilation onto a minimal dilation.

    The dilation space is canonical only up to unitary, so the comparison is
    pinned to ``cert``, a dilation of restrict(rep); the canonical dilation
    itself then maps by the identity.  Unitarity is tested at scale 1.
    """
    if not is_minimal(rep, tol):
        raise NotMinimal("representation is not minimal; no unitary comparison exists")
    morphism = mediating_morphism(rep, cert=cert)
    u = morphism.L
    defect = max(
        max_abs(dagger(u) @ u - numerics.eye(u.shape[1])),
        max_abs(u @ dagger(u) - numerics.eye(u.shape[0])),
    )
    if not tol.within(defect):
        raise NotMinimal(f"mediating morphism is not unitary; defect {defect:.3e}")
    return morphism
