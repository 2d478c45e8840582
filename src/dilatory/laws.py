"""Numerical verifiers for the categorical content of the construction.

Everything 2-categorical is checked by evaluation at concrete algebras, maps,
and homomorphisms: the zig-zag identities, naturality of the mediating
morphism, the comparison triangle for algebra maps, oplax composition, dagger
laws, and the objectwise universal property of the adjunction.  Each checker
takes the dilation certificates its law speaks about, reads the dilated maps
off them and builds the transports it needs itself.  Every report is decided
by the rule the gates follow (numerics.Tolerance): a law passes when each
gate it runs passes by its own verdict and each identity a = b it checks
holds at the size of the terms it compares, max|a - b| <= eps_eq
max(max|a|, max|b|).  So no verdict moves when the maps or the morphisms are
rescaled, and max_residual is the largest raw residual.  The default suite
dilates each sampled map once, gates and transports each sampled morphism
once, gates each sampled homomorphism once and builds each mediating
morphism once, handing them to the checkers' bodies, and mixes positive
ensembles with negative controls (draw 0's objects, sabotaged, that must
fail loudly), so a tolerance bug cannot silently turn every check green.
The partial-isometry suite draws all its samples first and classifies
every one of them in a single padded batch.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import numerics
from .algebra import (
    FdCStarAlgebra,
    StarHom,
    check_star_hom,
    compose_homs,
    identity_hom,
)
from .cpmap import (
    OcpMap,
    OcpMorphism,
    apply,
    check_morphism_variants,
    compose_morphisms,
    is_ocp_morphism,
    pullback_ungated,
    tracial_map,
)
from .dilation import (
    AnchoredRep,
    DilationCertificate,
    RepMorphism,
    _transport,
    is_rep_morphism,
    mediating_morphism,
    pullback_rep,
    stine_f,
    stine_on_morphism,
    stinespring_dilate,
    universal_factorization,
)
from .errors import InvalidHom, NotMorphism, ShapeMismatch
from .geometry import classify_partial_isometries
from .numerics import DEFAULT_TOL, Tolerance, dagger, kron, max_abs
from .randgen import (
    complex_gaussian,
    inflate_rep,
    random_cp_map,
    random_hom,
    random_unitary,
    rng_for,
    unitary_factor,
)

CONTROL_FLOOR = 1e-3


@dataclass(frozen=True)
class LawReport:
    """One verified law: name, worst raw residual, verdict and witnesses.

    Every report is decided one way, by from_checks.  A check is a
    (verdict, raw residual) pair: a gate's own (is_ocp_morphism,
    is_rep_morphism, check_star_hom), or an identity's at the size of the
    terms it compares (_holds).  The law passes when every check does, and
    max_residual is the largest raw residual, whatever scale decided it."""

    name: str
    max_residual: float
    passed: bool
    witnesses: tuple[str, ...] = ()

    @property
    def failed_as_required(self) -> bool:
        """A negative control's verdict: it failed, by at least CONTROL_FLOOR."""
        return not self.passed and self.max_residual >= CONTROL_FLOOR

    @staticmethod
    def from_checks(name: str, checks, witnesses=()) -> LawReport:
        """The report of the checks a law ran; witnesses name its failures."""
        checks = list(checks)
        worst = max((float(residual) for _, residual in checks), default=0.0)
        return LawReport(name, worst, all(ok for ok, _ in checks), tuple(witnesses))

    @staticmethod
    def from_residual(name: str, residual, tol: Tolerance, witness: str = "") -> LawReport:
        """One residual against the identity, at scale 1, named by witness
        when it fails."""
        ok = tol.within(residual)
        witnesses = () if ok or not witness else (witness,)
        return LawReport.from_checks(name, [(ok, residual)], witnesses)


def merge_reports(name: str, reports) -> LawReport:
    reports = list(reports)
    checks = [(r.passed, r.max_residual) for r in reports]
    return LawReport.from_checks(name, checks, (w for r in reports for w in r.witnesses))


def _holds(a, b, tol: Tolerance) -> tuple[bool, float]:
    """The identity a = b as a (verdict, raw residual) pair, weighed at the
    size of the terms it compares: max|a - b| <= eps_eq max(max|a|, max|b|)."""
    residual = max_abs(a - b)
    return tol.within(residual, max(max_abs(a), max_abs(b))), residual


def _rep_gate(morphism, src, dst, tol) -> tuple[bool, float]:
    """is_rep_morphism as a (verdict, raw residual) pair."""
    report = is_rep_morphism(morphism, src, dst, tol)
    return report.ok, max(report.residuals.values())


def check_zigzag(
    rep: AnchoredRep, tol: Tolerance = DEFAULT_TOL, *, cert: DilationCertificate
) -> LawReport:
    """Both triangle identities of the adjunction at one object pair.

    The counit m of rep, read off cert, must be a morphism of anchored
    representations from the canonical dilation to rep (is_rep_morphism's
    verdict), and the mediating morphism of cert, the canonical dilation of
    phi, must itself be the identity.
    """
    counit = mediating_morphism(rep, cert=cert)
    self_med = mediating_morphism(cert.rep, cert=cert)
    return _zigzag(rep, tol, cert, counit, self_med)


def _zigzag(rep, tol, cert, counit, self_med) -> LawReport:
    """check_zigzag on the counit of rep and the mediating morphism of
    cert.rep, both already built."""
    checks = [
        _rep_gate(counit, cert.rep, rep, tol),
        _holds(self_med.L, numerics.eye(cert.rep.h), tol),
    ]
    report = LawReport.from_checks("zigzag", checks)
    if report.passed:
        return report
    phi = cert.source
    return replace(report, witnesses=(f"phi on {phi.domain.blocks}, k={phi.k}",))


def check_naturality_m(
    morphism: RepMorphism, src: AnchoredRep, dst: AnchoredRep, tol: Tolerance = DEFAULT_TOL, *,
    src_cert: DilationCertificate, dst_cert: DilationCertificate,
) -> LawReport:
    """Naturality square of m: m_dst after L_T equals L after m_src, with
    src_cert and dst_cert the canonical dilations of the two restrictions
    and L_T the transport of morphism.T between them."""
    report = is_rep_morphism(morphism, src, dst, tol)
    if not report.ok:
        raise NotMorphism(f"not a morphism of anchored representations: {report.residuals}")
    l_t = stine_on_morphism(morphism.T, tol, src_cert=src_cert, dst_cert=dst_cert)
    m_src = mediating_morphism(src, cert=src_cert)
    m_dst = mediating_morphism(dst, cert=dst_cert)
    return _naturality(m_dst.L @ l_t.L, morphism, m_src, tol)


def _naturality(through, morphism, m_src, tol) -> LawReport:
    """The naturality square, with its first path m_dst L_T already built."""
    return LawReport.from_checks("naturality_m", [_holds(through, morphism.L @ m_src.L, tol)])


def check_modification(
    f: StarHom, rep: AnchoredRep, tol: Tolerance = DEFAULT_TOL, *,
    cert: DilationCertificate, pulled_cert: DilationCertificate,
) -> LawReport:
    """Comparison triangle: m of the pulled-back representation factors as
    m of the original composed with L_f, for cert the canonical dilation of
    the restriction of rep and pulled_cert that of its pullback along f."""
    hom_report = check_star_hom(f, tol)
    if not hom_report.ok:
        raise InvalidHom(f"not a *-homomorphism: {hom_report.residuals}")
    l_f = stine_f(f, cert=cert, pulled_cert=pulled_cert)
    m_pulled = mediating_morphism(pullback_rep(rep, f), cert=pulled_cert)
    m_orig = mediating_morphism(rep, cert=cert)
    return LawReport.from_checks("modification", [_holds(m_pulled.L, m_orig.L @ l_f.L, tol)])


def check_oplax(
    f: StarHom, f_prime: StarHom, tol: Tolerance = DEFAULT_TOL, *,
    certs: tuple[DilationCertificate, DilationCertificate, DilationCertificate],
) -> LawReport:
    """Oplax composition: L over a composite equals the composite of the L's,
    and the identity homomorphism induces the identity.  certs are the
    canonical dilations of phi, phi o f and phi o f o f'."""
    for hom in (f, f_prime):
        hom_report = check_star_hom(hom, tol)
        if not hom_report.ok:
            raise InvalidHom(f"not a *-homomorphism: {hom_report.residuals}")
    cert = certs[0]
    l_id = stine_f(identity_hom(cert.source.domain), cert=cert, pulled_cert=cert)
    checks = [
        _composition(f, f_prime, certs, tol),
        _holds(l_id.L, numerics.eye(cert.rep.h), tol),
    ]
    return LawReport.from_checks("oplax", checks)


def _composition(f, f_prime, certs, tol) -> tuple[bool, float]:
    """L_{f o f'} = L_f L_{f'} along the chain of dilations certs."""
    cert, cert_f, cert_ff = certs
    l_f = stine_f(f, cert=cert, pulled_cert=cert_f)
    l_fp = stine_f(f_prime, cert=cert_f, pulled_cert=cert_ff)
    l_comp = stine_f(compose_homs(f, f_prime), cert=cert, pulled_cert=cert_ff)
    return _holds(l_comp.L, l_f.L @ l_fp.L, tol)


def check_dagger(entries, tol: Tolerance = DEFAULT_TOL) -> LawReport:
    """Dagger laws on a list of morphisms.

    Entries are OcpMorphism values or (RepMorphism, src, dst) triples.  The
    adjoint of each must be a morphism the other way, by its own gate; an
    entry whose adjoint fails adds one witness.  Consecutive OCP entries that
    compose (g starts at the map f ends at) also get the contravariance
    identity (g f)* = f* g*.  The involution T** = T holds bit for bit.

    The entry's own gate is not run, because premise and conclusion are one
    gate.  For (T, L): (pi, V) -> (rho, W), the adjoint's squareV
    L* W = V T* is the entry's squareVstar conjugated, its squareVstar the
    entry's squareV conjugated, and its intertwining square the entry's over
    the starred basis, each at the same scale.  For T: phi -> psi,
    T* psi(a) = phi(a) T* is the entry's square at a*.  So an invalid entry
    fails the law with a witness; it raises nothing.
    """
    checks = []
    witnesses = []
    ocp_entries = []
    for entry in entries:
        if isinstance(entry, OcpMorphism):
            ocp_entries.append(entry)
            ok, residual = is_ocp_morphism(dagger(entry.T), entry.target, entry.source, tol)
            kind = "an OCP morphism"
        else:
            morphism, src, dst = entry
            flipped = RepMorphism(dagger(morphism.T), dagger(morphism.L))
            ok, residual = _rep_gate(flipped, dst, src, tol)
            kind = "a representation morphism"
        checks.append((ok, residual))
        if not ok:
            witnesses.append(f"dagger of {kind} failed validity")
    for g, f_ in zip(ocp_entries[1:], ocp_entries[:-1]):
        try:
            composite = compose_morphisms(g, f_)
        except ShapeMismatch:
            continue  # g does not start at the map f_ ends at
        checks.append(_holds(dagger(composite.T), dagger(f_.T) @ dagger(g.T), tol))
    return LawReport.from_checks("dagger", checks, witnesses)


def objectwise_adjunction_suite(samples, tol: Tolerance = DEFAULT_TOL) -> LawReport:
    """Universal property at sampled objects.

    For each (T, cert_phi, target, cert_psi), with cert_phi and cert_psi the
    canonical dilations of phi and of the restriction psi of the target, and
    T a morphism phi -> psi: the factorization through the counit m_target
    L_T reproduces universal_factorization, which restricts to T by
    construction and must pass is_rep_morphism.
    """
    reports = []
    for t, cert_phi, target, cert_psi in samples:
        univ = universal_factorization(t, target, tol, cert=cert_phi)
        l_t = stine_on_morphism(t, tol, src_cert=cert_phi, dst_cert=cert_psi)
        counit = mediating_morphism(target, cert=cert_psi)
        reports.append(_adjunction(cert_phi, target, univ, counit.L @ l_t.L, tol))
    return merge_reports("objectwise_adjunction", reports)


def _adjunction(cert_phi, target, univ, through_counit, tol) -> LawReport:
    """One sample of the universal property, given universal_factorization
    of T into the target (which restricts to T by construction) and
    m_target L_T."""
    checks = [
        _holds(univ.L, through_counit, tol),
        _rep_gate(univ, cert_phi.rep, target, tol),
    ]
    return LawReport.from_checks("objectwise_adjunction", checks)


def example_27():
    """Half-trace state, its inflation to M_2, and the skew isometry.

    The data where the intertwining square commutes but conjugation onto the
    target does not."""
    phi = tracial_map(2, 1)
    psi = tracial_map(2, 2)
    t = np.array([[1.0], [1.0]], dtype=np.complex128) / np.sqrt(2.0)
    return phi, psi, t


def example_28():
    """Half-trace state against the bit-flip average, anchored at e_1.

    The data where conjugation back commutes but the intertwining square
    fails."""
    phi = tracial_map(2, 1)
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    units = numerics.eye(4).reshape(4, 2, 2)
    psi = OcpMap(phi.domain, 2, 0.5 * units + 0.5 * (x @ units @ x))
    t = np.array([[1.0], [0.0]], dtype=np.complex128)
    return phi, psi, t


@functools.lru_cache(maxsize=16)
def counterexample_suite(tol: Tolerance = DEFAULT_TOL) -> LawReport:
    """Fidelity of the two worked counterexamples.

    The first must realize the pattern (23 false, 22 true, 24 true) with the
    conjugation violation of operator norm exactly 1 on the unit; the second
    realizes (false, false, true) with intertwining violation at least 0.4 on
    the off-diagonal unit E_12.  Its data are the paper's fixed examples 2.7
    and 2.8, so the report is computed once per tolerance.
    """
    checks = []
    witnesses = []

    phi, psi, t = example_27()
    variants = check_morphism_variants(t, phi, psi, tol)
    if (variants.diagram_23, variants.diagram_22, variants.diagram_24) != (False, True, True):
        witnesses.append("first counterexample pattern mismatch")
        checks.append((False, 1.0))
    unit_image = apply(phi, phi.domain.unit())
    violation = numerics.op_norm(t @ unit_image @ dagger(t) - numerics.eye(2))
    checks.append(_holds(violation, 1.0, tol))

    phi2, psi2, t2 = example_28()
    variants2 = check_morphism_variants(t2, phi2, psi2, tol)
    if (variants2.diagram_23, variants2.diagram_22, variants2.diagram_24) != (False, False, True):
        witnesses.append("second counterexample pattern mismatch")
        checks.append((False, 1.0))
    e12 = phi2.domain.basis_index(0, 0, 1)
    violation2 = max_abs(t2 @ phi2.basis_images[e12] - psi2.basis_images[e12] @ t2)
    if violation2 < 0.4:
        witnesses.append(f"second counterexample violation {violation2:.3f} < 0.4")
        checks.append((False, 0.4 - violation2))
    return LawReport.from_checks("counterexamples", checks, witnesses)


def _partial_isometry_samples(seed: int, draws: int):
    """(rank, clean, noisy, m) for each draw: a partial isometry of the given
    rank, itself plus 1e-3 Gaussian noise, and the lift size m.

    Draw i reads rng_for(seed, i) in a fixed order: rows, cols, rank, the
    Gaussians of both unitaries, the noise, m.  None of it depends on a QR,
    so the unitaries of each size n come afterwards from one stacked QR of
    all the n x n Gaussians, which equals the one-at-a-time QRs bit for bit.
    """
    drawn = []
    gaussians = {}
    for i in range(draws):
        rng = rng_for(seed, i)
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 5))
        rank = int(rng.integers(0, min(rows, cols) + 1))
        at = []
        for n in (rows, cols):
            group = gaussians.setdefault(n, [])
            at.append(len(group))
            group.append(complex_gaussian(rng, n, n))
        noise = 1e-3 * rng.standard_normal((rows, cols))
        drawn.append((rows, cols, rank, at, noise, int(rng.integers(1, 4))))
    unitaries = {n: unitary_factor(np.stack(group)) for n, group in gaussians.items()}
    samples = []
    for rows, cols, rank, (u_at, v_at), noise, m in drawn:
        u = unitaries[rows][u_at, :, :rank]
        v = unitaries[cols][v_at, :, :rank]
        clean = u @ dagger(v)
        samples.append((rank, clean, clean + noise, m))
    return samples


def partial_isometry_suite(
    seed: int = 0, draws: int = 100, tol: Tolerance = DEFAULT_TOL
) -> LawReport:
    """Dual-definition agreement and tensor stability of partial isometries.

    Clean and visibly perturbed samples must be classified identically by the
    algebraic test and the restricted-isometry test; tensoring with an
    identity must preserve the verdict in both directions; and the classical
    pair of projections witnesses that composites can fail to be partial
    isometries.  Every sample is drawn first; then every clean, noisy,
    lifted and composite matrix is classified in one padded batch by
    geometry.classify_partial_isometries.
    """
    samples = _partial_isometry_samples(seed, draws)
    matrices = []
    for _, clean, noisy, m in samples:
        lift = numerics.eye(m)
        matrices += [clean, noisy, kron(lift, clean), kron(lift, noisy)]
    # the projections onto span{e1} and span{(e1+e2)/sqrt(2)} do not compose
    p = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)
    q = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=np.complex128)
    matrices.append(p @ q)
    residual, algebraic, restricted = classify_partial_isometries(matrices, tol)
    algebraic, restricted = algebraic.tolist(), restricted.tolist()

    witnesses = []
    for i, (rank, *_) in enumerate(samples):
        j = 4 * i
        for k in (j, j + 1):
            if algebraic[k] != restricted[k]:
                witnesses.append(f"dual definitions disagree at draw {i}")
        if not algebraic[j + 2]:
            witnesses.append(f"kron broke a partial isometry at draw {i}")
        if rank > 0 and algebraic[j + 3]:
            witnesses.append(f"kron hid a defect at draw {i}")
    if algebraic[-1] or residual[-1] < CONTROL_FLOOR:
        witnesses.append("projection composite unexpectedly passed")

    checks = [(not witnesses, 1.0 if witnesses else 0.0)]
    return LawReport.from_checks("partial_isometries", checks, witnesses)


@dataclass(frozen=True)
class SuiteResult:
    """Positive law reports plus negative controls that must fail."""

    reports: tuple[LawReport, ...]
    controls: tuple[LawReport, ...]
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        positives = all(r.passed for r in self.reports)
        return positives and all(c.failed_as_required for c in self.controls)

    def first_failure(self):
        for r in self.reports:
            if not r.passed:
                return r
        for c in self.controls:
            if not c.failed_as_required:
                return replace(c, name=f"control:{c.name}", passed=False)
        return None


def _draw_blocks(rng, max_dim):
    sizes = [n for n in (1, 2, 3) if n <= max_dim] or [1]
    count = int(rng.integers(1, 3))
    return tuple(int(rng.choice(sizes)) for _ in range(count))


def _morphism_sample(rng, max_dim):
    """A valid triple (phi, psi, T): conjugate a random map by a unitary."""
    blocks = _draw_blocks(rng, max_dim)
    k = int(rng.integers(1, min(3, max_dim) + 1))
    phi = random_cp_map(rng, blocks, k, kraus_rank=2)
    x = random_unitary(rng, k)
    psi = OcpMap(phi.domain, k, x @ phi.basis_images @ dagger(x))
    return phi, psi, x


def _tracial_sample(rng, max_dim):
    """Tracial maps admit arbitrary rectangular T as morphisms."""
    m = int(rng.integers(2, max(3, max_dim) + 1))
    p = int(rng.integers(1, 4))
    q = int(rng.integers(1, 4))
    t = (rng.standard_normal((q, p)) + 1j * rng.standard_normal((q, p))) / np.sqrt(2.0)
    return tracial_map(m, p), tracial_map(m, q), t


def run_default_suite(
    seed: int = 0,
    draws: int = 100,
    max_dim: int = 3,
    tol: Tolerance = DEFAULT_TOL,
) -> SuiteResult:
    """The full verification ensemble behind the `laws` CLI command."""
    if draws <= 0:
        return SuiteResult((), (), ("draws <= 0: nothing sampled, suite passes vacuously",))

    zigzag = []
    naturality = []
    modification = []
    oplax = []
    dagger_entries = []
    adjunction = []

    for i in range(draws):
        rng = rng_for(seed, i)
        blocks = _draw_blocks(rng, max_dim)
        k = int(rng.integers(1, min(3, max_dim) + 1))
        phi = random_cp_map(rng, blocks, k, kraus_rank=2)
        cert = stinespring_dilate(phi, tol)
        extra = [int(rng.integers(0, 2)) for _ in blocks]
        rep = inflate_rep(rng, cert, extra)
        self_med = mediating_morphism(cert.rep, cert=cert)
        counit = mediating_morphism(rep, cert=cert)
        zigzag.append(_zigzag(rep, tol, cert, counit, self_med))

        if i % 3 == 2:
            phi_m, psi_m, t_m = _tracial_sample(rng, max_dim)
        else:
            phi_m, psi_m, t_m = _morphism_sample(rng, max_dim)
        cert_m = stinespring_dilate(phi_m, tol)
        extra_m = [int(rng.integers(0, 2)) for _ in phi_m.domain.blocks]
        cert_psi = stinespring_dilate(psi_m, tol)
        target = inflate_rep(rng, cert_psi, extra_m)
        univ = universal_factorization(t_m, target, tol, cert=cert_m)
        # a morphism between two inflated dilations, neither of them canonical:
        # L_T conjugated by the mediating isometries of both sides
        src_inflated = inflate_rep(rng, cert_m, extra_m)
        # univ gated T into the restriction of the target, which cert_psi dilates
        l_t = RepMorphism(univ.T, _transport(univ.T, cert_psi.rep, cert_m))
        m_canonical = mediating_morphism(cert_m.rep, cert=cert_m)
        m_src = mediating_morphism(src_inflated, cert=cert_m)
        m_dst = mediating_morphism(target, cert=cert_psi)
        # m_dst L_T: one path of both naturality squares, and the counit route
        through = m_dst.L @ l_t.L
        between = RepMorphism(l_t.T, through @ dagger(m_src.L))
        adjunction.append(_adjunction(cert_m, target, univ, through, tol))
        # check_dagger gates each entry's adjoint, which is the entry's own gate
        dagger_entries.append(OcpMorphism(phi_m, psi_m, t_m))
        for entry, src, m in ((univ, cert_m.rep, m_canonical), (between, src_inflated, m_src)):
            naturality.append(_naturality(through, entry, m, tol))
            dagger_entries.append((entry, src, target))

        # hom-first sampling so unital embeddings always exist; the pullbacks
        # are ungated because check_modification and check_oplax gate each hom
        f = random_hom(rng, FdCStarAlgebra(_draw_blocks(rng, 2)), max_mult=1)
        phi_top = random_cp_map(rng, f.target.blocks, int(rng.integers(1, 3)), kraus_rank=2)
        cert_top = stinespring_dilate(phi_top, tol)
        extra_top = [int(rng.integers(0, 2)) for _ in f.target.blocks]
        rep_top = inflate_rep(rng, cert_top, extra_top)
        pulled_top = stinespring_dilate(pullback_ungated(phi_top, f), tol, check_cp=False)
        modification.append(
            check_modification(f, rep_top, tol, cert=cert_top, pulled_cert=pulled_top)
        )

        f_prime = random_hom(rng, FdCStarAlgebra(_draw_blocks(rng, 2)), max_mult=1)
        f_outer = random_hom(rng, f_prime.target, max_mult=1)
        phi_chain = random_cp_map(rng, f_outer.target.blocks, 1, kraus_rank=2)
        phi_f = pullback_ungated(phi_chain, f_outer)
        certs = (
            stinespring_dilate(phi_chain, tol, check_cp=False),
            stinespring_dilate(phi_f, tol, check_cp=False),
            stinespring_dilate(pullback_ungated(phi_f, f_prime), tol, check_cp=False),
        )
        oplax.append(check_oplax(f_outer, f_prime, tol, certs=certs))
        if i == 0:
            controls = _negative_controls(
                seed, tol, self_med=self_med, l_t=l_t, m_src=m_canonical,
                cert_psi=cert_psi, univ=univ, through=through,
                chain=(f_outer, f_prime, certs),
            )

    reports = [
        merge_reports("zigzag", zigzag),
        merge_reports("naturality_m", naturality),
        merge_reports("modification", modification),
        merge_reports("oplax", oplax),
        check_dagger(dagger_entries, tol),
        merge_reports("objectwise_adjunction", adjunction),
        counterexample_suite(tol),
        partial_isometry_suite(seed, min(draws * 5, 500), tol),
    ]
    return SuiteResult(tuple(reports), tuple(controls))


def _negative_controls(
    seed: int, tol: Tolerance, *, self_med, l_t, m_src, cert_psi, univ, through, chain
) -> list[LawReport]:
    """Draw 0's objects, each deliberately broken; every report must come
    back failing.  The arguments are what draw 0 already built: the
    mediating morphism of its zig-zag certificate onto itself, the transport
    L_T of its morphism sample with the mediating morphism of the source's
    canonical dilation, the dilation cert_psi of the sample's target map, the
    universal factorization with its counit route m_target L_T, and the
    oplax chain (f, f', certs)."""
    controls = []

    # mediating morphism scaled off unity breaks the second zig-zag
    sabotage = max_abs(1.01 * self_med.L - numerics.eye(len(self_med.L)))
    controls.append(LawReport.from_residual("control_sabotaged_mediating", sabotage, tol))

    # a random L is not natural
    rng = rng_for(seed, 10_000)
    bad_l = l_t.L + 0.1 * numerics.as_matrix(
        rng.standard_normal(l_t.L.shape) + 1j * rng.standard_normal(l_t.L.shape)
    )
    m_dst = mediating_morphism(cert_psi.rep, cert=cert_psi)
    checks = [_holds(m_dst.L @ l_t.L, bad_l @ m_src.L, tol)]
    controls.append(LawReport.from_checks("control_non_morphism_naturality", checks))

    # scrambling the quotient coordinates of the middle dilation breaks oplax
    f, f_prime, (cert0, cert1, cert2) = chain
    scrambled_q = np.roll(cert1.q_pinv, 1, axis=1).copy()
    scrambled_q[:, 0] *= 2.0
    scrambled = replace(cert1, q_pinv=scrambled_q)
    checks = [_composition(f, f_prime, (cert0, scrambled, cert2), tol)]
    controls.append(LawReport.from_checks("control_scrambled_quotient", checks))

    # perturbing the counit breaks the objectwise factorization
    checks = [_holds(univ.L, 1.01 * through, tol)]
    controls.append(LawReport.from_checks("control_perturbed_counit", checks))

    controls.append(_padding_control(tol))
    return controls


@functools.lru_cache(maxsize=16)
def _padding_control(tol: Tolerance) -> LawReport:
    """The A -> A (+) tr(A)/2 padding is not multiplicative; the gate must
    say so.  The map is fixed, so the report is computed once per tolerance."""
    report = check_star_hom(_fake_unital_padding(), tol)
    checks = [(report.ok, report.residuals["multiplicative"])]
    slipped = ("padding map slipped through the gate",) if report.ok else ()
    return LawReport.from_checks("control_padding_not_hom", checks, slipped)


def _fake_unital_padding() -> StarHom:
    """The unital but non-multiplicative map M_2 -> M_2 (+) M_3."""
    # E_ab goes to E_ab (+) [a == b] 1_3 / 2
    tail = 0.5 * np.outer(np.eye(3).reshape(-1), np.eye(2).reshape(-1))
    matrix = np.concatenate([np.eye(4), tail])
    return StarHom(FdCStarAlgebra((2,)), FdCStarAlgebra((2, 3)), matrix)
