import json
import sys

import numpy as np
import pytest

from dilatory import laws
from dilatory.algebra import FdCStarAlgebra, StarHom, identity_hom
from dilatory.cpmap import OcpMap, OcpMorphism, pullback, tracial_map
from dilatory.dilation import (
    AnchoredRep,
    RepMorphism,
    is_rep_morphism,
    mediating_morphism,
    restrict,
    stinespring_dilate,
    universal_factorization,
)
from dilatory.errors import InvalidHom, NotMorphism
from dilatory.laws import (
    CONTROL_FLOOR,
    check_dagger,
    check_modification,
    check_naturality_m,
    check_oplax,
    check_zigzag,
    counterexample_suite,
    example_27,
    example_28,
    merge_reports,
    objectwise_adjunction_suite,
    partial_isometry_suite,
    run_default_suite,
    _fake_unital_padding,
)
from dilatory.numerics import Tolerance, dagger, max_abs
from dilatory.randgen import (
    inflate_rep,
    random_cp_map,
    random_hom,
    random_unitary,
    rng_for,
)

TOL = Tolerance()


def test_law_report_pass_iff_residual_below_eps():
    from dilatory.laws import LawReport

    good = LawReport.from_residual("x", 1e-12, TOL)
    bad = LawReport.from_residual("x", 1e-3, TOL, witness="w")
    assert good.passed and not bad.passed
    assert bad.witnesses == ("w",)
    merged = merge_reports("x", [good, bad])
    assert not merged.passed and merged.max_residual == 1e-3


def test_zigzag_on_canonical_and_inflated():
    rng = rng_for(80, 0)
    phi = random_cp_map(rng, (2,), 2, kraus_rank=2)
    cert = stinespring_dilate(phi, TOL)
    assert check_zigzag(cert.rep, TOL, cert=cert).passed
    inflated = inflate_rep(rng, cert, [1])
    report = check_zigzag(inflated, TOL, cert=cert)
    assert report.passed and report.max_residual <= 1e-10


def test_zigzag_rejects_a_rep_that_does_not_dilate_the_certified_map():
    rng = rng_for(80, 0)
    phi = random_cp_map(rng, (2,), 2, kraus_rank=2)
    cert = stinespring_dilate(phi, TOL)
    inflated = inflate_rep(rng, cert, [1])
    bad = AnchoredRep(
        inflated.algebra, inflated.k, inflated.h, inflated.pi_images, 1.01 * inflated.V
    )
    assert max_abs(restrict(bad).basis_images - phi.basis_images) > 1e-3
    report = check_zigzag(bad, TOL, cert=cert)
    assert not report.passed and report.max_residual >= CONTROL_FLOOR


@pytest.mark.parametrize("s", [1.0, 1e6, 1e12])
def test_zigzag_passes_on_a_large_multiple_of_the_map(s):
    # the counit is judged by is_rep_morphism at the scales it names: at
    # s = 1e12 its raw anchor residual is 3.7e-9, above eps_eq at scale 1
    phi = random_cp_map(rng_for(3, 0), (2, 3), 3, kraus_rank=3)
    cert = stinespring_dilate(OcpMap(phi.domain, 3, s * phi.basis_images), TOL)
    rep = inflate_rep(rng_for(3, 1), cert, [1, 1])
    report = check_zigzag(rep, TOL, cert=cert)
    assert report.passed and report.witnesses == ()
    counit = mediating_morphism(rep, cert=cert)
    raw = is_rep_morphism(counit, cert.rep, rep, TOL).residuals.values()
    self_med = mediating_morphism(cert.rep, cert=cert)
    assert report.max_residual == max(*raw, max_abs(self_med.L - np.eye(cert.dimension)))


def test_zigzag_detects_sabotage():
    rng = rng_for(81, 0)
    phi = random_cp_map(rng, (2,), 2, kraus_rank=2)
    cert = stinespring_dilate(phi, TOL)
    med = mediating_morphism(cert.rep, cert=cert)
    residual = max_abs(1.01 * med.L - np.eye(cert.dimension))
    assert residual >= CONTROL_FLOOR


def test_naturality_positive_and_negative():
    rng = rng_for(82, 0)
    phi = random_cp_map(rng, (2,), 2, kraus_rank=2)
    x = random_unitary(rng, 2)
    psi = OcpMap(phi.domain, 2, tuple(x @ m @ x.conj().T for m in phi.basis_images))
    cert = stinespring_dilate(phi, TOL)
    cert_psi = stinespring_dilate(psi, TOL)
    target = inflate_rep(rng, cert_psi, [1])
    morphism = universal_factorization(x, target, TOL, cert=cert)
    certs = {"src_cert": cert, "dst_cert": cert_psi}
    report = check_naturality_m(morphism, cert.rep, target, TOL, **certs)
    assert report.passed

    bad = RepMorphism(morphism.T, morphism.L + 0.1)
    with pytest.raises(NotMorphism):
        check_naturality_m(bad, cert.rep, target, TOL, **certs)


def test_modification_identity_and_random():
    rng = rng_for(83, 0)
    f = random_hom(rng, FdCStarAlgebra((1, 2)), max_mult=1)
    phi = random_cp_map(rng, f.target.blocks, 2, kraus_rank=2)
    cert = stinespring_dilate(phi, TOL)
    rep = inflate_rep(rng, cert, [1] * len(f.target.blocks))
    pulled_cert = stinespring_dilate(pullback(phi, f, TOL), TOL)
    assert check_modification(f, rep, TOL, cert=cert, pulled_cert=pulled_cert).passed
    ident = identity_hom(phi.domain)
    assert check_modification(ident, rep, TOL, cert=cert, pulled_cert=cert).passed


def test_modification_rejects_padding_map():
    rng = rng_for(84, 0)
    padded = _fake_unital_padding()
    phi = random_cp_map(rng, (2, 3), 2, kraus_rank=2)
    cert = stinespring_dilate(phi, TOL)
    with pytest.raises(InvalidHom):
        check_modification(padded, cert.rep, TOL, cert=cert, pulled_cert=cert)


def test_oplax_identity_chain_and_random():
    rng = rng_for(85, 0)
    f_prime = random_hom(rng, FdCStarAlgebra((2,)), max_mult=1)
    f = random_hom(rng, f_prime.target, max_mult=1)
    phi = random_cp_map(rng, f.target.blocks, 1, kraus_rank=2)
    assert check_oplax(f, f_prime, TOL, certs=chain_certs(phi, f, f_prime)).passed
    ident = identity_hom(phi.domain)
    assert check_oplax(ident, ident, TOL, certs=chain_certs(phi, ident, ident)).passed


def chain_certs(phi, f, f_prime):
    """Canonical dilations of phi, phi o f and phi o f o f'."""
    phi_f = pullback(phi, f, TOL)
    phi_ff = pullback(phi_f, f_prime, TOL)
    return tuple(stinespring_dilate(m, TOL) for m in (phi, phi_f, phi_ff))


def test_dagger_entries():
    phi, psi, t = example_27()
    from dilatory.cpmap import OcpMorphism

    rng = rng_for(86, 0)
    chain = [
        OcpMorphism(tracial_map(2, 2), tracial_map(2, 3), rng.standard_normal((3, 2))),
        OcpMorphism(tracial_map(2, 3), tracial_map(2, 2), rng.standard_normal((2, 3))),
        OcpMorphism(phi, psi, t),
    ]
    cert = stinespring_dilate(phi, TOL)
    target = inflate_rep(rng, stinespring_dilate(psi, TOL), [1])
    morphism = universal_factorization(t, target, TOL, cert=cert)
    chain.append((morphism, cert.rep, target))
    report = check_dagger(chain, TOL)
    assert report.passed


def adjunction_samples(rng, count):
    """(T, cert_phi, target, cert_psi) with psi = Ad_T phi, T unitary, and
    target an inflated dilation of psi."""
    samples = []
    for _ in range(count):
        phi = random_cp_map(rng, (2,), 2, kraus_rank=2)
        x = random_unitary(rng, 2)
        psi = OcpMap(phi.domain, 2, tuple(x @ m @ x.conj().T for m in phi.basis_images))
        cert_phi = stinespring_dilate(phi, TOL)
        cert_psi = stinespring_dilate(psi, TOL)
        target = inflate_rep(rng, cert_psi, [1])
        samples.append((x, cert_phi, target, cert_psi))
    return samples


def test_objectwise_adjunction_positive():
    report = objectwise_adjunction_suite(adjunction_samples(rng_for(87, 0), 5), TOL)
    assert report.passed and report.max_residual <= 1e-9


def test_checkers_gate_each_sampled_morphism_once(monkeypatch):
    """T is gated once per sample: by universal_factorization in the
    adjunction suite, by is_rep_morphism on (T, L) in check_naturality_m;
    the transports L_T share that gate."""
    samples = adjunction_samples(rng_for(88, 0), 3)
    morphisms = [universal_factorization(t, target, TOL, cert=c) for t, c, target, _ in samples]
    counts = _count_calls(monkeypatch, ("is_ocp_morphism", "is_rep_morphism"))
    assert objectwise_adjunction_suite(samples, TOL).passed
    # one T gate and one law check of the factorization per sample
    assert counts == {"is_ocp_morphism": 3, "is_rep_morphism": 3}
    counts.update(dict.fromkeys(counts, 0))
    for morphism, (_, cert_phi, target, cert_psi) in zip(morphisms, samples):
        certs = {"src_cert": cert_phi, "dst_cert": cert_psi}
        assert check_naturality_m(morphism, cert_phi.rep, target, TOL, **certs).passed
    assert counts == {"is_ocp_morphism": 0, "is_rep_morphism": 3}


def test_counterexample_suite_passes():
    report = counterexample_suite(TOL)
    assert report.passed
    assert report.max_residual <= 1e-9


def test_example_fixture_values():
    phi, psi, t = example_27()
    assert phi.k == 1 and psi.k == 2
    assert max_abs(t.conj().T @ t - np.eye(1)) <= 1e-15
    phi2, psi2, t2 = example_28()
    np.testing.assert_allclose(
        psi2.basis_images[phi2.domain.basis_index(0, 0, 0)],
        0.5 * np.eye(2),
        atol=1e-15,
    )


def test_partial_isometry_suite():
    report = partial_isometry_suite(seed=0, draws=60, tol=TOL)
    assert report.passed


def test_padding_map_is_unital_but_not_hom():
    from dilatory.algebra import check_star_hom

    report = check_star_hom(_fake_unital_padding(), TOL)
    assert report.unital and report.star_preserving and not report.multiplicative


def test_default_suite_ok_and_reproducible():
    result1 = run_default_suite(seed=0, draws=6, max_dim=3, tol=TOL)
    result2 = run_default_suite(seed=0, draws=6, max_dim=3, tol=TOL)
    assert result1.ok
    for a, b in zip(result1.reports, result2.reports):
        assert a == b
    for a, b in zip(result1.controls, result2.controls):
        assert a == b
    assert all(
        (not c.passed) and c.max_residual >= CONTROL_FLOOR for c in result1.controls
    )


def _count_calls(monkeypatch, names) -> dict:
    """Count calls of the named dilatory functions, wherever a dilatory
    module imported them."""
    counts = dict.fromkeys(names, 0)
    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("dilatory")]
    for name in counts:
        real = next(getattr(m, name) for m in modules if hasattr(m, name))

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    return counts


def test_default_suite_dilates_each_map_once(monkeypatch):
    """One laws draw: 8 sampled or pulled-back maps, each dilated once; no
    more than 7 homomorphism gates."""
    counts = _count_calls(monkeypatch, ("stinespring_dilate", "check_star_hom"))
    assert run_default_suite(seed=7, draws=1, tol=TOL).ok
    assert counts["stinespring_dilate"] == 8
    assert counts["check_star_hom"] <= 7


def test_default_suite_builds_each_construction_once(monkeypatch):
    """One laws draw gates each of its four homs once (f, f_outer, f' and
    the padding control), builds each of its 8 distinct mediating morphisms
    once and its universal factorization once."""
    # the padding control is gated once per tolerance: start from a cold cache
    laws._padding_control.cache_clear()
    gated = []
    real_gate = laws.check_star_hom

    def gate(f, tol):
        gated.append(f)
        return real_gate(f, tol)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("dilatory") and getattr(module, "check_star_hom", None) is real_gate:
            monkeypatch.setattr(module, "check_star_hom", gate)
    counts = _count_calls(monkeypatch, ("mediating_morphism", "universal_factorization"))
    assert run_default_suite(seed=7, draws=1, tol=TOL).ok
    assert len(gated) == len({id(f) for f in gated}) == 4
    assert gated[-1].target.blocks == (2, 3)  # the padding control
    assert counts == {"mediating_morphism": 8, "universal_factorization": 1}
    laws._padding_control.cache_clear()


def test_default_suite_transports_each_draw_once(monkeypatch):
    """The naturality checks, the adjunction suite and draw 0's controls
    share one L_T per draw, built without stine_on_morphism's second gate
    of T: per draw, one transport for the universal factorization and one
    for L_T."""
    counts = _count_calls(monkeypatch, ("stine_on_morphism", "_transport"))
    assert run_default_suite(seed=7, draws=1, tol=TOL).ok
    assert counts == {"stine_on_morphism": 0, "_transport": 2}
    assert run_default_suite(seed=8, draws=3, tol=TOL).ok
    assert counts == {"stine_on_morphism": 0, "_transport": 2 + 2 * 3}


def per_draw_partial_isometry_samples(seed, draws):
    # the one-draw-at-a-time sampler the stacked one replaced, kept as its reference
    samples = []
    for i in range(draws):
        rng = rng_for(seed, i)
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 5))
        rank = int(rng.integers(0, min(rows, cols) + 1))
        u = random_unitary(rng, rows)[:, :rank]
        v = random_unitary(rng, cols)[:, :rank]
        clean = u @ dagger(v)
        noisy = clean + 1e-3 * (rng.standard_normal(clean.shape))
        samples.append((rank, clean, noisy, int(rng.integers(1, 4))))
    return samples


@pytest.mark.parametrize("seed", [0, 7, 7001, 2**40 + 3])
def test_stacked_partial_isometry_sampler_equals_per_draw(seed):
    got = laws._partial_isometry_samples(seed, 80)
    expected = per_draw_partial_isometry_samples(seed, 80)
    assert len(got) == len(expected) == 80
    for (rank, clean, noisy, m), (rank_r, clean_r, noisy_r, m_r) in zip(got, expected):
        assert (rank, m) == (rank_r, m_r)
        assert clean.shape == clean_r.shape and clean.tobytes() == clean_r.tobytes()
        assert noisy.shape == noisy_r.shape and noisy.tobytes() == noisy_r.tobytes()


def test_partial_isometry_suite_without_draws_runs_the_projection_pair(monkeypatch):
    seen = []
    real = laws.classify_partial_isometries

    def spy(matrices, tol):
        seen.append(list(matrices))
        return real(matrices, tol)

    monkeypatch.setattr(laws, "classify_partial_isometries", spy)
    report = partial_isometry_suite(seed=3, draws=0, tol=TOL)
    assert report.passed and report.witnesses == ()
    assert len(seen) == 1 and len(seen[0]) == 1
    assert np.array_equal(seen[0][0], 0.5 * np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_partial_isometry_suite_names_a_sabotaged_clean_sample(monkeypatch):
    real = laws._partial_isometry_samples
    samples = real(5, 12)
    bad = next(i for i, (rank, *_) in enumerate(samples) if rank > 0)

    def sabotaged(seed, draws):
        out = real(seed, draws)
        rank, clean, noisy, m = out[bad]
        out[bad] = (rank, 1.01 * clean, noisy, m)
        return out

    assert partial_isometry_suite(seed=5, draws=12, tol=TOL).passed
    monkeypatch.setattr(laws, "_partial_isometry_samples", sabotaged)
    report = partial_isometry_suite(seed=5, draws=12, tol=TOL)
    assert not report.passed and report.max_residual == 1.0
    assert report.witnesses == (f"kron broke a partial isometry at draw {bad}",)


def test_default_suite_zero_draws():
    result = run_default_suite(seed=0, draws=0, max_dim=3, tol=TOL)
    assert result.ok
    assert result.warnings
    assert result.reports == ()


def scaled(phi, s):
    return OcpMap(phi.domain, phi.k, s * phi.basis_images)


def found_case(s):
    """phi of CHANGES.md's scale defect times s, psi = X phi X*, the
    canonical dilations of both and an inflated target over psi."""
    phi = scaled(random_cp_map(rng_for(3, 0), (2, 3), 3, kraus_rank=3), s)
    x = random_unitary(rng_for(3, 2), 3)
    psi = OcpMap(phi.domain, 3, x @ phi.basis_images @ dagger(x))
    cert_phi = stinespring_dilate(phi, TOL)
    cert_psi = stinespring_dilate(psi, TOL)
    target = inflate_rep(rng_for(3, 1), cert_psi, [1, 1])
    return phi, psi, x, cert_phi, cert_psi, target


def law_verdicts(t, phi, psi, cert_phi, cert_psi, target):
    """The verdicts of the naturality, dagger and adjunction laws on T."""
    univ = universal_factorization(t, target, TOL, cert=cert_phi)
    certs = {"src_cert": cert_phi, "dst_cert": cert_psi}
    entries = [OcpMorphism(phi, psi, t), (univ, cert_phi.rep, target)]
    return {
        "naturality_m": check_naturality_m(univ, cert_phi.rep, target, TOL, **certs).passed,
        "dagger": check_dagger(entries, TOL).passed,
        "objectwise_adjunction": objectwise_adjunction_suite(
            [(t, cert_phi, target, cert_psi)], TOL
        ).passed,
    }


MAP_SCALES = [1e-12, 1e-6, 1.0, 1e6, 1e12]


@pytest.mark.parametrize("s", MAP_SCALES)
def test_every_law_holds_on_every_multiple_of_the_map(s):
    # with the gates' raw residuals weighed at scale 1, the dagger law failed
    # here from s = 1e6 and the adjunction at s = 1e12
    phi, psi, x, cert_phi, cert_psi, target = found_case(s)
    verdicts = law_verdicts(x, phi, psi, cert_phi, cert_psi, target)
    verdicts["zigzag"] = check_zigzag(
        inflate_rep(rng_for(3, 1), cert_phi, [1, 1]), TOL, cert=cert_phi
    ).passed

    rng = rng_for(83, 0)
    f = random_hom(rng, FdCStarAlgebra((1, 2)), max_mult=1)
    top = scaled(random_cp_map(rng, f.target.blocks, 2, kraus_rank=2), s)
    cert = stinespring_dilate(top, TOL)
    rep = inflate_rep(rng, cert, [1] * len(f.target.blocks))
    pulled_cert = stinespring_dilate(pullback(top, f, TOL), TOL)
    verdicts["modification"] = check_modification(
        f, rep, TOL, cert=cert, pulled_cert=pulled_cert
    ).passed

    rng = rng_for(85, 0)
    f_prime = random_hom(rng, FdCStarAlgebra((2,)), max_mult=1)
    f = random_hom(rng, f_prime.target, max_mult=1)
    chain = scaled(random_cp_map(rng, f.target.blocks, 1, kraus_rank=2), s)
    verdicts["oplax"] = check_oplax(f, f_prime, TOL, certs=chain_certs(chain, f, f_prime)).passed
    assert all(verdicts.values()), verdicts


@pytest.mark.parametrize("s", MAP_SCALES)
def test_perturbed_entries_fail_the_dagger_law_at_every_scale(s):
    phi, psi, x, cert_phi, cert_psi, target = found_case(s)
    univ = universal_factorization(x, target, TOL, cert=cert_phi)
    bad = RepMorphism(univ.T, univ.L + 0.1 * max_abs(univ.L))
    report = check_dagger([(bad, cert_phi.rep, target)], TOL)
    assert not report.passed


@pytest.mark.parametrize("c", [1.0, 1e4, 1e6, 1e8])
def test_laws_hold_on_every_multiple_of_a_tracial_morphism(c):
    # any multiple of a morphism of tracial maps is one; with residuals
    # weighed at scale 1, the dagger and adjunction laws failed this T from
    # c = 1e6 and the naturality square from 1e7
    rng = rng_for(88, 0)
    phi, psi = tracial_map(3, 2), tracial_map(3, 3)
    t = c * (rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
    cert_phi = stinespring_dilate(phi, TOL)
    cert_psi = stinespring_dilate(psi, TOL)
    target = inflate_rep(rng, cert_psi, [1])
    verdicts = law_verdicts(t, phi, psi, cert_phi, cert_psi, target)
    assert all(verdicts.values()), verdicts


def test_dagger_names_each_bad_entry_instead_of_raising():
    phi, psi, x, cert_phi, cert_psi, target = found_case(1.0)
    univ = universal_factorization(x, target, TOL, cert=cert_phi)
    good = [OcpMorphism(phi, psi, x), (univ, cert_phi.rep, target)]
    assert check_dagger(good, TOL).passed
    bad_rep = (RepMorphism(univ.T, univ.L + 0.1), cert_phi.rep, target)
    bad_ocp = OcpMorphism(phi, psi, x + 0.1)
    report = check_dagger([bad_ocp, *good, bad_rep], TOL)
    assert not report.passed and report.max_residual >= CONTROL_FLOOR
    assert report.witnesses == (
        "dagger of an OCP morphism failed validity",
        "dagger of a representation morphism failed validity",
    )


def gate_key(arg):
    """The value of a gate argument, for spotting repeated gates."""
    if isinstance(arg, np.ndarray):
        return (arg.shape, arg.tobytes())
    if isinstance(arg, OcpMap):
        return (arg.domain.blocks, arg.k, arg.basis_images.tobytes())
    if isinstance(arg, AnchoredRep):
        return (arg.algebra.blocks, arg.pi_images.tobytes(), arg.V.tobytes())
    if isinstance(arg, RepMorphism):
        return (gate_key(arg.T), gate_key(arg.L))
    if isinstance(arg, StarHom):
        return (arg.source.blocks, arg.target.blocks, arg.matrix.tobytes())
    return repr(arg)


@pytest.mark.parametrize("seed, draws", [(7, 1), (8, 3)])
def test_default_suite_runs_no_gate_twice(monkeypatch, seed, draws):
    laws.counterexample_suite.cache_clear()
    calls = {name: [] for name in ("is_rep_morphism", "is_ocp_morphism", "check_star_hom")}
    for name, seen in calls.items():
        real = getattr(laws, name)

        def spy(*args, _real=real, _seen=seen):
            _seen.append(tuple(gate_key(a) for a in args))
            return _real(*args)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("dilatory") and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, spy)
    assert run_default_suite(seed=seed, draws=draws, tol=TOL).ok
    for name, seen in calls.items():
        assert len(seen) == len(set(seen)), name
    # per draw: the zig-zag counit, the adjunction's factorization and the
    # adjoints of the two naturality entries
    assert len(calls["is_rep_morphism"]) == 4 * draws
    # per draw: universal_factorization, whose gate L_T shares, and the
    # dagger law; plus the two counterexamples, once per tolerance
    assert len(calls["is_ocp_morphism"]) == 2 * draws + 2
    laws.counterexample_suite.cache_clear()


def test_counterexample_suite_runs_once_per_tolerance(monkeypatch):
    laws.counterexample_suite.cache_clear()
    seen = []
    real = laws.check_morphism_variants

    def spy(t, phi, psi, tol):
        seen.append(tol)
        return real(t, phi, psi, tol)

    monkeypatch.setattr(laws, "check_morphism_variants", spy)
    first = run_default_suite(seed=0, draws=1, tol=TOL)
    assert run_default_suite(seed=1, draws=1, tol=TOL).ok
    assert seen == [TOL, TOL]
    other = Tolerance(eps_eq=2e-9)
    assert run_default_suite(seed=0, draws=1, tol=other).ok
    assert seen == [TOL, TOL, other, other]
    assert first.reports[-2] == counterexample_suite(TOL)
    laws.counterexample_suite.cache_clear()


def test_padding_control_gates_once_per_tolerance(monkeypatch, tmp_path, request):
    # the padding control's report depends only on the tolerance, so two
    # `laws` runs at one tolerance gate the padding map once between them
    from dilatory.cli import main

    laws._padding_control.cache_clear()
    request.addfinalizer(laws._padding_control.cache_clear)
    monkeypatch.delenv("DILATORY_TOL", raising=False)
    padding = _fake_unital_padding()
    gated = []
    real = laws.check_star_hom

    def spy(f, tol):
        if (f.source, f.target) == (padding.source, padding.target):
            assert np.array_equal(f.matrix, padding.matrix)
            gated.append(tol)
        return real(f, tol)

    monkeypatch.setattr(laws, "check_star_hom", spy)
    for seed in ("0", "1"):
        out = tmp_path / f"laws{seed}.json"
        assert main(["laws", "--seed", seed, "--draws", "1", "--out", str(out)]) == 0
        controls = {c["name"]: c for c in json.loads(out.read_text())["negative_controls"]}
        assert controls["control_padding_not_hom"]["failed_as_required"]
    assert gated == [TOL]
