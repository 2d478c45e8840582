"""Acceptance gate: one test per criterion, printing a PASS line each.

Tolerances are pinned here and nowhere else; the random ensembles are seeded
so every run exercises the same instances.
"""

import numpy as np

from dilatory.algebra import FdCStarAlgebra, commutant
from dilatory.cli import main
from dilatory.cpmap import (
    OcpMap,
    ad_map,
    apply,
    check_morphism_variants,
    tracial_map,
)
from dilatory.dilation import (
    is_minimal,
    is_rep_morphism,
    mediating_morphism,
    restrict,
    stinespring_dilate,
    universal_factorization,
)
from dilatory.geometry import (
    connecting_morphism,
    is_intertwining_extension,
    partial_isometry_report,
    purification_residuals,
    purify_partial,
    purify_unitary,
)
from dilatory.laws import example_27, example_28, run_default_suite, CONTROL_FLOOR
from dilatory.numerics import Tolerance, kron, max_abs, op_norm
from dilatory.randgen import (
    boxplus_rep_images,
    inflate_rep,
    random_cp_map,
    random_dilation_pair,
    random_unitary,
    rng_for,
)
from reference import matrix_units

TOL = Tolerance()
BLOCK_CHOICES = [(1,), (2,), (3,), (1, 2), (2, 2), (1, 3), (2, 3), (1, 1, 2)]


def announce(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def brute_force_gram(phi):
    """Entrywise Gram from the sesquilinear definition, k-index major."""
    algebra = phi.domain
    units = matrix_units(algebra)
    k = phi.k
    dim = algebra.dim
    g = np.zeros((k * dim, k * dim), dtype=complex)
    for s in range(k):
        for t in range(k):
            for alpha, x in enumerate(units):
                for beta, y in enumerate(units):
                    g[s * dim + alpha, t * dim + beta] = apply(phi, x.star() @ y)[s, t]
    return g


def oracle_rank(m, cutoff=1e-9):
    w = np.linalg.eigvalsh(m)
    top = max(float(w[-1]), 0.0)
    if top <= cutoff:
        return 0
    return int(np.count_nonzero(w > cutoff * top))


def seeded_cp_map(index, blocks=None, k=None, kraus_rank=2, unital=False):
    rng = rng_for(1000, index)
    if blocks is None:
        blocks = BLOCK_CHOICES[int(rng.integers(0, len(BLOCK_CHOICES)))]
    if k is None:
        k = int(rng.integers(1, 4))
    return rng, random_cp_map(rng, blocks, k, kraus_rank=kraus_rank, unital=unital)


def test_criterion_1_factorization_and_minimality():
    worst = 0.0
    for i in range(200):
        _, phi = seeded_cp_map(i)
        cert = stinespring_dilate(phi, TOL)
        back = restrict(cert.rep)
        residual = max(
            max_abs(a - b) for a, b in zip(back.basis_images, phi.basis_images)
        )
        worst = max(worst, residual)
        assert residual <= 1e-9, f"instance {i}: factorization residual {residual:.3e}"
        assert is_minimal(cert.rep, TOL), f"instance {i}: dilation not minimal"
    announce(1, f"200 seeded factorizations, worst residual {worst:.3e}, all minimal")


def test_criterion_2_known_dimensions():
    for m in (2, 3):
        tau = tracial_map(m, 1)
        assert stinespring_dilate(tau, TOL).dimension == m * m
        assert oracle_rank(brute_force_gram(tau)) == m * m
    for n in (2, 3):
        ident = ad_map(np.eye(n))
        assert stinespring_dilate(ident, TOL).dimension == n
        assert oracle_rank(brute_force_gram(ident)) == n
    announce(2, "tracial states give dim m^2 and identity channels dim n, "
                "confirmed by entrywise Gram oracle")


def test_criterion_3_zigzag_on_ensemble():
    from dilatory.laws import check_zigzag

    worst = 0.0
    worst_identity = 0.0
    for i in range(200):
        rng, phi = seeded_cp_map(i)
        cert = stinespring_dilate(phi, TOL)
        extra = [int(rng.integers(0, 2)) for _ in phi.domain.blocks]
        rep = inflate_rep(rng, cert, extra)
        report = check_zigzag(rep, TOL, cert=cert)
        worst = max(worst, report.max_residual)
        assert report.max_residual <= 1e-9, f"instance {i}"
        med = mediating_morphism(cert.rep, cert=cert)
        identity_residual = max_abs(med.L - np.eye(cert.dimension))
        worst_identity = max(worst_identity, identity_residual)
        assert identity_residual <= 1e-10, f"instance {i}"
    announce(3, f"zig-zag residual <= {worst:.3e}, canonical mediating morphism "
                f"is the identity to {worst_identity:.3e}")


def _lstsq_morphism(t, src, dst):
    """Independent construction: solve the three defining equations for L."""
    h1, h2 = src.h, dst.h
    rows = [
        np.kron(a.T, np.eye(h2)) - np.kron(np.eye(h1), b)
        for a, b in zip(src.pi_images, dst.pi_images)
    ]
    rhs = [np.zeros(r.shape[0], dtype=complex) for r in rows]
    rows.append(np.kron(src.V.T, np.eye(h2)))
    rhs.append((dst.V @ t).reshape(-1, order="F"))
    rows.append(np.kron(np.eye(h1), dst.V.conj().T))
    rhs.append((np.asarray(t) @ src.V.conj().T).reshape(-1, order="F"))
    sol, *_ = np.linalg.lstsq(np.vstack(rows), np.concatenate(rhs), rcond=None)
    return sol.reshape((h2, h1), order="F")


def test_criterion_4_universal_property():
    worst = 0.0
    for i in range(100):
        rng = rng_for(2000, i)
        blocks = BLOCK_CHOICES[int(rng.integers(0, 4))]
        k = int(rng.integers(1, 3))
        phi = random_cp_map(rng, blocks, k, kraus_rank=2)
        x = random_unitary(rng, k)
        psi = OcpMap(phi.domain, k, tuple(x @ m @ x.conj().T for m in phi.basis_images))
        cert = stinespring_dilate(phi, TOL)
        cert_psi = stinespring_dilate(psi, TOL)
        extra = [int(rng.integers(0, 2)) for _ in blocks]
        target = inflate_rep(rng, cert_psi, extra)
        morphism = universal_factorization(x, target, TOL, cert=cert)
        assert np.array_equal(morphism.T, x.astype(complex)), "restriction is not T"
        assert is_rep_morphism(morphism, cert.rep, target, TOL).ok
        oracle = _lstsq_morphism(x, cert.rep, target)
        residual = max_abs(morphism.L - oracle)
        worst = max(worst, residual)
        assert residual <= 1e-9, f"instance {i}: uniqueness residual {residual:.3e}"
    announce(4, f"100 universal factorizations agree with the least-squares "
                f"oracle to {worst:.3e}")


def test_criterion_5_counterexample_fidelity():
    phi, psi, t = example_27()
    flags = check_morphism_variants(t, phi, psi, TOL)
    assert (flags.diagram_23, flags.diagram_22, flags.diagram_24) == (False, True, True)
    violation = op_norm(
        t @ apply(phi, phi.domain.unit()) @ t.conj().T - apply(psi, psi.domain.unit())
    )
    assert abs(violation - 1.0) <= 1e-9

    phi2, psi2, t2 = example_28()
    flags2 = check_morphism_variants(t2, phi2, psi2, TOL)
    assert (flags2.diagram_23, flags2.diagram_22, flags2.diagram_24) == (False, False, True)
    e12 = phi2.domain.basis_index(0, 0, 1)
    violation2 = max_abs(t2 @ phi2.basis_images[e12] - psi2.basis_images[e12] @ t2)
    assert violation2 >= 0.4
    announce(5, f"counterexamples reproduce (F,T,T) with violation {violation:.12f} "
                f"and (F,F,T) with violation {violation2:.3f}")


PURIFY_CASES = [
    ((2,), 1), ((2,), 2), ((3,), 1), ((3,), 2),
    ((1, 2), 1), ((1, 2), 2), ((2, 2), 1), ((2, 1), 2),
]


def test_criterion_6_purification():
    worst = 0.0
    for i in range(100):
        rng = rng_for(3000, i)
        blocks, k = PURIFY_CASES[i % len(PURIFY_CASES)]
        extra = [int(rng.integers(0, 3)) for _ in blocks]
        phi, cert, rep1, rep2 = random_dilation_pair(
            rng, blocks, k, TOL, extra1=extra, extra2=extra
        )
        u = purify_unitary(rep1, rep2, TOL)
        res = purification_residuals(u, rep1, rep2)
        worst = max(worst, max(res.values()))
        assert max(res.values()) <= 1e-8, f"instance {i}: {res}"

    mixed_seen = 0
    worst_partial = 0.0
    for i in range(50):
        rng = rng_for(3100, i)
        if i % 5 == 0:
            blocks, k = (1, 2), 1
            extra1, extra2 = [2, 0], [0, 2]  # forced mixed witness
        else:
            blocks, k = PURIFY_CASES[i % len(PURIFY_CASES)]
            extra1 = [int(rng.integers(0, 3)) for _ in blocks]
            extra2 = [int(rng.integers(0, 3)) for _ in blocks]
            if extra1 == extra2:
                extra2[0] += 1
        phi, cert, rep1, rep2 = random_dilation_pair(
            rng, blocks, k, TOL, extra1=extra1, extra2=extra2
        )
        u, label = purify_partial(rep1, rep2, TOL)
        res = purification_residuals(u, rep1, rep2)
        worst_partial = max(worst_partial, res["anchor"], res["intertwine"])
        assert res["anchor"] <= 1e-8 and res["intertwine"] <= 1e-8, f"instance {i}"
        link = connecting_morphism(rep1, rep2, TOL)
        assert is_intertwining_extension(
            link.L, u, list(rep1.pi_images), list(rep2.pi_images), TOL
        ), f"instance {i}: output does not extend the connecting morphism"
        if label == "mixed":
            mixed_seen += 1
            assert res["isometry_defect"] > 1e-3
            assert res["coisometry_defect"] > 1e-3
    assert mixed_seen >= 1
    announce(6, f"100 unitary purifications (worst residual {worst:.3e}) and 50 "
                f"partial ones (worst {worst_partial:.3e}, {mixed_seen} mixed witnesses)")


def test_criterion_7_commutant_closed_form():
    for i in range(50):
        rng = rng_for(4000, i)
        t = int(rng.integers(1, 4))
        blocks = tuple(int(rng.integers(1, 4)) for _ in range(t))
        mults = [int(rng.integers(0, 3)) for _ in range(t)]
        if sum(n * c for n, c in zip(blocks, mults)) == 0:
            mults[0] = 1
        algebra = FdCStarAlgebra(blocks)
        images = boxplus_rep_images(algebra, mults)
        ambient = sum(n * c for n, c in zip(blocks, mults))
        x = random_unitary(rng, ambient)
        generators = [x @ g @ x.conj().T for g in images]
        basis = commutant(generators, ambient, TOL)
        expected = sum(c * c for c in mults)
        assert len(basis) == expected, (
            f"instance {i}: blocks {blocks} mults {mults}: "
            f"got {len(basis)}, expected {expected}"
        )
    announce(7, "commutant dimension matches sum of squared multiplicities on "
                "50 conjugated block instances")


def test_criterion_8_partial_isometry_laws():
    agreements = 0
    for i in range(125):
        rng = rng_for(5000, i)
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 6))
        rank = int(rng.integers(0, min(rows, cols) + 1))
        u = random_unitary(rng, rows)[:, :rank]
        v = random_unitary(rng, cols)[:, :rank]
        clean = u @ v.conj().T
        samples = (
            clean,
            clean + 1e-13 * rng.standard_normal((rows, cols)),
            clean + 1e-3 * rng.standard_normal((rows, cols)),
            rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)),
        )
        for sample in samples:
            report = partial_isometry_report(sample, TOL)
            assert report.is_partial_isometry == report.restricted_isometry_ok
            agreements += 1
    assert agreements == 500

    for i in range(100):
        rng = rng_for(5100, i)
        rows = int(rng.integers(1, 4))
        cols = int(rng.integers(1, 4))
        rank = int(rng.integers(0, min(rows, cols) + 1))
        u = random_unitary(rng, rows)[:, :rank]
        v = random_unitary(rng, cols)[:, :rank]
        clean = u @ v.conj().T
        m = int(rng.integers(1, 4))
        assert partial_isometry_report(kron(np.eye(m), clean), TOL).is_partial_isometry
        noisy = clean + 1e-2 * rng.standard_normal((rows, cols))
        if not partial_isometry_report(noisy, TOL).is_partial_isometry:
            assert not partial_isometry_report(kron(np.eye(m), noisy), TOL).is_partial_isometry

    p = np.array([[1.0, 0.0], [0.0, 0.0]])
    q = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
    assert partial_isometry_report(p, TOL).is_partial_isometry
    assert partial_isometry_report(q, TOL).is_partial_isometry
    assert not partial_isometry_report(p @ q, TOL).is_partial_isometry
    announce(8, "dual definitions agree on 500 samples, tensoring preserves the "
                "verdict both ways on 100, and the projection composite fails")


def test_criterion_9_law_suite():
    result = run_default_suite(seed=0, draws=100, max_dim=3, tol=TOL)
    for report in result.reports:
        assert report.passed, f"{report.name}: residual {report.max_residual:.3e}"
        assert report.max_residual <= 1e-9 or report.name in (
            "counterexamples",
            "partial_isometries",
        )
    for control in result.controls:
        assert not control.passed and control.max_residual >= CONTROL_FLOOR, control
    assert result.ok
    announce(9, f"default ensemble: {len(result.reports)} law suites pass, "
                f"{len(result.controls)} negative controls fail as required")


def test_criterion_10_cli_determinism(tmp_path):
    fixture = tmp_path / "phi.json"
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["random", "--seed", "42", "--blocks", "1,2", "--k", "2",
                 "--out", str(fixture)]) == 0
    assert main(["random", "--seed", "42", "--blocks", "1,2", "--k", "2",
                 "--out", str(out_a)]) == 0
    assert fixture.read_bytes() == out_a.read_bytes()
    assert main(["dilate", str(fixture), "--out", str(out_a)]) == 0
    assert main(["dilate", str(fixture), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    announce(10, "random and dilate are byte-identical across runs at a fixed seed")
