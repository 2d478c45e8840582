import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dilatory.algebra import (
    FdCStarAlgebra,
    boxplus_rep_images,
    compose_homs,
    identity_hom,
    matrix_units,
)
from dilatory.cpmap import (
    OcpMap,
    ad_map,
    apply,
    is_ocp_morphism,
    kraus_map,
    pullback,
    tracial_map,
    unique_unital_hom_from_scalars,
    zero_map,
)
from dilatory.dilation import (
    AnchoredRep,
    _span_columns,
    gram_matrix,
    is_minimal,
    is_preserving,
    is_rep_morphism,
    left_mult_matrix,
    mediating_morphism,
    minimal_unitary,
    pullback_rep,
    restrict,
    stine_f,
    stine_on_morphism,
    stinespring_dilate,
    universal_factorization,
    validate_rep,
)
from dilatory.errors import (
    DegenerateDimension,
    NotCompletelyPositive,
    NotMinimal,
    NotMorphism,
    ShapeMismatch,
)
from dilatory.geometry import normal_form_general_rep
from dilatory.numerics import Tolerance, kron, max_abs, op_norm
from dilatory.randgen import (
    complex_gaussian,
    inflate_rep,
    random_cp_map,
    random_hom,
    random_unitary,
    rng_for,
)

TOL = Tolerance()


def brute_force_gram(phi):
    """Independent oracle: builds the Gram entrywise from the sesquilinear
    definition using embedded products, with the k-index MAJOR (a different
    ordering from the library's basis-major layout)."""
    algebra = phi.domain
    units = matrix_units(algebra)
    k = phi.k
    dim = algebra.dim
    g = np.zeros((k * dim, k * dim), dtype=complex)
    for s in range(k):
        for t in range(k):
            for alpha, x in enumerate(units):
                for beta, y in enumerate(units):
                    value = apply(phi, x.star() @ y)[s, t]
                    g[s * dim + alpha, t * dim + beta] = value
    return g


def spectral_rank(m, cutoff=1e-9):
    w = np.linalg.eigvalsh(m)
    top = max(float(w[-1]), 0.0)
    if top <= cutoff:
        return 0
    return int(np.count_nonzero(w > cutoff * top))


def max_image_residual(phi, psi):
    return max(max_abs(a - b) for a, b in zip(phi.basis_images, psi.basis_images))


def test_gram_tracial_state_half_identity():
    tau = tracial_map(2, 1)
    g = gram_matrix(tau, TOL)
    np.testing.assert_allclose(g, 0.5 * np.eye(4), atol=1e-15)
    oracle = brute_force_gram(tau)
    np.testing.assert_allclose(oracle, 0.5 * np.eye(4), atol=1e-15)


def test_gram_identity_channel_structure():
    for n in (2, 3):
        ident = ad_map(np.eye(n))
        g = gram_matrix(ident, TOL)
        v = np.zeros((n * n, 1), dtype=complex)
        for l in range(n):
            v[l * n + l, 0] = 1.0
        expected = kron(np.eye(n), v @ v.conj().T)
        np.testing.assert_allclose(g, expected, atol=1e-14)
        assert spectral_rank(g) == n
        assert spectral_rank(brute_force_gram(ident)) == n


def test_gram_zero_map():
    g = gram_matrix(zero_map(FdCStarAlgebra((2,)), 2), TOL)
    assert max_abs(g) == 0.0


def test_gram_matches_brute_force_up_to_reordering():
    rng = rng_for(20, 0)
    phi = random_cp_map(rng, (1, 2), 2, kraus_rank=2)
    g = gram_matrix(phi, TOL)
    oracle = brute_force_gram(phi)
    dim, k = phi.domain.dim, phi.k
    perm = np.zeros((dim * k, dim * k))
    for alpha in range(dim):
        for s in range(k):
            perm[s * dim + alpha, alpha * k + s] = 1.0
    np.testing.assert_allclose(perm @ g @ perm.T, oracle, atol=1e-13)


def test_gram_gate_rejects_non_cp():
    transpose_images = []
    for _, a, b in FdCStarAlgebra((2,)).basis_labels():
        e = np.zeros((2, 2), dtype=complex)
        e[b, a] = 1.0
        transpose_images.append(e)
    phi = OcpMap(FdCStarAlgebra((2,)), 2, tuple(transpose_images))
    with pytest.raises(NotCompletelyPositive):
        gram_matrix(phi, TOL)


def test_dilate_scalar_algebra():
    # a unital map C -> B(C^k) dilates to d = k with trivial pi and unitary V
    k = 3
    phi = OcpMap(FdCStarAlgebra((1,)), k, (np.eye(k, dtype=complex),))
    cert = stinespring_dilate(phi, TOL)
    assert cert.dimension == k
    np.testing.assert_allclose(cert.rep.pi_images[0], np.eye(k), atol=1e-12)
    assert max_abs(cert.rep.V @ cert.rep.V.conj().T - np.eye(k)) <= 1e-12
    assert is_preserving(cert.rep, TOL)


def test_dilate_tracial_state_dimension():
    for m in (2, 3):
        cert = stinespring_dilate(tracial_map(m, 1), TOL)
        assert cert.dimension == m * m
        assert spectral_rank(brute_force_gram(tracial_map(m, 1))) == m * m


def test_dilate_identity_channel_dimension():
    for n in (2, 3):
        ident = ad_map(np.eye(n))
        cert = stinespring_dilate(ident, TOL)
        assert cert.dimension == n
        assert is_preserving(cert.rep, TOL)
        # pi is unitarily equivalent to the defining representation
        fresh = stinespring_dilate(restrict(cert.rep), TOL, check_cp=False)
        u = minimal_unitary(cert.rep, TOL, cert=fresh)
        assert u.L.shape == (n, n)


def test_dilate_zero_map_rejected():
    with pytest.raises(DegenerateDimension):
        stinespring_dilate(zero_map(FdCStarAlgebra((2,)), 2), TOL)


def test_dilation_certificate_quotient_identities():
    rng = rng_for(21, 0)
    phi = random_cp_map(rng, (2, 1), 2, kraus_rank=2)
    cert = stinespring_dilate(phi, TOL)
    d = cert.dimension
    np.testing.assert_allclose(cert.Q @ cert.q_pinv, np.eye(d), atol=1e-10)
    g = gram_matrix(phi, TOL, check_cp=False)
    assert max_abs(cert.Q.conj().T @ cert.Q - g) <= 1e-9


def test_dilation_pi_is_representation_and_v_isometry_when_unital():
    rng = rng_for(22, 0)
    phi = random_cp_map(rng, (2,), 2, kraus_rank=2, unital=True)
    cert = stinespring_dilate(phi, TOL)
    assert validate_rep(cert.rep, TOL).ok
    assert is_preserving(cert.rep, TOL)


def test_dilation_norm_bound():
    # ||pi(a)|| <= ||a|| on all basis units (norm 1 each) and random elements
    rng = rng_for(23, 0)
    phi = random_cp_map(rng, (2, 2), 2, kraus_rank=2)
    cert = stinespring_dilate(phi, TOL)
    for img in cert.rep.pi_images:
        assert op_norm(img) <= 1.0 + 1e-9
    from dilatory.algebra import element_from_coefficients
    from dilatory.dilation import pi_apply

    for _ in range(10):
        coeffs = rng.standard_normal(phi.domain.dim) + 1j * rng.standard_normal(phi.domain.dim)
        a = element_from_coefficients(phi.domain, coeffs)
        assert op_norm(pi_apply(cert.rep, a)) <= a.norm() + 1e-9


def test_restrict_roundtrip_random():
    rng = rng_for(24, 0)
    for i in range(20):
        blocks = [(1,), (2,), (3,), (1, 2)][i % 4]
        phi = random_cp_map(rng, blocks, int(rng.integers(1, 4)), kraus_rank=2)
        cert = stinespring_dilate(phi, TOL)
        assert max_image_residual(restrict(cert.rep), phi) <= 1e-10
        assert is_minimal(cert.rep, TOL)


def test_restrict_zero_anchor():
    rng = rng_for(25, 0)
    phi = random_cp_map(rng, (2,), 2, kraus_rank=2)
    cert = stinespring_dilate(phi, TOL)
    rep0 = AnchoredRep(
        cert.rep.algebra,
        2,
        cert.rep.h,
        cert.rep.pi_images,
        np.zeros((cert.rep.h, 2), dtype=complex),
    )
    assert max_image_residual(restrict(rep0), zero_map(phi.domain, 2)) == 0.0


def test_restrict_gns_form():
    # k = 1: the restriction is the vector state of the cyclic vector
    omega = tracial_map(2, 1)
    cert = stinespring_dilate(omega, TOL)
    vec = cert.cyclic_vector()
    for alpha, img in enumerate(cert.rep.pi_images):
        expected = vec.conj() @ img @ vec
        assert abs(expected - omega.basis_images[alpha][0, 0]) <= 1e-12


def test_left_mult_matrix_is_multiplication():
    algebra = FdCStarAlgebra((2, 1))
    k = 2
    rng = rng_for(26, 0)
    coeffs = rng.standard_normal(algebra.dim) + 1j * rng.standard_normal(algebra.dim)
    m = left_mult_matrix(algebra, k, coeffs)
    from dilatory.algebra import element_from_coefficients

    a = element_from_coefficients(algebra, coeffs)
    units = matrix_units(algebra)
    for beta, unit in enumerate(units):
        product = (a @ unit).coefficients()
        for s in range(k):
            xi = np.zeros(algebra.dim * k, dtype=complex)
            xi[beta * k + s] = 1.0
            out = m @ xi
            expected = np.zeros(algebra.dim * k, dtype=complex)
            for gamma in range(algebra.dim):
                expected[gamma * k + s] = product[gamma]
            assert max_abs(out - expected) <= 1e-12


def test_is_rep_morphism_identity_and_negative():
    rng = rng_for(27, 0)
    phi = random_cp_map(rng, (2,), 2, kraus_rank=2)
    cert = stinespring_dilate(phi, TOL)
    rep = cert.rep
    from dilatory.dilation import RepMorphism

    ident = RepMorphism(np.eye(2), np.eye(rep.h))
    assert is_rep_morphism(ident, rep, rep, TOL).ok
    med = mediating_morphism(rep, cert=cert)
    assert is_rep_morphism(med, cert.rep, rep, TOL).ok
    # perturbing L off the orthogonal complement kills the V*-square only
    inflated = inflate_rep(rng, cert, [1], conjugate=False)
    incl = mediating_morphism(inflated, cert=cert)
    bad = np.array(incl.L, copy=True)
    bump = np.zeros_like(bad)
    bump[-1, 0] = 0.5
    bad_morphism = RepMorphism(np.eye(2), bad + bump)
    report = is_rep_morphism(bad_morphism, cert.rep, inflated, TOL)
    assert not report.ok
    assert report.residuals["squareVstar"] <= 1e-9 or report.residuals["squareV"] > 1e-3


def test_stine_on_morphism_identity():
    rng = rng_for(28, 0)
    phi = random_cp_map(rng, (2,), 2, kraus_rank=2)
    cert = stinespring_dilate(phi, TOL)
    m = stine_on_morphism(np.eye(2), TOL, src_cert=cert, dst_cert=cert)
    assert max_abs(m.L - np.eye(cert.dimension)) <= 1e-10


def test_stine_on_morphism_tracial():
    rng = rng_for(29, 0)
    tau = tracial_map(2, 2)
    sigma = tracial_map(2, 3)
    t = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    c1 = stinespring_dilate(tau, TOL)
    c2 = stinespring_dilate(sigma, TOL)
    morphism = stine_on_morphism(t, TOL, src_cert=c1, dst_cert=c2)
    assert is_rep_morphism(morphism, c1.rep, c2.rep, TOL).ok


def test_stine_on_morphism_isometry_gives_isometry():
    rng = rng_for(30, 0)
    phi = random_cp_map(rng, (2,), 2, kraus_rank=2, unital=True)
    t = random_unitary(rng, 3)[:, :2]
    psi = OcpMap(phi.domain, 3, tuple(t @ m @ t.conj().T for m in phi.basis_images))
    morphism = stine_on_morphism(
        t, TOL, src_cert=stinespring_dilate(phi, TOL), dst_cert=stinespring_dilate(psi, TOL)
    )
    l = morphism.L
    assert max_abs(l.conj().T @ l - np.eye(l.shape[1])) <= 1e-10


def test_stine_on_morphism_functorial():
    rng = rng_for(31, 0)
    tau = tracial_map(2, 2)
    sigma = tracial_map(2, 3)
    chi = tracial_map(2, 2)
    t1 = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    t2 = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    c_tau = stinespring_dilate(tau, TOL)
    c_sigma = stinespring_dilate(sigma, TOL)
    c_chi = stinespring_dilate(chi, TOL)
    l1 = stine_on_morphism(t1, TOL, src_cert=c_tau, dst_cert=c_sigma)
    l2 = stine_on_morphism(t2, TOL, src_cert=c_sigma, dst_cert=c_chi)
    composite = stine_on_morphism(t2 @ t1, TOL, src_cert=c_tau, dst_cert=c_chi)
    assert max_abs(composite.L - l2.L @ l1.L) <= 1e-9


def test_stine_on_morphism_gate():
    from dilatory.laws import example_28

    phi, psi, t = example_28()
    with pytest.raises(NotMorphism):
        stine_on_morphism(
            t, TOL, src_cert=stinespring_dilate(phi, TOL), dst_cert=stinespring_dilate(psi, TOL)
        )


def test_transports_gate_the_maps_their_certificates_dilate():
    # a certificate of another map is refused, not silently transported
    rng = rng_for(5, 0)
    phi = random_cp_map(rng, (2,), 2, kraus_rank=2)
    other = random_cp_map(rng, (2,), 2, kraus_rank=2)
    x = random_unitary(rng, 2)
    psi = OcpMap(phi.domain, 2, x @ phi.basis_images @ x.conj().T)
    cert_psi = stinespring_dilate(psi, TOL)
    wrong = stinespring_dilate(other, TOL)
    stine_on_morphism(x, TOL, src_cert=stinespring_dilate(phi, TOL), dst_cert=cert_psi)
    with pytest.raises(NotMorphism):
        stine_on_morphism(x, TOL, src_cert=wrong, dst_cert=cert_psi)
    with pytest.raises(NotMorphism):
        universal_factorization(x, inflate_rep(rng, cert_psi, [1]), TOL, cert=wrong)


def test_stine_f_identity():
    rng = rng_for(32, 0)
    phi = random_cp_map(rng, (2,), 2, kraus_rank=2)
    cert = stinespring_dilate(phi, TOL)
    morphism = stine_f(identity_hom(phi.domain), cert=cert, pulled_cert=cert)
    assert max_abs(morphism.L - np.eye(cert.dimension)) <= 1e-10


def test_stine_f_scalar_embedding():
    # phi o (C -> M_n) has dilation space of dimension k for unital phi
    rng = rng_for(33, 0)
    phi = random_cp_map(rng, (2,), 2, kraus_rank=2, unital=True)
    bang = unique_unital_hom_from_scalars(phi.domain)
    pulled = pullback(phi, bang, TOL)
    pulled_cert = stinespring_dilate(pulled, TOL)
    cert = stinespring_dilate(phi, TOL)
    morphism = stine_f(bang, cert=cert, pulled_cert=pulled_cert)
    assert pulled_cert.dimension == phi.k
    # L_f is an isometry from that space into the dilation of phi
    l = morphism.L
    assert max_abs(l.conj().T @ l - np.eye(pulled_cert.dimension)) <= 1e-10
    target = pullback_rep(cert.rep, bang)
    assert is_rep_morphism(morphism, pulled_cert.rep, target, TOL).ok


def test_stine_f_composition_law():
    rng = rng_for(34, 0)
    f_prime = random_hom(rng, FdCStarAlgebra((2,)), max_mult=1)
    f = random_hom(rng, f_prime.target, max_mult=1)
    phi = random_cp_map(rng, f.target.blocks, 2, kraus_rank=2)
    cert = stinespring_dilate(phi, TOL)
    phi_f = pullback(phi, f, TOL)
    cert_f = stinespring_dilate(phi_f, TOL)
    phi_ff = pullback(phi_f, f_prime, TOL)
    cert_ff = stinespring_dilate(phi_ff, TOL)
    l_f = stine_f(f, cert=cert, pulled_cert=cert_f)
    l_fp = stine_f(f_prime, cert=cert_f, pulled_cert=cert_ff)
    l_comp = stine_f(compose_homs(f, f_prime), cert=cert, pulled_cert=cert_ff)
    assert max_abs(l_comp.L - l_f.L @ l_fp.L) <= 1e-10


def test_mediating_morphism_canonical_is_identity():
    rng = rng_for(35, 0)
    phi = random_cp_map(rng, (1, 2), 2, kraus_rank=2)
    cert = stinespring_dilate(phi, TOL)
    med = mediating_morphism(cert.rep, cert=cert)
    assert max_abs(med.L - np.eye(cert.dimension)) <= 1e-10


def test_mediating_morphism_inclusion_into_inflation():
    rng = rng_for(36, 0)
    phi = random_cp_map(rng, (2,), 2, kraus_rank=2)
    cert = stinespring_dilate(phi, TOL)
    inflated = inflate_rep(rng, cert, [1], conjugate=False)
    med = mediating_morphism(inflated, cert=cert)
    d = cert.dimension
    expected = np.zeros((inflated.h, d), dtype=complex)
    expected[:d, :] = np.eye(d)
    assert max_abs(med.L - expected) <= 1e-10


def test_mediating_morphism_gns_formula():
    # k = 1: m sends [a] to pi(a) Omega
    omega = tracial_map(2, 1)
    cert = stinespring_dilate(omega, TOL)
    rng = rng_for(37, 0)
    inflated = inflate_rep(rng, cert, [1])
    med = mediating_morphism(inflated, cert=cert)
    from dilatory.dilation import pi_apply

    units = matrix_units(omega.domain)
    omega_vec = inflated.V[:, 0]
    for alpha, unit in enumerate(units):
        coords = cert.Q[:, alpha]  # class of b_alpha (x) 1
        lhs = med.L @ coords
        rhs = pi_apply(inflated, unit) @ omega_vec
        assert max_abs(lhs - rhs) <= 1e-10


def test_mediating_is_isometry_even_for_nonisometric_anchor():
    rng = rng_for(38, 0)
    phi = random_cp_map(rng, (2,), 2, kraus_rank=2)  # not unital
    cert = stinespring_dilate(phi, TOL)
    assert not is_preserving(cert.rep, TOL)
    inflated = inflate_rep(rng, cert, [1])
    med = mediating_morphism(inflated, cert=cert)
    l = med.L
    assert max_abs(l.conj().T @ l - np.eye(l.shape[1])) <= 1e-10


def test_universal_factorization_identity_target():
    rng = rng_for(39, 0)
    phi = random_cp_map(rng, (2,), 2, kraus_rank=2)
    cert = stinespring_dilate(phi, TOL)
    morphism = universal_factorization(np.eye(2), cert.rep, TOL, cert=cert)
    assert max_abs(morphism.L - np.eye(cert.dimension)) <= 1e-10


def test_universal_factorization_is_mediating_for_identity_T():
    rng = rng_for(40, 0)
    phi = random_cp_map(rng, (2,), 2, kraus_rank=2)
    cert = stinespring_dilate(phi, TOL)
    target = inflate_rep(rng, cert, [1])
    morphism = universal_factorization(np.eye(2), target, TOL, cert=cert)
    med = mediating_morphism(target, cert=cert)
    assert max_abs(morphism.L - med.L) <= 1e-10


def test_universal_factorization_restricts_to_T_and_unique():
    rng = rng_for(41, 0)
    tau = tracial_map(2, 2)
    sigma = tracial_map(2, 3)
    t = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    cert = stinespring_dilate(tau, TOL)
    cert_sigma = stinespring_dilate(sigma, TOL)
    target = inflate_rep(rng, cert_sigma, [1])
    morphism = universal_factorization(t, target, TOL, cert=cert)
    np.testing.assert_array_equal(morphism.T, t.astype(complex))
    assert is_rep_morphism(morphism, cert.rep, target, TOL).ok
    # independent oracle: solve the defining linear system for L directly
    oracle = solve_for_L(t, cert.rep, target)
    assert max_abs(morphism.L - oracle) <= 1e-8


def solve_for_L(t, src, dst):
    """Least-squares solve of the morphism equations for L; independent of
    the quotient construction."""
    h1, h2 = src.h, dst.h
    rows = []
    rhs = []
    # L pi(a) = rho(a) L: (pi(a)^T (x) I - I (x) rho(a)) vec(L) = 0
    for a_img, b_img in zip(src.pi_images, dst.pi_images):
        op = np.kron(a_img.T, np.eye(h2)) - np.kron(np.eye(h1), b_img)
        rows.append(op)
        rhs.append(np.zeros(op.shape[0], dtype=complex))
    # L V = W T: (V^T (x) I) vec(L) = vec(W T)
    op = np.kron(src.V.T, np.eye(h2))
    rows.append(op)
    rhs.append((dst.V @ t).reshape(-1, order="F"))
    # T V* = W* L: (I (x) W*) vec(L) = vec(T V*)
    op = np.kron(np.eye(h1), dst.V.conj().T)
    rows.append(op)
    rhs.append((np.asarray(t) @ src.V.conj().T).reshape(-1, order="F"))
    big = np.vstack(rows)
    target = np.concatenate(rhs)
    sol, *_ = np.linalg.lstsq(big, target, rcond=None)
    return sol.reshape((h2, h1), order="F")


def test_is_minimal_and_not():
    rng = rng_for(42, 0)
    phi = random_cp_map(rng, (2,), 2, kraus_rank=2)
    cert = stinespring_dilate(phi, TOL)
    assert is_minimal(cert.rep, TOL)
    inflated = inflate_rep(rng, cert, [1])
    assert not is_minimal(inflated, TOL)


def test_minimal_unitary_canonical_and_conjugated():
    rng = rng_for(43, 0)
    phi = random_cp_map(rng, (2,), 2, kraus_rank=2)
    cert = stinespring_dilate(phi, TOL)
    u = minimal_unitary(cert.rep, TOL, cert=cert)
    assert max_abs(u.L - np.eye(cert.dimension)) <= 1e-10
    # against a fresh dilation of the restriction it is still a valid unitary
    fresh = stinespring_dilate(restrict(cert.rep), TOL, check_cp=False)
    u_free = minimal_unitary(cert.rep, TOL, cert=fresh)
    assert max_abs(u_free.L @ u_free.L.conj().T - np.eye(cert.dimension)) <= 1e-9
    assert is_rep_morphism(u_free, fresh.rep, cert.rep, TOL).ok

    x = random_unitary(rng, cert.dimension)
    conj = AnchoredRep(
        cert.rep.algebra,
        cert.rep.k,
        cert.rep.h,
        tuple(x @ img @ x.conj().T for img in cert.rep.pi_images),
        x @ cert.rep.V,
    )
    u2 = minimal_unitary(conj, TOL, cert=cert)
    assert is_rep_morphism(u2, cert.rep, conj, TOL).ok
    assert max_abs(u2.L @ u2.L.conj().T - np.eye(cert.dimension)) <= 1e-9
    assert max_abs(u2.L - x) <= 1e-9

    inflated = inflate_rep(rng, cert, [1])
    with pytest.raises(NotMinimal):
        minimal_unitary(inflated, TOL, cert=cert)


def test_gns_dimensions():
    assert stinespring_dilate(tracial_map(2, 1), TOL).dimension == 4
    assert stinespring_dilate(tracial_map(3, 1), TOL).dimension == 9
    # pure state <e1, . e1> on M_n has GNS dimension n
    for n in (2, 3):
        algebra = FdCStarAlgebra((n,))
        images = []
        for _, a, b in algebra.basis_labels():
            images.append(np.array([[1.0 if a == 0 and b == 0 else 0.0]], dtype=complex))
        omega = OcpMap(algebra, 1, tuple(images))
        cert = stinespring_dilate(omega, TOL)
        assert cert.dimension == n
        assert spectral_rank(brute_force_gram(omega)) == n
    # a state on C is one-dimensional
    scalar_state = OcpMap(FdCStarAlgebra((1,)), 1, (np.array([[1.0]], dtype=complex),))
    assert stinespring_dilate(scalar_state, TOL).dimension == 1


def test_v_dual_formula():
    # V* on quotient coordinates equals sum phi(a_i) v_i
    rng = rng_for(44, 0)
    phi = random_cp_map(rng, (2, 1), 2, kraus_rank=2)
    cert = stinespring_dilate(phi, TOL)
    dim, k = phi.domain.dim, phi.k
    xi = rng.standard_normal(dim * k) + 1j * rng.standard_normal(dim * k)
    lhs = cert.rep.V.conj().T @ (cert.Q @ xi)
    rhs = np.zeros(k, dtype=complex)
    for alpha in range(dim):
        for s in range(k):
            rhs += xi[alpha * k + s] * phi.basis_images[alpha][:, s]
    assert max_abs(lhs - rhs) <= 1e-10


def test_unital_implies_isometric_anchor():
    rng = rng_for(45, 0)
    for i in range(5):
        phi = random_cp_map(rng, (2,), int(rng.integers(1, 4)), kraus_rank=2, unital=True)
        cert = stinespring_dilate(phi, TOL)
        v = cert.rep.V
        assert max_abs(v.conj().T @ v - np.eye(phi.k)) <= 1e-10


def test_dimension_matches_choi_ranks():
    # rank of the Gram equals sum over blocks of n_j times the Choi rank
    from dilatory.cpmap import choi_blocks

    rng = rng_for(46, 0)
    for i in range(10):
        blocks = [(2,), (1, 2), (3,), (2, 2)][i % 4]
        phi = random_cp_map(rng, blocks, int(rng.integers(1, 3)), kraus_rank=int(rng.integers(1, 3)))
        cert = stinespring_dilate(phi, TOL)
        total = 0
        for n, block in zip(phi.domain.blocks, choi_blocks(phi)):
            total += n * spectral_rank(block)
        assert cert.dimension == total
        assert cert.dimension == spectral_rank(brute_force_gram(phi))


def test_anchored_rep_constructor_gates():
    algebra = FdCStarAlgebra((2,))
    images = tuple(np.eye(2, dtype=complex) for _ in range(4))
    with pytest.raises(DegenerateDimension):
        AnchoredRep(algebra, 0, 2, images, np.zeros((2, 0)))
    with pytest.raises(ShapeMismatch):
        AnchoredRep(algebra, 1, 2, images[:3], np.zeros((2, 1)))
    with pytest.raises(ShapeMismatch):
        AnchoredRep(algebra, 1, 2, images, np.zeros((3, 1)))


def test_ampliation_rejects_ragged_grid():
    from dilatory.cpmap import ampliation_apply

    phi = tracial_map(2, 2)
    units = matrix_units(phi.domain)
    with pytest.raises(ShapeMismatch):
        ampliation_apply(phi, 2, [[units[0], units[1]], [units[2]]])


def test_rank_instability_flag():
    # an eigenvalue within a factor of 10 of the spectral cutoff is flagged
    rng = rng_for(47, 0)
    t = random_unitary(rng, 2)
    s = random_unitary(rng, 2)
    clean = ad_map(t)
    cert_clean = stinespring_dilate(clean, TOL)
    assert not cert_clean.rank_unstable

    lam = cert_clean.gram_eigenvalues[0]
    eps = 3.0 * TOL.eps_rank * lam
    mixed_images = tuple(
        a + eps * (s @ np.array(u.block_data[0]) @ s.conj().T)
        for a, u in zip(clean.basis_images, matrix_units(clean.domain))
    )
    shaky = OcpMap(clean.domain, 2, mixed_images)
    cert = stinespring_dilate(shaky, TOL)
    assert cert.rank_unstable


def check_choi_factored(phi, ranks):
    """The dilation against its definitions: the Gram form, left
    multiplication, the mediating identity and the boxplus normal form."""
    algebra, k = phi.domain, phi.k
    cert = stinespring_dilate(phi, TOL)
    q, q_pinv = cert.Q, cert.q_pinv
    d = sum(n * r for n, r in zip(algebra.blocks, ranks))
    assert cert.dimension == d
    assert q.shape == (d, algebra.dim * k)

    g = gram_matrix(phi, TOL)
    scale = max_abs(g)
    assert max_abs(q.conj().T @ q - g) <= 1e-10 * scale
    assert max_abs(q @ q_pinv - np.eye(d)) <= 1e-10
    np.testing.assert_allclose(
        np.sort(cert.gram_eigenvalues), np.linalg.eigvalsh(g), rtol=0, atol=1e-10 * scale
    )

    for alpha, img in enumerate(cert.rep.pi_images):
        unit = np.zeros(algebra.dim)
        unit[alpha] = 1.0
        compressed = q @ left_mult_matrix(algebra, k, unit) @ q_pinv
        assert max_abs(img - compressed) <= 1e-10
    assert cert.residuals["leakage"] <= TOL.eps_eq
    assert cert.residuals["restriction"] <= TOL.eps_eq

    # m sends the class of b_alpha (x) e_s to pi(b_alpha) V e_s
    assert max_abs(_span_columns(cert.rep) - q) <= 1e-10 * np.sqrt(scale)
    np.testing.assert_array_equal(
        np.stack(cert.rep.pi_images), boxplus_rep_images(algebra, ranks)
    )
    mults, _ = normal_form_general_rep(cert.rep.pi_images, algebra, TOL)
    assert mults == tuple(ranks)


@settings(deadline=None, max_examples=30)
@given(
    shape=st.lists(st.tuples(st.integers(1, 3), st.integers(0, 4)), min_size=1, max_size=3),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_choi_factored_dilation_matches_definitions(shape, k, seed):
    # Gaussian Kraus families of rank kr_j give Choi rank min(kr_j, n_j k);
    # an empty family makes the map vanish on its block
    if all(kr == 0 for _, kr in shape):
        shape[0] = (shape[0][0], 1)
    rng = rng_for(seed, 0)
    blocks = tuple(n for n, _ in shape)
    families = [[complex_gaussian(rng, k, n) for _ in range(kr)] for n, kr in shape]
    phi = kraus_map(families, FdCStarAlgebra(blocks), k)
    check_choi_factored(phi, [min(kr, n * k) for n, kr in shape])


def test_choi_factored_dilation_vanishing_block():
    # a zero Kraus family on the middle block: r = 0 there, and pi of its
    # units is the zero operator on the carrier
    rng = rng_for(48, 0)
    algebra = FdCStarAlgebra((2, 3, 1))
    k = 2
    families = [
        [complex_gaussian(rng, k, 2) for _ in range(2)],
        [np.zeros((k, 3))],
        [complex_gaussian(rng, k, 1)],
    ]
    phi = kraus_map(families, algebra, k)
    check_choi_factored(phi, [2, 0, 1])
    cert = stinespring_dilate(phi, TOL)
    assert cert.dimension == 5
    for alpha in range(4, 13):
        assert max_abs(cert.rep.pi_images[alpha]) == 0.0


@settings(deadline=None, max_examples=30)
@given(
    shape=st.lists(st.tuples(st.integers(1, 3), st.integers(0, 3)), min_size=1, max_size=3),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    log_scale=st.floats(-12.0, 3.0),
)
def test_dilation_is_scale_free(shape, k, seed, log_scale):
    # a positive multiple s phi has the same Choi ranks, so the same d and pi;
    # a tiny but nonzero map is not the zero map
    if all(kr == 0 for _, kr in shape):
        shape[0] = (shape[0][0], 1)
    rng = rng_for(seed, 0)
    algebra = FdCStarAlgebra(tuple(n for n, _ in shape))
    families = [[complex_gaussian(rng, k, n) for _ in range(kr)] for n, kr in shape]
    phi = kraus_map(families, algebra, k)
    s = 10.0**log_scale
    scaled = OcpMap(algebra, k, tuple(s * m for m in phi.basis_images))
    ranks = [min(kr, n * k) for n, kr in shape]
    for cert in (stinespring_dilate(phi, TOL), stinespring_dilate(scaled, TOL)):
        assert cert.dimension == sum(n * r for n, r in zip(algebra.blocks, ranks))
        np.testing.assert_array_equal(
            np.stack(cert.rep.pi_images), boxplus_rep_images(algebra, ranks)
        )


@settings(deadline=None, max_examples=30)
@given(
    shape=st.lists(st.tuples(st.integers(1, 3), st.integers(0, 3)), min_size=1, max_size=3),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    log_scale=st.floats(-30.0, 12.0),
)
def test_canonical_dilation_is_minimal_at_every_scale(shape, k, seed, log_scale):
    # (pi, sqrt(s) V) is the canonical dilation of s phi; the minimality rank
    # cut is relative to the span, so it stays minimal at every scale
    if all(kr == 0 for _, kr in shape):
        shape[0] = (shape[0][0], 1)
    rng = rng_for(seed, 0)
    algebra = FdCStarAlgebra(tuple(n for n, _ in shape))
    families = [[complex_gaussian(rng, k, n) for _ in range(kr)] for n, kr in shape]
    rep = stinespring_dilate(kraus_map(families, algebra, k), TOL).rep
    scaled = AnchoredRep(algebra, k, rep.h, rep.pi_images, np.sqrt(10.0**log_scale) * rep.V)
    assert is_minimal(rep, TOL)
    assert is_minimal(scaled, TOL)


SHAPES = st.lists(st.tuples(st.integers(1, 3), st.integers(0, 3)), min_size=1, max_size=3)


def gaussian_kraus_map(rng, shape, k):
    """kraus_map with kr Gaussian k x n Kraus operators on each block (n, kr);
    a shape with no operators at all gets one on its first block."""
    if all(kr == 0 for _, kr in shape):
        shape = [(shape[0][0], 1), *shape[1:]]
    families = [[complex_gaussian(rng, k, n) for _ in range(kr)] for n, kr in shape]
    return kraus_map(families, FdCStarAlgebra(tuple(n for n, _ in shape)), k)


@settings(deadline=None, max_examples=30)
@given(shape=SHAPES, k=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_dilation_dimension_is_unitarily_invariant(shape, k, seed):
    # X phi(.) X* has Kraus operators X K_i, so the same Choi ranks and d
    rng = rng_for(seed, 0)
    phi = gaussian_kraus_map(rng, shape, k)
    x = random_unitary(rng, k)
    turned = OcpMap(phi.domain, k, x @ phi.basis_images @ x.conj().T)
    assert stinespring_dilate(turned, TOL).dimension == stinespring_dilate(phi, TOL).dimension


@settings(deadline=None, max_examples=30)
@given(shape1=SHAPES, shape2=SHAPES, k=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_dilation_dimension_adds_over_domain_direct_sums(shape1, shape2, k, seed):
    # phi1 (+) phi2 on A1 (+) A2 has the Choi blocks of phi1, then those of
    # phi2.  Splitting the output C^k = C^k1 (+) C^k2 is only subadditive:
    # the identity channel on M_2 has d = 2, and so has each of its
    # compressions a -> a_11 and a -> a_22.
    phi1 = gaussian_kraus_map(rng_for(seed, 0), shape1, k)
    phi2 = gaussian_kraus_map(rng_for(seed, 1), shape2, k)
    algebra = FdCStarAlgebra(phi1.domain.blocks + phi2.domain.blocks)
    both = OcpMap(algebra, k, np.concatenate([phi1.basis_images, phi2.basis_images]))
    d1, d2 = (stinespring_dilate(phi, TOL).dimension for phi in (phi1, phi2))
    assert stinespring_dilate(both, TOL).dimension == d1 + d2


def test_tiny_map_dilation_is_minimal():
    # M_2 + M_3, k = 3, Kraus rank 3: d = 15 at every scale, 1e-20 included
    phi = random_cp_map(rng_for(95, 0), (2, 3), 3, kraus_rank=3)
    for s in (1.0, 1e-12, 1e-16, 1e-20, 1e-30):
        scaled = OcpMap(phi.domain, 3, tuple(s * m for m in phi.basis_images))
        cert = stinespring_dilate(scaled, TOL)
        assert cert.dimension == 15
        assert is_minimal(cert.rep, TOL)



@settings(deadline=None, max_examples=20)
@given(s=st.floats(1e3, 1e12))
@example(s=1e9)
@example(s=1e12)
def test_large_multiples_dilate_like_the_map(s):
    # the CP gate weighs its symmetry residual against the largest entry,
    # so s phi is accepted and has the same d and pi as phi
    phi = random_cp_map(rng_for(0, 0), (2, 3), 3, kraus_rank=3)
    base = stinespring_dilate(phi, TOL)
    scaled = stinespring_dilate(OcpMap(phi.domain, 3, tuple(s * m for m in phi.basis_images)), TOL)
    assert base.dimension == scaled.dimension == 15
    np.testing.assert_array_equal(np.stack(scaled.rep.pi_images), np.stack(base.rep.pi_images))
    # the mediating morphism of the canonical dilation onto itself, (1, 1)
    self_med = mediating_morphism(scaled.rep, cert=scaled)
    assert is_rep_morphism(self_med, scaled.rep, scaled.rep, TOL).ok


def _scaled_map(phi, s):
    return OcpMap(phi.domain, phi.k, s * phi.basis_images)


# phi on M_2 (+) M_3, k = 3, Kraus rank 3, and two random unitaries: X is a
# morphism from phi to X phi(.) X*, Y is no morphism from phi to itself
_RNG = rng_for(3, 0)
_PHI = random_cp_map(_RNG, (2, 3), 3, kraus_rank=3)
_X, _Y = random_unitary(_RNG, 3), random_unitary(_RNG, 3)
_PSI = OcpMap(_PHI.domain, 3, _X @ _PHI.basis_images @ _X.conj().T)
LOG_SCALES = st.floats(-12.0, 12.0)


@settings(deadline=None, max_examples=30)
@given(log_s=LOG_SCALES)
@example(log_s=-12.0)
@example(log_s=12.0)
def test_morphism_gate_and_transport_are_scale_free(log_s):
    # T s phi = s psi T holds for every s > 0 exactly when T phi = psi T
    phi, psi = _scaled_map(_PHI, 10.0**log_s), _scaled_map(_PSI, 10.0**log_s)
    assert is_ocp_morphism(_X, phi, psi, TOL)[0]
    assert not is_ocp_morphism(_Y, phi, phi, TOL)[0]
    src, dst = stinespring_dilate(phi, TOL), stinespring_dilate(psi, TOL)
    l_x = stine_on_morphism(_X, TOL, src_cert=src, dst_cert=dst)
    assert is_rep_morphism(l_x, src.rep, dst.rep, TOL).ok
    with pytest.raises(NotMorphism):
        stine_on_morphism(_Y, TOL, src_cert=src, dst_cert=src)


@settings(deadline=None, max_examples=30)
@given(log_s=LOG_SCALES, seed=st.integers(0, 2**16))
@example(log_s=-12.0, seed=0)
@example(log_s=12.0, seed=0)
def test_universal_property_holds_at_every_scale(log_s, seed):
    # rescaling phi by s rescales every anchor by sqrt(s) and keeps every
    # intertwiner: the counit, the mediating morphism of the canonical
    # dilation onto itself and the factorization of X into an inflated target
    rng = rng_for(seed, 0)
    phi, psi = _scaled_map(_PHI, 10.0**log_s), _scaled_map(_PSI, 10.0**log_s)
    cert, cert_psi = stinespring_dilate(phi, TOL), stinespring_dilate(psi, TOL)
    inflated = inflate_rep(rng, cert, [1, 1])
    counit = mediating_morphism(inflated, cert=cert)
    assert is_rep_morphism(counit, cert.rep, inflated, TOL).ok
    self_med = mediating_morphism(cert.rep, cert=cert)
    assert is_rep_morphism(self_med, cert.rep, cert.rep, TOL).ok
    target = inflate_rep(rng, cert_psi, [1, 0])
    univ = universal_factorization(_X, target, TOL, cert=cert)
    assert is_rep_morphism(univ, cert.rep, target, TOL).ok
