"""The quotient map read off the dilation, and the morphisms built on it.

A certificate derives Q from its representation, and L_T, L_f, m and the
universal factorization are each span columns times Q+.  The dense formulas
they replace are kept here as references.  Also pinned: one eigensolve per
Choi block, shared by the CP gate and the construction, and a CP gate whose
decision does not depend on the scale of the map.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dilatory import numerics
from dilatory.algebra import FdCStarAlgebra
from dilatory.cli import main
from dilatory.cpmap import OcpMap, choi_blocks, is_completely_positive, pullback
from dilatory.dilation import (
    mediating_morphism,
    stine_f,
    stine_on_morphism,
    stinespring_dilate,
    universal_factorization,
)
from dilatory.errors import NotCompletelyPositive, NotHermitian
from dilatory.laws import CONTROL_FLOOR, run_default_suite
from dilatory.numerics import Tolerance, hermitian_eig, kron, max_abs
from dilatory.randgen import (
    complex_gaussian,
    inflate_rep,
    random_cp_map,
    random_hom,
    random_unitary,
    rng_for,
)
from dilatory.serialize import dumps, encode_ocp_map
from reference import matrix_units, pi_apply

TOL = Tolerance()

blocks_st = st.lists(st.integers(1, 3), min_size=1, max_size=2).map(tuple)


def dense_q(cert) -> np.ndarray:
    """(+)_j 1_{n_j} (x) q_j, with q_j = L_j^{1/2} U_j* above the rank cut."""
    cut = TOL.eps_rank * cert.gram_eigenvalues[0]
    pieces = []
    for n, c in zip(cert.source.domain.blocks, choi_blocks(cert.source)):
        w, u = hermitian_eig(c)
        r = int(np.count_nonzero(w > cut))
        pieces.append(kron(np.eye(n), np.sqrt(w[:r])[:, None] * u[:, :r].conj().T))
    return numerics.block_diag(pieces)


def loop_columns(rep, anchor) -> np.ndarray:
    """pi(b_alpha) W e_s, one basis element at a time, alpha major."""
    units = matrix_units(rep.algebra)
    return np.hstack([pi_apply(rep, unit) @ anchor for unit in units])


def assert_close(a, ref):
    assert max_abs(a - ref) <= 1e-12 * max(max_abs(ref), 1.0)


@settings(deadline=None, max_examples=25)
@given(blocks=blocks_st, k=st.integers(1, 3), pad=st.integers(0, 2), seed=st.integers(0, 10**6))
def test_transports_match_dense_formulas(blocks, k, pad, seed):
    rng = rng_for(seed, 0)
    phi = random_cp_map(rng, blocks, k, kraus_rank=2)
    cert_phi = stinespring_dilate(phi, TOL)
    assert np.array_equal(cert_phi.Q, dense_q(cert_phi))

    # T = [x; 0] intertwines phi with x phi x* (+) chi on C^(k + pad)
    x = random_unitary(rng, k)
    t = np.vstack([x, np.zeros((pad, k))])
    images = t @ phi.basis_images @ t.conj().T
    if pad:
        chi = random_cp_map(rng, blocks, pad, kraus_rank=1).basis_images
        images[:, k:, k:] += chi
    psi = OcpMap(phi.domain, k + pad, images)
    cert_psi = stinespring_dilate(psi, TOL)
    l_t = stine_on_morphism(t, TOL, src_cert=cert_phi, dst_cert=cert_psi)
    lifted = kron(np.eye(phi.domain.dim), t)
    assert_close(l_t.L, dense_q(cert_psi) @ lifted @ cert_phi.q_pinv)

    target = inflate_rep(rng, cert_psi, [1] * len(blocks))
    univ = universal_factorization(t, target, TOL, cert=cert_phi)
    assert_close(univ.L, loop_columns(target, target.V @ t) @ cert_phi.q_pinv)
    m = mediating_morphism(target, cert=cert_psi)
    assert_close(m.L, loop_columns(target, target.V) @ cert_psi.q_pinv)

    f = random_hom(rng, FdCStarAlgebra(blocks), max_mult=1)
    top = random_cp_map(rng, f.target.blocks, k, kraus_rank=2)
    cert_top = stinespring_dilate(top, TOL)
    cert_pulled = stinespring_dilate(pullback(top, f, TOL), TOL)
    l_f = stine_f(f, cert=cert_top, pulled_cert=cert_pulled)
    lifted = kron(f.matrix, np.eye(k))
    assert_close(l_f.L, dense_q(cert_top) @ lifted @ cert_pulled.q_pinv)


@pytest.mark.parametrize("check_cp", [True, False])
def test_one_eigensolve_per_choi_block(monkeypatch, check_cp):
    calls = []
    real = numerics.hermitian_eig

    def counted(m):
        calls.append(np.shape(m))
        return real(m)

    monkeypatch.setattr(numerics, "hermitian_eig", counted)
    phi = random_cp_map(rng_for(120, 0), (1, 2, 3), 2, kraus_rank=2)
    stinespring_dilate(phi, TOL, check_cp=check_cp)
    assert calls == [(2, 2), (4, 4), (6, 6)]


def non_hermitian_map() -> OcpMap:
    phi = random_cp_map(rng_for(121, 0), (2, 3), 2, kraus_rank=2)
    images = phi.basis_images.copy()
    images[0] += np.array([[0.0, 1.0], [0.0, 0.0]])
    return OcpMap(phi.domain, 2, images)


def test_forced_dilation_of_non_hermitian_map_raises():
    with pytest.raises(NotHermitian):
        stinespring_dilate(non_hermitian_map(), TOL, check_cp=False)


def test_cli_forced_dilate_of_non_hermitian_map_exits_2(tmp_path):
    fixture = tmp_path / "map.json"
    fixture.write_text(dumps(encode_ocp_map(non_hermitian_map())))
    assert main(["dilate", str(fixture), "--force", "--out", str(tmp_path / "out.json")]) == 2
    assert not (tmp_path / "out.json").exists()


def test_negative_controls_fail_by_the_floor():
    for seed in range(200):
        for control in run_default_suite(seed=seed, draws=1, tol=TOL).controls:
            assert not control.passed and control.max_residual >= CONTROL_FLOOR, (seed, control)


def indefinite_map() -> OcpMap:
    """Hermitian Choi blocks with negative eigenvalues of the size of the largest."""
    rng = rng_for(122, 0)
    algebra = FdCStarAlgebra((2, 3))
    k = 2
    images = []
    for n in algebra.blocks:
        g = complex_gaussian(rng, n * k, n * k)
        c = g + g.conj().T
        images.append(c.reshape(n, k, n, k).transpose(0, 2, 1, 3).reshape(n * n, k, k))
    return OcpMap(algebra, k, np.concatenate(images))


@settings(deadline=None, max_examples=30)
@given(log_scale=st.floats(-30.0, 12.0))
@example(log_scale=-12.0)
def test_cp_gate_decision_is_scale_free(log_scale):
    s = 10.0**log_scale
    bad = indefinite_map()
    assert min(is_completely_positive(bad, TOL).min_eigenvalues) < 0
    with pytest.raises(NotCompletelyPositive):
        stinespring_dilate(OcpMap(bad.domain, bad.k, s * bad.basis_images), TOL)
    good = random_cp_map(rng_for(123, 0), (2, 3), 2, kraus_rank=2)
    scaled = OcpMap(good.domain, good.k, s * good.basis_images)
    assert is_completely_positive(scaled, TOL).is_cp
    assert stinespring_dilate(scaled, TOL).dimension == 10
