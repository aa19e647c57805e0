import numpy as np
import pytest
from helpers import random_hermitian

from stabc import (
    DensityState,
    DimensionMismatchError,
    NegativeEigenvalueError,
    NotHermitianError,
    hermitian_eig,
    hs_inner,
    mix,
    psd_sqrt,
    random_mixed,
    random_pure,
    weyl_matrix,
)
from stabc.matcore import _batch_psd_sqrt, _ginibre_density_batch
from stabc.states import SIGMA_X, SIGMA_Z, state_to_bloch

SQRT3_4 = np.sqrt(0.75)  # sqrt of the 0.75 eigenvalue, frozen oracle value


def test_hermitian_eig_diagonal_inputs():
    w, v = hermitian_eig(np.diag([1.0, 0.0]).astype(complex))
    assert np.allclose(w, [0.0, 1.0])
    assert np.allclose(np.abs(v), np.eye(2)[:, ::-1])

    w, _ = hermitian_eig(np.eye(2, dtype=complex) / 2)
    assert np.allclose(w, [0.5, 0.5])


def test_hermitian_eig_sigma_x():
    # Hand eigendecomposition: eigenvalues -1, +1 with (1, -1)/sqrt(2), (1, 1)/sqrt(2).
    w, v = hermitian_eig(SIGMA_X)
    assert np.allclose(w, [-1.0, 1.0])
    for col, expected in zip(v.T, (np.array([1, -1]) / np.sqrt(2), np.array([1, 1]) / np.sqrt(2))):
        overlap = abs(np.vdot(col, expected))
        assert overlap == pytest.approx(1.0, abs=1e-12)


def test_hermitian_eig_rejects_asymmetric():
    with pytest.raises(NotHermitianError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
def test_hermitian_eig_reconstruction_residual(d):
    rng = np.random.default_rng(d)
    m = random_hermitian(d, rng)
    w, v = hermitian_eig(m)
    resid = np.linalg.norm((v * w) @ v.conj().T - m) / np.linalg.norm(m)
    assert resid <= 1e-10
    assert np.linalg.norm(v.conj().T @ v - np.eye(d)) <= 1e-10 * d


def test_psd_sqrt_scalar_and_projector():
    mm = DensityState.maximally_mixed(3)
    assert np.allclose(psd_sqrt(mm), np.eye(3) / np.sqrt(3), atol=1e-12)

    proj = DensityState.pure([1.0, 0.0])
    assert np.allclose(psd_sqrt(proj), proj.rho, atol=1e-10)


def test_psd_sqrt_diagonal():
    state = DensityState(np.diag([0.25, 0.75]).astype(complex))
    assert np.allclose(psd_sqrt(state), np.diag([0.5, SQRT3_4]), atol=1e-12)


def test_psd_sqrt_caches_write_once():
    state = random_mixed(4, 3, 7)
    first = psd_sqrt(state)
    assert first is psd_sqrt(state)
    assert not first.flags.writeable
    assert np.linalg.norm(first @ first - state.rho) <= 1e-9


def test_psd_sqrt_rejects_indefinite():
    bad = DensityState.__new__(DensityState)
    bad._rho = np.diag([1.5, -0.5]).astype(complex)
    bad._sqrt = None
    with pytest.raises(NegativeEigenvalueError):
        psd_sqrt(bad)


@pytest.mark.parametrize("d", [2, 3])
def test_batch_psd_sqrt_matches_scalar_root(d):
    # d = 2 takes the closed form, d = 3 the stacked eigh; both must agree
    # with the scalar root, pure members included.
    rng = np.random.default_rng(11)
    rhos = _ginibre_density_batch(d, rng.integers(1, d + 1, size=200), rng)
    roots = _batch_psd_sqrt(rhos)
    for rho, root in zip(rhos, roots):
        assert np.abs(root - psd_sqrt(DensityState(rho))).max() <= 1e-13


def test_hs_inner_values():
    assert hs_inner(np.eye(3), np.eye(3)) == pytest.approx(3.0)
    assert hs_inner(SIGMA_X, SIGMA_Z) == pytest.approx(0.0)
    d01 = weyl_matrix(5, 0, 1)
    assert hs_inner(d01, d01) == pytest.approx(5.0, abs=1e-12)
    with pytest.raises(DimensionMismatchError):
        hs_inner(np.eye(2), np.eye(3))


def test_random_pure_is_normalized_rank_one():
    for seed in range(5):
        state = random_pure(3, seed)
        assert abs(np.trace(state.rho) - 1.0) <= 1e-12
        assert abs(state.purity() - 1.0) <= 1e-10


def test_random_pure_seeds_differ():
    a = state_to_bloch(random_pure(2, 0))
    b = state_to_bloch(random_pure(2, 1))
    assert np.linalg.norm(a.as_array() - b.as_array()) > 1e-3


def test_random_pure_is_deterministic():
    assert np.array_equal(random_pure(4, 123).rho, random_pure(4, 123).rho)


def test_random_mixed_rank_and_trace():
    assert random_mixed(4, 1, 3).purity() == pytest.approx(1.0, abs=1e-10)
    assert abs(np.trace(random_mixed(5, 3, 9).rho) - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        random_mixed(3, 4, 0)
    with pytest.raises(ValueError):
        random_mixed(3, 0, 0)


def test_random_mixed_full_rank_spectrum():
    worst = 1.0
    for seed in range(100):
        w = np.linalg.eigvalsh(random_mixed(3, 3, seed).rho)
        worst = min(worst, w[0])
    assert worst > 1e-8


@pytest.mark.parametrize("d", [2, 3, 5])
def test_density_state_spectrum_invariants(d):
    for seed in range(20):
        state = random_mixed(d, (seed % d) + 1, seed)
        w = np.linalg.eigvalsh(state.rho)
        assert w[0] >= -1e-10
        assert w[-1] <= 1.0 + 1e-10
        assert abs(w.sum() - 1.0) <= 1e-10


def test_density_state_validation():
    with pytest.raises(NotHermitianError):
        DensityState(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))
    with pytest.raises(ValueError):
        DensityState(np.eye(2, dtype=complex))  # trace 2
    with pytest.raises(NegativeEigenvalueError):
        DensityState(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ValueError):
        DensityState.maximally_mixed(65)  # beyond the dense cap
    with pytest.raises(ValueError):
        DensityState.maximally_mixed(1)


def test_density_state_is_frozen():
    state = random_mixed(3, 2, 0)
    with pytest.raises(ValueError):
        state.rho[0, 0] = 0.0


def test_mix_weights():
    a, b = DensityState.pure([1, 0]), DensityState.pure([0, 1])
    mixed = mix([a, b], [0.25, 0.75])
    assert np.allclose(mixed.rho, np.diag([0.25, 0.75]))
    with pytest.raises(ValueError):
        mix([a, b], [0.25, 0.25])
    with pytest.raises(ValueError):
        mix([a, b], [-0.5, 1.5])
    with pytest.raises(DimensionMismatchError):
        mix([a, DensityState.maximally_mixed(3)], [0.5, 0.5])
