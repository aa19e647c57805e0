import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import naive_weyl_matrix

from stabc import (
    BlochVector,
    DensityState,
    DimensionMismatchError,
    NoKnownFiducialError,
    NotNormalizedError,
    NotPrimeError,
    bloch_to_state,
    certify_fiducial,
    complexity_by_moments,
    complexity_upper_bound,
    enumerate_stabilizer_states,
    hs_norm,
    known_fiducial,
    random_pure,
    state_to_bloch,
    weyl_matrix,
)
from stabc.states import SIGMA_X, SIGMA_Y, SIGMA_Z


def test_bloch_to_state_examples():
    assert np.allclose(bloch_to_state(BlochVector(0, 0, 1)).rho, np.diag([1.0, 0.0]))
    assert np.allclose(bloch_to_state(BlochVector(0, 0, 0)).rho, np.eye(2) / 2)
    t = bloch_to_state(BlochVector(*(np.ones(3) / np.sqrt(3))))
    expected = 0.5 * (np.eye(2) + (SIGMA_X + SIGMA_Y + SIGMA_Z) / np.sqrt(3))
    assert np.allclose(t.rho, expected, atol=1e-15)


def test_state_to_bloch_examples():
    assert np.allclose(state_to_bloch(DensityState.maximally_mixed(2)).as_array(), 0.0)
    assert np.allclose(state_to_bloch(DensityState.pure([1, 0])).as_array(), [0, 0, 1])
    with pytest.raises(DimensionMismatchError):
        state_to_bloch(DensityState.maximally_mixed(3))


def test_bloch_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(100):
        direction = rng.standard_normal(3)
        direction *= rng.uniform() / np.linalg.norm(direction)
        b = BlochVector(*direction)
        back = state_to_bloch(bloch_to_state(b))
        assert np.linalg.norm(back.as_array() - b.as_array()) <= 1e-12


def test_bloch_vector_norm_validation():
    with pytest.raises(ValueError):
        BlochVector(1.0, 1.0, 1.0)
    BlochVector(1.0, 0.0, 0.0)  # boundary is fine


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_bloch_vector_rejects_non_finite(bad):
    # The norm test alone is False for NaN, so NaN used to pass.
    for components in ((bad, 0.0, 0.0), (0.0, 0.0, bad)):
        with pytest.raises(ValueError, match="non-finite"):
            BlochVector(*components)


@pytest.mark.parametrize("d,count", [(2, 6), (3, 12), (5, 30), (7, 56), (11, 132), (13, 182)])
def test_stabilizer_enumeration_counts(d, count):
    group = enumerate_stabilizer_states(d)
    assert len(group.states) == count
    assert [(g.k, g.l) for g in group.generators] == [(0, 1)] + [(1, m) for m in range(d)]


def test_stabilizer_d2_matches_pauli_eigenvectors():
    group = enumerate_stabilizer_states(2)
    expected = []
    for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        _, vecs = np.linalg.eigh(sigma)
        expected.extend(np.outer(v, v.conj()) for v in vecs.T)
    for exp in expected:
        assert any(hs_norm(exp - s.rho) <= 1e-10 for s in group.states)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_stabilizer_extremality(d):
    group = enumerate_stabilizer_states(d)
    floor = d * d - d
    for state in group.states:
        assert abs(complexity_by_moments(state) - floor) <= 1e-9
    # no random pure state undercuts the floor
    for seed in range(200):
        assert complexity_by_moments(random_pure(d, seed)) >= floor - 1e-9


def test_stabilizer_states_are_distinct():
    group = enumerate_stabilizer_states(3)
    states = group.states
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            assert hs_norm(states[i].rho - states[j].rho) > 1e-6


PRIMES_TO_CAP = [2, 3, 5, 7, 11, 13]


@pytest.mark.parametrize("d", PRIMES_TO_CAP)
def test_closed_form_states_are_generator_eigenstates_in_phase_order(d):
    # State s of every class has eigenvalue omega^s (omega^j for the Z basis,
    # omega^(-n) with n = -s mod d for the quadratic-phase class (1, m)), so
    # each class is in ascending eigenvalue phase.
    group = enumerate_stabilizer_states(d)
    for i, gen in enumerate(group.generators):
        dkl = naive_weyl_matrix(d, gen.k, gen.l)
        for s in range(d):
            proj = group.states[i * d + s].rho
            eigenvalue = np.exp(2j * np.pi * s / d)
            assert hs_norm(dkl @ proj - eigenvalue * proj) <= 1e-12


@pytest.mark.parametrize("d", PRIMES_TO_CAP)
def test_closed_form_classes_are_mutually_unbiased(d):
    group = enumerate_stabilizer_states(d)
    flat = np.stack([s.rho.reshape(-1) for s in group.states])
    overlaps = (flat.conj() @ flat.T).real  # tr(P_u P_v) = |<u|v>|^2
    block = np.arange(len(group.states)) // d
    same_class = block[:, None] == block[None, :]
    expected = np.where(same_class, np.eye(len(group.states)), 1.0 / d)
    assert np.abs(overlaps - expected).max() <= 1e-12


def test_stabilizer_duplicates_raise(monkeypatch):
    # Flat phases make every quadratic-phase vector the uniform vector, which
    # still sits at the floor, so only the distinctness check can catch it.
    monkeypatch.setattr("stabc.states.tau_power", lambda d, e: np.ones(np.shape(e), complex))
    with pytest.raises(ArithmeticError, match="duplicate"):
        enumerate_stabilizer_states(3)


def test_stabilizer_certification_names_the_failing_class(monkeypatch):
    # Cubic phases make the (1, m) vectors non-stabilizer states, above the floor.
    monkeypatch.setattr(
        "stabc.states.tau_power",
        lambda d, e: np.exp(1j * np.asarray(e, dtype=float) ** 1.5),
    )
    with pytest.raises(ArithmeticError, match=r"WeylIndex\(k=1, l=0, dim=5\).*expected 20"):
        enumerate_stabilizer_states(5)


def test_import_does_not_load_scipy():
    # numpy.fft and numpy.random are not loaded by `import numpy`; keeping
    # them out keeps the import cost flat.  The samplers must not pull in
    # numpy.ma either (np.unique does: ~14 ms and ~1.3 MB per process).
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import stabc, stabc.cli, sys; "
            "assert not {'scipy', 'numpy.fft', 'numpy.random'} & set(sys.modules); "
            "from stabc.verify import run_suites; run_suites(['bounds'], samples=3); "
            "assert 'numpy.ma' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


def test_stabilizer_rejects_bad_dimensions():
    with pytest.raises(NotPrimeError):
        enumerate_stabilizer_states(4)
    with pytest.raises(NotPrimeError):
        enumerate_stabilizer_states(6)
    with pytest.raises(ValueError):
        enumerate_stabilizer_states(17)  # prime but beyond the enumeration cap


def test_known_fiducial_d2():
    fid = known_fiducial(2)
    assert fid.certified
    assert fid.max_deviation <= 1e-10
    bloch = state_to_bloch(fid.projector())
    assert np.allclose(bloch.as_array(), np.ones(3) / np.sqrt(3), atol=1e-12)
    assert complexity_by_moments(fid.projector()) == pytest.approx(8 / 3, abs=1e-9)


def test_known_fiducial_d3():
    fid = known_fiducial(3)
    assert fid.certified
    assert fid.max_deviation <= 1e-10
    assert np.allclose(np.abs(fid.vector), [0, 1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)
    assert complexity_by_moments(fid.projector()) == pytest.approx(7.5, abs=1e-9)


def test_known_fiducial_unavailable():
    with pytest.raises(NoKnownFiducialError):
        known_fiducial(4)


def test_certify_fiducial_overlaps():
    certified, deviation = certify_fiducial(np.array([0, 1, -1]) / np.sqrt(2))
    assert certified and deviation <= 1e-10
    # direct overlap oracle over the 8 non-identity points
    f = np.array([0, 1, -1]) / np.sqrt(2)
    for k in range(3):
        for l in range(3):
            if (k, l) == (0, 0):
                continue
            overlap = abs(np.vdot(f, weyl_matrix(3, k, l) @ f)) ** 2
            assert overlap == pytest.approx(0.25, abs=1e-12)


def test_certify_rejects_stabilizer_state():
    certified, deviation = certify_fiducial(np.array([1.0, 0.0]))
    assert not certified
    assert deviation >= 0.5  # |<0|Z|0>|^2 = 1 vs 1/3


def test_certify_requires_unit_norm():
    with pytest.raises(NotNormalizedError):
        certify_fiducial(np.array([1.0, 1.0]))


def test_certify_rejects_non_finite():
    with pytest.raises(NotNormalizedError):
        certify_fiducial(np.array([np.nan, 0.0]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pure_state_and_certificate_refuse_an_overflowing_norm():
    # The norm of (1e200, 1e200) is inf.  The pure state divided by it and
    # became the zero matrix, whose report then failed a cross-check (exit 1)
    # instead of refusing the input; both warned of the overflow.
    with pytest.raises(ValueError, match="norm inf"):
        DensityState.pure(np.array([1e200, 1e200]))
    with pytest.raises(NotNormalizedError, match="norm inf"):
        certify_fiducial(np.array([1e200, 1e200]))
    v = np.array([1e150, 1e150], dtype=complex)  # a finite norm keeps its bits
    u = v / np.linalg.norm(v)
    assert np.array_equal(DensityState.pure(v).rho, np.outer(u, u.conj()))


@pytest.mark.parametrize("bad", [np.eye(2) / np.sqrt(2), np.array([[1.0, 0.0]]), np.array(1.0)])
def test_pure_state_and_certificate_refuse_non_vectors(bad):
    # Both used to flatten their input: the identity became a d = 4 state
    # and a 4-vector graded as a fiducial (deviation 0.3).
    with pytest.raises(ValueError, match="1-D"):
        DensityState.pure(bad)
    with pytest.raises(ValueError, match="1-D"):
        certify_fiducial(bad)


@pytest.mark.parametrize("d", [2, 3])
def test_fiducial_orbit_is_equally_complex(d):
    fid = known_fiducial(d)
    base = complexity_by_moments(fid.projector())
    assert base == pytest.approx(complexity_upper_bound(d), abs=1e-9)
    rho = fid.projector().rho
    for k in range(d):
        for l in range(d):
            dkl = weyl_matrix(d, k, l)
            orbit = DensityState(dkl @ rho @ dkl.conj().T, check=False)
            assert complexity_by_moments(orbit) == pytest.approx(base, abs=1e-9)


@pytest.mark.parametrize("d", [2, 3])
def test_fiducial_maximality_over_random_pure(d):
    ceiling = complexity_upper_bound(d)
    for seed in range(200):
        assert complexity_by_moments(random_pure(d, seed)) <= ceiling + 1e-9
