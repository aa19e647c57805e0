import warnings
from dataclasses import replace

import numpy as np
import pytest
from helpers import naive_jordan_lie, naive_weyl_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from stabc import (
    DensityState,
    NegativeEigenvalueError,
    NotHermitianError,
    RhoPFamily,
    WeylIndex,
    batch_complexity,
    bloch_to_state,
    BlochVector,
    complexity_by_definition,
    complexity_by_moments,
    complexity_report,
    complexity_upper_bound,
    concavity_witness,
    convexity_scan,
    convexity_witness_states,
    fourier_gate,
    haar_unitary,
    jordan_lie_terms,
    known_fiducial,
    mix,
    near_pure_curvature_offset,
    psd_sqrt,
    pure_complexity_floor,
    qubit_complexity,
    random_mixed,
    random_pure,
    rho_p_complexity_analytic,
    rho_p_expansion_residual,
    rho_p_second_derivative,
    rho_p_state,
    weyl_matrix,
    weyl_stack,
)

T_STATE = bloch_to_state(BlochVector(*(np.ones(3) / np.sqrt(3))))


def basis_state(d):
    return DensityState.pure(np.eye(d, dtype=complex)[:, 0])


def stabilizer_family(d, p=0.5):
    return RhoPFamily(basis_state(d), p)


# -- per-point terms -----------------------------------------------------------


def test_jordan_lie_identity_point():
    for state in (random_mixed(3, 2, 1), basis_state(4)):
        j, i = jordan_lie_terms(state, (0, 0))
        assert j == pytest.approx(2.0, abs=1e-12)
        assert i == pytest.approx(0.0, abs=1e-12)


def test_jordan_lie_maximally_mixed():
    state = DensityState.maximally_mixed(3)
    for k in range(3):
        for l in range(3):
            j, i = jordan_lie_terms(state, WeylIndex(k, l, 3))
            assert (j, i) == (pytest.approx(2.0, abs=1e-12), pytest.approx(0.0, abs=1e-12))


def test_jordan_lie_basis_state_shift_point():
    # Hand value: tr(rho sx rho sx) = |<0|sx|0>|^2 = 0, so (J, I) = (1, 1).
    j, i = jordan_lie_terms(basis_state(2), (1, 0))
    assert j == pytest.approx(1.0, abs=1e-12)
    assert i == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_jordan_lie_matches_norm_oracle(d):
    rng = np.random.default_rng(d + 1)
    for trial in range(5):
        state = random_mixed(d, (trial % d) + 1, rng)
        s = psd_sqrt(state)
        for k in range(d):
            for l in range(d):
                j, i = jordan_lie_terms(state, (k, l))
                oj, oi = naive_jordan_lie(s, weyl_matrix(d, k, l))
                assert j == pytest.approx(oj, abs=1e-10)
                assert i == pytest.approx(oi, abs=1e-10)
                assert abs(i + j - 2.0) <= 1e-10
                assert -1e-12 <= i <= 2 + 1e-12
                assert -1e-12 <= j <= 2 + 1e-12


# -- the quantifier ------------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_maximally_mixed_has_zero_complexity(d):
    state = DensityState.maximally_mixed(d)
    assert complexity_by_definition(state) == pytest.approx(0.0, abs=1e-10)
    assert complexity_by_moments(state) == pytest.approx(0.0, abs=1e-10)


def test_reference_values():
    assert complexity_by_definition(basis_state(2)) == pytest.approx(2.0, abs=1e-10)
    assert complexity_by_moments(basis_state(3)) == pytest.approx(6.0, abs=1e-10)
    assert complexity_by_definition(T_STATE) == pytest.approx(8 / 3, abs=1e-10)
    assert complexity_by_moments(T_STATE) == pytest.approx(8 / 3, abs=1e-10)
    fid3 = known_fiducial(3).projector()
    assert complexity_by_moments(fid3) == pytest.approx(9 - 6 / 4, abs=1e-10)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 16, 32, 64])
def test_dual_path_agreement_random(d):
    rng = np.random.default_rng(d + 5)
    for trial in range(20):
        state = random_mixed(d, (trial % d) + 1, rng)
        gap = abs(complexity_by_definition(state) - complexity_by_moments(state))
        assert gap <= 1e-9 * d * d


# -- the O(d^3) definition tables ----------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
def test_definition_tables_match_naive_oracle(d):
    rng = np.random.default_rng(d + 11)
    for rank in sorted({1, 2, d}):
        state = random_mixed(d, rank, rng)
        rep = complexity_report(state)
        s = psd_sqrt(state)
        for k in range(d):
            for l in range(d):
                oj, oi = naive_jordan_lie(s, naive_weyl_matrix(d, k, l))
                assert rep.jordan_table[k, l] == pytest.approx(oj, abs=1e-10)
                assert rep.lie_table[k, l] == pytest.approx(oi, abs=1e-10)


def test_definition_cross_check_trips_on_non_hermitian_root():
    state = random_mixed(4, 4, 3)
    root = psd_sqrt(state).copy()
    root[0, 1] += 1e-6
    # Plant the perturbed root in the write-once cache the tables read.
    state._sqrt = root
    with pytest.raises(ArithmeticError, match="trace/norm cross-check"):
        complexity_by_definition(state)


def test_definition_tables_reject_non_hermitian_root():
    # An anti-Hermitian change of S passes the trace/norm check at first order.
    state = random_mixed(4, 4, 3)
    root = psd_sqrt(state).copy()
    root[0, 0] += 1e-6j
    state._sqrt = root
    with pytest.raises(ArithmeticError, match="not Hermitian"):
        complexity_by_definition(state)


def test_non_finite_input_rejected():
    rho = np.eye(3, dtype=complex) / 3
    for bad in (np.nan, np.inf):
        broken = rho.copy()
        broken[0, 1] = bad
        for check in (True, False):
            with pytest.raises(ValueError, match="non-finite"):
                DensityState(broken, check=check)
        with pytest.raises(ValueError, match="non-finite"):
            DensityState.pure(np.array([1.0, bad, 0.0]))
    with pytest.raises(ValueError, match="non-finite"):
        bloch_to_state(BlochVector(np.nan, 0.0, 0.0))
    with pytest.raises(ValueError, match="non-finite"):
        mix([basis_state(2), basis_state(2)], [0.5, np.nan])


def test_report_t_state_complementarity():
    rep = complexity_report(T_STATE)
    assert rep.m4_fourth_power == pytest.approx(4 / 3, abs=1e-10)
    assert rep.c_value == pytest.approx(8 / 3, abs=1e-10)
    assert rep.m4_fourth_power + rep.c_value == pytest.approx(4.0, abs=1e-10)
    assert rep.path_gap <= 1e-9 * 4


def test_report_maximally_mixed():
    rep = complexity_report(DensityState.maximally_mixed(5))
    assert rep.c_value == pytest.approx(0.0, abs=1e-10)
    assert np.abs(rep.lie_table).max() <= 1e-10
    assert np.allclose(rep.jordan_table, 2.0, atol=1e-10)
    assert rep.m4_fourth_power is None  # not pure


def test_report_random_pure_in_bounds():
    for seed in range(20):
        rep = complexity_report(random_pure(3, seed))
        assert pure_complexity_floor(3) - 1e-9 <= rep.c_value <= complexity_upper_bound(3) + 1e-9
        assert rep.m4_fourth_power is not None


def test_report_mixed_state_has_no_m4():
    assert complexity_report(random_mixed(3, 2, 9)).m4_fourth_power is None


@pytest.mark.parametrize("ratio, pure", [(1e-14, True), (1e-12, False), (1e-9, False)])
def test_report_near_pure_state(ratio, pure):
    # Purity is above 1 - 1e-8 in every case, but only the first root is rank
    # one; complementarity used to be checked on the others and raised.
    u = haar_unitary(2, 5)
    rho = (u * np.array([1.0, ratio])) @ u.conj().T / (1.0 + ratio)
    rep = complexity_report(DensityState((rho + rho.conj().T) / 2))
    assert rep.purity >= 1.0 - 1e-8
    assert (rep.m4_fourth_power is not None) == pure


# -- qubit closed form ---------------------------------------------------------


def test_qubit_closed_form_examples():
    assert qubit_complexity((0, 0, 1)) == pytest.approx(2.0, abs=1e-12)
    assert qubit_complexity(tuple(np.ones(3) / np.sqrt(3))) == pytest.approx(8 / 3, abs=1e-12)
    assert qubit_complexity((0, 0, 0)) == pytest.approx(0.0, abs=1e-12)
    assert qubit_complexity((0.6, 0.0, 0.8)) == pytest.approx(2.4608, abs=1e-12)


def test_qubit_closed_form_matches_generic_path():
    rng = np.random.default_rng(99)
    for i in range(300):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        radius = 1.0 if i % 2 == 0 else float(rng.uniform() ** (1 / 3))
        b = BlochVector(*(radius * direction))
        assert qubit_complexity(b) == pytest.approx(
            complexity_by_moments(bloch_to_state(b)), abs=1e-9
        )


def test_qubit_rejects_outside_ball():
    with pytest.raises(ValueError):
        qubit_complexity((1.0, 1.0, 0.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_qubit_rejects_non_finite_tuple(bad):
    # The norm test alone is False for NaN, which used to return C = nan.
    with pytest.raises(ValueError, match="non-finite"):
        qubit_complexity((bad, 0.1, 0.0))


# -- the depolarized-pure family ----------------------------------------------


def test_rho_p_state_endpoints_and_midpoint():
    fam = stabilizer_family(2, 0.0)
    assert np.allclose(rho_p_state(fam).rho, np.eye(2) / 2)
    assert np.allclose(rho_p_state(replace(fam, p=1.0)).rho, basis_state(2).rho)
    assert np.allclose(rho_p_state(replace(fam, p=0.5)).rho, np.diag([0.75, 0.25]))
    with pytest.raises(ValueError):
        RhoPFamily(basis_state(2), 1.5)
    with pytest.raises(ValueError):
        RhoPFamily(DensityState.maximally_mixed(2), 0.5)  # anchor must be pure


def test_rho_p_closed_form_endpoints():
    for d in (2, 3, 5):
        psi = random_pure(d, d)
        c_psi = complexity_by_moments(psi)
        assert rho_p_complexity_analytic(RhoPFamily(psi, 0.0), c_psi) == pytest.approx(0.0, abs=1e-12)
        assert rho_p_complexity_analytic(RhoPFamily(psi, 1.0), c_psi) == pytest.approx(c_psi, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_rho_p_closed_form_matches_generic_path(d):
    psi = random_pure(d, 2 * d)  # arbitrary pure anchor, not only stabilizers
    c_psi = complexity_by_moments(psi)
    for p in np.linspace(0.0, 1.0, 11):
        fam = RhoPFamily(psi, float(p))
        assert rho_p_complexity_analytic(fam, c_psi) == pytest.approx(
            complexity_by_moments(rho_p_state(fam)), abs=1e-9
        )


def test_rho_p_quoted_counterexample_values():
    fam = stabilizer_family(3)
    c95 = rho_p_complexity_analytic(replace(fam, p=0.95), 6.0)
    c90 = rho_p_complexity_analytic(replace(fam, p=0.9), 6.0)
    assert c95 == pytest.approx(5.5609, abs=5e-4)
    assert 0.5 * (c90 + 6.0) == pytest.approx(5.5528, abs=5e-4)
    assert c95 > 0.5 * (c90 + 6.0)
    # generic path agrees with the closed form at the quoted points
    assert complexity_by_moments(rho_p_state(replace(fam, p=0.95))) == pytest.approx(c95, abs=1e-9)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_rho_p_curvature_at_origin(d):
    target = d * d * (d - 1)
    curv = rho_p_second_derivative(stabilizer_family(d), 0.001, 1e-4)
    assert curv == pytest.approx(target, rel=0.01)
    forward = rho_p_second_derivative(stabilizer_family(d), 0.0, 1e-4)
    assert forward == pytest.approx(target, rel=0.01)


def test_rho_p_curvature_documented_example_d3():
    # At p0 = 0.01 the curvature has already drifted ~1.5% below d^2(d-1) = 18;
    # the limit value is recovered as p0 -> 0 (previous test).
    curv = rho_p_second_derivative(stabilizer_family(3), 0.01, 1e-4)
    assert curv == pytest.approx(18.0, rel=0.02)
    assert rho_p_second_derivative(stabilizer_family(2), 0.01, 1e-4) == pytest.approx(4.0, rel=0.01)


def test_rho_p_curvature_near_pure_end():
    assert rho_p_second_derivative(stabilizer_family(3), 0.999, 1e-5) < -100
    for d in (3, 4, 5):
        assert rho_p_second_derivative(stabilizer_family(d), 1 - 1e-4, 5e-5) < 0
    edge = rho_p_second_derivative(stabilizer_family(2), 1 - 1e-4, 5e-5)
    assert np.isfinite(edge) and edge > 0


def test_rho_p_curvature_matches_divergence_law():
    # -3(d-1)(d-2)/sqrt(d(1-p)) + offset describes the near-pure curvature.
    for d in (3, 4, 5):
        gap = 1e-4
        measured = rho_p_second_derivative(stabilizer_family(d), 1 - gap, 5e-5)
        predicted = -3 * (d - 1) * (d - 2) / np.sqrt(d * gap) + near_pure_curvature_offset(d)
        assert measured == pytest.approx(predicted, rel=0.05)


def test_rho_p_second_derivative_stencil_validation():
    fam = stabilizer_family(3)
    with pytest.raises(ValueError):
        rho_p_second_derivative(fam, 0.5, 0.0)
    with pytest.raises(ValueError):
        rho_p_second_derivative(fam, 0.5, -1e-4)
    with pytest.raises(ValueError):
        rho_p_second_derivative(fam, 1.0 - 1e-5, 1e-4)
    with pytest.raises(ValueError):
        rho_p_second_derivative(fam, 1e-5, 1e-4)


def test_rho_p_expansion_residual_scaling():
    for d in (2, 3, 5):
        fam = stabilizer_family(d)
        big = rho_p_expansion_residual(fam, 1e-3)
        small = rho_p_expansion_residual(fam, 5e-4)
        assert big / small == pytest.approx(4.0, rel=0.25)
        assert abs(rho_p_expansion_residual(fam, 1e-5 * 10)) <= abs(big)


def test_rho_p_expansion_residual_d2_exactly_quadratic():
    # For d = 2 the family complexity is exactly 2 p^2, so the residual is 2 eps^2.
    fam = stabilizer_family(2)
    for eps in (1e-2, 1e-3, 1e-4):
        assert rho_p_expansion_residual(fam, eps) == pytest.approx(2 * eps**2, rel=1e-6)


def test_rho_p_expansion_requires_stabilizer_anchor():
    fid = known_fiducial(2).projector()
    with pytest.raises(ValueError):
        rho_p_expansion_residual(RhoPFamily(fid, 0.5), 1e-3)
    with pytest.raises(ValueError):
        rho_p_expansion_residual(stabilizer_family(2), 0.5)  # epsilon too large
    with pytest.raises(ValueError):
        rho_p_expansion_residual(stabilizer_family(2), 0.0)


# -- convexity and concavity ---------------------------------------------------


def test_convexity_witness_d3():
    rho_a, rho_b, lam = convexity_witness_states(3)
    mixture = DensityState(lam * rho_a.rho + (1 - lam) * rho_b.rho)
    c_mix = complexity_by_moments(mixture)
    c_avg = lam * complexity_by_moments(rho_a) + (1 - lam) * complexity_by_moments(rho_b)
    assert c_mix == pytest.approx(5.5609, abs=5e-4)
    assert c_avg == pytest.approx(5.5528, abs=5e-4)
    assert c_mix > c_avg


def test_convexity_scan_finds_witness_d3():
    violations = convexity_scan(3, 200, 7)
    assert violations, "deterministic witness must be recorded"
    assert violations[0].index == -1
    assert violations[0].excess > 5e-3


def test_convexity_scan_d2_clean():
    assert convexity_scan(2, 5000, 11) == []


def test_self_mixture_never_violates():
    state = random_mixed(3, 2, 3)
    for lam in (0.1, 0.5, 0.9):
        mixture = DensityState(lam * state.rho + (1 - lam) * state.rho)
        gap = complexity_by_moments(mixture) - complexity_by_moments(state)
        assert abs(gap) <= 1e-9


@pytest.mark.parametrize("d,expected", [(2, 2.0), (3, 6.0), (5, 20.0)])
def test_concavity_witness_values(d, expected):
    lhs, rhs = concavity_witness(d)
    assert lhs == pytest.approx(0.0, abs=1e-10)
    assert rhs == pytest.approx(expected, abs=1e-10)
    assert lhs < rhs


# -- invariances ---------------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_clifford_invariance_under_fourier(d):
    f = fourier_gate(d)
    rng = np.random.default_rng(d)
    for trial in range(10):
        state = random_mixed(d, (trial % d) + 1, rng)
        rotated = DensityState(f @ state.rho @ f.conj().T, check=False)
        assert complexity_by_moments(rotated) == pytest.approx(
            complexity_by_moments(state), abs=1e-9
        )


def test_generic_unitary_breaks_invariance():
    # Documents that the invariance is Clifford-specific, not unitary-wide.
    state = random_pure(3, 0)
    found = 0.0
    for seed in range(10):
        u = haar_unitary(3, seed)
        rotated = DensityState(u @ state.rho @ u.conj().T, check=False)
        found = max(found, abs(complexity_by_moments(rotated) - complexity_by_moments(state)))
        if found > 1e-3:
            break
    assert found > 1e-3


@pytest.mark.parametrize("d", [2, 3, 5])
def test_phase_convention_independence(d):
    rng = np.random.default_rng(d + 30)
    state = random_mixed(d, d, rng)
    base = complexity_by_moments(state)
    ops = weyl_stack(d)
    phases = np.exp(2j * np.pi * rng.uniform(size=(d, d)))
    table = np.einsum("klij,ji->kl", ops, psd_sqrt(state)) * phases
    rephased = d * d - float(np.sum(np.abs(table) ** 4))
    assert abs(rephased - base) <= 1e-12


# -- batched route -------------------------------------------------------------


def test_batch_complexity_matches_scalar():
    for d in (2, 3, 5):
        rhos = np.stack([random_mixed(d, (i % d) + 1, 50 + i).rho for i in range(12)])
        batched = batch_complexity(rhos)
        scalar = [complexity_by_moments(DensityState(r)) for r in rhos]
        assert np.allclose(batched, scalar, atol=1e-12)


@pytest.mark.parametrize("eps", [0.0, 1e-14, 1e-12, 1e-10, 1e-8])
def test_batch_complexity_matches_qubit_closed_form(eps):
    # |r|^2 = 1 - eps: pure states and the near-pure edge of the qubit root.
    rng = np.random.default_rng(7)
    directions = np.vstack([np.eye(3), rng.standard_normal((40, 3))])
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    bloch = directions * np.sqrt(1.0 - eps)
    rhos = np.stack([bloch_to_state(BlochVector(*r)).rho for r in bloch])
    expected = [qubit_complexity(tuple(r)) for r in bloch]
    assert np.abs(batch_complexity(rhos) - expected).max() <= 1e-9


# Near SQRT_RANK_RCOND = 1e-13 rounding of the smallest eigenvalue decides
# whether it is zeroed, and the two roots may decide differently (a gap of
# order sqrt(1e-13)), so ratios in [5e-14, 2e-13] are left out.
_RCOND_BAND = (np.log10(5e-14), np.log10(2e-13))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from([2, 3, 5]),
    st.floats(-14.0, -8.0).filter(lambda x: not _RCOND_BAND[0] <= x <= _RCOND_BAND[1]),
    st.integers(0, 2**32 - 1),
)
def test_near_rank_deficient_states(d, log_ratio, seed):
    # Spectra whose smallest eigenvalue is 10^log_ratio of the largest.
    rng = np.random.default_rng(seed)
    spectrum = rng.uniform(0.1, 1.0, size=d)
    spectrum[0] = 10.0**log_ratio * spectrum.max()
    rhos = []
    for i in range(3):
        u = haar_unitary(d, [seed, i])
        rho = (u * spectrum) @ u.conj().T
        rho = (rho + rho.conj().T) / (2 * spectrum.sum())
        rhos.append(rho)
    batched = batch_complexity(np.stack(rhos))
    for rho, c_batch in zip(rhos, batched):
        state = DensityState(rho)
        rep = complexity_report(state)
        assert rep.path_gap <= 1e-9 * d * d
        assert -1e-9 <= rep.c_value <= complexity_upper_bound(d) + 1e-9
        assert abs(c_batch - complexity_by_moments(state)) <= 1e-9 * d * d


def test_batch_complexity_validates_shape():
    with pytest.raises(ValueError):
        batch_complexity(np.eye(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e-6])
def test_batch_complexity_rejects_non_hermitian_or_non_finite(bad):
    # eigh (d = 3) and the qubit root (d = 2) read only the lower triangle,
    # so the upper one must be checked.
    for d in (2, 3):
        rhos = np.stack([np.eye(d, dtype=complex) / d] * 4)
        rhos[2, 0, 1] = bad
        with pytest.raises(NotHermitianError):
            batch_complexity(rhos)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("spectrum", [(1.0 + 1e-9, -1e-9), (0.0, -1.0)])
def test_batch_complexity_rejects_negative_eigenvalue(d, spectrum):
    # (0, -1) has a zero top eigenvalue, so l- of the qubit root is not det / l+.
    rhos = np.stack([np.eye(d, dtype=complex) / d] * 3)
    rhos[1] = np.diag([spectrum[0]] + [0.0] * (d - 2) + [spectrum[1]])
    with pytest.raises(NegativeEigenvalueError):
        batch_complexity(rhos)


@pytest.mark.parametrize("d", [2, 3])
def test_batch_complexity_zero_member(d):
    # The zero matrix has the zero root, so C = d^2, without a division warning.
    rhos = np.stack([np.zeros((d, d), dtype=complex), np.eye(d, dtype=complex) / d])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = batch_complexity(rhos)
    assert values == pytest.approx([d * d, 0.0], abs=1e-12)
