import re
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from helpers import (
    count_calls, naive_jordan_lie, naive_weyl_matrix, naive_weyl_stack, traced_peak_mib,
)
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
    ConvexityViolation,
    complexity_by_definition,
    complexity_by_moments,
    complexity_report,
    complexity_upper_bound,
    concavity_witness,
    convexity_scan,
    convexity_witness_states,
    enumerate_stabilizer_states,
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
)
from stabc import complexity, matcore
from stabc.complexity import _definition_tables, _moment_complexities, _reports
from stabc.matcore import (
    HERMITIAN_TOL,
    _batch_psd_sqrt,
    _blocks,
    _checked_sqrt_stack,
    _pure_members,
    random_mixed_stack,
    random_pure_stack,
    random_rank_mixed_stack,
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


def test_jordan_lie_rejects_out_of_range_and_foreign_index():
    state = random_mixed(3, 2, 1)
    for idx in ((-1, 0), (3, 0), WeylIndex(0, 0, 2)):
        with pytest.raises(ValueError):
            jordan_lie_terms(state, idx)


def test_integer_arguments_refuse_non_integers():
    with pytest.raises(ValueError, match="dimension must be an integer"):
        complexity_upper_bound(2.5)
    state = random_mixed(3, 2, 1)
    with pytest.raises(ValueError, match="k must be an integer"):
        jordan_lie_terms(state, (1.7, 0))
    assert jordan_lie_terms(state, (np.int64(1), 0)) == jordan_lie_terms(state, (1, 0))


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


def _assert_tables_match_naive(state, points):
    rep = complexity_report(state)
    s = psd_sqrt(state)
    for k, l in points:
        oj, oi = naive_jordan_lie(s, naive_weyl_matrix(state.dim, k, l))
        assert rep.jordan_table[k, l] == pytest.approx(oj, abs=1e-10)
        assert rep.lie_table[k, l] == pytest.approx(oi, abs=1e-10)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 9, 12])
def test_definition_tables_match_naive_oracle(d):
    rng = np.random.default_rng(d + 11)
    for rank in sorted({1, 2, d}):
        _assert_tables_match_naive(random_mixed(d, rank, rng), np.ndindex(d, d))


def test_definition_tables_match_naive_oracle_at_asymmetric_points_d64():
    # C, the route gap and sweep min/max are all blind to a permutation of the
    # tables such as (k, l) -> (-k, l) or a transpose; single points are not.
    # (k, l) -> (-k, -l) is an exact symmetry, since D(-k,-l) ~ D(k,l)^dag.
    d = 64
    rng = np.random.default_rng(75)
    points = [(1, 2), (2, 1), (d - 1, 1), (1, d - 1), (5, 17), (0, d - 1)]
    for rank in (1, 2, d):
        _assert_tables_match_naive(random_mixed(d, rank, rng), points)


def test_definition_tables_allocate_no_large_temporaries():
    # A d x d complex array is 64 KiB at d = 64; a 2d x d one reaches glibc's
    # 128 KiB mmap threshold and faults in fresh pages on every call.
    roots = psd_sqrt(random_mixed(64, 64, 7))[None]
    _definition_tables(roots)  # caches the Fourier matrix
    assert traced_peak_mib(lambda: _definition_tables(roots))[1] < 640 / 2**10


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


def test_report_m4_only_for_rank_one_roots():
    near = DensityState(np.diag([1 - 3e-9, 3e-9, 0.0]))
    assert complexity_report(near).m4_fourth_power is None
    for psi in (basis_state(3), known_fiducial(3).projector(), random_pure(64, 1)):
        assert complexity_report(psi).m4_fourth_power is not None


def _report_stack(d):
    """Haar-pure, stabilizer, full-rank and rank-2 members, then a near-pure one.

    The last member has purity >= 1 - 1e-8 but a root of rank two, so it is
    not pure (test_matcore's near-pure state): the first 3 + (d + 1) members
    are pure and the rest are not.
    """
    rng = np.random.default_rng(d)
    near = np.diag([1 - 3e-9, 3e-9] + [0.0] * (d - 2)).astype(complex)
    stabilizers = enumerate_stabilizer_states(d).projectors[::d]
    return np.concatenate([random_pure_stack(d, 3, rng), stabilizers,
                           random_mixed_stack(d, [d, d, 2], rng), near[None]])


@pytest.mark.parametrize("d", [2, 3, 7])
def test_stacked_reports_are_bitwise_the_one_row_report(d):
    # Every entry of a column is bitwise the field of its member's one-row
    # report, a NaN in the m4 column is that report's None, and the tables
    # are read-only.
    rhos = _report_stack(d)
    block = _reports(rhos, _checked_sqrt_stack(rhos))
    n = len(rhos)
    assert [column.shape for column in block] == [(n,)] * 5 + [(n, d, d)] * 2
    assert not block.jordan.flags.writeable and not block.lie.flags.writeable
    assert (~np.isnan(block.m4_fourth_power)).tolist() == [i < 3 + d + 1 for i in range(n)]
    columns = {"dim": np.full(n, d), "c_via_moments": block.c_value,
               "jordan_table": block.jordan, "lie_table": block.lie, **block._asdict()}
    for i, rho in enumerate(rhos):
        one = complexity_report(DensityState(rho))
        for field in fields(one):
            got, expected = columns[field.name][i], getattr(one, field.name)
            if isinstance(expected, np.ndarray):
                assert np.array_equal(got, expected) and not expected.flags.writeable, field.name
            elif expected is None:
                assert np.isnan(got), field.name
            else:
                assert type(expected) in (int, float), field.name
                assert float(got).hex() == float(expected).hex(), field.name


@pytest.mark.parametrize("d", [2, 3, 7])
def test_stacked_purity_rule_is_is_pure_per_member(d):
    rhos = _report_stack(d)
    roots = _checked_sqrt_stack(rhos)
    purities, pure = _pure_members(rhos, roots)
    states = [DensityState(rho, check=False) for rho in rhos]
    assert pure.tolist() == [i for i, state in enumerate(states) if state.is_pure()]
    assert purities.tolist() == [state.purity() for state in states]


def test_reports_name_the_worst_complementarity_defect():
    # Member i holds state order[i] but root i: members 1-3 pass the purity
    # rule and fail complementarity by |C(root i) - C(state order[i])|, and
    # the worst is neither the first nor the last of them.
    d = 3
    rhos = random_pure_stack(d, 4, np.random.default_rng(8))
    roots = _checked_sqrt_stack(rhos)
    c = _moment_complexities(roots)
    order = [0, 2, 3, 1]
    defects = np.abs(c - c[order])
    assert np.argmax(defects) == 2 and np.sort(defects)[-1] - np.sort(defects)[-2] > 0.1
    with pytest.raises(ArithmeticError, match="complementarity defect") as err:
        _reports(rhos[order], roots)
    reported = float(re.search(r"defect (\S+)", str(err.value)).group(1))
    assert reported == pytest.approx(defects.max(), rel=1e-3)


def test_reports_name_the_member_farthest_outside_the_bounds(monkeypatch):
    # A slack of -1 moves the ceiling 7.5 down to 6.5, below some pure-state values.
    rhos = random_pure_stack(3, 12, np.random.default_rng(5))
    c = _moment_complexities(_checked_sqrt_stack(rhos))
    assert (c > 6.5).sum() >= 2
    monkeypatch.setattr(complexity, "_BOUND_SLACK", -1.0)
    with pytest.raises(ArithmeticError, match=re.escape(f"complexity {c.max()} outside")):
        _reports(rhos, _checked_sqrt_stack(rhos))


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


def test_qubit_tuple_follows_the_bloch_vector_rule():
    # A tuple is checked as a BlochVector: norm 1 + 1e-10 is outside the ball
    # for all three calls, a tuple gives bitwise what its BlochVector gives,
    # and a tuple of the wrong length is a ValueError.
    for r in ((1.0 + 1e-10, 0.0, 0.0), (0.0, 0.6, 0.8 + 1e-10)):
        for call in (qubit_complexity, bloch_to_state, lambda r: BlochVector(*r)):
            with pytest.raises(ValueError, match="exceeds 1"):
                call(r)
    r = (0.6, -0.3, 0.5)
    assert qubit_complexity(r) == qubit_complexity(BlochVector(*r))
    for call in (qubit_complexity, bloch_to_state):
        for r in ((0.1, 0.2), (0.1, 0.2, 0.3, 0.0)):
            with pytest.raises(ValueError):
                call(r)


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


@pytest.mark.parametrize("d", [2, 3, 5, 16, 64])
def test_rho_p_stack_rows_are_bitwise_the_one_state_formula(d):
    psi = random_pure(d, d)
    grid = np.linspace(0.0, 1.0, 11)
    stack = complexity._rho_p_stack(psi, grid)
    assert stack.shape == (11, d, d)
    for p, rho in zip(grid.tolist(), stack):
        assert np.array_equal(rho, p * psi.rho + (1.0 - p) * np.eye(d) / d)
        assert np.array_equal(rho, rho_p_state(RhoPFamily(psi, p)).rho)


@pytest.mark.parametrize("bad", [True, np.bool_(False), "0.5", None, 0.5 + 0j, np.complex128(0.5)])
def test_rho_p_parameters_are_real_numbers(bad):
    # True was kept as p = True, and strings were parsed as numbers.
    fam = stabilizer_family(2)
    for call, name in [(lambda: RhoPFamily(basis_state(2), bad), "mixing parameter p"),
                       (lambda: rho_p_second_derivative(fam, bad), "p0"),
                       (lambda: rho_p_second_derivative(fam, 0.5, bad), "step"),
                       (lambda: rho_p_expansion_residual(fam, bad), "epsilon")]:
        with pytest.raises(ValueError, match=f"{name} must be a real number"):
            call()


def test_rho_p_parameters_take_python_and_numpy_reals():
    for p in (1, np.int64(1), np.float32(0.5), np.float64(0.25), 0.5):
        fam = RhoPFamily(basis_state(3), p)
        assert type(fam.p) is float and fam.p == float(p)
    fam = stabilizer_family(3)
    assert rho_p_second_derivative(fam, np.float32(0.5), np.float64(1e-4)) == \
        rho_p_second_derivative(fam, 0.5, 1e-4)
    assert rho_p_expansion_residual(fam, np.float64(1e-3)) == rho_p_expansion_residual(fam, 1e-3)


def test_rho_p_family_refuses_near_pure_anchor():
    # Purity 0.999999994, but the root has rank two, so the closed form,
    # which assumes a rank-one root, would miss the generic value by ~4e-9.
    with pytest.raises(ValueError, match="pure"):
        RhoPFamily(DensityState(np.diag([1 - 3e-9, 3e-9, 0.0])), 0.5)


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
    # Centred at p0 = 0: the stencil reaches p = -h, still a state.
    origin = rho_p_second_derivative(stabilizer_family(d), 0.0, 1e-4)
    assert origin == pytest.approx(target, rel=1e-6)


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
    # The stencil may leave [0, 1] below 0 but not the state domain p >= -1/(d-1).
    assert rho_p_second_derivative(fam, 1e-5, 1e-4) == pytest.approx(18.0, rel=1e-3)
    with pytest.raises(ValueError):
        rho_p_second_derivative(fam, -0.5 + 5e-5, 1e-4)
    # NaN fails every comparison, so only fail-closed checks reject it.
    for p0, step in [(0.0, np.nan), (0.5, np.nan), (0.0, np.inf), (0.5, np.inf),
                     (np.nan, 1e-4), (np.inf, 1e-4), (-np.inf, 1e-4)]:
        with pytest.raises(ValueError):
            rho_p_second_derivative(fam, p0, step)


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


def test_convexity_scan_rejects_negative_samples():
    with pytest.raises(ValueError, match="samples"):
        convexity_scan(3, -5, 7)


@pytest.mark.parametrize("samples", [2.9, np.float64(3.5), True, np.bool_(True), float("inf"),
                                     "3", None])
def test_convexity_scan_refuses_non_integral_samples(samples):
    with pytest.raises(ValueError, match="samples must be an integer"):
        convexity_scan(2, samples, 7)


def test_convexity_scan_accepts_numpy_integers():
    assert convexity_scan(2, np.int64(3), 7) == convexity_scan(2, 3, 7) == []


def test_blocks_are_made_as_they_are_taken():
    # A list of all 2.4e11 blocks would take ~13 GB before the first one, so
    # the huge call is made only once a small one is seen to be an iterator.
    small = _blocks(10, 2)
    assert iter(small) is small
    blocks = _blocks(10**15, 2)
    assert next(blocks) == range(0, 4096) and next(blocks) == range(4096, 8192)


@pytest.mark.parametrize("d, size", [(2, 4096), (3, 1820), (16, 64), (64, 4)])
def test_blocks_cut_the_range_in_order(d, size):
    # 2**14 matrix entries per block, at least one member.
    for n in (0, 1, size - 1, size, size + 1, 3 * size - 1):
        blocks = list(_blocks(n, d))
        assert [i for block in blocks for i in block] == list(range(n))
        assert [len(block) for block in blocks[:-1]] == [size] * (len(blocks) - 1)
        assert all(0 < len(block) <= size for block in blocks)


def _one_state_at_a_time_scan(d, samples, seed):
    # The documented stream drawn one state at a time: per block the ranks and
    # states of rho_1, then those of rho_2, then lambda; every C by the
    # checked moment route, the witness first.
    rng = np.random.default_rng(seed)

    def row(index, lam, rho_a, rho_b):
        mixture = DensityState(lam * rho_a.rho + (1 - lam) * rho_b.rho, check=False)
        c_avg = lam * complexity_by_moments(rho_a) + (1 - lam) * complexity_by_moments(rho_b)
        return index, float(lam), complexity_by_moments(mixture), c_avg

    rho_a, rho_b, lam = convexity_witness_states(d)
    rows = [row(-1, lam, rho_a, rho_b)]
    for block in _blocks(samples, d):
        states = [[random_mixed(d, r, rng) for r in rng.integers(1, d + 1, size=len(block))]
                  for _ in range(2)]
        lam = rng.uniform(size=len(block))
        rows += [row(i, lam[j], states[0][j], states[1][j]) for j, i in enumerate(block)]
    return rows


@pytest.mark.parametrize("d,samples", [(2, 4096 + 5), (3, 1820 + 5), (3, 300), (5, 100)])
def test_convexity_scan_matches_one_state_at_a_time(monkeypatch, d, samples):
    # With the tolerance at -inf every sample is recorded, so the stream, the
    # sample order and every value are compared, across a block edge at d = 2 and 3.
    # The stacked and scalar reductions round differently, hence 1e-12 d^2.
    monkeypatch.setattr(complexity, "_CONVEXITY_TOL", -np.inf)
    got = convexity_scan(d, samples, 23)
    expected = _one_state_at_a_time_scan(d, samples, 23)
    assert [v.index for v in got] == [row[0] for row in expected] == list(range(-1, samples))
    for v, (_, lam, c_mix, c_avg) in zip(got, expected):
        assert v.lam == lam
        assert abs(v.c_mixture - c_mix) <= 1e-12 * d * d
        assert abs(v.c_average - c_avg) <= 1e-12 * d * d


def test_convexity_scan_leaves_the_witness_states_alone(monkeypatch):
    # The scan mixes in the buffers of its draws; the witness's arrays are
    # read-only, so it mixes writable copies of them.
    states = convexity_witness_states(3)
    before = [state.rho.copy() for state in states[:2]]
    expected = convexity_scan(3, 50, 4)
    monkeypatch.setattr(complexity, "convexity_witness_states", lambda d: states)
    assert convexity_scan(3, 50, 4) == expected
    assert expected[0].index == -1
    for state, rho in zip(states[:2], before):
        assert not state.rho.flags.writeable
        assert state.rho.tobytes() == rho.tobytes()


@pytest.mark.parametrize("d", [3, 5])
def test_scan_block_mixes_in_place_bitwise(d):
    # A block of 40 draws with the witness planted at row 17: the in-place
    # mixture gives the same violations, field for field, as the plain formula.
    rng = np.random.default_rng(d)
    rho_a, rho_b = (random_rank_mixed_stack(d, 40, rng) for _ in range(2))
    lam = rng.uniform(size=40)
    witness_a, witness_b, lam[17] = convexity_witness_states(d)
    rho_a[17], rho_b[17] = witness_a.rho, witness_b.rho
    w = lam[:, None, None]
    c_mix = _moment_complexities(_batch_psd_sqrt(w * rho_a + (1 - w) * rho_b))
    c_avg = (lam * _moment_complexities(_batch_psd_sqrt(rho_a))
             + (1 - lam) * _moment_complexities(_batch_psd_sqrt(rho_b)))
    expected = [ConvexityViolation(100 + int(i), float(lam[i]), float(c_mix[i]), float(c_avg[i]))
                for i in np.flatnonzero(c_mix > c_avg + complexity._CONVEXITY_TOL)]
    assert 117 in [v.index for v in expected]
    assert complexity._scan_block(100, rho_a.copy(), rho_b.copy(), lam) == expected


def _scan_peak_mib(d, samples):
    seed = np.random.SeedSequence([0, 9, d])
    convexity_scan(d, 1, seed)  # builds the per-d constants
    return traced_peak_mib(lambda: convexity_scan(d, samples, seed))[1]


def test_convexity_scan_memory_is_bounded():
    # The scan holds one block's states at a time (3.6 MiB traced).
    assert _scan_peak_mib(3, 20000) < 6


def test_qubit_convexity_scan_memory_is_bounded():
    # One block's states at a time (1.9 MiB traced).
    assert _scan_peak_mib(2, 100000) < 4


def test_convexity_scan_d2_clean():
    assert convexity_scan(2, 5000, 11) == []


def test_convexity_scan_without_samples_records_only_the_witness():
    # The convexity suite's note reads the index -1 record.
    assert convexity_scan(2, 0, 5) == []
    for d in range(3, 65):
        assert [v.index for v in convexity_scan(d, 0, 5)] == [-1], d


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
    ops = naive_weyl_stack(d)
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
        assert batched.tolist() == scalar


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


def _mixed_rank_roots(d, n, seed):
    rng = np.random.default_rng(seed)
    return _checked_sqrt_stack(random_mixed_stack(d, (np.arange(n) % d) + 1, rng))


def _state_with_root(root):
    # Plants the root in the write-once cache the scalar paths read.
    state = DensityState(np.eye(len(root)) / len(root), check=False)
    state._sqrt = root
    return state


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 16, 64])
def test_stacked_kernels_are_bitwise_the_one_row_case(d):
    # The scalar paths are stacks of one; a block must give every member the
    # same bits, or the verify rows built on blocks would move.
    roots = _mixed_rank_roots(d, 7 if d == 64 else 12, d)
    jordan, lie = _definition_tables(roots)
    moments = _moment_complexities(roots)
    for i, root in enumerate(roots):
        one_j, one_l = _definition_tables(root[None])
        assert np.array_equal(jordan[i], one_j[0]) and np.array_equal(lie[i], one_l[0])
        state = _state_with_root(root)
        assert moments[i] == complexity_by_moments(state)
        assert float(np.sum(jordan[i] * lie[i])) == complexity_by_definition(state)


@pytest.mark.parametrize("d", [2, 3, 8])
def test_stacked_kernels_refuse_a_corrupted_member_as_the_scalar_path(d):
    roots = _mixed_rank_roots(d, 5, d + 1)
    skewed = roots.copy()
    skewed[3, 0, 0] += 1e-6j  # not Hermitian: passes trace/norm at first order
    with pytest.raises(ArithmeticError, match="not Hermitian"):
        _definition_tables(skewed)
    with pytest.raises(ArithmeticError, match="not Hermitian"):
        complexity_by_definition(_state_with_root(skewed[3]))

    scaled = roots.copy()
    scaled[2] *= 1.01  # its table has sum |c|^2 = 1.0201 d
    with pytest.raises(ValueError, match="square-root table"):
        _moment_complexities(scaled)
    with pytest.raises(ValueError, match="square-root table"):
        complexity_by_moments(_state_with_root(scaled[2]))

    # A member whose lower triangle is not its matrix fails the root check.
    rhos = random_mixed_stack(d, [1, d, 2], np.random.default_rng(d))
    rhos[1, 0, 1] += 1e-6
    with pytest.raises(ArithmeticError, match="consistency"):
        _checked_sqrt_stack(rhos)
    with pytest.raises(ArithmeticError, match="consistency"):
        psd_sqrt(DensityState(rhos[1], check=False))


@pytest.mark.parametrize("d", [2, 3])
def test_empty_stacks_give_empty_results(d):
    empty = random_mixed_stack(d, [], np.random.default_rng(0))
    assert batch_complexity(empty).shape == (0,)
    assert batch_complexity(np.zeros((0, d, d))).shape == (0,)
    roots = _checked_sqrt_stack(empty)
    assert roots.shape == (0, d, d)
    assert _moment_complexities(roots).shape == (0,)
    assert all(table.shape == (0, d, d) for table in _definition_tables(roots))
    assert [column.shape for column in _reports(empty, roots)] == [(0,)] * 5 + [(0, d, d)] * 2


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
    # The zero matrix has the zero root, without a division warning, and its
    # empty square-root table is refused instead of giving C = d^2.
    rhos = np.stack([np.zeros((d, d), dtype=complex), np.eye(d, dtype=complex) / d])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = _batch_psd_sqrt(rhos)
        with pytest.raises(ValueError, match=r"sum \|c\|\^2 = 0"):
            batch_complexity(rhos)
    assert not roots[0].any()


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("trace", [2.0, 0.5])
def test_batch_complexity_refuses_non_unit_trace_member(d, trace):
    # A trace-2 member used to give C = -3 d^2, below the floor of 0.
    rhos = np.stack([np.eye(d, dtype=complex) / d] * 3)
    rhos[1] *= trace
    with pytest.raises(ValueError, match="square-root table"):
        batch_complexity(rhos)


@pytest.mark.parametrize("d", [2, 3, 8])
def test_batch_complexity_does_not_depend_on_the_block_size(monkeypatch, d):
    # 23 members are one block by default, and five blocks of 5, 5, 5, 5 and 3
    # members with the rule cut down to 5 members.
    rhos = random_mixed_stack(d, (np.arange(23) % d) + 1, np.random.default_rng(d))
    default = batch_complexity(rhos)
    monkeypatch.setattr(matcore, "_BLOCK_ENTRIES", 5 * d * d)
    roots = [0]
    count_calls(monkeypatch, [complexity], "_batch_psd_sqrt", roots)
    assert np.array_equal(batch_complexity(rhos), default)
    assert roots[0] == 5


def test_batch_complexity_holds_one_block_at_a_time():
    # A 10,000-member d = 8 stack is 9.8 MiB; taken whole, its roots, tables
    # and their temporaries peaked at ~30 MiB traced, one block of 256 at ~1 MiB.
    rhos = random_mixed_stack(8, (np.arange(10000) % 8) + 1, np.random.default_rng(0))
    batch_complexity(rhos[:1])  # builds the per-d constants
    values, peak = traced_peak_mib(lambda: batch_complexity(rhos))
    assert values.shape == (10000,) and peak <= 3


def _three_block_stack(monkeypatch, d):
    # Ten maximally mixed members in blocks of 4, 4 and 2.
    monkeypatch.setattr(matcore, "_BLOCK_ENTRIES", 4 * d * d)
    return np.stack([np.eye(d, dtype=complex) / d] * 10)


def _negative_eigenvalue(d):
    return np.diag([1.0 + 1e-9] + [0.0] * (d - 2) + [-1e-9]).astype(complex)


@pytest.mark.parametrize("d", [2, 3])
def test_batch_complexity_finds_a_fault_in_the_last_block(monkeypatch, d):
    rhos = _three_block_stack(monkeypatch, d)
    nan, negative, trace = rhos.copy(), rhos.copy(), rhos.copy()
    nan[9, 0, 1] = np.nan
    negative[9] = _negative_eigenvalue(d)
    trace[9] *= 2.0
    with pytest.raises(NotHermitianError):
        batch_complexity(nan)
    with pytest.raises(NegativeEigenvalueError):
        batch_complexity(negative)
    with pytest.raises(ValueError, match="square-root table"):
        batch_complexity(trace)


@pytest.mark.parametrize("d", [2, 3])
def test_batch_complexity_checks_symmetry_before_any_root(monkeypatch, d):
    # A negative eigenvalue in the first block does not mask a NaN in the last.
    rhos = _three_block_stack(monkeypatch, d)
    rhos[0] = _negative_eigenvalue(d)
    rhos[9, 0, 1] = np.nan
    roots = [0]
    count_calls(monkeypatch, [complexity], "_batch_psd_sqrt", roots)
    with pytest.raises(NotHermitianError):
        batch_complexity(rhos)
    assert roots[0] == 0


@pytest.mark.parametrize("d", [2, 3, 5])
def test_batch_complexity_symmetry_defect_is_the_same_from_either_triangle(monkeypatch, d):
    # The check reads the lower triangle only: an asymmetry planted above or
    # below the diagonal of the last block gives the message of the worst
    # member's full ||A - A^dag||, and a NaN or inf above the diagonal still raises.
    rhos = _three_block_stack(monkeypatch, d)
    messages = []
    for at in ((9, 0, d - 1), (9, d - 1, 0)):
        planted = rhos.copy()
        planted[at] += 3e-11 + 2e-11j
        full = max(np.linalg.norm(a - a.conj().T) for a in planted)
        with pytest.raises(NotHermitianError) as error:
            batch_complexity(planted)
        messages.append(str(error.value))
        assert messages[-1] == (f"stack symmetry defect {full:.3e} exceeds "
                                f"{HERMITIAN_TOL * d:.3e} (or is not finite)")
    assert messages[0] == messages[1]
    for bad in (np.nan, np.inf, complex(0.0, np.inf)):
        planted = rhos.copy()
        planted[9, 0, d - 1] = bad
        with pytest.raises(NotHermitianError, match="not finite"):
            batch_complexity(planted)


@pytest.mark.parametrize("d", [2, 3, 8, 64])
def test_batch_complexity_refuses_what_density_state_refuses(d):
    # An asymmetry of eps i above the diagonal: its largest entry is eps, under
    # HERMITIAN_TOL d, while its Frobenius norm eps sqrt(d (d - 1)) is once above
    # that tolerance and once below it.  The stack is refused exactly when some
    # member is refused alone.
    tol = HERMITIAN_TOL * d
    rhos = random_mixed_stack(d, (np.arange(5) % d) + 1, np.random.default_rng(d))
    upper = np.triu(np.ones((d, d)), 1)
    for eps in (0.9 * tol, 0.5 * tol / np.sqrt(d * (d - 1))):
        planted = rhos.copy()
        planted[3] += eps * 1j * upper
        assert np.abs(planted - planted.conj().swapaxes(1, 2)).max() < tol
        refused = []
        for rho in planted:
            try:
                DensityState(rho)
                refused.append(False)
            except NotHermitianError:
                refused.append(True)
        assert refused == [False, False, False, eps > tol / np.sqrt(d * (d - 1)), False]
        if any(refused):
            with pytest.raises(NotHermitianError, match="stack symmetry defect"):
                batch_complexity(planted)
        else:
            assert batch_complexity(planted).shape == (5,)


def test_batch_complexity_refuses_a_frobenius_defect_of_small_entries():
    # A d = 64 Ginibre state with 4e-11 i above the diagonal: every entry of
    # A - A^dag is at most 4e-11, under the 6.4e-11 tolerance, but its
    # Frobenius defect is 2.5e-9.  The stack path once returned C = 1975.31.
    rho = random_mixed(64, 64, 0).rho + 4e-11j * np.triu(np.ones((64, 64)), 1)
    for call in (DensityState, lambda a: batch_complexity(a[None])):
        with pytest.raises(NotHermitianError, match="symmetry defect 2.540e-09 exceeds 6.400e-11"):
            call(rho)


def test_convexity_scan_takes_its_draws_to_the_kernels(monkeypatch):
    # Its states and mixtures are Hermitian and finite by construction, so no
    # batch_complexity input check runs: one root per stack, three per block
    # and three for the witness.
    calls, roots = [0], [0]
    count_calls(monkeypatch, [complexity], "batch_complexity", calls)
    count_calls(monkeypatch, [complexity], "_batch_psd_sqrt", roots)
    convexity_scan(3, 1820 + 5, 23)
    assert calls[0] == 0
    assert roots[0] == 3 * 3


@pytest.mark.parametrize("d", [2, 3])
def test_batch_complexity_raises_the_first_faulty_block(monkeypatch, d):
    # Blocks are evaluated in order: a trace fault in block 1 raises before a
    # negative eigenvalue in block 3 is seen (one stack would have raised
    # NegativeEigenvalueError), and the other way round.
    rhos = _three_block_stack(monkeypatch, d)
    trace_first = rhos.copy()
    trace_first[1] *= 2.0
    trace_first[9] = _negative_eigenvalue(d)
    with pytest.raises(ValueError, match="square-root table"):
        batch_complexity(trace_first)
    negative_first = rhos.copy()
    negative_first[1] = _negative_eigenvalue(d)
    negative_first[9] *= 2.0
    with pytest.raises(NegativeEigenvalueError):
        batch_complexity(negative_first)
