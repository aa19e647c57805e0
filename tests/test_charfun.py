import warnings

import numpy as np
import pytest
from helpers import naive_char_table, random_hermitian
from hypothesis import given, settings
from hypothesis import strategies as st

from stabc import (
    CharTable,
    DensityState,
    char_table,
    lp_moment,
    psd_sqrt,
    random_mixed,
    random_pure,
    reconstruct,
    sqrt_char_table,
)
from stabc.charfun import SOURCE_GENERIC, SOURCE_SQRT_STATE, SOURCE_STATE
from stabc.matcore import _power_sums
from stabc.states import BlochVector, bloch_to_state

T_BLOCH = BlochVector(*(np.ones(3) / np.sqrt(3)))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_char_table_matches_naive_traces(d):
    rng = np.random.default_rng(d + 10)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    assert np.allclose(char_table(a).values, naive_char_table(a), atol=1e-12)


def test_char_table_of_maximally_mixed():
    t = char_table(DensityState.maximally_mixed(4))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1.0
    assert np.allclose(t.values, expected, atol=1e-13)
    assert t.source == SOURCE_STATE


def test_char_table_of_basis_projector_d2():
    # tr(Z |0><0|) = 1, both shift rows traceless on |0><0|.
    t = char_table(DensityState.pure([1.0, 0.0]))
    assert np.allclose(t.values, [[1.0, 1.0], [0.0, 0.0]], atol=1e-14)


def test_char_table_of_t_state_has_flat_moduli():
    t = char_table(bloch_to_state(T_BLOCH))
    moduli = np.abs(t.values)
    assert moduli[0, 0] == pytest.approx(1.0, abs=1e-12)
    off = [moduli[0, 1], moduli[1, 0], moduli[1, 1]]
    assert np.allclose(off, 1 / np.sqrt(3), atol=1e-12)


def test_source_tag_dispatch():
    assert char_table(np.eye(2, dtype=complex)).source == SOURCE_GENERIC
    assert sqrt_char_table(DensityState.maximally_mixed(2)).source == SOURCE_SQRT_STATE


def test_state_table_trace_invariant_enforced():
    with pytest.raises(ValueError):
        CharTable(np.ones((2, 2), dtype=complex) * 0.5, SOURCE_STATE)
    with pytest.raises(ValueError):
        CharTable(np.zeros((3, 3), dtype=complex), SOURCE_SQRT_STATE)
    with pytest.raises(ValueError):
        CharTable(np.eye(2, dtype=complex), "weird-tag")


@pytest.mark.parametrize("d", range(2, 9))
def test_reconstruct_round_trip(d):
    rng = np.random.default_rng(d)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    assert np.linalg.norm(reconstruct(char_table(a)) - a) <= 1e-10 * d
    h = random_hermitian(d, rng)
    assert np.linalg.norm(reconstruct(char_table(h + 0j)) - h) <= 1e-10 * d


def test_reconstruct_identity_over_d():
    a = np.eye(4, dtype=complex) / 4
    assert np.allclose(reconstruct(char_table(a)), a, atol=1e-13)


def test_reconstruct_sqrt_table_squares_to_state():
    rho = random_mixed(3, 3, 21)
    rebuilt = reconstruct(sqrt_char_table(rho))
    assert np.linalg.norm(rebuilt @ rebuilt - rho.rho) <= 1e-8


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**31 - 1))
def test_reconstruct_round_trip_property(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    assert np.linalg.norm(reconstruct(char_table(a)) - a) <= 1e-10 * d


def test_sqrt_table_of_maximally_mixed():
    t = sqrt_char_table(DensityState.maximally_mixed(5))
    expected = np.zeros((5, 5), dtype=complex)
    expected[0, 0] = np.sqrt(5)
    assert np.allclose(t.values, expected, atol=1e-12)


def test_sqrt_table_equals_state_table_for_pure_states():
    for seed in range(10):
        state = random_pure(3, seed)
        gap = np.abs(char_table(state).values - sqrt_char_table(state).values).max()
        assert gap <= 1e-10


def test_sqrt_table_normalization_rank2_d2():
    t = sqrt_char_table(random_mixed(2, 2, 5))
    assert np.sum(np.abs(t.values) ** 2) == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_sqrt_table_normalization_sampled(d):
    rng = np.random.default_rng(d + 40)
    for i in range(50):
        state = random_mixed(d, int(rng.integers(1, d + 1)), rng)
        total = np.sum(np.abs(sqrt_char_table(state).values) ** 2)
        assert abs(total - d) <= 1e-8


@pytest.mark.parametrize("d", [2, 3, 4])
def test_parseval(d):
    rng = np.random.default_rng(d + 80)
    for _ in range(10):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        total = np.sum(np.abs(char_table(a).values) ** 2)
        assert total == pytest.approx(d * np.vdot(a, a).real, abs=1e-9)


def test_moment_reference_values():
    # Frozen oracle values: |0><0| has |c| = (1, 1, 0, 0) so M4 = 2^(1/4);
    # the T-state has |c| = (1, 1/sqrt(3) x3) so M4^4 = 1 + 3/9 = 4/3.
    stab = char_table(DensityState.pure([1.0, 0.0]))
    assert lp_moment(stab, 4.0) == pytest.approx(2 ** 0.25, abs=1e-12)

    t_state = char_table(bloch_to_state(T_BLOCH))
    assert lp_moment(t_state, 4.0) == pytest.approx((4 / 3) ** 0.25, abs=1e-12)

    mixed_sqrt = sqrt_char_table(DensityState.maximally_mixed(7))
    assert lp_moment(mixed_sqrt, 4.0) == pytest.approx(np.sqrt(7), abs=1e-12)


def test_moment_rejects_bad_exponent_and_generic_tables():
    t = char_table(DensityState.maximally_mixed(2))
    for bad in (1.5, np.nan):
        with pytest.raises(ValueError, match="exponent"):
            lp_moment(t, bad)
    with pytest.raises(ValueError):
        lp_moment(char_table(np.eye(2, dtype=complex)), 4.0)


def test_moment_exponent_is_a_real_number():
    # True was taken as p = 1 and "4" was parsed as 4.0.
    t = char_table(DensityState.maximally_mixed(2))
    for bad in (True, np.bool_(True), "4", None, 4 + 0j, np.complex128(4.0)):
        with pytest.raises(ValueError, match="moment exponent must be a real number"):
            lp_moment(t, bad)
    assert lp_moment(t, np.int64(4)) == lp_moment(t, np.float32(4.0)) == lp_moment(t, 4.0)


def test_moment_refuses_infinite_and_overflowing_exponents():
    # The largest |c| of this table is sqrt(7) = 2.6458, the value every large p
    # tends to; p = inf once returned 1.0 and p = 1e6 returned inf.
    t = sqrt_char_table(DensityState.maximally_mixed(7))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                lp_moment(t, bad)
        with pytest.raises(ValueError, match="p = 1000000.0 overflows"):
            lp_moment(t, 1e6)
        assert lp_moment(t, 400.0) == pytest.approx(np.sqrt(7), rel=1e-14)


@pytest.mark.parametrize("p", [2.0, 3.5, 4.0, 400.0])
def test_moment_values_are_the_plain_power_sum(p):
    # The overflow guard changes no finite value: printed m4 columns carry the
    # bits.  The kernel sums in its own order, so the plain sum agrees to rounding.
    for table in (sqrt_char_table(random_mixed(5, 2, 3)), char_table(random_pure(7, 4))):
        guard_free = float(_power_sums(table.values[None], p)[0] ** (1.0 / p))
        plain = float(np.sum(np.abs(table.values) ** p) ** (1.0 / p))
        assert lp_moment(table, p) == guard_free
        assert lp_moment(table, p) == pytest.approx(plain, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sqrt_table_check_refuses_non_finite_entries(bad):
    values = sqrt_char_table(random_mixed(3, 2, 5)).values.copy()
    values[1, 2] = bad
    with pytest.raises(ValueError, match=r"sum \|c\|\^2"):
        CharTable(values, SOURCE_SQRT_STATE)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_every_table_refuses_non_finite_entries(bad):
    # A state table was checked at c(0,0) only and a generic one not at all:
    # lp_moment then read the NaN as an overflowing power sum.
    state = random_mixed(3, 2, 5)
    for table in (char_table(state), sqrt_char_table(state), char_table(np.eye(3))):
        values = table.values.copy()
        values[1, 2] = bad
        with pytest.raises(ValueError):
            CharTable(values, table.source)


def test_char_table_refuses_a_non_finite_matrix():
    # Refused before the table product, which warned and returned NaN.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            char_table(np.full((2, 2), np.inf))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_pure_moment4_bracket(d):
    # Table bounds for pure states: fiducial floor and stabilizer ceiling.
    lo = (1 + (d - 1) / (d + 1)) ** 0.25
    hi = d ** 0.25
    rng = np.random.default_rng(d)
    for _ in range(200):
        m4 = lp_moment(char_table(random_pure(d, rng)), 4.0)
        assert lo - 1e-9 <= m4 <= hi + 1e-9


def test_tables_are_frozen():
    t = char_table(DensityState.maximally_mixed(3))
    with pytest.raises(ValueError):
        t.values[0, 0] = 2.0


def test_sqrt_table_source_enforced_at_build():
    # Feeding a non-sqrt table through the sqrt tag must fail loudly.
    state = random_mixed(3, 2, 11)
    with pytest.raises(ValueError):
        CharTable(char_table(state).values, SOURCE_SQRT_STATE)
    # while the real sqrt table passes
    assert sqrt_char_table(state).dim == 3
    assert psd_sqrt(state) is not None
