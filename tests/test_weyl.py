import numpy as np
import pytest
from helpers import naive_weyl_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from stabc import (
    DimensionMismatchError,
    NotUnitaryError,
    PhaseExponent,
    WeylIndex,
    clifford_conjugation_table,
    fourier_gate,
    haar_unitary,
    hs_norm,
    is_clifford,
    tau_power,
    weyl_basis_check,
    weyl_coefficient_table,
    weyl_matrix,
    weyl_op,
    weyl_product_phase,
    weyl_stack,
)
from stabc.states import SIGMA_Y


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_weyl_matrix_matches_naive_construction(d):
    for k in range(d):
        for l in range(d):
            assert np.allclose(weyl_matrix(d, k, l), naive_weyl_matrix(d, k, l), atol=1e-13)


def test_weyl_identity_and_shift():
    assert np.allclose(weyl_matrix(3, 0, 0), np.eye(3))
    shift = np.zeros((3, 3))
    shift[(np.arange(3) + 1) % 3, np.arange(3)] = 1.0
    assert np.allclose(weyl_matrix(3, 1, 0), shift)


def test_weyl_d2_k1_l1_is_sigma_y_up_to_convention_phase():
    # With the exact tau = -exp(i pi/2) = -i prefactor, D(1,1) = tau X Z = -sigma_y;
    # the phase-free X Z alone would be -i sigma_y.  Only |c| enters any
    # downstream quantity, so the convention is observable here alone.
    d11 = weyl_matrix(2, 1, 1)
    assert np.allclose(d11, -SIGMA_Y, atol=1e-15)
    phase = d11[0, 1] / (-1j * SIGMA_Y)[0, 1]
    assert abs(abs(phase) - 1.0) <= 1e-15


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_weyl_unitarity(d):
    for k in range(d):
        for l in range(d):
            u = weyl_matrix(d, k, l)
            assert hs_norm(u.conj().T @ u - np.eye(d)) <= 1e-12 * d


def test_weyl_op_wraps_index():
    op = weyl_op(3, 2, 1)
    assert (op.index.k, op.index.l, op.dim) == (2, 1, 3)
    assert not op.matrix.flags.writeable
    with pytest.raises(ValueError):
        weyl_op(3, 3, 0)
    with pytest.raises(ValueError):
        weyl_op(3, 0, -1)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_product_phase_law_exact_all_pairs(d):
    for k1 in range(d):
        for l1 in range(d):
            left = weyl_matrix(d, k1, l1)
            for k2 in range(d):
                for l2 in range(d):
                    phase, idx = weyl_product_phase(WeylIndex(k1, l1, d), WeylIndex(k2, l2, d))
                    product = left @ weyl_matrix(d, k2, l2)
                    assert hs_norm(product - phase.value * weyl_matrix(d, idx.k, idx.l)) <= 1e-12 * d


def test_product_with_identity_has_zero_phase():
    for d in (2, 3, 5):
        for s in range(d):
            for t in range(d):
                phase, idx = weyl_product_phase(WeylIndex(0, 0, d), WeylIndex(s, t, d))
                assert phase.exponent == 0
                assert (idx.k, idx.l) == (s, t)


def test_product_phase_d3_example():
    # Oracle: multiply the 3x3 matrices and project onto D(1,1).
    phase, idx = weyl_product_phase(WeylIndex(1, 0, 3), WeylIndex(0, 1, 3))
    assert (idx.k, idx.l) == (1, 1)
    assert phase.exponent == 5  # -1 mod 6
    product = weyl_matrix(3, 1, 0) @ weyl_matrix(3, 0, 1)
    measured = np.trace(weyl_matrix(3, 1, 1).conj().T @ product) / 3
    assert abs(measured - phase.value) <= 1e-12


def test_product_phase_d2_squared_displacement():
    # Direct 2x2 multiplication: with the exact tau convention D(1,1) = -sigma_y,
    # so D(1,1)^2 = +1 and the group-law exponent is 0 (the phase-free X Z
    # squares to -1 instead; only the exact convention satisfies the group law).
    phase, idx = weyl_product_phase(WeylIndex(1, 1, 2), WeylIndex(1, 1, 2))
    assert (idx.k, idx.l) == (0, 0)
    d11 = weyl_matrix(2, 1, 1)
    assert np.allclose(d11 @ d11, phase.value * np.eye(2), atol=1e-15)
    assert phase.exponent == 0


@pytest.mark.parametrize("d", [3, 5, 7])
def test_odd_dimension_unreduced_exponent_is_ls_minus_kt(d):
    for k1 in range(d):
        for l1 in range(d):
            for k2 in range(d - k1):
                for l2 in range(d - l1):
                    phase, _ = weyl_product_phase(WeylIndex(k1, l1, d), WeylIndex(k2, l2, d))
                    assert phase.exponent == (l1 * k2 - k1 * l2) % (2 * d)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.data())
def test_product_phase_law_property(d, data):
    k1 = data.draw(st.integers(0, d - 1))
    l1 = data.draw(st.integers(0, d - 1))
    k2 = data.draw(st.integers(0, d - 1))
    l2 = data.draw(st.integers(0, d - 1))
    phase, idx = weyl_product_phase(WeylIndex(k1, l1, d), WeylIndex(k2, l2, d))
    product = naive_weyl_matrix(d, k1, l1) @ naive_weyl_matrix(d, k2, l2)
    assert np.allclose(product, phase.value * naive_weyl_matrix(d, idx.k, idx.l), atol=1e-12)


def test_product_phase_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        weyl_product_phase(WeylIndex(0, 0, 2), WeylIndex(0, 0, 3))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_basis_orthogonality(d):
    assert weyl_basis_check(d)


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
@pytest.mark.parametrize("lead", [(7,), (2, 3)])
def test_coefficient_table_of_a_stack_matches_per_matrix(d, lead):
    rng = np.random.default_rng(d)
    shape = (*lead, d, d)
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    tables = weyl_coefficient_table(stack)
    assert tables.shape == shape
    for idx in np.ndindex(*lead):
        assert np.abs(tables[idx] - weyl_coefficient_table(stack[idx])).max() <= 1e-13


@pytest.mark.parametrize("shape", [(3,), (4, 2, 3), (3, 3, 2)])
def test_coefficient_table_rejects_non_square(shape):
    with pytest.raises(ValueError):
        weyl_coefficient_table(np.zeros(shape))


def test_weyl_stack_is_cached_and_frozen():
    stack = weyl_stack(4)
    assert stack is weyl_stack(4)
    assert not stack.flags.writeable
    assert np.allclose(stack[2, 3], weyl_matrix(4, 2, 3))


def test_phase_exponent_normalization():
    assert PhaseExponent(-1, 3).exponent == 5
    assert PhaseExponent(7, 3).exponent == 1
    e = PhaseExponent(3, 4)
    assert abs(e.value - tau_power(4, 3)) == 0.0
    assert abs(abs(e.value) - 1.0) <= 1e-15


def test_tau_power_orders():
    # tau has order 2d for even d (tau^d = -1) and order d for odd d.
    assert tau_power(4, 4) == pytest.approx(-1.0)
    assert tau_power(3, 3) == pytest.approx(1.0)
    assert tau_power(5, 2) == pytest.approx(np.exp(2j * np.pi / 5))


def test_fourier_gate_d2_is_hadamard():
    assert np.allclose(fourier_gate(2), np.array([[1, 1], [1, -1]]) / np.sqrt(2))


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13])
def test_fourier_gate_is_clifford(d):
    f = fourier_gate(d)
    assert hs_norm(f.conj().T @ f - np.eye(d)) <= 1e-12 * d
    table = clifford_conjugation_table(f)
    assert table is not None
    # F X F^dag = Z exactly: image of (1, 0) is the (0, 1) point.
    phase, idx = table[(1, 0)]
    assert (idx.k, idx.l) == (0, 1)
    assert abs(phase.value - 1.0) <= 1e-12


def test_identity_conjugation_table_is_trivial():
    table = clifford_conjugation_table(np.eye(3, dtype=complex))
    assert table is not None
    for (k, l), (phase, idx) in table.items():
        assert phase.exponent == 0
        assert (idx.k, idx.l) == (k, l)


def test_conjugation_table_phases_snap_to_tau_lattice():
    table = clifford_conjugation_table(fourier_gate(4))
    assert table is not None
    for phase, _ in table.values():
        assert 0 <= phase.exponent < 8
        # integer-exponent representation: |tau^e| = 1 and (tau^e)^(2d) = 1
        assert abs(abs(phase.value) - 1.0) <= 1e-15
        assert abs(phase.value ** 8 - 1.0) <= 1e-12


def test_haar_unitary_is_not_clifford():
    u = haar_unitary(3, 2024)
    assert hs_norm(u.conj().T @ u - np.eye(3)) <= 1e-12
    assert clifford_conjugation_table(u) is None
    assert not is_clifford(u)


def test_conjugation_rejects_non_unitary():
    with pytest.raises(NotUnitaryError):
        clifford_conjugation_table(np.ones((2, 2), dtype=complex))


def test_weyl_index_validation():
    with pytest.raises(ValueError):
        WeylIndex(2, 0, 2)
    with pytest.raises(ValueError):
        WeylIndex(0, -1, 3)
