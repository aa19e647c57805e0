import cmath

import numpy as np
import pytest
from helpers import naive_weyl_matrix, naive_weyl_stack, traced_peak_mib
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
    tau_power,
    weyl_basis_check,
    weyl_coefficient_table,
    weyl_matrix,
    weyl_product_phase,
)
from stabc import matcore, verify, weyl
from stabc.cli import main
from stabc.states import SIGMA_Y


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 16])
def test_displacement_stack_rows_are_bitwise_weyl_matrix(d):
    # Every (k, l) in one stack, in an order that is not the [k d + l] one.
    q = np.random.default_rng(d).permutation(d * d)
    ops = weyl._displacements(d, q // d, q % d)
    assert ops.shape == (d * d, d, d)
    for row, (k, l) in zip(ops, zip(q // d, q % d)):
        assert row.tobytes() == weyl_matrix(d, int(k), int(l)).tobytes()
        assert np.allclose(row, naive_weyl_matrix(d, k, l), atol=1e-13)


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


def test_weyl_matrix_rejects_out_of_range_index():
    with pytest.raises(ValueError):
        weyl_matrix(3, 3, 0)
    with pytest.raises(ValueError):
        weyl_matrix(3, 0, -1)


def _tau_power_by_python_ints(d, e):
    return cmath.exp(1j * cmath.pi * ((e * (d + 1)) % (2 * d)) / d)


@pytest.mark.parametrize("d", [3, 4, 64])
def test_tau_power_reduces_before_it_multiplies(d):
    # e (d + 1) was formed in int64 first: at d = 3, 2^62 + 5 gave
    # -0.5 + 0.866i for tau^e = 1, and 10^19 raised OverflowError.
    big = [2**62 + 5, -(2**62) - 3, 2**63 - 1, -(2**63), 10**19, -(10**30), 3**90]
    for e in big:
        assert abs(tau_power(d, e) - _tau_power_by_python_ints(d, e)) <= 1e-15
    signed = np.array([e for e in big if -(2**63) <= e < 2**63], dtype=np.int64)
    unsigned = np.array([e % 2**64 for e in big], dtype=np.uint64)  # five of them past 2^63
    for exps in (signed, unsigned):
        expected = [_tau_power_by_python_ints(d, int(e)) for e in exps]
        assert np.abs(tau_power(d, exps) - expected).max() <= 1e-15
        assert np.array_equal(tau_power(d, exps), [tau_power(d, int(e)) for e in exps])
    # Small exponents keep the bits of the unreduced product.
    small = np.arange(-2 * d, 4 * d + 1)
    before = np.exp(1j * np.pi * ((small.astype(np.int64) * (d + 1)) % (2 * d)) / d)
    assert tau_power(d, small).tobytes() == before.tobytes()
    assert all(tau_power(d, int(e)) == b for e, b in zip(small, before))
    assert tau_power(d, small.astype(np.int8)).tobytes() == before.tobytes()


def test_weyl_matrix_and_tau_power_take_integers_only():
    # A bool used to be taken as 1, a float index raised IndexError, a float
    # exponent was truncated and d = 0 returned NaN.
    for k, l in ((True, 0), (1.0, 0), (0, np.float64(2.0)), (0, "1")):
        with pytest.raises(ValueError, match="must be an integer"):
            weyl_matrix(3, k, l)
    assert np.array_equal(weyl_matrix(3, np.int64(1), np.int32(2)), weyl_matrix(3, 1, 2))
    for e in (1.5, 2.0, True, np.float64(1.0)):
        with pytest.raises(ValueError, match="exponent must be an integer"):
            tau_power(3, e)
    for e in (np.array([1.0, 2.0]), [1, 2.5], np.array([True, False])):
        with pytest.raises(ValueError, match="exponents must be integers"):
            tau_power(3, e)
    for d in (0, 1, 3.0):
        with pytest.raises(ValueError, match="dimension"):
            tau_power(d, 1)
    assert tau_power(3, np.int64(4)) == tau_power(3, 4)
    assert np.array_equal(tau_power(3, np.arange(6, dtype=np.int32)), tau_power(3, np.arange(6)))


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
    assert phase.exponent == 2  # -1 mod 3, the order of tau at d = 3
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
                    # tau has order d at odd d, so the exponent is stored mod d.
                    assert phase.exponent == (l1 * k2 - k1 * l2) % d


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


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
def test_product_phase_is_the_stacked_law_row(d):
    # The whole d^4 walk in one stacked call, against the scalar API per quadruple;
    # the stacked exponent is mod 2d, the scalar one mod the order of tau.
    k1, l1, k2, l2 = np.indices((d,) * 4).reshape(4, -1)
    e, k, l = weyl._product_law(d, k1, l1, k2, l2)
    order = d if d % 2 else 2 * d
    for row in range(d**4):
        phase, idx = weyl_product_phase(WeylIndex(int(k1[row]), int(l1[row]), d),
                                        WeylIndex(int(k2[row]), int(l2[row]), d))
        assert (phase.exponent, idx.k, idx.l) == (e[row] % order, k[row], l[row])


def test_product_phase_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        weyl_product_phase(WeylIndex(0, 0, 2), WeylIndex(0, 0, 3))


@pytest.mark.parametrize("d", range(2, 65))
def test_basis_orthogonality(d):
    assert weyl_basis_check(d)


@pytest.mark.parametrize("d", [2, 5, 12, 16, 64])
def test_basis_check_does_not_depend_on_block_size(monkeypatch, d):
    # One operator per block, then every operator in one block.
    for entries in (d * d, 2**20):
        monkeypatch.setattr(matcore, "_BLOCK_ENTRIES", entries)
        assert weyl_basis_check(d)


@pytest.mark.parametrize("d", [2, 12, 64])
def test_basis_check_builds_each_operator_once_shift_by_shift(monkeypatch, d):
    kernel = weyl._displacements
    requests = []  # the (k, l) of each stack asked for, in order

    def recorded(d, k, l):
        requests.append(list(zip(k.tolist(), l.tolist())))
        return kernel(d, k, l)

    monkeypatch.setattr(weyl, "_displacements", recorded)
    for entries in (d * d, matcore._BLOCK_ENTRIES, 2**20):
        monkeypatch.setattr(matcore, "_BLOCK_ENTRIES", entries)
        requests.clear()
        assert weyl_basis_check(d)
        assert [kl for request in requests for kl in request] == [
            (k, l) for k in range(d) for l in range(d)]
        assert max(map(len, requests)) <= len(next(matcore._blocks(d, d)))


# Each defect damages column 0 of one D(k, l), whose support there is row k.
def _wrong_phase(m, k, d):
    m[k % d, 0] *= 1j


def _stray_entry(m, k, d):
    m[(k + 1) % d, 0] = 1e-3  # off the support of column 0


def _wrong_row(m, k, d):
    m[(k + 1) % d, 0], m[k % d, 0] = m[k % d, 0], 0


def _nan_entry(m, k, d):
    m[k % d, 0] = np.nan


def _damage_one_operator(monkeypatch, defect, k, l):
    writer = weyl._displacements

    def damaged(d, ks, ls):
        ops = writer(d, ks, ls)
        for row in np.flatnonzero((ks == k) & (ls == l)):
            defect(ops[row], k, d)
        return ops

    monkeypatch.setattr(weyl, "_displacements", damaged)


@pytest.mark.parametrize("defect", [_wrong_phase, _stray_entry, _wrong_row, _nan_entry])
def test_basis_check_sees_one_bad_entry(monkeypatch, capsys, defect):
    _damage_one_operator(monkeypatch, defect, 1, 1)
    for d in (2, 3, 4, 7):
        assert not weyl_basis_check(d)
    assert main(["verify", "weyl", "--d", "3"]) == 1
    failed = [line.split()[1] for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
    assert failed == ["weyl-basis-orthogonality-d3"]


@pytest.mark.parametrize("defect", [_wrong_phase, _stray_entry, _wrong_row, _nan_entry])
@pytest.mark.parametrize("d, k, l", [(12, 1, 1), (12, 9, 2), (12, 9, 10), (12, 11, 11),
                                     (64, 1, 1), (64, 40, 37), (64, 63, 63)])
def test_blocked_basis_check_sees_one_bad_entry(monkeypatch, defect, d, k, l):
    # At d = 12 the default blocks hold 113 operators, more than a shift's
    # 12, so each shift is walked in one block: (9, 2) and (9, 10) share
    # shift 9's, and with one operator per block they sit in blocks of their
    # own.  At d = 64 every shift spans 16 blocks of 4.
    assert next(matcore._blocks(144, 12)) == range(0, 113)
    _damage_one_operator(monkeypatch, defect, k, l)
    assert not weyl_basis_check(d)
    for entries in (d * d, 2**20):
        monkeypatch.setattr(matcore, "_BLOCK_ENTRIES", entries)
        assert not weyl_basis_check(d)


def test_basis_check_holds_one_block():
    # Only a block of operators (4 at d = 64, 256 KiB) and the d phase
    # vectors of the shift in progress outlive a step; the whole-shift walk
    # held 64 operators (4 MiB, a 4.25 MiB traced peak).
    weyl_basis_check(64)  # builds the per-d constants
    ok, peak = traced_peak_mib(lambda: weyl_basis_check(64))
    assert ok and peak < 1


def test_weyl_suite_holds_no_operator_stack():
    # The d = 64 suite once held all d^2 operators (268 MB) and their
    # 4096 x 4096 Gram matrix, with a traced peak above 900 MiB, then one
    # shift's 64 operators (4.3 MiB); it now holds one block of the block
    # rule at a time (0.8 MiB).
    rows, peak = traced_peak_mib(lambda: verify.suite_weyl(dims=[64], seed=0))
    assert all(r.passed for r in rows)
    assert peak < 2


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


def test_phase_exponent_normalization():
    assert PhaseExponent(-1, 3).exponent == 2
    assert PhaseExponent(7, 3).exponent == 1
    e = PhaseExponent(3, 4)
    assert abs(e.value - tau_power(4, 3)) == 0.0
    assert abs(abs(e.value) - 1.0) <= 1e-15


@pytest.mark.parametrize("d", [3, 4])
def test_equal_phases_compare_and_hash_equal(d):
    # tau has order d at odd d and 2d at even d: at d = 3, e and e + 3 are one
    # phase; at d = 4, tau^4 = -1, so e and e + 4 are not.
    exponents = range(-3 * d, 3 * d)
    for e1 in exponents:
        a = PhaseExponent(e1, d)
        assert a.value == tau_power(d, e1)  # bitwise the unreduced phase
        for e2 in exponents:
            b = PhaseExponent(e2, d)
            same_phase = abs(tau_power(d, e1) - tau_power(d, e2)) <= 1e-12
            assert (a == b) is same_phase
            if same_phase:
                assert hash(a) == hash(b)
    assert PhaseExponent(3, 3) == PhaseExponent(0, 3)
    assert PhaseExponent(4, 4) != PhaseExponent(0, 4)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_product_phase_exponents_lie_below_d_at_odd_d(d):
    # The group law's raw exponent runs over 0..2d-1; the phase it returns
    # is the one the Clifford table snaps to, with an exponent in [0, d).
    exponents = {weyl_product_phase(WeylIndex(k1, l1, d), WeylIndex(k2, l2, d))[0].exponent
                 for k1, l1, k2, l2 in np.ndindex(d, d, d, d)}
    assert exponents == set(range(d))
    table = clifford_conjugation_table(fourier_gate(d))
    assert all(0 <= phase.exponent < d for phase, _ in table.values())


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


def _phase_gate(d):
    # P = diag(tau^(j^2)), from the explicit tau.
    return np.diag((-np.exp(1j * np.pi / d)) ** (np.arange(d) ** 2))


def _reference_conjugation_table(u):
    # One operator at a time from explicit matrix powers: conjugate, project onto
    # every D(s, t) by tr(D(s,t)^dag image), take the one overlap of modulus d
    # and the least e with tau^e at its phase (tau^d = 1 at odd d, so e and
    # e + d are both nearest there).
    d = u.shape[0]
    basis = naive_weyl_stack(d).reshape(d * d, d, d)
    lattice = (-np.exp(1j * np.pi / d)) ** np.arange(2 * d)
    table = {}
    for k in range(d):
        for l in range(d):
            image = u @ naive_weyl_matrix(d, k, l) @ u.conj().T
            overlaps = np.einsum("nij,ij->n", basis.conj(), image)
            (hit,) = np.flatnonzero(np.abs(np.abs(overlaps) - d) <= 1e-8 * d)
            e = int(np.flatnonzero(np.abs(lattice - overlaps[hit] / d) <= 1e-6)[0])
            table[(k, l)] = (e, divmod(int(hit), d))
    return table


def _plain(table):
    return {key: (phase.exponent, (index.k, index.l)) for key, (phase, index) in table.items()}


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 16])
@pytest.mark.parametrize("gate", ["fourier", "phase", "identity"])
def test_conjugation_table_matches_per_operator_reference(d, gate):
    u = {"fourier": fourier_gate, "phase": _phase_gate,
         "identity": lambda d: np.eye(d, dtype=complex)}[gate](d)
    table = clifford_conjugation_table(u)
    assert table is not None
    assert list(table) == [(k, l) for k in range(d) for l in range(d)]
    assert _plain(table) == _reference_conjugation_table(u)
    for (phase, index) in table.values():
        assert type(phase.exponent) is int and phase.dim == d
        assert type(index.k) is int and type(index.l) is int and index.dim == d


@pytest.mark.parametrize("d", [2, 5, 16])
def test_conjugation_table_does_not_depend_on_block_size(monkeypatch, d):
    # One operator per block, then every operator in one block.
    u = _phase_gate(d) @ fourier_gate(d)
    default = clifford_conjugation_table(u)
    assert default is not None
    for entries in (d * d, 2**20):
        monkeypatch.setattr(matcore, "_BLOCK_ENTRIES", entries)
        table = clifford_conjugation_table(u)
        assert table == default and list(table) == list(default)


def test_haar_unitary_is_not_clifford_at_the_cap():
    # d = 64: 1,024 blocks of 4 operators; the first block already has no hit.
    assert clifford_conjugation_table(haar_unitary(64, 2024)) is None


def test_conjugation_table_refuses_a_phase_off_the_lattice(monkeypatch):
    # Every image of F hits one operator; a negative tolerance rejects every snapped phase.
    monkeypatch.setattr(weyl, "_PHASE_SNAP_TOL", -1.0)
    assert clifford_conjugation_table(fourier_gate(3)) is None


def test_conjugation_rejects_non_unitary():
    with pytest.raises(NotUnitaryError):
        clifford_conjugation_table(np.ones((2, 2), dtype=complex))


def test_conjugation_rejects_non_finite():
    with pytest.raises(NotUnitaryError):
        clifford_conjugation_table(np.full((2, 2), np.nan, dtype=complex))


def test_weyl_index_validation():
    with pytest.raises(ValueError):
        WeylIndex(2, 0, 2)
    with pytest.raises(ValueError):
        WeylIndex(0, -1, 3)
    for k, l, d in ((1.5, 0, 3), (0, True, 3), (0, "1", 3), (0, 0, 3.0)):
        with pytest.raises(ValueError, match="must be an integer"):
            WeylIndex(k, l, d)
    assert WeylIndex(np.int64(1), 0, 3) == WeylIndex(1, 0, 3)
    with pytest.raises(ValueError, match="exponent must be an integer"):
        PhaseExponent(1.5, 3)
    assert PhaseExponent(np.int64(7), 3) == PhaseExponent(1, 3)
