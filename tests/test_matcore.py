import math

import numpy as np
import pytest
from helpers import naive_psd_sqrt, oracle_random_mixed, oracle_random_pure

from stabc import (
    DensityState,
    DimensionMismatchError,
    NegativeEigenvalueError,
    NotHermitianError,
    complexity_report,
    enumerate_stabilizer_states,
    haar_unitary,
    hs_norm,
    known_fiducial,
    mix,
    psd_sqrt,
    random_mixed,
    random_pure,
)
from stabc.matcore import (
    _BLOCK_ENTRIES,
    SQRT_RANK_RCOND,
    _batch_psd_sqrt,
    _check_hermitian,
    _power_sums,
    check_dim,
    random_mixed_stack,
    random_pure_stack,
    random_pure_vectors,
    random_rank_mixed_stack,
)
from stabc.states import state_to_bloch

SQRT3_4 = np.sqrt(0.75)  # sqrt of the 0.75 eigenvalue, frozen oracle value


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


@pytest.mark.parametrize("d", [2, 3, 8])
def test_batch_psd_sqrt_matches_scalar_root(d):
    # d = 2 takes the closed form, d = 3 and 8 the stacked eigh and the
    # matrix-product rebuild.  The kernel on the stack and psd_sqrt on each
    # member must both agree with the independent eigh root, pure members
    # included.
    rng = np.random.default_rng(11)
    rhos = random_mixed_stack(d, rng.integers(1, d + 1, size=200), rng)
    roots = _batch_psd_sqrt(rhos)
    for rho, root in zip(rhos, roots):
        expected = naive_psd_sqrt(rho)
        assert np.abs(root - expected).max() <= 1e-13
        assert np.abs(psd_sqrt(DensityState(rho)) - expected).max() <= 1e-13


def _plain_qubit_root(rhos):
    # The d = 2 closed form as plain array expressions, one temporary per step.
    a, c, b = rhos[..., 0, 0].real, rhos[..., 1, 1].real, rhos[..., 1, 0]
    b2 = b.real**2 + b.imag**2
    lam_plus = 0.5 * (a + c) + np.sqrt(0.25 * (a - c) ** 2 + b2)
    lam_minus = np.divide(a * c - b2, lam_plus, out=(a + c) - lam_plus, where=lam_plus > 0)
    cut = SQRT_RANK_RCOND * lam_plus
    lam_minus = np.where(lam_minus < cut, 0.0, lam_minus)
    lam_plus = np.where(lam_plus < cut, 0.0, lam_plus)
    norm = np.sqrt(lam_plus) + np.sqrt(lam_minus)
    scale = np.divide(1.0, norm, out=np.zeros_like(norm), where=norm > 0)
    shift = np.sqrt(lam_plus * lam_minus)
    return np.stack([np.stack([(a + shift) * scale, b.conj() * scale], -1),
                     np.stack([b * scale, (c + shift) * scale], -1)], -2)


# A zero member, a dust member (l- = 1e-15 < SQRT_RANK_RCOND l+), a NaN member
# and the maximally mixed state, between random members.
QUBIT_EDGE_MEMBERS = np.array([np.zeros((2, 2)), np.diag([1.0, 1e-15]),
                               np.full((2, 2), np.nan), np.eye(2) / 2], dtype=complex)


def _qubit_stack_with_edges():
    rng = np.random.default_rng(5)
    rhos = random_mixed_stack(2, rng.integers(1, 3, size=4092), rng)
    return np.concatenate([rhos[:2000], QUBIT_EDGE_MEMBERS, rhos[2000:]])


def test_qubit_root_is_bitwise_the_plain_closed_form():
    stack = _qubit_stack_with_edges()
    assert _batch_psd_sqrt(stack).tobytes() == _plain_qubit_root(stack).tobytes()


def test_qubit_root_edge_members():
    zero, dust, nan, mixed = _batch_psd_sqrt(_qubit_stack_with_edges())[2000:2004]
    assert not zero.any()
    # The dust eigenvalue is zeroed, not rooted: sqrt(1e-15) would give 3.2e-8.
    assert np.array_equal(dust, np.diag([1.0, 1e-15]))
    assert np.isnan(nan).all()
    assert np.abs(mixed - np.eye(2) / np.sqrt(2)).max() <= 1e-16


def test_qubit_root_negative_eigenvalue_message():
    # l- = det / l+ = -0.75 / 1.5, with a healthy member before it.
    rhos = np.array([np.eye(2) / 2, np.diag([1.5, -0.5])], dtype=complex)
    with pytest.raises(NegativeEigenvalueError) as info:
        _batch_psd_sqrt(rhos)
    assert str(info.value) == "eigenvalue -5.000e-01 below tolerated floor -1.0e-10"


@pytest.mark.parametrize("d", [2, 3, 64])
def test_is_pure_accepts_pure_vectors(d):
    rng = np.random.default_rng(d)
    assert DensityState.pure(rng.standard_normal(d) + 1j * rng.standard_normal(d)).is_pure()
    assert DensityState.pure(np.eye(d)[:, d - 1]).is_pure()


def test_is_pure_accepts_stabilizer_states_and_fiducials():
    assert all(DensityState(p).is_pure() for p in enumerate_stabilizer_states(5).projectors)
    assert known_fiducial(2).projector().is_pure()
    assert known_fiducial(3).projector().is_pure()


def test_is_pure_needs_a_rank_one_root():
    # Purity 0.999999994 passes the purity test, but sqrt(3e-9) ~ 5.5e-5 is
    # a second eigenvalue of the root.
    near = DensityState(np.diag([1 - 3e-9, 3e-9, 0.0]))
    assert near.purity() >= 1.0 - 1e-8
    assert not near.is_pure()
    assert not DensityState.maximally_mixed(3).is_pure()


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


SAMPLER_DIMS = [2, 3, 4, 5, 8, 16, 64]


def _same_stream(a: np.random.Generator, b: np.random.Generator) -> bool:
    return a.random() == b.random()


@pytest.mark.parametrize("d", SAMPLER_DIMS)
def test_pure_sampler_is_bitwise_sequential_draws(d):
    n = 200 if d <= 16 else 40
    for seed in range(3):
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = np.array([oracle_random_pure(d, ref_rng).rho for _ in range(n)])
        assert np.array_equal(random_pure_stack(d, n, rng), expected)
        assert _same_stream(ref_rng, rng)
    ref_rng, rng = np.random.default_rng(7), np.random.default_rng(7)
    v = ref_rng.standard_normal(d) + 1j * ref_rng.standard_normal(d)
    assert np.array_equal(random_pure_vectors(d, 1, rng)[0], v / np.linalg.norm(v))
    assert np.array_equal(random_pure(d, 3).rho, oracle_random_pure(d, np.random.default_rng(3)).rho)


@pytest.mark.parametrize("d", SAMPLER_DIMS)
def test_mixed_samplers_are_bitwise_sequential_draws(d):
    n = 60 if d <= 16 else 12
    cycling = [(1, min(2, d), d)[i % 3] for i in range(n)]
    for ranks in (list(range(1, d + 1)), cycling):
        ref_rng, rng = np.random.default_rng(d), np.random.default_rng(d)
        expected = np.array([oracle_random_mixed(d, r, ref_rng).rho for r in ranks])
        assert np.array_equal(random_mixed_stack(d, ranks, rng), expected)
        assert _same_stream(ref_rng, rng)
    for rank in (1, d):
        assert np.array_equal(random_mixed(d, rank, 5).rho,
                              oracle_random_mixed(d, rank, np.random.default_rng(5)).rho)
    # The uniform-rank sampler draws all n ranks first, then one state per rank.
    ref_rng, rng = np.random.default_rng(d + 1), np.random.default_rng(d + 1)
    expected = np.array([random_mixed(d, rank, ref_rng).rho
                         for rank in ref_rng.integers(1, d + 1, size=n)])
    assert np.array_equal(random_rank_mixed_stack(d, n, rng), expected)
    assert _same_stream(ref_rng, rng)


@pytest.mark.parametrize("sampler", [random_pure_vectors, random_pure_stack, random_rank_mixed_stack])
def test_samplers_refuse_negative_counts(sampler):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="n must be nonnegative, got -1"):
        sampler(3, -1, rng)
    assert len(sampler(3, np.int64(0), rng)) == 0


def test_samplers_accept_empty_blocks_and_refuse_bad_ranks():
    rng = np.random.default_rng(0)
    assert random_pure_stack(3, 0, rng).shape == (0, 3, 3)
    assert random_mixed_stack(3, [], rng).shape == (0, 3, 3)
    assert random_rank_mixed_stack(3, 0, rng).shape == (0, 3, 3)
    for ranks in ([1, 4], [0, 2]):
        with pytest.raises(ValueError, match="rank must be in"):
            random_mixed_stack(3, ranks, rng)


@pytest.mark.parametrize("d", [2.5, 3.0, np.float64(3), "3", True, np.bool_(True), None])
def test_check_dim_refuses_non_integers(d):
    with pytest.raises(ValueError, match="dimension must be an integer"):
        check_dim(d)


def test_check_dim_accepts_numpy_integers():
    assert check_dim(np.int64(3)) == 3
    assert type(check_dim(np.int32(3))) is int


def test_samplers_refuse_non_integral_counts_and_ranks():
    rng = np.random.default_rng(0)
    for ranks in ([1.9, 2.2], [True, False], np.array([2.0]), ["2"]):
        with pytest.raises(ValueError, match="ranks must be integers"):
            random_mixed_stack(3, ranks, rng)
    for rank in (True, 2.0, np.float64(2), "2", [2]):
        with pytest.raises(ValueError, match="rank must be an integer"):
            random_mixed(3, rank, 0)
    for sampler in (random_pure_stack, random_pure_vectors, random_rank_mixed_stack):
        for n in (2.9, 2.0, True, "2"):
            with pytest.raises(ValueError, match="n must be an integer"):
                sampler(3, n, rng)
    # An empty rank list has a float dtype and still gives an empty stack.
    assert random_mixed_stack(3, np.array([]), rng).shape == (0, 3, 3)
    assert np.array_equal(random_mixed(3, np.int64(2), 5).rho, random_mixed(3, 2, 5).rho)
    assert random_pure_stack(3, np.int64(2), rng).shape == (2, 3, 3)


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


@pytest.fixture
def eigensolve_counts(monkeypatch):
    counts = {"eigh": 0, "eigvalsh": 0}
    for name in counts:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


@pytest.mark.parametrize("d, eighs", [(2, 0), (3, 1), (8, 1), (64, 1)])
def test_checked_report_makes_one_eigensolve(eigensolve_counts, d, eighs):
    # The constructor's eigenvalue check is the root kernel's floor check:
    # one eigh at d >= 3 (none in the closed form at d = 2), no eigvalsh.
    rho = random_mixed(d, d, 5).rho
    complexity_report(DensityState(rho))
    assert eigensolve_counts == {"eigh": eighs, "eigvalsh": 0}


def test_unchecked_state_makes_no_eigensolve(eigensolve_counts):
    DensityState(random_mixed(8, 8, 5).rho, check=False)
    assert eigensolve_counts == {"eigh": 0, "eigvalsh": 0}


def _state_with_min_eigenvalue(d, wmin):
    # Exactly Hermitian, unit trace, smallest eigenvalue wmin.
    w = np.full(d, (1.0 - wmin) / (d - 1))
    w[0] = wmin
    u = haar_unitary(d, d)
    m = (u * w) @ u.conj().T
    return (m + m.conj().T) / 2


@pytest.mark.parametrize("d", [2, 3, 64])
def test_construction_floor_is_unchanged(d):
    with pytest.raises(NegativeEigenvalueError, match="below tolerated floor"):
        DensityState(_state_with_min_eigenvalue(d, -2e-10))

    state = DensityState(_state_with_min_eigenvalue(d, -5e-11))
    root = state._sqrt
    assert root is not None and psd_sqrt(state) is root

    # The Hermitian and trace checks still run before the floor check.
    bad = _state_with_min_eigenvalue(d, -2e-10)
    bad[0, 1] += 1e-6
    with pytest.raises(NotHermitianError):
        DensityState(bad)
    with pytest.raises(ValueError, match="trace") as raised:
        DensityState(2 * _state_with_min_eigenvalue(d, -2e-10))
    assert not isinstance(raised.value, NegativeEigenvalueError)


def test_hs_norm_is_bitwise_the_numpy_norm():
    # The one-row case of _hs_norms, for complex, real, integer and bool arrays.
    rng = np.random.default_rng(7)
    for shape in [(5,), (3, 3), (8, 8), (2, 4, 3)]:
        a = rng.standard_normal(shape)
        for x in (a, a + 1j * rng.standard_normal(shape), np.rint(10 * a).astype(int), a > 0):
            assert hs_norm(x) == np.linalg.norm(x)
    assert hs_norm(np.eye(2, dtype=bool)) == math.sqrt(2)


@pytest.mark.parametrize("d", [2, 3, 8, 64])
def test_hermitian_check_reads_the_frobenius_norm(d):
    # The defect of each member is ||A - A^dag||_F from the lower triangle and
    # its mirror; the stack message carries the worst member's.
    rng = np.random.default_rng(d)
    stack = rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d))
    stack = (stack + stack.conj().swapaxes(1, 2)) / 2
    stack[2] += 1e-9 * rng.standard_normal((d, d))
    stack[4] += 3e-9j * np.eye(d)
    full = [np.linalg.norm(a - a.conj().T) for a in stack]
    with pytest.raises(NotHermitianError) as error:
        _check_hermitian(stack, "{defect!r} {tol!r}")
    defect, tol = map(float, str(error.value).split())
    assert tol == 1e-12 * d
    assert defect == pytest.approx(max(full), rel=1e-14)
    _check_hermitian(stack[[0, 1, 3]], "")
    _check_hermitian(stack[:0], "")
    for bad in (np.nan, np.inf):
        stack[1, 0, d - 1] = bad
        with pytest.raises(NotHermitianError):
            _check_hermitian(stack[:2], "")


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


@pytest.mark.parametrize("weights", [[np.nan, 1.0], [0.5, np.nan], [np.inf, 0.0], [1.0, -np.inf]])
def test_mix_refuses_non_finite_weights(weights):
    # Comparisons with NaN are False, so a NaN weight passed both weight tests
    # and was refused later by the density matrix check, which named the matrix.
    a, b = DensityState.pure([1, 0]), DensityState.pure([0, 1])
    with pytest.raises(ValueError, match="mixture weights have non-finite entries"):
        mix([a, b], weights)


# -- the one power-sum reduction ----------------------------------------------

POWER_SUM_EXPONENTS = (2, 3.5, 4, 6)


def _gaussian_stack(d, n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))


@pytest.mark.parametrize("d", [2, 3, 5, 8, 64])
def test_power_sums_agree_with_an_exact_sum(d):
    stack = _gaussian_stack(d, 4, d)
    for p in POWER_SUM_EXPONENTS:
        exact = [math.fsum(abs(complex(x)) ** p for x in member.ravel()) for member in stack]
        assert np.abs(_power_sums(stack, p) / exact - 1.0).max() <= 1e-13, p


@pytest.mark.parametrize("d", [3, 5, 7, 9, 13])
def test_power_sums_are_bitwise_the_one_row_case_at_every_position(d):
    # Odd d: the members start at every offset modulo a 4- or 8-lane vector.
    stack = _gaussian_stack(d, 1 + _BLOCK_ENTRIES // (d * d), d)
    sums = _power_sums(stack, *POWER_SUM_EXPONENTS)
    for i, member in enumerate(stack):
        one = _power_sums(member[None], *POWER_SUM_EXPONENTS)
        assert [total[i] for total in sums] == [total[0] for total in one], i
    # A fancy-indexed stack, as the purity rule's rhos[at], is its members' rows.
    at = np.arange(stack.shape[0])[::-3]
    assert all(np.array_equal(picked, total[at])
               for picked, total in zip(_power_sums(stack[at], *POWER_SUM_EXPONENTS), sums))


@pytest.mark.parametrize("d", [2, 3, 64])
def test_power_sums_of_several_exponents_are_each_their_own_call(d):
    stack = _gaussian_stack(d, 7, d)
    squares, fourths = _power_sums(stack, 2, 4)
    assert np.array_equal(squares, _power_sums(stack, 2))
    assert np.array_equal(fourths, _power_sums(stack, 4))
    assert np.array_equal(_power_sums(stack, 3.5, 2)[1], squares)


@pytest.mark.parametrize("d", [2, 3, 64])
def test_power_sums_of_an_empty_stack_are_empty(d):
    empty = np.zeros((0, d, d), dtype=complex)
    assert _power_sums(empty, 2).shape == (0,)
    assert [total.shape for total in _power_sums(empty, 2, 4, 3.5)] == [(0,)] * 3


def test_power_sums_take_any_square_stack():
    # Real entries, a strided view and a stack of stacks give the sums of
    # their complex, contiguous copies.
    stack = _gaussian_stack(4, 6, 0)
    for view in (stack.real, stack[:, ::2, ::2], stack.reshape(2, 3, 4, 4)):
        copy = np.array(view, dtype=complex)
        assert np.array_equal(_power_sums(view, 2), _power_sums(copy, 2))
        assert np.array_equal(_power_sums(view, 4), _power_sums(copy, 4))
