"""Acceptance gate: every quantitative contract of the library, one test per
criterion, each printing a PASS line with the observed extreme value.

Run with ``pytest tests/test_acceptance.py -v -s`` (or via ``stabc verify all``
for the CLI flavor of the same checks).
"""

import numpy as np
import pytest
from dataclasses import replace
from helpers import naive_weyl_stack

from stabc import (
    DensityState,
    RhoPFamily,
    batch_complexity,
    bloch_to_state,
    BlochVector,
    certify_fiducial,
    clifford_conjugation_table,
    complexity_by_moments,
    complexity_report,
    complexity_upper_bound,
    concavity_witness,
    convexity_scan,
    char_table,
    enumerate_stabilizer_states,
    fourier_gate,
    hs_norm,
    known_fiducial,
    psd_sqrt,
    pure_complexity_floor,
    qubit_complexity,
    random_mixed,
    random_pure,
    rho_p_complexity_analytic,
    rho_p_expansion_residual,
    rho_p_second_derivative,
    rho_p_state,
    sqrt_char_table,
    weyl_basis_check,
    weyl_matrix,
    weyl_product_phase,
    WeylIndex,
)

MASTER_SEED = 20240901
SHARED_DIMS = (2, 3, 4, 5)
SHARED_SAMPLES = 200


def _announce(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def _rng(code: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([MASTER_SEED, code]))


@pytest.fixture(scope="module")
def shared_sample():
    """200 states per dimension (pure, rank-2, full-rank cycle) with reports."""
    rng = _rng(0)
    sample = {}
    for d in SHARED_DIMS:
        states = []
        for i in range(SHARED_SAMPLES):
            rank = (1, min(2, d), d)[i % 3]
            states.append(random_mixed(d, rank, rng))
        sample[d] = [(s, complexity_report(s)) for s in states]
    return sample


def test_criterion_01_dual_path(shared_sample):
    worst = {}
    for d, pairs in shared_sample.items():
        gap = max(abs(rep.c_via_definition - rep.c_via_moments) for _, rep in pairs)
        assert gap <= 1e-9 * d * d, f"d={d}: dual-path gap {gap}"
        worst[d] = gap
    _announce("criterion-01-dual-path",
              f"max |C_def - C_mom| per d: {  {d: float(f'{g:.3e}') for d, g in worst.items()} }")


def test_criterion_02_tradeoff(shared_sample):
    worst = 0.0
    for d, pairs in shared_sample.items():
        for _, rep in pairs:
            defect = float(np.abs(rep.jordan_table + rep.lie_table - 2.0).max())
            assert defect <= 1e-10, f"d={d}: trade-off defect {defect}"
            worst = max(worst, defect)
    _announce("criterion-02-tradeoff", f"max entrywise |I+J-2| = {worst:.3e} <= 1e-10")


def test_criterion_03_sqrt_table_normalization(shared_sample):
    worst = 0.0
    for d, pairs in shared_sample.items():
        for state, _ in pairs:
            total = float(np.sum(np.abs(sqrt_char_table(state).values) ** 2))
            assert abs(total - d) <= 1e-8, f"d={d}: sum |c|^2 = {total}"
            worst = max(worst, abs(total - d))
    _announce("criterion-03-sqrt-normalization", f"max |sum - d| = {worst:.3e} <= 1e-8")


def test_criterion_04_extremal_values():
    for d in (2, 3, 5, 7):
        c = complexity_by_moments(DensityState.pure(np.eye(d, dtype=complex)[:, 0]))
        assert abs(c - (d * d - d)) <= 1e-9, f"basis state at d={d}: {c}"

    t_state = bloch_to_state(BlochVector(*(np.ones(3) / np.sqrt(3))))
    assert abs(complexity_by_moments(t_state) - 8 / 3) <= 1e-9

    fid3 = known_fiducial(3)
    assert abs(complexity_by_moments(fid3.projector()) - 7.5) <= 1e-9

    worst = 0.0
    for d in (2, 3, 5):
        group = enumerate_stabilizer_states(d)
        assert len(group.states) == d * (d + 1)
        for s in group.states:
            gap = abs(complexity_by_moments(s) - (d * d - d))
            assert gap <= 1e-9
            worst = max(worst, gap)
    _announce("criterion-04-extremal-values",
              f"basis/T/fiducial exact; all stabilizer sets within {worst:.3e} of d^2-d")


def test_criterion_05_global_bounds():
    rng = _rng(5)
    summary = []
    for d in (2, 3, 5):
        pure = np.stack([random_pure(d, rng).rho for _ in range(1000)])
        c_pure = batch_complexity(pure)
        floor, ceiling = pure_complexity_floor(d), complexity_upper_bound(d)
        assert float((floor - c_pure).max()) <= 1e-9
        assert float((c_pure - ceiling).max()) <= 1e-9

        mixed = np.stack(
            [random_mixed(d, int(rng.integers(1, d + 1)), rng).rho for _ in range(1000)]
        )
        c_mixed = batch_complexity(mixed)
        assert float(c_mixed.min()) >= -1e-9
        assert float((c_mixed - ceiling).max()) <= 1e-9

        c_mm = complexity_by_moments(DensityState.maximally_mixed(d))
        assert abs(c_mm) <= 1e-10
        summary.append(f"d={d}: pure in [{c_pure.min():.4f},{c_pure.max():.4f}]")
    _announce("criterion-05-global-bounds", "; ".join(summary))


def test_criterion_06_clifford_invariance():
    rng = _rng(6)
    worst = 0.0
    for d in (2, 3, 5, 7):
        f = fourier_gate(d)
        assert clifford_conjugation_table(f) is not None
        for i in range(100):
            rank = (1, min(2, d), d)[i % 3]
            state = random_mixed(d, rank, rng)
            rotated = DensityState(f @ state.rho @ f.conj().T, check=False)
            gap = abs(complexity_by_moments(rotated) - complexity_by_moments(state))
            assert gap <= 1e-9, f"d={d}: invariance gap {gap}"
            worst = max(worst, gap)
    _announce("criterion-06-clifford-invariance", f"max |C(F rho F^+) - C(rho)| = {worst:.3e}")


def test_criterion_07_complementarity():
    rng = _rng(7)
    worst = 0.0
    for d in (2, 3, 5):
        for _ in range(500):
            state = random_pure(d, rng)
            m4_fourth = float(np.sum(np.abs(char_table(state).values) ** 4))
            defect = abs(m4_fourth + complexity_by_moments(state) - d * d)
            assert defect <= 1e-8, f"d={d}: complementarity defect {defect}"
            worst = max(worst, defect)
    _announce("criterion-07-complementarity", f"max |M4^4 + C - d^2| = {worst:.3e} <= 1e-8")


def test_criterion_08_qubit_closed_form():
    rng = _rng(8)
    worst = 0.0
    for i in range(1000):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        radius = 1.0 if i % 2 == 0 else float(rng.uniform() ** (1 / 3))
        b = BlochVector(*(radius * direction))
        gap = abs(complexity_by_moments(bloch_to_state(b)) - qubit_complexity(b))
        assert gap <= 1e-9, f"closed-form gap {gap} at {b}"
        worst = max(worst, gap)
    _announce("criterion-08-qubit-closed-form", f"max gap = {worst:.3e} <= 1e-9 over 1000 vectors")


def test_criterion_09_mixing_family_numbers():
    psi3 = DensityState.pure(np.eye(3, dtype=complex)[:, 0])
    fam3 = RhoPFamily(psi3, 0.95)
    c95 = rho_p_complexity_analytic(fam3, 6.0)
    c90 = rho_p_complexity_analytic(replace(fam3, p=0.9), 6.0)
    mean = 0.5 * (c90 + 6.0)
    assert abs(c95 - 5.5609) <= 5e-4
    assert abs(mean - 5.5528) <= 5e-4
    assert c95 - mean > 0
    # the generic eigen route reproduces the closed form at both points
    assert abs(complexity_by_moments(rho_p_state(fam3)) - c95) <= 1e-9
    assert abs(complexity_by_moments(rho_p_state(replace(fam3, p=0.9))) - c90) <= 1e-9

    for d in (2, 3, 4, 5):
        fam = RhoPFamily(DensityState.pure(np.eye(d, dtype=complex)[:, 0]), 0.5)
        target = d * d * (d - 1)
        curv = rho_p_second_derivative(fam, 0.001, 1e-4)
        assert abs(curv - target) / target <= 0.01, f"d={d}: origin curvature {curv}"

        eps = 1e-2
        while eps > 1.2e-4:
            ratio = rho_p_expansion_residual(fam, eps) / rho_p_expansion_residual(fam, eps / 2)
            assert abs(ratio - 4.0) <= 1.0, f"d={d}, eps={eps}: ratio {ratio}"
            eps /= 2

        edge = rho_p_second_derivative(fam, 1.0 - 1e-4, 5e-5)
        if d == 2:
            assert np.isfinite(edge) and edge > 0.0
        else:
            assert edge < 0.0
    _announce("criterion-09-mixing-family",
              f"witness {c95:.4f} > {mean:.4f}; curvature, expansion and edge signs verified")


def test_criterion_10_nonconcavity():
    for d in (2, 3, 5):
        lhs, rhs = concavity_witness(d)
        assert abs(lhs) <= 1e-10
        assert abs(rhs - (d * d - d)) <= 1e-9
        assert lhs < rhs
    _announce("criterion-10-nonconcavity", "C(1/d) = 0 < d^2-d mean over projectors, d in {2,3,5}")


def test_criterion_11_qubit_convexity_scan():
    violations = convexity_scan(2, 100_000, np.random.SeedSequence([MASTER_SEED, 11]))
    assert violations == []
    _announce("criterion-11-qubit-convexity", "100000 random qubit mixtures, zero violations")


def test_criterion_12_sic_certification():
    fid2 = known_fiducial(2)
    fid3 = known_fiducial(3)
    assert fid2.certified and fid2.max_deviation <= 1e-10
    assert fid3.certified and fid3.max_deviation <= 1e-10
    certified, deviation = certify_fiducial(np.array([1.0, 0.0], dtype=complex))
    assert not certified and deviation >= 0.5
    _announce("criterion-12-sic-certification",
              f"deviations {fid2.max_deviation:.2e}, {fid3.max_deviation:.2e}; basis state dev {deviation:.3f}")


def test_criterion_13_weyl_algebra():
    for d in (2, 3, 4, 5, 7):
        assert weyl_basis_check(d)

    worst = 0.0
    for d in (2, 3, 4, 5):
        for k1 in range(d):
            for l1 in range(d):
                left = weyl_matrix(d, k1, l1)
                for k2 in range(d):
                    for l2 in range(d):
                        phase, idx = weyl_product_phase(
                            WeylIndex(k1, l1, d), WeylIndex(k2, l2, d)
                        )
                        resid = hs_norm(
                            left @ weyl_matrix(d, k2, l2)
                            - phase.value * weyl_matrix(d, idx.k, idx.l)
                        )
                        assert resid <= 1e-12 * d
                        worst = max(worst, resid)

    rng = _rng(13)
    for d in (2, 3, 5):
        state = random_mixed(d, d, rng)
        base = complexity_by_moments(state)
        phases = np.exp(2j * np.pi * rng.uniform(size=(d, d)))
        table = np.einsum("klij,ji->kl", naive_weyl_stack(d), psd_sqrt(state)) * phases
        rephased = d * d - float(np.sum(np.abs(table) ** 4))
        assert abs(rephased - base) <= 1e-12
    _announce("criterion-13-weyl-algebra",
              f"basis orthogonal, product law residual <= {worst:.3e}, phase-convention free")
