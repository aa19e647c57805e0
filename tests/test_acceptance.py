"""Acceptance gate: every quantitative contract of the library, one test per
criterion, each printing a PASS line with the observed extreme value.

Each criterion runs the ``stabc verify`` suite that implements its contract,
through ``run_suites`` with the criterion's own dimensions and sample count
at a fixed master seed, looks its rows up by exact check id (a missing id
fails) and asserts that every row passed and observed no more than the
criterion's tolerance.  So the gate and the CLI share one implementation of
each check.  Criterion 10 and the 5.5609 > 5.5528 numbers of criterion 9
are computed here: their suite rows assert less.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from dataclasses import replace

import numpy as np

from stabc import (
    DensityState,
    RhoPFamily,
    complexity_upper_bound,
    concavity_witness,
    pure_complexity_floor,
    rho_p_complexity_analytic,
)
from stabc.verify import run_suites

MASTER_SEED = 20240901
SHARED_DIMS = (2, 3, 4, 5)


def _announce(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def _rows(suite: str, checks: list[str], dims, samples=None) -> list[list]:
    """One list of rows per check, with ids f"{check}-d{d}" in the order of dims.

    The suite runs once; every id is looked up exactly and a missing one fails.
    """
    [(_, rows)] = run_suites([suite], dims=dims, samples=samples, seed=MASTER_SEED)
    by_id = {r.check_id: r for r in rows}
    ids = [[f"{check}-d{d}" for d in dims] for check in checks]
    missing = [i for group in ids for i in group if i not in by_id]
    assert not missing, f"suite {suite} has no rows {missing}"
    return [[by_id[i] for i in group] for group in ids]


def _within(rows: list, tol: float) -> float:
    """Assert every row passed with observed <= tol; return the largest observed."""
    for r in rows:
        assert r.passed and r.observed <= tol, r
    return max(r.observed for r in rows)


def test_criterion_01_dual_path():
    [rows] = _rows("dual-path", ["dual-path-gap"], SHARED_DIMS, samples=200)
    for d, r in zip(SHARED_DIMS, rows):
        _within([r], 1e-9 * d * d)
    _announce("criterion-01-dual-path",
              f"max |C_def - C_mom| per d: { {d: float(f'{r.observed:.3e}') for d, r in zip(SHARED_DIMS, rows)} }")


def test_criterion_02_tradeoff():
    [rows] = _rows("tradeoff", ["tradeoff-sum-defect"], SHARED_DIMS, samples=200)
    worst = _within(rows, 1e-10)
    _announce("criterion-02-tradeoff", f"max entrywise |I+J-2| = {worst:.3e} <= 1e-10")


def test_criterion_03_sqrt_table_normalization():
    [rows] = _rows("charfun", ["charfun-sqrt-table-normalization"], SHARED_DIMS, samples=200)
    worst = _within(rows, 1e-8)
    _announce("criterion-03-sqrt-normalization", f"max |sum - d| = {worst:.3e} <= 1e-8")


def test_criterion_04_extremal_values():
    # State 0 of each stabilizer set is the basis state |0>.
    dims = (2, 3, 5, 7)
    counts, floors = _rows("stabilizers", ["stabilizer-count", "stabilizer-floor-attainment"], dims)
    for d, r in zip(dims, counts):
        assert r.passed and r.observed == d * (d + 1), r
    worst = _within(floors, 1e-9)
    # The d = 2 fiducial is the T state (ceiling 8/3); the d = 3 ceiling is 7.5.
    [ceilings] = _rows("fiducials", ["fiducial-ceiling-attainment"], (2, 3))
    _within(ceilings, 1e-9)
    _announce("criterion-04-extremal-values",
              f"T/fiducial at the ceiling; all stabilizer sets within {worst:.3e} of d^2-d")


def test_criterion_05_global_bounds():
    dims = (2, 3, 5)
    checks = ["pure-floor-defect", "pure-ceiling-defect", "mixed-floor-defect",
              "mixed-ceiling-defect", "maximally-mixed-zero"]
    *defects, zeros = _rows("bounds", [f"bounds-{c}" for c in checks], dims, samples=1000)
    for rows in defects:
        _within(rows, 1e-9)
    _within(zeros, 1e-10)
    # The pure rows observe floor - min C and max C - ceiling.
    _announce("criterion-05-global-bounds", "; ".join(
        f"d={d}: pure in [{pure_complexity_floor(d) - lo.observed:.4f},"
        f"{complexity_upper_bound(d) + hi.observed:.4f}]"
        for d, lo, hi in zip(dims, defects[0], defects[1])))


def test_criterion_06_clifford_invariance():
    dims = (2, 3, 5, 7)
    tables, gaps = _rows("clifford", ["clifford-fourier-table", "clifford-invariance-gap"], dims,
                         samples=100)
    assert all(r.passed for r in tables), tables
    worst = _within(gaps, 1e-9)
    _announce("criterion-06-clifford-invariance", f"max |C(F rho F^+) - C(rho)| = {worst:.3e}")


def test_criterion_07_complementarity():
    [rows] = _rows("complementarity", ["complementarity-pure-sum-defect"], (2, 3, 5), samples=500)
    worst = _within(rows, 1e-8)
    _announce("criterion-07-complementarity", f"max |M4^4 + C - d^2| = {worst:.3e} <= 1e-8")


def test_criterion_08_qubit_closed_form():
    [(_, [row])] = run_suites(["qubit"], samples=1000, seed=MASTER_SEED)
    assert row.check_id == "qubit-closed-form-gap"
    worst = _within([row], 1e-9)
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

    checks = ["closed-form-gap", "origin-curvature-error", "expansion-quadratic",
              "near-pure-curvature-sign"]
    gaps, curvatures, expansions, edges = _rows(
        "rho-p", [f"mixing-family-{c}" for c in checks], SHARED_DIMS)
    # The closed-form rows span p = 0, 0.05, .., 1, so they include 0.9 and 0.95.
    _within(gaps, 1e-9)
    _within(curvatures, 0.01)
    _within(expansions, 1.0)
    for d, r in zip(SHARED_DIMS, edges):
        assert r.passed and np.isfinite(r.observed) and (r.observed > 0) == (d == 2), r
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
    [rows] = _rows("convexity", ["convexity-violations"], (2,), samples=100_000)
    _within(rows, 0.0)
    _announce("criterion-11-qubit-convexity", "100000 random qubit mixtures, zero violations")


def test_criterion_12_sic_certification():
    [[dev2, dev3]] = _rows("fiducials", ["fiducial-overlap-deviation"], (2, 3))
    _within([dev2, dev3], 1e-10)
    [[basis]] = _rows("fiducials", ["fiducial-basis-state-rejected"], (2,))
    assert basis.passed and basis.observed >= 0.5, basis
    _announce("criterion-12-sic-certification",
              f"deviations {dev2.observed:.2e}, {dev3.observed:.2e}; basis state dev {basis.observed:.3f}")


def test_criterion_13_weyl_algebra():
    dims = (2, 3, 4, 5, 7)
    bases, products, phases = _rows(
        "weyl", ["weyl-basis-orthogonality", "weyl-product-law-residual",
                 "weyl-phase-convention-independence"], dims)
    assert all(r.passed for r in bases), bases
    for d, r in zip(dims, products):
        _within([r], 1e-12 * d)
    _within(phases, 1e-12)
    _announce("criterion-13-weyl-algebra",
              "basis orthogonal, product law residual <= 1e-12 d, phase-convention free")
