"""Work-shape guards on the verify suites, ``stabc extremal`` and ``stabc sweep``:
how often they call the state samplers, the root kernel, the report kernel and
the Weyl operator builder, how much memory the blocked ones hold; and the
dimensions every suite accepts."""

import inspect

import numpy as np
import pytest
from helpers import count_calls, traced_peak_mib

from stabc import charfun, cli, complexity, matcore, states, verify, weyl

SAMPLERS = ("random_pure", "random_mixed", "random_pure_stack", "random_mixed_stack",
            "random_rank_mixed_stack")


@pytest.mark.parametrize("suite", ["bounds", "charfun", "complementarity", "stabilizers",
                                   "tradeoff", "dual-path", "clifford"])
def test_suites_draw_samples_per_block_not_per_state(monkeypatch, suite):
    # 40 samples per dimension: a per-state draw would make at least 40 calls
    # per dimension.  Blocks take at most 3 calls per dimension, plus the
    # clifford suite's Haar control of at most 16 single draws.
    calls = [0]
    for name in SAMPLERS:
        count_calls(monkeypatch, [verify], name, calls)
    dims = (2, 3)
    rows = verify.SUITES[suite](dims=dims, samples=40, seed=0)
    assert rows and all(r.passed for r in rows), rows
    assert 1 <= calls[0] <= 17 * len(dims)


@pytest.mark.parametrize("suite", ["charfun", "complementarity", "qubit", "dual-path", "clifford",
                                   "tradeoff"])
def test_suites_evaluate_samples_per_block_not_per_state(monkeypatch, suite):
    # Doubling the samples must not add calls of the root kernel or of the
    # table kernel: each block is one stacked call, however many states it holds.
    dims = (2,) if suite == "qubit" else (2, 3)
    calls = {}
    for samples in (40, 80):
        roots, tables = [0], [0]
        with monkeypatch.context() as patch:
            count_calls(patch, [matcore, complexity], "_batch_psd_sqrt", roots)
            count_calls(patch, [weyl, charfun, states], "weyl_coefficient_table", tables)
            rows = verify.SUITES[suite](dims=dims, samples=samples, seed=0)
        assert rows and all(r.passed for r in rows), rows
        calls[samples] = (roots[0], tables[0])
    assert calls[40] == calls[80]
    assert calls[40][0] >= 1


def test_tradeoff_suite_reports_each_block_in_one_call(monkeypatch):
    tables, reports = [0], [0]
    count_calls(monkeypatch, [complexity, verify], "_definition_tables", tables)
    count_calls(monkeypatch, [complexity, cli], "complexity_report", reports)
    dims = (2, 3)
    rows = verify.suite_tradeoff(dims=dims, samples=40, seed=0)
    assert rows and all(r.passed for r in rows), rows
    assert tables[0] == len(dims) and reports[0] == 0


def test_tradeoff_gap_row_fails_tables_transposed_in_both_forms(monkeypatch):
    # k <-> l made alike in the trace and norm forms passes the definition
    # route's own cross-check, the route gap and the sum row (C is unchanged);
    # only the tables from explicit operators see it.
    tables = complexity._definition_tables
    monkeypatch.setattr(complexity, "_definition_tables",
                        lambda roots: tuple(t.swapaxes(1, 2) for t in tables(roots)))
    rows = verify.suite_tradeoff(samples=20, seed=0)
    assert [r.passed for r in rows] == [True, False] * len(verify.DEFAULT_DIMS), rows
    assert min(r.observed for r in rows[1::2]) > 0.1


@pytest.mark.parametrize("suite", [verify.suite_tradeoff, verify.suite_dual_path,
                                   verify.suite_bounds, verify.suite_complementarity,
                                   verify.suite_charfun, verify.suite_clifford])
def test_report_suites_hold_one_block_at_a_time(suite):
    # At d = 64 a block holds 4 states (2.8 MiB traced for tradeoff).  The whole
    # 40-state stack and its tables peaked at 25 MiB (tradeoff), 22.5 (dual-path),
    # 10.1 (bounds and complementarity), 11.4 (charfun) and 21.4 (clifford).
    # charfun's fixed 20-state collapse row alone takes about 6 MiB.
    suite(dims=[64], samples=1, seed=0)  # builds the per-d constants
    rows, peak = traced_peak_mib(lambda: suite(dims=[64], samples=40, seed=0))
    assert rows and all(r.passed for r in rows), rows
    assert peak < (8 if suite is verify.suite_charfun else 6)


def test_sampled_rows_keep_a_running_max_not_every_value():
    # 200,000 samples at d = 2: holding every member's C and its four defect
    # arrays peaked at 9.2 MiB traced; one block's arrays take about 1.2 MiB.
    verify.suite_bounds(dims=[2], samples=1, seed=0)  # builds the per-d constants
    rows, peak = traced_peak_mib(lambda: verify.suite_bounds(dims=[2], samples=200_000, seed=0))
    assert rows and all(r.passed for r in rows), rows
    assert peak < 2.5


def test_moment4_bracket_row_fails_on_a_nan_moment(monkeypatch):
    # max(0.0, nan) is 0.0, so the row once passed a NaN moment.
    monkeypatch.setattr(verify, "_lp_moments", lambda tables, p: np.full(len(tables), np.nan))
    failed = [r.check_id for r in verify.suite_charfun(dims=[2], samples=3) if not r.passed]
    assert failed == ["charfun-pure-moment4-bracket-d2"]


def _nan_at_call(function, call):
    """``function``, but its ``call``-th call (from 1) returns NaN in the shape of its value."""
    calls = [0]

    def planted(*args, **kwargs):
        calls[0] += 1
        value = function(*args, **kwargs)
        return np.full_like(value, np.nan) if calls[0] == call else value
    return planted


def test_charfun_roundtrip_row_fails_on_a_nan_residual(monkeypatch):
    # The second of 8 round trips: Python's max(0.0 or a residual, nan) dropped it.
    monkeypatch.setattr(verify, "reconstruct", _nan_at_call(verify.reconstruct, 2))
    failed = [r.check_id for r in verify.suite_charfun(dims=[2], samples=3) if not r.passed]
    assert failed == ["charfun-roundtrip-d2"]


def test_charfun_parseval_row_fails_on_a_nan_table(monkeypatch):
    # Calls 1-8 are the round trips; call 10 takes the second Parseval table of a NaN matrix.
    planted = _nan_at_call(lambda a: a, 10)
    monkeypatch.setattr(verify, "char_table", lambda a: charfun.char_table(planted(a)))
    failed = [r.check_id for r in verify.suite_charfun(dims=[2], samples=3) if not r.passed]
    assert failed == ["charfun-parseval-d2"]


def test_rho_p_expansion_row_fails_on_a_nan_ratio(monkeypatch):
    # The first two halving ratios are finite, the later ones NaN.
    residual = verify.rho_p_expansion_residual
    monkeypatch.setattr(verify, "rho_p_expansion_residual",
                        lambda fam, eps: residual(fam, eps) if eps > 2e-3 else np.nan)
    failed = [r.check_id for r in verify.suite_rho_p(dims=[2]) if not r.passed]
    assert failed == ["mixing-family-expansion-quadratic-d2"]


def test_clifford_generic_unitary_row_fails_on_a_nan_gap(monkeypatch):
    # The first draw's C is NaN and the second draw moves the value past
    # 1e-3: the loop goes on as before and stops there, but the row fails.
    monkeypatch.setattr(verify, "complexity_by_moments",
                        _nan_at_call(verify.complexity_by_moments, 1))
    rows = verify.suite_clifford(dims=[2], samples=3)
    failed = [r for r in rows if not r.passed]
    assert [r.check_id for r in failed] == ["clifford-generic-unitary-moves-value-d2"]
    assert np.isnan(failed[0].observed)


@pytest.mark.parametrize("suite", ["charfun", "tradeoff", "dual-path", "clifford",
                                   "complementarity", "qubit", "stabilizers", "bounds"])
def test_sampled_rows_do_not_depend_on_block_size(monkeypatch, suite):
    # 64 entries cut 40 samples into blocks of 16 members at d = 2 and of 2 at
    # d = 5, where the default rule makes one block.  The bounds suite's mixed
    # ensemble draws its ranks per block, and the next dimension's draws follow
    # them, so bounds runs one dimension at a time without its mixed rows.
    dims = [(2,)] if suite == "qubit" else [(2,), (3,), (5,)] if suite == "bounds" else [(2, 3, 5)]

    def observed():
        rows = [r for ds in dims
                for _, suite_rows in verify.run_suites([suite], dims=ds, samples=40, seed=3)
                for r in suite_rows]
        return {r.check_id: r.observed.hex() for r in rows
                if not r.check_id.startswith("bounds-mixed")}

    default = observed()
    monkeypatch.setattr(matcore, "_BLOCK_ENTRIES", 64)
    assert len(list(matcore._blocks(40, 5))) == 20
    assert observed() == default


@pytest.mark.parametrize("d, blocks", [(3, 1), (16, 2), (64, 26)])
def test_sweep_reports_each_block_in_one_call(monkeypatch, capsys, d, blocks):
    # 101 grid points: one report for the anchor, then one _reports call per
    # block of 1,820, 64 or 4 members, not one report per point.
    anchors, reports = [0], [0]
    count_calls(monkeypatch, [complexity, cli], "complexity_report", anchors)
    count_calls(monkeypatch, [cli], "_reports", reports)
    assert cli.main(["sweep", "--d", str(d), "--steps", "101"]) == 0
    capsys.readouterr()
    assert anchors[0] == 1 and reports[0] == blocks


def test_reports_are_built_by_complexity_report_alone(monkeypatch, capsys):
    # _reports hands its callers columns.  The sweep builds one report, its
    # anchor's; extremal at d = 13 (no built-in fiducial) and the tradeoff
    # suite read the columns and build none.  One report per member built
    # 102, 182 and 800.
    built, one_rows = [0], [0]
    count_calls(monkeypatch, [complexity], "ComplexityReport", built)
    count_calls(monkeypatch, [complexity, cli], "complexity_report", one_rows)

    def counts(call):
        built[0] = one_rows[0] = 0
        call()
        capsys.readouterr()
        return built[0], one_rows[0]

    assert counts(lambda: cli.main(["sweep", "--d", "16", "--steps", "101"])) == (1, 1)
    assert counts(lambda: cli.main(["extremal", "--d", "13"])) == (0, 0)
    assert counts(lambda: verify.suite_tradeoff()) == (0, 0)
    assert counts(lambda: complexity.complexity_report(matcore.random_mixed(3, 2, 0))) == (1, 1)


def test_sweep_holds_one_block_at_a_time(capsys):
    # 3.0 MiB traced at d = 64, one block of 4 members; the whole 101-member
    # grid as one stack held 63 MiB.  The per-point loop before the block rule
    # held 0.9 MiB, so this bound guards the rule, it does not pin a saving.
    assert cli.main(["sweep", "--d", "64", "--steps", "2"]) == 0  # builds the per-d constants
    code, peak = traced_peak_mib(lambda: cli.main(["sweep", "--d", "64", "--steps", "101"]))
    capsys.readouterr()
    assert code == 0 and peak < 6


@pytest.mark.parametrize("suite, most", [("stabilizers", 2), ("fiducials", 1), ("rho-p", 4)])
def test_deterministic_suites_take_a_fixed_number_of_roots_per_dimension(monkeypatch, suite, most):
    # The stabilizer states, the fiducial's orbit and the family members are
    # one stack each, so the count does not grow with d.
    counts = set()
    for d in (2, 3, 5, 7):
        roots = [0]
        with monkeypatch.context() as patch:
            count_calls(patch, [matcore, complexity], "_batch_psd_sqrt", roots)
            try:
                [(_, rows)] = verify.run_suites([suite], dims=[d], seed=0)
            except ValueError:  # no built-in fiducial
                continue
        assert rows and all(r.passed for r in rows), rows
        counts.add(roots[0])
    assert len(counts) == 1 and 1 <= counts.pop() <= most


@pytest.mark.parametrize("d, blocks, fiducial", [(3, 1, 1), (5, 1, 0), (13, 2, 0)])
def test_extremal_reports_each_block_in_one_call(monkeypatch, capsys, d, blocks, fiducial):
    # 12, 30 and 182 stabilizer states in blocks of 1,820, 655 and 96, one
    # _reports call per block; the fiducial's report is one more root and table.
    reports, roots, tables = [0], [0], [0]
    count_calls(monkeypatch, [cli], "_reports", reports)
    count_calls(monkeypatch, [matcore, complexity], "_batch_psd_sqrt", roots)
    count_calls(monkeypatch, [complexity, verify], "_definition_tables", tables)
    assert cli.main(["extremal", "--d", str(d)]) == 0
    capsys.readouterr()
    assert reports[0] == blocks and roots[0] == tables[0] == blocks + fiducial


def test_qubit_suite_has_no_per_state_closed_form_or_matrix(monkeypatch):
    # The closed forms and the Bloch-to-matrix step take the whole block.
    calls = [0]
    for name in ("qubit_complexity", "bloch_to_state"):
        for module in (complexity, states, verify):
            if hasattr(module, name):
                count_calls(monkeypatch, [module], name, calls)
    rows = verify.suite_qubit(samples=40, seed=0)
    assert rows and all(r.passed for r in rows), rows
    assert calls[0] == 0


@pytest.mark.parametrize("d", [6, 7, 16])
@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_every_suite_passes_or_refuses_each_dimension(suite, d):
    # A refusal is a ValueError, which the CLI maps to exit 2; a suite that
    # accepts the dimension must pass every row.
    samples = 4 if "samples" in inspect.signature(verify.SUITES[suite]).parameters else None
    try:
        runs = verify.run_suites([suite], dims=[d], samples=samples, seed=0)
    except ValueError:
        return
    rows = [row for _, suite_rows in runs for row in suite_rows]
    assert rows and all(r.passed for r in rows), rows


def test_weyl_suite_builds_each_operator_once_per_row(monkeypatch):
    built = [0]  # operators, summed over the rows of every stack built
    kernel = weyl._displacements

    def counted(d, k, l):
        built[0] += len(k)
        return kernel(d, k, l)

    for module in (weyl, verify):
        monkeypatch.setattr(module, "_displacements", counted)
    law = verify._product_law
    walked = {}

    def recorded(d, k1, l1, k2, l2):
        walked.setdefault(d, []).append(((k1 * d + l1) * d + k2) * d + l2)
        return law(d, k1, l1, k2, l2)

    monkeypatch.setattr(verify, "_product_law", recorded)
    dims = (2, 3, 4, 5, 7)
    rows = verify.suite_weyl(dims=dims)
    assert all(r.passed for r in rows), rows
    assert built[0] <= 3 * sum(d * d for d in dims)
    # The product-law and exponent-law rows share one walk over the d^4
    # index quadruples: each quadruple exactly once, one stacked law call per
    # block of the block rule.
    assert sorted(walked) == list(dims)
    for d, blocks in walked.items():
        assert len(blocks) == len(list(matcore._blocks(d**4, d)))
        assert np.array_equal(np.concatenate(blocks), np.arange(d**4))


def test_weyl_suite_law_rows_hold_one_block_at_a_time():
    # At the cap the walk is 16 blocks of 256 quadruples; its traced peak
    # measured 1.1 MiB.  One (4096, 8, 8) stack of the whole walk is 4 MiB.
    rows, peak = traced_peak_mib(lambda: verify.suite_weyl(dims=[8], seed=0))
    assert all(r.passed for r in rows), rows
    assert peak < 2


def test_weyl_product_law_row_fails_on_a_nan_operator(monkeypatch):
    # The basis row reads weyl._displacements, so only the rows built from
    # explicit operators see the defect; the exponent law reads no matrix.
    writer = verify._displacements

    def damaged(d, k, l):
        ops = writer(d, k, l)
        ops[(k == 1) & (l == 1), 1, 0] = np.nan
        return ops

    monkeypatch.setattr(verify, "_displacements", damaged)
    failed = [r.check_id for r in verify.suite_weyl(dims=[3]) if not r.passed]
    assert failed == ["weyl-product-law-residual-d3", "weyl-phase-convention-independence-d3"]
