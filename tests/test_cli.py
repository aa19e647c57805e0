import argparse
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import rounding_changes_only

from stabc import charfun, cli, complexity, matcore, verify
from stabc.cli import build_parser, main
from stabc.errors import StateFileError
from stabc.stateio import load_state
from stabc.verify import run_suites


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_state(tmp_path, doc, name="state.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


T_STATE_DOC = {"dim": 2, "kind": "bloch",
               "bloch": [1 / np.sqrt(3), 1 / np.sqrt(3), 1 / np.sqrt(3)]}


def test_compute_t_state(tmp_path, capsys):
    path = write_state(tmp_path, T_STATE_DOC)
    code, out, _ = run_cli(capsys, "compute", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["c_value"] == pytest.approx(2.666667, abs=1e-6)
    assert doc["path_gap"] <= 1e-9 * 4
    assert doc["m4"] == pytest.approx((4 / 3) ** 0.25, abs=1e-9)
    assert doc["complementarity_sum"] == pytest.approx(4.0, abs=1e-8)
    assert "jordan_table" not in doc


def test_compute_maximally_mixed_density(tmp_path, capsys):
    eye = np.eye(4) / 4
    doc = {"dim": 4, "kind": "density",
           "matrix": [[float(x.real), float(x.imag)] for x in eye.reshape(-1).astype(complex)]}
    code, out, _ = run_cli(capsys, "compute", write_state(tmp_path, doc))
    assert code == 0
    report = json.loads(out)
    assert abs(report["c_value"]) <= 1e-9
    assert report["purity"] == pytest.approx(0.25, abs=1e-12)


def test_compute_pure_bloch_file(tmp_path, capsys):
    doc = {"dim": 2, "kind": "bloch", "bloch": [0.6, 0.0, 0.8]}
    code, out, _ = run_cli(capsys, "compute", write_state(tmp_path, doc))
    assert code == 0
    # closed form at r = 1: 3 - (0.6^4 + 0.8^4) = 2.4608
    assert json.loads(out)["c_value"] == pytest.approx(2.4608, abs=1e-9)


def test_compute_tables_flag(tmp_path, capsys):
    path = write_state(tmp_path, T_STATE_DOC)
    code, out, _ = run_cli(capsys, "compute", path, "--tables")
    doc = json.loads(out)
    assert code == 0
    jordan = np.array(doc["jordan_table"])
    lie = np.array(doc["lie_table"])
    assert jordan.shape == (2, 2)
    assert np.abs(jordan + lie - 2.0).max() <= 1e-10


def test_compute_rejects_invalid_file(tmp_path, capsys):
    path = write_state(tmp_path, {"dim": 2, "kind": "pure", "amplitudes": [[2.0, 0], [0, 0]]})
    code, _, err = run_cli(capsys, "compute", path)
    assert code == 2
    assert "unit-norm" in err


def test_compute_determinism(tmp_path, capsys):
    path = write_state(tmp_path, T_STATE_DOC)
    _, out1, _ = run_cli(capsys, "compute", path)
    _, out2, _ = run_cli(capsys, "compute", path)
    assert out1 == out2


@pytest.mark.parametrize("doc", [
    {"dim": 2, "kind": "density",
     "matrix": [[0.5, 0], [float("nan"), 0], [0, 0], [0.5, 0]]},
    {"dim": 2, "kind": "pure", "amplitudes": [[1.0, 0], [float("nan"), 0]]},
])
def test_compute_rejects_non_finite_file(tmp_path, capsys, doc):
    code, out, err = run_cli(capsys, "compute", write_state(tmp_path, doc))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "non-finite" in err


@pytest.mark.parametrize("doc", [
    {"dim": 2, "kind": "bloch", "bloch": 5},
    {"dim": float("inf"), "kind": "bloch", "bloch": [0, 0, 1]},
    {"dim": 2, "kind": "bloch", "bloch": [None, 0, 0]},
    {"dim": 2, "kind": "mixture", "mixture": [[1, 0]]},
    {"dim": 2, "kind": "mixture", "mixture": [{"weight": None, "amplitudes": [[1, 0], [0, 0]]}]},
    {"dim": 2, "kind": "pure", "amplitudes": {"re": 1}},
    {"dim": 2, "kind": "bloch", "bloch": "000"},
    {"dim": 2, "kind": "bloch", "bloch": {"0": 1, "0.5": 2, "0.25": 3}},
    {"dim": 2, "kind": "pure", "amplitudes": [["1", "0"], ["0", "0"]]},
    {"dim": 2, "kind": "pure", "amplitudes": [[True, False], [False, False]]},
    {"dim": "2", "kind": "bloch", "bloch": [0, 0, 1]},
    {"dim": 2.7, "kind": "pure", "amplitudes": [[1, 0], [0, 0]]},
])
def test_compute_rejects_malformed_file(tmp_path, capsys, doc):
    code, out, err = run_cli(capsys, "compute", write_state(tmp_path, doc))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_verify_qubit_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "qubit", "--samples", "50", "--seed", "3")
    assert code == 0
    assert "qubit-closed-form-gap" in out
    assert "FAIL" not in out
    assert out.strip().endswith("checks passed")


def test_verify_convexity_d3_reports_witness(capsys):
    code, out, _ = run_cli(capsys, "verify", "convexity", "--d", "3", "--samples", "500")
    assert code == 0
    assert "convexity-witness-found-d3" in out
    assert "5.5609" in out and "5.5528" in out


GOLDEN = Path(__file__).parent / "golden"


def test_verify_weyl_matches_golden_output(capsys):
    # Written by `stabc verify weyl --d 2 3 4 5 7 16 64 --seed 0` while the
    # basis check still built the full (d, d, d, d) operator stack; the d = 16
    # and d = 64 notes, naming the law rows not run there, were added later.
    golden = (GOLDEN / "verify_weyl_seed0.txt").read_text()
    code, out, _ = run_cli(capsys, "verify", "weyl", "--d", "2", "3", "4", "5", "7", "16", "64",
                           "--seed", "0")
    assert code == 0
    assert out == golden


SAMPLE_ARGS = ["sample", "--d", "3", "--samples", "4", "--seed", "5", "--kind"]


@pytest.mark.parametrize("argv, golden", [
    (["verify", "all", "--seed", "0"], "verify_all_seed0.txt"),
    (["sweep", "--d", "3", "--steps", "101"], "sweep_d3_steps101.txt"),
    ([*SAMPLE_ARGS, "pure"], "sample_pure_d3_n4_seed5.txt"),
    ([*SAMPLE_ARGS, "mixed", "--rank", "2"], "sample_mixed_rank2_d3_n4_seed5.txt"),
    ([*SAMPLE_ARGS, "mixed"], "sample_mixed_d3_n4_seed5.txt"),
    (["extremal", "--d", "3"], "extremal_d3.txt"),
    (["extremal", "--d", "13"], "extremal_d13.txt"),
    (["sweep", "--d", "64", "--steps", "11"], "sweep_d64_steps11.txt"),
    (["sweep", "--d", "3", "--psi", "fiducial", "--steps", "21", "--format", "json"],
     "sweep_d3_fiducial_steps21.txt"),
    (["verify", "dual-path", "--d", "8", "64"], "verify_dual_path_d8_d64.txt"),
    (["verify", "weyl", "--d", "8", "--seed", "0"], "verify_weyl_d8_seed0.txt"),
])
def test_output_matches_golden_file(capsys, argv, golden):
    # Written by these command lines (the verify and sweep files while the
    # convexity suite still re-evaluated its witness mixture, the sample files
    # while each state was drawn alone, the extremal files while each
    # stabilizer state had its own report, the d = 64 sweep, the fiducial
    # sweep and the dual-path file while the sweep made one report per point
    # and dual-path drew its states as one stack, the d = 8 weyl file while
    # the group law was walked one quadruple at a time; the verify file's two
    # bounds-mixed d = 5 rows since bounds draws its mixed ranks per block);
    # pins the text output byte for byte.
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("sample, golden", [
    ("sample_pure_d3_n4_seed5.txt", "compute_tables_pure_d3_seed5.txt"),
    ("sample_mixed_d3_n4_seed5.txt", "compute_tables_mixed_d3_seed5.txt"),
])
def test_compute_tables_match_golden_file(tmp_path, capsys, sample, golden):
    # `compute --tables` on the first state of a sample golden file, written
    # while the report was a single-state function; the pure state's output
    # carries the complementarity fields.
    path = write_state(tmp_path, json.loads((GOLDEN / sample).read_text())[0])
    code, out, _ = run_cli(capsys, "compute", "--tables", path)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def _plain_power_sums(stack, p, *more):
    # The power-sum reduction as it was before the one real pass: |x| by
    # complex hypot, then libm pow and np.sum over axes (-2, -1).
    magnitudes = np.abs(stack)
    sums = tuple((magnitudes**q).sum(axis=(-2, -1)) for q in (p, *more))
    return sums if more else sums[0]


@pytest.mark.parametrize("argv, golden", [
    (["verify", "all", "--seed", "0"], "verify_all_seed0.txt"),
    (["sweep", "--d", "3", "--psi", "fiducial", "--steps", "21", "--format", "json"],
     "sweep_d3_fiducial_steps21.txt"),
    (["verify", "weyl", "--d", "2", "3", "4", "5", "7", "16", "64", "--seed", "0"],
     "verify_weyl_seed0.txt"),
    (["verify", "weyl", "--d", "8", "--seed", "0"], "verify_weyl_d8_seed0.txt"),
    (["verify", "dual-path", "--d", "8", "64"], "verify_dual_path_d8_d64.txt"),
    (["extremal", "--d", "3"], "extremal_d3.txt"),
    (["compute", "--tables", "sample_pure_d3_n4_seed5.txt"], "compute_tables_pure_d3_seed5.txt"),
    (["compute", "--tables", "sample_mixed_d3_n4_seed5.txt"], "compute_tables_mixed_d3_seed5.txt"),
])
def test_repinned_goldens_move_by_rounding_only(monkeypatch, tmp_path, capsys, argv, golden):
    # These files were re-pinned when the power sums became one real pass.
    # With the plain reduction swapped back in, each command prints its file
    # again up to rounding: the same rows, names, statuses and counts.
    if argv[0] == "compute":
        argv = [*argv[:-1], write_state(tmp_path, json.loads((GOLDEN / argv[-1]).read_text())[0])]
    for module in (matcore, charfun, complexity, verify):
        monkeypatch.setattr(module, "_power_sums", _plain_power_sums)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert rounding_changes_only(out, (GOLDEN / golden).read_text()) == []


def _np_trace_ginibre_stack(d, ranks, normals):
    # The Ginibre sampler as it was before every per-member trace became one
    # einsum: np.trace over the stack, after a real dot that cleared an
    # OpenBLAS slowdown of short reductions following complex products.
    sizes = 2 * d * ranks
    starts = np.cumsum(sizes) - sizes
    out = np.empty((ranks.size, d, d), dtype=complex)
    for r in np.flatnonzero(np.bincount(ranks)):
        members = np.flatnonzero(ranks == r)
        blocks = normals[starts[members][:, None] + np.arange(2 * d * r)]
        g = blocks[:, : d * r].reshape(-1, d, r) + 1j * blocks[:, d * r :].reshape(-1, d, r)
        out[members] = g @ g.conj().swapaxes(-1, -2)
    np.dot(np.ones(2), np.ones(2))
    return np.divide(out, np.trace(out, axis1=1, axis2=2).real[:, None, None], out=out)


@pytest.mark.parametrize("argv, golden", [
    (["verify", "all", "--seed", "0"], "verify_all_seed0.txt"),
    (["verify", "weyl", "--d", "2", "3", "4", "5", "7", "16", "64", "--seed", "0"],
     "verify_weyl_seed0.txt"),
    (["verify", "dual-path", "--d", "8", "64"], "verify_dual_path_d8_d64.txt"),
])
def test_einsum_trace_goldens_move_by_rounding_only(monkeypatch, capsys, argv, golden):
    # These files were re-pinned when the sampler's trace became one einsum
    # per member.  With the np.trace sampler swapped back in, each command
    # prints its file again up to rounding: the same rows, names, statuses and counts.
    monkeypatch.setattr(matcore, "_ginibre_stack", _np_trace_ginibre_stack)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out != (GOLDEN / golden).read_text()
    assert rounding_changes_only(out, (GOLDEN / golden).read_text()) == []


@pytest.mark.parametrize("argv", [
    ["verify", "dual-path", "--samples", "-1"],
    ["verify", "dual-path", "--samples", "0"],
    ["verify", "convexity", "--d", "2", "--samples", "-5"],
    ["verify", "stabilizers", "--d", "17"],
    ["sample", "--samples", "0"],
    ["sample", "--samples", "-1"],
])
def test_run_that_checks_or_samples_nothing_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_sqrt_table_normalization_defect_is_a_fail_row(capsys, monkeypatch):
    # States of trace 1 + 1e-8 have root tables with sum |c|^2 = d (1 + 1e-8).
    # The row reports that 3e-8 defect at d = 3 as a FAIL (exit 1); the checked
    # table kernel would raise ValueError first (exit 2).
    sample_block = verify._sample_block
    monkeypatch.setattr(verify, "_sample_block",
                        lambda d, n, rng: sample_block(d, n, rng) * (1 + 1e-8))
    code, out, _ = run_cli(capsys, "verify", "charfun", "--d", "3", "--samples", "20")
    assert code == 1
    failed = [line.split() for line in out.splitlines() if "FAIL" in line]
    assert [row[1] for row in failed] == ["charfun-sqrt-table-normalization-d3"]
    assert failed[0][3] == "tol=1e-09" and 2e-8 < float(failed[0][2].split("=")[1]) < 4e-8


def test_verify_unknown_suite_exits_2(capsys):
    # run_suites is the one check of the suite name; it lists the suites
    for argv in (["definitely-not-a-suite"], ["definitely-not-a-suite", "--d", "3"]):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err == (f"error: unknown suite 'definitely-not-a-suite'; "
                       f"choose from {', '.join(verify.SUITES)} or 'all'\n")


def test_verify_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("STABC_SEED", "7")
    _, out_env, _ = run_cli(capsys, "verify", "qubit", "--samples", "20")
    monkeypatch.delenv("STABC_SEED")
    _, out_flag, _ = run_cli(capsys, "verify", "qubit", "--samples", "20", "--seed", "7")
    assert out_env == out_flag


def test_malformed_seed_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("STABC_SEED", "abc")
    code, out, err = run_cli(capsys, "sample", "--d", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "STABC_SEED" in err


@pytest.mark.parametrize("env, argv, name", [
    ("-2", ["sample"], "STABC_SEED"),
    ("-2", ["verify", "qubit"], "STABC_SEED"),
    ("3", ["verify", "--seed", "-1"], "seed"),
    (None, ["sample", "--seed", "-5"], "seed"),
])
def test_negative_seed_exits_2_naming_its_source(capsys, monkeypatch, env, argv, name):
    # numpy's own refusal, "expected non-negative integer", named no seed.
    if env is None:
        monkeypatch.delenv("STABC_SEED", raising=False)
    else:
        monkeypatch.setenv("STABC_SEED", env)
    code, out, err = run_cli(capsys, *argv)
    value = "-2" if name == "STABC_SEED" else argv[-1]
    assert code == 2
    assert out == ""
    assert err == f"error: {name} must be nonnegative, got {value}\n"


def test_empty_seed_env_means_seed_0(capsys, monkeypatch):
    monkeypatch.setenv("STABC_SEED", "")
    _, out_env, _ = run_cli(capsys, "sample", "--d", "2")
    _, out_flag, _ = run_cli(capsys, "sample", "--d", "2", "--seed", "0")
    assert out_env == out_flag


def test_sweep_csv_d3(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--d", "3", "--steps", "21", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["p", "c_value", "c_analytic", "second_difference"]
    rows = {float(line.split(",")[0]): line.split(",") for line in lines[1:]}
    assert len(rows) == 21
    row95 = rows[0.95]
    assert float(row95[1]) == pytest.approx(5.5609, abs=5e-4)
    # agreement columns, at the 9-significant-digit CSV granularity
    assert float(row95[1]) == pytest.approx(float(row95[2]), abs=5e-8)


def test_sweep_csv_d2_endpoints(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--d", "2", "--steps", "11")
    lines = out.strip().splitlines()[1:]
    assert code == 0
    first, last = lines[0].split(","), lines[-1].split(",")
    assert float(first[0]) == 0.0 and abs(float(first[1])) <= 1e-9
    assert float(last[0]) == 1.0 and float(last[1]) == pytest.approx(2.0, abs=1e-9)


def test_sweep_json_and_determinism(capsys):
    code, out1, _ = run_cli(capsys, "sweep", "--d", "2", "--steps", "5", "--format", "json")
    assert code == 0
    rows = json.loads(out1)
    assert len(rows) == 5 and rows[0]["second_difference"] is None
    _, out2, _ = run_cli(capsys, "sweep", "--d", "2", "--steps", "5", "--format", "json")
    assert out1 == out2


def test_sweep_fiducial_anchor(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--d", "2", "--psi", "fiducial", "--steps", "3")
    assert code == 0
    last = out.strip().splitlines()[-1].split(",")
    # CSV carries 9 significant digits, so compare at that granularity
    assert float(last[1]) == pytest.approx(8 / 3, abs=5e-8)


def test_sweep_near_pure_anchor_exits_2(tmp_path, capsys):
    # A valid density file whose purity passes 1 - 1e-8 but whose root has
    # rank two is not a pure anchor: an input error, not a failed check.
    rho = np.diag([1 - 3e-9, 3e-9, 0.0]).astype(complex)
    doc = {"dim": 3, "kind": "density",
           "matrix": [[float(x.real), float(x.imag)] for x in rho.reshape(-1)]}
    code, out, err = run_cli(capsys, "sweep", "--d", "3", "--psi", write_state(tmp_path, doc),
                             "--steps", "5")
    assert code == 2
    assert "must be pure" in err
    assert out == ""


@pytest.mark.parametrize("d", [3, 64])
def test_sweep_closed_form_gate_names_the_first_failing_point(monkeypatch, capsys, d):
    # The gate checks every point after its block's reports: a closed form
    # moved by 1e-6 from p = 0.5 on fails there, in the first block at d = 3
    # and in the second of three at d = 64.
    closed_form = cli._rho_p_closed_form
    monkeypatch.setattr(cli, "_rho_p_closed_form",
                        lambda d, p, c: closed_form(d, p, c) + (1e-6 if p >= 0.5 else 0.0))
    code, out, err = run_cli(capsys, "sweep", "--d", str(d), "--steps", "11")
    assert code == 1 and out == ""
    assert err.startswith("check failed: closed form ")
    assert err.endswith(" disagree at p=0.5\n")


@pytest.mark.parametrize("exc", [
    MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,) "
                "and data type float64"),
    MemoryError(),
])
def test_memory_error_exits_2_on_one_line(capsys, monkeypatch, exc):
    # sweep --steps 100000000000 allocates a 745 GiB grid; exit 1 is kept for
    # a failed cross-check, so an input too large to serve exits 2.
    def allocate(*args, **kwargs):
        raise exc

    monkeypatch.setattr(np, "linspace", allocate)
    code, out, err = run_cli(capsys, "sweep", "--d", "2", "--steps", "100000000000")
    assert code == 2 and out == ""
    assert err.startswith("error: input too large to serve: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, target", [
    (["extremal", "--d", "3"], "."),                    # a directory
    (["extremal"], "missing/x.json"),                   # under a missing directory
    (["verify", "weyl", "--d", "3"], "file.txt/x"),     # under a regular file
    (["sample", "--d", "2"], "file.txt"),               # a regular file as the output folder
])
def test_unwritable_out_path_exits_2_on_one_line(tmp_path, capsys, argv, target):
    # These used to exit 1 with a traceback; exit 1 means a failed check only.
    (tmp_path / "file.txt").write_text("kept\n")
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / target))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write --out {tmp_path / target}: ")
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file.txt"]
    assert (tmp_path / "file.txt").read_text() == "kept\n"


def test_stdout_error_is_not_an_input_error(monkeypatch):
    # Only an --out path maps an OSError to exit 2; a closed pipe on stdout is not bad input.
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with pytest.raises(BrokenPipeError):
        main(["extremal", "--d", "2"])


@pytest.mark.parametrize("d", ["0", "1", "-3", "65"])
def test_sweep_bad_dimension_exits_2(capsys, d):
    # d = 0 used to exit 1 with an IndexError traceback and d = -3 exit 2 with
    # numpy's "negative dimensions"; exit 1 means a failed cross-check only.
    code, out, err = run_cli(capsys, "sweep", "--d", d, "--steps", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: dimension ")


def test_sweep_rejects_bad_family(capsys):
    # sweep has one family, so it takes no --family; argparse refuses it
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--family", "other"])
    assert exc.value.code == 2
    assert "--family" in capsys.readouterr().err


def test_extremal_d2(capsys):
    code, out, _ = run_cli(capsys, "extremal", "--d", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["stabilizer_count"] == 6
    assert doc["stabilizer_c_min"] == pytest.approx(2.0, abs=1e-9)
    assert doc["stabilizer_c_max"] == pytest.approx(2.0, abs=1e-9)
    assert doc["pure_floor"] == 2.0
    assert doc["global_ceiling"] == pytest.approx(8 / 3, abs=1e-12)
    assert doc["fiducial"]["c_value"] == pytest.approx(8 / 3, abs=1e-9)
    assert doc["fiducial"]["moment_p4"] == pytest.approx((4 / 3) ** 0.25, abs=1e-9)
    assert doc["reference_moments"]["4"]["stabilizer"] == pytest.approx(2 ** 0.25)


def test_extremal_d3(capsys):
    code, out, _ = run_cli(capsys, "extremal", "--d", "3")
    doc = json.loads(out)
    assert code == 0
    assert doc["stabilizer_count"] == 12
    assert doc["stabilizer_c_max"] == pytest.approx(6.0, abs=1e-9)
    assert doc["fiducial"]["c_value"] == pytest.approx(7.5, abs=1e-9)


def test_extremal_d5_has_no_fiducial_section(capsys):
    code, out, _ = run_cli(capsys, "extremal", "--d", "5")
    doc = json.loads(out)
    assert code == 0
    assert doc["stabilizer_count"] == 30
    assert doc["stabilizer_c_min"] == pytest.approx(20.0, abs=1e-9)
    assert doc["global_ceiling"] == pytest.approx(25 - 10 / 6, abs=1e-12)
    assert "fiducial" not in doc


def test_extremal_rejects_composite(capsys):
    code, _, err = run_cli(capsys, "extremal", "--d", "4")
    assert code == 2
    assert "prime" in err


def test_sample_writes_loadable_files(tmp_path, capsys):
    out_dir = tmp_path / "states"
    code, out, _ = run_cli(capsys, "sample", "--d", "3", "--kind", "mixed", "--rank", "2",
                           "--samples", "3", "--seed", "5", "--out", str(out_dir))
    assert code == 0
    files = sorted(out_dir.glob("state-*.json"))
    assert len(files) == 3
    for f in files:
        state = load_state(f)
        assert state.dim == 3


def test_sample_stdout_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "sample", "--d", "2", "--samples", "2", "--seed", "9")
    _, out2, _ = run_cli(capsys, "sample", "--d", "2", "--samples", "2", "--seed", "9")
    assert out1 == out2
    docs = json.loads(out1)
    assert len(docs) == 2 and docs[0]["kind"] == "pure"


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "extremal", "--d", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["stabilizer_count"] == 6


# Inputs that used to be accepted and then ignored in whole or in part; each
# must exit 2.  True marks an argparse rejection (SystemExit(2)); the others
# return 2 with an "error:" line.
REFUSED = [
    (["extremal", "--d", "3", "5"], True),
    (["sweep", "--d", "2", "3", "--steps", "3"], True),
    (["sample", "--d", "2", "5"], True),
    (["sample", "--kind", "pure", "--rank", "2"], False),
    (["compute", "{state}", "--seed", "1"], True),
    (["extremal", "--d", "3", "--seed", "4"], True),
    (["sweep", "--family", "rho-p", "--d", "2", "--steps", "2"], True),
    (["verify", "stabilizers", "--d", "3", "4", "--samples", "10"], False),
    (["verify", "fiducials", "--d", "5"], False),
    (["verify", "qubit", "--d", "3"], False),
    (["verify", "weyl", "--d", "2", "--samples", "3"], False),
    (["verify", "rho-p", "--samples", "7"], False),
    (["verify", "weyl", "--d"], True),
    (["verify", "all", "--d", "4"], False),
    (["verify", "all", "--samples", "5"], False),
    (["sample", "--kind", "mixed", "--rank", "0"], False),
    (["sample", "--d", "1"], False),
    (["sample", "--d", "65", "--kind", "pure"], False),
]


@pytest.mark.parametrize("argv, by_argparse", REFUSED, ids=[" ".join(a) for a, _ in REFUSED])
def test_ignored_input_exits_2(tmp_path, capsys, argv, by_argparse):
    state = write_state(tmp_path, T_STATE_DOC)
    argv = [state if a == "{state}" else a for a in argv]
    if by_argparse:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
    else:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


@pytest.mark.parametrize("d", [7, 9, 11, 16, 64])
def test_verify_rho_p_passes_at_every_dimension(capsys, d):
    code, out, _ = run_cli(capsys, "verify", "rho-p", "--d", str(d))
    assert code == 0, out
    assert out.endswith("5/5 checks passed\n")


def test_sweep_steps_below_2_is_not_a_state_file_error():
    args = build_parser().parse_args(["sweep", "--steps", "1"])
    with pytest.raises(ValueError, match="--steps") as exc:
        args.func(args)
    assert not isinstance(exc.value, StateFileError)


def test_verify_named_suite_emits_only_requested_dimensions(capsys):
    code, out, _ = run_cli(capsys, "verify", "fiducials", "--d", "3")
    assert code == 0
    ids = [line.split()[1] for line in out.splitlines()[:-1]]
    assert ids == ["fiducial-overlap-deviation-d3", "fiducial-ceiling-attainment-d3",
                   "fiducial-orbit-invariance-d3"]
    code, out, _ = run_cli(capsys, "verify", "qubit", "--d", "2", "--samples", "10")
    assert code == 0 and out.endswith("1/1 checks passed\n")


def test_run_suites_overrides_need_one_suite():
    with pytest.raises(ValueError, match="one named suite"):
        run_suites(["weyl", "qubit"], dims=[2])


@pytest.mark.parametrize("samples", [2.5, 2.0, True, "3"])
def test_run_suites_refuses_non_integer_samples(samples):
    # 2.5 and True used to run, truncated to 2 and 1 samples.
    with pytest.raises(ValueError, match="samples must be an integer"):
        run_suites(["bounds"], samples=samples)


@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_run_suites_refuses_empty_dimensions(suite):
    # dims=[] used to run the suite's default dimensions.
    with pytest.raises(ValueError, match="dimensions must be one or more"):
        run_suites([suite], dims=[])


def test_verify_repeated_dimension_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "weyl", "--d", "3", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "distinct" in err
    with pytest.raises(ValueError, match="dimensions must be distinct"):
        run_suites(["convexity"], dims=[2, 3, 2], samples=5)


OPTIONS = {
    "compute": ["input", "--tables", "--out"],
    "verify": ["suite", "--d", "--samples", "--seed", "--out"],
    "sweep": ["--d", "--psi", "--steps", "--format", "--out"],
    "extremal": ["--d", "--out"],
    "sample": ["--d", "--kind", "--rank", "--samples", "--seed", "--out"],
}


def test_option_surface_is_pinned():
    # A new option needs a deliberate change here.
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        name: [a.option_strings[0] if a.option_strings else a.dest
               for a in p._actions if not isinstance(a, argparse._HelpAction)]
        for name, p in sub.choices.items()
    }
    assert found == OPTIONS
    assert sum(map(len, found.values())) == 21
