"""The stabc benchmark: three workloads, timed end to end and per module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oracle|batch|cli|all --seed N \
        --seconds T --trace 0|1 [--record FILE]

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run; ``--workload all`` runs every workload both
ways.  Every line but the last is for people; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The workloads and
metrics are described in perfbench/README.md.

This process stays free of numpy: every numpy or stabc import happens in a
child started with BLAS pinned to one thread, and each child's peak RSS comes
from ``os.wait4`` on that child alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
from tally import Tally, typical

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("oracle", "batch", "cli")
END_TO_END = {  # name -> unit; every workload reports all of them
    "setup_s": "s",
    "wall_probes": "probe",
    "op_probes_geomean": "probe",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
SETUP_IMPORTS = 7
CHILD_LIMIT_S = 170.0

# (name, arguments after ``python -m stabc.cli``); STATE_FILE is the seeded
# d = 64 density file written for this run.  The pass repeats CLI_COMMANDS;
# MEMORY_COMMAND (about 1 GB, 9 s) runs once per run, after the passes.
# The verify suites draw their own test data from the library's default seed,
# given explicitly so that STABC_SEED in the environment cannot change it; the
# workload seed reaches the program only through STATE_FILE (see README.md,
# "Known failure at the seed commit").
STATE_FILE = "{state_file}"
VERIFY_SEED = ["--seed", "0"]
CLI_COMMANDS = (
    ("verify_all", ["verify", "all", *VERIFY_SEED]),
    ("sweep", ["sweep", "--d", "16", "--steps", "101"]),
    ("extremal", ["extremal", "--d", "13"]),
    ("compute", ["compute", STATE_FILE]),
)
MEMORY_COMMAND = ("verify_weyl64", ["verify", "weyl", "--d", "64", *VERIFY_SEED])
# A pass takes about 10 s; the gated (untraced) run makes at least this many,
# so that each command's median is taken over more than one or two repeats.
CLI_MIN_PASSES = 3


class BenchError(RuntimeError):
    """The benchmark itself could not run: no result is printed."""


# -- child processes -------------------------------------------------------------


def child_env(pinned: bool = True) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in THREAD_VARS:
        if pinned:
            env[var] = "1"
        else:
            env.pop(var, None)
    return env


class Child:
    """A finished child process: exit code, wall time, peak RSS and output."""

    def __init__(self, argv: list[str], tag: str, env: dict, limit: float = CHILD_LIMIT_S):
        self.stdout_path = WORK / f"{tag}.out"
        stderr_path = WORK / f"{tag}.err"
        with open(self.stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
            watchdog = threading.Timer(limit, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                watchdog.cancel()
            self.wall_s = time.perf_counter() - t0
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
        self.stderr = stderr_path.read_text(errors="replace")

    @property
    def stdout(self) -> str:
        return self.stdout_path.read_text(errors="replace")


def worker(mode: str, args: list[str], tag: str) -> tuple[dict, Child]:
    """Run perfbench/worker.py in a pinned child and return its JSON document."""
    out = WORK / f"{tag}.json"
    out.unlink(missing_ok=True)
    child = Child([sys.executable, str(HERE / "worker.py"), mode, "--out", str(out), *args],
                  tag, child_env())
    if child.code != 0 or not out.exists():
        raise BenchError(f"worker {mode} exited {child.code}:\n{child.stderr[-2000:]}")
    return json.loads(out.read_text()), child


def measure_setup() -> list[float]:
    """Wall times of fresh ``import stabc`` interpreters, after one warm one."""
    argv = [sys.executable, "-c", "import stabc"]
    times = []
    for i in range(SETUP_IMPORTS + 1):
        child = Child(argv, "setup", child_env())
        if child.code != 0:
            raise BenchError(f"import stabc failed:\n{child.stderr[-2000:]}")
        times.append(child.wall_s)
    return times[1:]


# -- the cli workload: a fresh interpreter per command ---------------------------


def _verify_check(n_expected: int | None = None):
    def check(out: str) -> str | None:
        last = out.strip().splitlines()[-1] if out.strip() else ""
        m = re.fullmatch(r"(\d+)/(\d+) checks passed", last)
        if not m or m[1] != m[2] or int(m[1]) == 0:
            return f"verify printed {last!r}"
        if n_expected is not None and int(m[1]) != n_expected:
            return f"verify ran {m[1]} checks, expected {n_expected}"
        return None
    return check


def _sweep_check(out: str) -> str | None:
    d = 16
    rows = out.strip().splitlines()
    if rows[0].split(",")[:2] != ["p", "c_value"] or len(rows) != 102:
        return f"sweep printed {len(rows)} lines with header {rows[0]!r}"
    first, last = (row.split(",") for row in (rows[1], rows[-1]))
    if float(first[0]) != 0.0 or abs(float(first[1])) > 1e-9:
        return f"C(p=0) = {first[1]}, expected 0"
    if float(last[0]) != 1.0 or abs(float(last[1]) - (d * d - d)) > 1e-9 * d * d:
        return f"C(p=1) = {last[1]}, expected the pure floor {d * d - d}"
    return None


def _extremal_check(out: str) -> str | None:
    d = 13
    doc = json.loads(out)
    floor = d * d - d
    if doc["stabilizer_count"] != d * (d + 1) or doc["pure_floor"] != floor:
        return f"count {doc['stabilizer_count']}, floor {doc['pure_floor']}"
    # The library's own extremal tolerance; the values carry ~1e-13 rounding.
    for key in ("stabilizer_c_min", "stabilizer_c_max"):
        if abs(doc[key] - floor) > 1e-9:
            return f"{key} = {doc[key]}, expected the floor {floor}"
    return None


def _compute_check(reference: dict):
    def check(out: str) -> str | None:
        doc = json.loads(out)
        d = reference["dim"]
        tol = 1e-9 * d * d
        if doc["dim"] != d or doc["path_gap"] > tol:
            return f"dim {doc['dim']}, route gap {doc['path_gap']}"
        if abs(doc["c_value"] - reference["c_reference"]) > tol:
            return f"C = {doc['c_value']} but the explicit-matrix value is {reference['c_reference']}"
        if not 0.0 <= doc["c_value"] <= d * d - 2.0 * d / (d + 1):
            return f"C = {doc['c_value']} outside the global bounds"
        return None
    return check


class CliWorkload:
    def __init__(self, reference: dict):
        self.reference = reference
        self.checks = {
            "verify_all": _verify_check(),
            "sweep": _sweep_check,
            "extremal": _extremal_check,
            "compute": _compute_check(reference),
            "verify_weyl64": _verify_check(2),
        }

    def argv(self, args: list[str]) -> list[str]:
        state_file = self.reference["state_file"]
        return [a.replace(STATE_FILE, state_file) for a in args]

    def check(self, name: str, child: Child) -> str | None:
        if child.code != 0:
            last_line = (child.stdout.strip().splitlines() or [""])[-1]
            return f"exit code {child.code}: {child.stderr.strip()[-300:] or last_line}"
        try:
            return self.checks[name](child.stdout)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output: {exc!r}"

    def command(self, name: str, args: list[str], traced: bool = False):
        """Run one command in a fresh interpreter; returns (child, error, profiles)."""
        if not traced:
            child = Child([sys.executable, "-m", "stabc.cli", *self.argv(args)],
                          f"cli-{name}", child_env())
            return child, self.check(name, child), None
        out = WORK / f"cli-{name}.json"
        out.unlink(missing_ok=True)
        stdout = WORK / f"cli-{name}.traced.out"
        child = Child([sys.executable, str(HERE / "worker.py"), "cli", "--out", str(out),
                       "--stdout", str(stdout), "--", *self.argv(args)],
                      f"cli-{name}.traced", child_env())
        child.stdout_path = stdout
        if child.code == 0:
            doc = json.loads(out.read_text())
            child.code = doc["exit_code"]
            return child, self.check(name, child), doc["profiles"]
        return child, self.check(name, child), None


def probe_child() -> float:
    """Wall time of a fresh interpreter running the probe kernel (probe.py)."""
    child = Child([sys.executable, str(HERE / "probe.py")], "probe", child_env())
    if child.code != 0:
        raise BenchError(f"probe exited {child.code}:\n{child.stderr[-2000:]}")
    return child.wall_s


def cli_commands(work: CliWorkload, commands, tally: Tally, traced: bool,
                 profiles: dict | None) -> float:
    """Run each command once; returns the summed wall time.

    A probe interpreter runs before the first command and after each one; a
    command's time in probe units divides by the mean of its two probes.
    """
    total = 0.0
    before = probe_child()
    for name, args in commands:
        child, error, profs = work.command(name, args, traced)
        after = probe_child()
        total += child.wall_s
        tally.rss_mb.setdefault(name, []).append(child.rss_mb)
        tally.count(name, error)
        if profiles is not None and profs:
            profiles.setdefault(name, []).append(profs)
        if name != MEMORY_COMMAND[0]:
            tally.time(name, child.wall_s, (before + after) / 2)
        before = after
    return total


def cli_passes(work: CliWorkload, seconds: float, tally: Tally, traced: bool = False,
               profiles: dict | None = None, min_passes: int = 1) -> float:
    """At least ``min_passes`` whole passes over CLI_COMMANDS, and more until
    the next would end after ``seconds``, then MEMORY_COMMAND once; returns
    MEMORY_COMMAND's wall time."""
    start = time.perf_counter()
    while True:
        tally.pass_s.append(cli_commands(work, CLI_COMMANDS, tally, traced, profiles))
        if len(tally.pass_s) >= min_passes and not tally.another_pass_fits(start, seconds):
            break
    return cli_commands(work, [MEMORY_COMMAND], tally, traced, profiles)


# -- metrics ---------------------------------------------------------------------


def end_to_end(setup: list[float], tally: Tally, peak_rss_mb: float) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "wall_probes": tally.wall_probes(),
        "op_probes_geomean": tally.op_probes_geomean(),
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": tally.ok_ratio(),
    }


def named_in_process(workload: str, tally: Tally) -> dict:
    """The workload's own end-to-end figures (printed and recorded, not gated)."""
    item_s, units = tally.item_s, tally.units

    def rate(prefix):  # units of work per second over one pass's items of a kind
        kinds = [k for k in item_s if k.startswith(prefix)]
        return sum(units[k] for k in kinds) / sum(typical(item_s[k]) for k in kinds)

    if workload == "oracle":
        out = {"reports_per_s": (rate("report."), "1/s")}
        for kind, times in item_s.items():
            out[f"report_ms.{kind.split('.')[1]}"] = (1e3 * typical(times), "ms")
        return out
    out = {"states_per_s": (rate("batch."), "1/s"),
           "scan_samples_per_s": (rate("scan."), "1/s")}
    for kind, times in item_s.items():
        stage, d = kind.split(".")
        out[f"{'states' if stage == 'batch' else 'scan_samples'}_per_s.{d}"] = (
            units[kind] / typical(times), "1/s")
    return out


def named_cli(tally: Tally, memory_s: float, setup_s: float) -> tuple[dict, dict]:
    """Per-command wall time (end to end) and self time and RSS (cli layer)."""
    walls = {name: typical(times) for name, times in tally.item_s.items()}
    walls[MEMORY_COMMAND[0]] = memory_s
    e2e, layer = {}, {}
    for name, wall in walls.items():
        e2e[f"{name}_s"] = (wall, "s")
        layer[f"cli.self_s.{name}"] = (wall - setup_s, "s")
        layer[f"cli.peak_rss_mb.{name}"] = (max(tally.rss_mb[name]), "MB")
    layer["weyl.basis_check_rss_mb.d64"] = layer[f"cli.peak_rss_mb.{MEMORY_COMMAND[0]}"]
    return e2e, layer


def named_cli_trace(profiles: dict) -> dict:
    """Per-size layer figures from the traced commands' profiles."""
    def total(name, fn, field=1):
        return statistics.median(tracing.fn_total(p["command"], fn, field)
                                 for p in profiles[name])

    out = {}
    suites = [fn for fn in profiles["verify_all"][0]["command"]["fn"]
              if fn.startswith("verify.suite_")]
    for fn in suites:
        out[f"verify.suite_s.{fn.removeprefix('verify.suite_')}"] = (total("verify_all", fn), "s")
    out["weyl.basis_check_s.d64"] = (total("verify_weyl64", "weyl.weyl_basis_check@d64"), "s")
    out["weyl.clifford_table_ms.d7"] = (
        1e3 * total("verify_all", "weyl.clifford_conjugation_table@d7"), "ms")
    out["states.enumerate_ms.d13"] = (
        1e3 * total("extremal", "states.enumerate_stabilizer_states@d13"), "ms")
    out["stateio.load_ms.d64"] = (1e3 * total("compute", "stateio.load_state"), "ms")
    out["stateio.save_ms.d64"] = (1e3 * statistics.median(
        tracing.fn_total(p["save"], "stateio.save_state") for p in profiles["compute"]), "ms")
    return out


# -- running one workload ---------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 contrast: bool = False) -> dict:
    """One run of one workload; returns metrics, named figures and provenance.

    ``contrast`` adds the informational ``verify all`` run with the default
    BLAS threads to an untraced ``cli`` run.
    """
    setup = measure_setup()
    res = {"workload": workload, "trace": int(trace), "setup_imports_s": setup, "info": {}}
    if workload in ("oracle", "batch"):
        doc, child = worker("run", ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(seconds), "--trace", str(int(trace))],
                            f"worker-{workload}")
        untraced = Tally(**doc["untraced"])
        traced = Tally(**doc["traced"]) if trace else None
        res["provenance"] = doc["provenance"]
        res["end_to_end"] = end_to_end(setup, untraced, child.rss_mb)
        res["named"] = named_in_process(workload, untraced)
        if trace:
            res["per_layer"] = dict(doc["layers"])
            res["named_layer"] = {k: (v, unit_of(k)) for k, v in doc["named"].items()}
    else:
        WORK.mkdir(exist_ok=True)
        reference, _ = worker("prepare", ["--seed", str(seed), "--dir", str(WORK)], "prepare")
        res["provenance"] = reference.pop("provenance")
        work = CliWorkload(reference)
        cli_commands(work, CLI_COMMANDS, Tally(), False, None)  # warm-up, untimed
        untraced = Tally()
        memory_s = cli_passes(work, seconds / 2 if trace else seconds, untraced,
                              min_passes=1 if trace else CLI_MIN_PASSES)
        peak = max(max(v) for v in untraced.rss_mb.values())
        res["end_to_end"] = end_to_end(setup, untraced, peak)
        res["named"], cli_layer = named_cli(untraced, memory_s, res["end_to_end"]["setup_s"])
        if trace:
            traced, profiles = Tally(), {}
            cli_passes(work, seconds / 2, traced, traced=True, profiles=profiles)
            last = [p["command"] for p in (v[-1] for v in profiles.values())]
            res["per_layer"] = tracing.layer_metrics(tracing.merge(last))
            res["named_layer"] = {**cli_layer, **named_cli_trace(profiles)}
        elif contrast:
            default = Child([sys.executable, "-m", "stabc.cli",
                             *work.argv(CLI_COMMANDS[0][1])], "cli-default-threads",
                            child_env(pinned=False))
            res["info"]["verify_all_default_threads_s"] = (default.wall_s, "s")
    res["named"] = {"wall_s": (untraced.wall_s(), "s"),
                    "failed_ratio": (1.0 - untraced.ok_ratio(), "ratio"),
                    **res["named"]}
    tallies = [untraced]
    if trace:
        tallies.append(traced)
        res["per_layer"]["trace.overhead_s"] = traced.wall_s() - untraced.wall_s()
    res["attempted"] = sum(t.attempted for t in tallies)
    res["failed"] = sum(t.failed for t in tallies)
    res["errors"] = [e for t in tallies for e in t.errors]
    return res


_SUFFIX_UNITS = {"per_s": "1/s", "us": "us", "ms": "ms", "s": "s", "pct": "%", "mb": "MB"}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric or named figure, from its name's suffix."""
    base = re.sub(r"\.d\d+$", "", name)
    for suffix, unit in _SUFFIX_UNITS.items():
        if base.endswith("_" + suffix):
            return unit
    return "count"


# -- provenance and output ----------------------------------------------------------


def source_provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "stabc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT.resolve():
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def metrics_of(res: dict) -> dict:
    """The gated metrics of one run: end-to-end, or per-layer when traced."""
    if res["trace"]:
        return {k: {"value": v, "unit": unit_of(k)} for k, v in res["per_layer"].items()}
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in res["end_to_end"].items()}


def print_result(res: dict) -> None:
    w = res["workload"]
    section = "per_layer" if res["trace"] else "end_to_end"
    rows = [(section, k, m["value"], m["unit"]) for k, m in metrics_of(res).items()]
    for extra in ("named_layer",) if res["trace"] else ("named", "info"):
        rows += [(extra, k, v, unit) for k, (v, unit) in res.get(extra, {}).items()]
    for sect, name, value, unit in rows:
        print(f"{w:<7} {sect:<11} {name:<34} {value:>14.6g} {unit}")
    for error in res["errors"][:10]:
        print(f"{w:<7} FAILED      {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None,
                        help="write every metric with provenance to this JSON file")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "stabc" / "__init__.py").is_file():
        sys.stderr.write(f"error: no stabc sources under {ROOT / 'src'}; "
                         "run from the root of a stabc checkout\n")
        return 2
    WORK.mkdir(exist_ok=True)
    prov = source_provenance(args.seed)
    runs = ([(w, t) for w in WORKLOADS for t in (False, True)] if args.workload == "all"
            else [(args.workload, bool(args.trace))])
    results = []
    try:
        for workload, trace in runs:
            res = run_workload(workload, args.seed, args.seconds, trace,
                               contrast=args.workload == "all")
            prov.update(res.pop("provenance"))
            print_result(res)
            results.append(res)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    print("# provenance " + json.dumps(prov, sort_keys=True))
    if args.record:
        args.record.write_text(json.dumps(
            {"provenance": prov, "seconds": args.seconds, "runs": results}, indent=1) + "\n")
    metrics = {}
    for res in results:
        prefix = f"{res['workload']}." if len(results) > 1 else ""
        metrics.update({prefix + k: v for k, v in metrics_of(res).items()})
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
