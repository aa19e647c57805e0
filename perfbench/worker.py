"""Child process of the benchmark: everything that imports numpy or stabc.

run.py starts this script with BLAS pinned to one thread and ``src`` on the
path, one process per workload run, so that each run's peak RSS is its own.

    worker.py run --workload oracle|batch --seed N --seconds T --trace 0|1 --out F
        the in-process workloads: a warm-up pass, then timed passes
    worker.py prepare --seed N --dir D --out F
        writes the cli workload's d = 64 state file and its reference value
    worker.py cli --out F --stdout G -- ARGS...
        one ``stabc.cli`` command in this process, traced; its output goes to G

Each mode writes one JSON document to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import probe
import reference as ref
import tracing
from tally import Tally

# Library calls go through the package attributes, which the tracer patches.
import stabc
import stabc.cli

ORACLE_DIMS = (8, 16, 32, 64)
NAIVE_MAX_DIM = 8
# (d, stack size): about 0.1 s per call each on one core.
BATCH_STACKS = ((2, 50000), (3, 40000), (5, 20000), (8, 10000), (16, 2000))
# (d, samples): d = 2 must find no violation, d = 3 must find the witness.
SCANS = ((2, 20000), (3, 10000))
BATCH_SPOT_CHECKS = 3
WORKLOAD_CODES = {"oracle": 1, "batch": 2, "cli": 3}


class Item:
    """One operation of a workload: a call, its units of work and its check."""

    def __init__(self, label, kind, units, fn, args, check):
        self.label, self.kind, self.units = label, kind, units
        self.fn, self.args, self.check = fn, args, check


def provenance() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "stabc": stabc.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# -- oracle: complexity_report on fresh states ---------------------------------


def _report(rho):
    return stabc.complexity_report(stabc.DensityState(rho))


def _check_report(d: int, rank: int, rho):
    def check(rep) -> str | None:
        tol = 1e-9 * d * d
        if rep.path_gap > tol:
            return f"route gap {rep.path_gap:.3e} > {tol:.1e}"
        if not -1e-9 <= rep.c_value <= ref.upper_bound(d) + 1e-9:
            return f"C = {rep.c_value} outside [0, {ref.upper_bound(d)}]"
        if rank == 1 and rep.c_value < d * d - d - 1e-9:
            return f"pure-state C = {rep.c_value} below the floor {d * d - d}"
        if d <= NAIVE_MAX_DIM:
            naive = ref.complexity(rho)
            if abs(rep.c_value - naive) > tol:
                return f"C = {rep.c_value} but the explicit-matrix value is {naive}"
        return None
    return check


def oracle_pass(rng):
    for d in ORACLE_DIMS:
        for rank in (1, 2, d):
            rho = ref.ginibre_density(d, rank, rng)
            yield Item(f"report.d{d}.r{rank}", f"report.d{d}", 1, _report, (rho,),
                       _check_report(d, rank, rho))


# -- batch: the stacked moment route and the convexity scans --------------------


def _batch(stack):
    return stabc.batch_complexity(stack)


def _scan(d, n, seed):
    return stabc.convexity_scan(d, n, seed)


def _check_batch(d: int, stack, rng):
    picks = rng.choice(len(stack), size=BATCH_SPOT_CHECKS, replace=False)

    def check(values) -> str | None:
        if values.shape != (len(stack),):
            return f"result shape {values.shape}"
        lo, hi = float(values.min()), float(values.max())
        if not (-1e-9 <= lo and hi <= ref.upper_bound(d) + 1e-9):
            return f"values [{lo}, {hi}] outside [0, {ref.upper_bound(d)}]"
        for i in picks:
            naive = ref.complexity(stack[i])
            if abs(values[i] - naive) > 1e-9 * d * d:
                return f"entry {i}: {values[i]} but the explicit-matrix value is {naive}"
        return None
    return check


def _check_scan(d: int):
    def check(violations) -> str | None:
        if d == 2 and violations:
            return f"{len(violations)} convexity violations for qubits"
        if d >= 3 and not any(v.index == -1 for v in violations):
            return "the deterministic non-convexity witness was not found"
        return None
    return check


def batch_pass(rng):
    for d, n in BATCH_STACKS:
        stack = ref.ginibre_stack(d, n, rng)
        yield Item(f"batch.d{d}", f"batch.d{d}", n, _batch, (stack,),
                   _check_batch(d, stack, rng))
    for d, n in SCANS:
        seed = int(rng.integers(2**63))
        yield Item(f"scan.d{d}", f"scan.d{d}", n, _scan, (d, n, seed), _check_scan(d))


PASSES = {"oracle": oracle_pass, "batch": batch_pass}


# -- the timed loop ------------------------------------------------------------


def run_item(item: Item, call) -> tuple[float, str | None]:
    t0 = time.perf_counter()
    try:
        out = call(item)
    except Exception:  # a library error is a failed operation, not a harness crash
        return time.perf_counter() - t0, traceback.format_exc(limit=3).strip().splitlines()[-1]
    seconds = time.perf_counter() - t0
    try:
        return seconds, item.check(out)
    except Exception:
        return seconds, "check raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]


def timed_passes(make_pass, rng, seconds: float, tally: Tally, call,
                 after_item=None, after_pass=None) -> None:
    """Run whole passes until the next one would end after ``seconds``.

    A pass's time is the sum of its items' call times; input generation,
    checks and the hooks run outside them.  The probe kernel runs between
    items, and each item is also counted in units of the mean of the probes
    just before and just after it.
    """
    start = time.perf_counter()
    while True:
        pass_s = 0.0
        before = probe.probe()
        for item in make_pass(rng):
            dt, error = run_item(item, call)
            if after_item is not None:
                after_item(item)
            after = probe.probe()
            pass_s += dt
            tally.count(item.label, error)
            tally.time(item.kind, dt, (before + after) / 2, item.units)
            before = after
        tally.pass_s.append(pass_s)
        if after_pass is not None:
            after_pass()
        if not tally.another_pass_fits(start, seconds):
            return


def _direct(item: Item):
    return item.fn(*item.args)


def _named_oracle(per_item: dict[str, list[dict]]) -> dict:
    out = {}
    for d in ORACLE_DIMS:
        profs = [p for label, ps in per_item.items() if label.startswith(f"report.d{d}.")
                 for p in ps]

        def med(f):
            return statistics.median(f(p) for p in profs)

        out[f"complexity.definition_ms.d{d}"] = med(lambda p: 1e3 * p["definition_s"])
        out[f"complexity.moments_us.d{d}"] = med(
            lambda p: 1e6 * tracing.fn_total(p, "complexity.complexity_by_moments"))
        out[f"complexity.report_self_ms.d{d}"] = med(
            lambda p: 1e3 * tracing.fn_total(p, "complexity.complexity_report", 2))
        out[f"matcore.psd_sqrt_ms.d{d}"] = med(lambda p: 1e3 * p["sqrt_s"])
        out[f"matcore.density_check_ms.d{d}"] = med(
            lambda p: 1e3 * tracing.fn_total(p, "matcore.DensityState.__init__"))
        out[f"weyl.coefficient_table_us.d{d}"] = med(
            lambda p: 1e6 * tracing.fn_total(p, "weyl.weyl_coefficient_table")
            / tracing.fn_total(p, "weyl.weyl_coefficient_table", 0))
        out[f"charfun.sqrt_char_table_us.d{d}"] = med(
            lambda p: 1e6 * tracing.fn_total(p, "charfun.sqrt_char_table"))
    return out


def _named_batch(per_item: dict[str, list[dict]]) -> dict:
    out = {}
    for d, n in BATCH_STACKS:
        t = statistics.median(tracing.fn_total(p, "complexity.batch_complexity")
                              for p in per_item[f"batch.d{d}"])
        out[f"complexity.batch_states_per_s.d{d}"] = n / t
    for d, n in SCANS:
        t = statistics.median(tracing.fn_total(p, "complexity.convexity_scan")
                              for p in per_item[f"scan.d{d}"])
        out[f"complexity.scan_samples_per_s.d{d}"] = n / t
    return out


NAMED = {"oracle": _named_oracle, "batch": _named_batch}


def cmd_run(args) -> dict:
    make_pass = PASSES[args.workload]
    rng = np.random.default_rng(
        np.random.SeedSequence([args.seed, WORKLOAD_CODES[args.workload]]))
    timed_passes(make_pass, rng, 0.0, Tally(), _direct)  # warm-up, untimed
    untraced = Tally()
    budget = args.seconds / 2 if args.trace else args.seconds
    timed_passes(make_pass, rng, budget, untraced, _direct)
    doc = {"provenance": provenance(), "untraced": vars(untraced)}
    if not args.trace:
        return doc

    # The traced half: one parent span per item; spans are folded into
    # profiles between items, and the last pass's raw spans are kept.
    tracer = tracing.Tracer()
    per_item: dict[str, list[dict]] = {}
    this_pass: list[dict] = []
    pass_layers: list[dict] = []
    spans_kept: list[dict] = []

    def call(item):
        return tracer.item(item.fn, *item.args)

    def after_item(item):
        spans = tracer.take()
        prof = tracing.profile(spans, tracer.names)
        per_item.setdefault(item.label, []).append(prof)
        this_pass.append({"label": item.label, "spans": spans, "profile": prof})

    def after_pass():
        pass_layers.append(tracing.layer_metrics(tracing.merge([e["profile"] for e in this_pass])))
        spans_kept[:] = [{"label": e["label"], "spans": e["spans"]} for e in this_pass]
        this_pass.clear()

    traced = Tally()
    tracer.install()
    try:
        timed_passes(make_pass, rng, budget, traced, call, after_item, after_pass)
    finally:
        tracer.uninstall()
    doc["traced"] = vars(traced)
    doc["layers"] = {k: statistics.median(m[k] for m in pass_layers) for k in pass_layers[0]}
    doc["named"] = NAMED[args.workload](per_item)
    spans_file = Path(args.out).with_suffix(".spans.json")
    spans_file.write_text(json.dumps({"names": tracer.names, "items": spans_kept}))
    return doc


# -- the cli workload's input and its traced commands ----------------------------


def cmd_prepare(args) -> dict:
    """Seeded full-rank d = 64 density file for ``compute``, with its reference C."""
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, WORKLOAD_CODES["cli"]]))
    d = 64
    rho = ref.ginibre_density(d, d, rng)
    doc = {"dim": d, "kind": "density",
           "matrix": [[float(z.real), float(z.imag)] for z in rho.reshape(-1)]}
    path = Path(args.dir) / "state-d64.json"
    path.write_text(json.dumps(doc) + "\n")
    return {"provenance": provenance(), "state_file": str(path),
            "dim": d, "c_reference": ref.complexity(rho)}


def cmd_cli(args) -> dict:
    """One ``stabc.cli`` command in this process, under the tracer."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with open(args.stdout, "w") as out, contextlib.redirect_stdout(out):
            code = tracer.item(stabc.cli.main, args.argv)
        items = {"command": tracer.take()}
        if args.argv[0] == "compute":
            # No command calls save_state; time it on the state compute loaded.
            doc = stabc.stateio.density_state_dict(stabc.stateio.load_state(args.argv[1]))
            tracer.take()
            tracer.item(stabc.stateio.save_state, doc, Path(args.stdout).with_suffix(".saved.json"))
            items["save"] = tracer.take()
    finally:
        tracer.uninstall()
    Path(args.out).with_suffix(".spans.json").write_text(
        json.dumps({"names": tracer.names, "items": items}))
    return {"exit_code": code,
            "profiles": {k: tracing.profile(v, tracer.names) for k, v in items.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workload", choices=sorted(PASSES), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.set_defaults(func=cmd_run)
    p = sub.add_parser("prepare")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.set_defaults(func=cmd_prepare)
    p = sub.add_parser("cli")
    p.add_argument("--stdout", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p.set_defaults(func=cmd_cli)
    for p in sub.choices.values():
        p.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if getattr(args, "argv", None) and args.argv[0] == "--":
        args.argv = args.argv[1:]
    doc = args.func(args)
    Path(args.out).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
