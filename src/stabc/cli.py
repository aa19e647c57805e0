"""Command-line front end.

Subcommands: ``compute`` (one state file -> JSON report), ``verify`` (named
check suites), ``sweep`` (rho_p family sweep to CSV/JSON), ``extremal``
(extremal-state summary for one dimension), ``sample`` (dump random states).

Exit codes: 0 success, 1 at least one verification check failed, 2 input
parsing or state validation failed, an option would be ignored, or the
input is too large to serve (a MemoryError).  Only
``verify`` and ``sample`` draw random numbers and take ``--seed`` (default:
the ``STABC_SEED`` environment variable, else 0).  Identical command lines
with identical seeds produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .charfun import (
    SOURCE_STATE, _checked_tables, _lp_moments, char_table, lp_moment, sqrt_char_table,
)
from .complexity import (
    _RHO_P_CLOSED_FORM_TOL,
    RhoPFamily,
    _blocks,
    _reports,
    _rho_p_closed_form,
    _rho_p_stack,
    complexity_report,
    complexity_upper_bound,
    pure_complexity_floor,
)
from .errors import NoKnownFiducialError, StateFileError
from .matcore import (
    DensityState,
    _checked_sqrt_stack,
    check_dim,
    random_mixed_stack,
    random_pure_vectors,
    random_rank_mixed_stack,
)
from .states import enumerate_stabilizer_states, known_fiducial
from .stateio import density_state_dict, load_state, pure_state_dict, save_state
from .verify import SUITES, run_suites


def _seed(args) -> int:
    name, seed = "seed", args.seed
    if seed is None:
        name, env = "STABC_SEED", os.environ.get("STABC_SEED") or "0"
        try:
            seed = int(env)
        except ValueError:
            raise ValueError(f"STABC_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise ValueError(f"{name} must be nonnegative, got {seed}")
    return seed


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def cmd_compute(args) -> int:
    state = load_state(args.input)
    report = complexity_report(state)
    doc: dict = {
        "dim": report.dim,
        "purity": report.purity,
        "c_value": report.c_value,
        "c_via_definition": report.c_via_definition,
        "c_via_moments": report.c_via_moments,
        "path_gap": report.path_gap,
        "m4": lp_moment(char_table(state), 4.0),
        "m4_sqrt": lp_moment(sqrt_char_table(state), 4.0),
    }
    if report.m4_fourth_power is not None:
        doc["m4_fourth_power"] = report.m4_fourth_power
        doc["complementarity_sum"] = report.m4_fourth_power + report.c_value
    if args.tables:
        doc["jordan_table"] = report.jordan_table.tolist()
        doc["lie_table"] = report.lie_table.tolist()
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    suites = run_suites([args.suite], dims=args.d, samples=args.samples, seed=_seed(args))
    lines = []
    failed = 0
    for suite_name, rows in suites:
        for r in rows:
            tol = _fmt(r.tolerance) if r.tolerance is not None else "-"
            verdict = "PASS" if r.passed else "FAIL"
            failed += 0 if r.passed else 1
            note = f"  ({r.note})" if r.note else ""
            lines.append(
                f"{suite_name:<16} {r.check_id:<48} observed={_fmt(r.observed):<14} "
                f"tol={tol:<12} {verdict}{note}"
            )
    total = sum(len(rows) for _, rows in suites)
    lines.append(f"{total - failed}/{total} checks passed")
    _emit("\n".join(lines) + "\n", args.out)
    return 1 if failed else 0


def _sweep_anchor(d: int, source: str) -> DensityState:
    if source == "stabilizer":
        return DensityState.pure(np.eye(d, dtype=complex)[:, 0])
    if source == "fiducial":
        return known_fiducial(d).projector()
    return load_state(source)


def cmd_sweep(args) -> int:
    if args.steps < 2:
        raise ValueError(f"--steps must be at least 2, got {args.steps}")
    d = check_dim(args.d)
    psi = _sweep_anchor(d, args.psi)
    if psi.dim != d:
        raise StateFileError(f"anchor state has dim {psi.dim}, sweep requested d={d}")
    c_psi = complexity_report(psi).c_value
    RhoPFamily(psi, 0.0)  # refuses an anchor that is not pure

    grid = np.linspace(0.0, 1.0, args.steps)
    h = grid[1] - grid[0]
    blocks = []
    for block in _blocks(args.steps, d):
        rhos = _rho_p_stack(psi, grid[block])
        reports = _reports(rhos, _checked_sqrt_stack(rhos))
        m4 = _lp_moments(_checked_tables(rhos, SOURCE_STATE), 4.0)
        c_closed = np.array([_rho_p_closed_form(d, p, c_psi) for p in grid[block].tolist()])
        bad = np.flatnonzero(np.abs(c_closed - reports.c_value) > _RHO_P_CLOSED_FORM_TOL)
        if bad.size:
            i = bad[0]
            raise ArithmeticError(f"closed form {c_closed[i]} and generic value "
                                  f"{reports.c_value[i]} disagree at p={grid[block][i]}")
        jordan, lie = reports.jordan, reports.lie
        blocks.append([grid[block], reports.c_value, c_closed, m4, jordan.min(axis=(1, 2)),
                       jordan.max(axis=(1, 2)), lie.min(axis=(1, 2)), lie.max(axis=(1, 2))])
    keys = ["p", "c_value", "c_analytic", "m4", "jordan_min", "jordan_max", "lie_min", "lie_max"]
    columns = dict(zip(keys, map(np.concatenate, zip(*blocks))))
    analytic = columns["c_analytic"]
    second = (analytic[2:] - 2 * analytic[1:-1] + analytic[:-2]) / h**2
    columns = {key: column.tolist() for key, column in columns.items()}
    columns["second_difference"] = [None, *second.tolist(), None]

    if args.format == "json":
        rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
        _emit(json.dumps(rows, indent=2) + "\n", args.out)
    else:
        header = [*keys[:3], "second_difference", *keys[3:]]
        lines = [",".join(header)]
        for row in zip(*(columns[key] for key in header)):
            lines.append(",".join("" if value is None else _fmt(value) for value in row))
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_extremal(args) -> int:
    d = args.d
    states = enumerate_stabilizer_states(d).states
    c_values = []
    for block in _blocks(len(states), d):
        projectors = np.stack([states[i].rho for i in block])
        c_values.append(_reports(projectors, _checked_sqrt_stack(projectors)).c_value)
    c_values = np.concatenate(c_values)
    doc: dict = {
        "dim": d,
        "stabilizer_count": len(c_values),
        "stabilizer_c_min": float(c_values.min()),
        "stabilizer_c_max": float(c_values.max()),
        "pure_floor": pure_complexity_floor(d),
        "global_ceiling": complexity_upper_bound(d),
        "reference_moments": {
            str(p): {
                "stabilizer": d ** (1.0 / p),
                "fiducial": (1 + (d - 1) * (d + 1) ** (1 - p / 2)) ** (1.0 / p),
            }
            for p in (2, 4)
        },
    }
    try:
        fid = known_fiducial(d)
        proj = fid.projector()
        doc["fiducial"] = {
            "c_value": complexity_report(proj).c_value,
            "max_deviation": fid.max_deviation,
            "moment_p2": lp_moment(char_table(proj), 2.0),
            "moment_p4": lp_moment(char_table(proj), 4.0),
        }
    except NoKnownFiducialError:
        pass
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def cmd_sample(args) -> int:
    d = args.d
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    if args.kind == "pure" and args.rank is not None:
        raise ValueError("--rank applies to --kind mixed only")
    rng = np.random.default_rng(np.random.SeedSequence([_seed(args), 100]))
    if args.kind == "pure":
        docs = [pure_state_dict(v) for v in random_pure_vectors(d, args.samples, rng)]
    else:
        if args.rank is None:
            rhos = random_rank_mixed_stack(d, args.samples, rng)
        else:
            rhos = random_mixed_stack(d, [args.rank] * args.samples, rng)
        docs = [density_state_dict(DensityState(rho, check=False)) for rho in rhos]
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for i, doc in enumerate(docs):
            save_state(doc, out_dir / f"state-{i:04d}.json")
        sys.stdout.write(f"wrote {len(docs)} state files to {out_dir}\n")
    else:
        sys.stdout.write(json.dumps(docs, indent=2) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabc",
        description="Phase-space complexity of finite-dimensional quantum states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seeded=False):
        if seeded:
            p.add_argument("--seed", type=int, default=None,
                           help="master seed (default: STABC_SEED env var, else 0)")
        p.add_argument("--out", type=str, default=None, help="write output to this path")

    p = sub.add_parser("compute", help="complexity report for one state file")
    p.add_argument("input", type=str, help="state file (JSON)")
    p.add_argument("--tables", action="store_true", help="include per-point J/I tables")
    add_common(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", nargs="?", default="all", choices=[*SUITES, "all"])
    p.add_argument("--d", type=int, nargs="+", default=None, help="dimensions (one suite only)")
    p.add_argument("--samples", type=int, default=None, help="sample count (one suite only)")
    add_common(p, seeded=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="sweep the rho_p mixing family and emit CSV/JSON")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--psi", type=str, default="stabilizer",
                   help="anchor: 'stabilizer', 'fiducial', or a state-file path")
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("extremal", help="extremal-state summary for one dimension")
    p.add_argument("--d", type=int, default=2)
    add_common(p)
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("sample", help="dump random states as JSON state files")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--kind", choices=("pure", "mixed"), default="pure")
    p.add_argument("--rank", type=int, default=None, help="rank for mixed states")
    p.add_argument("--samples", type=int, default=1)
    add_common(p, seeded=True)
    p.set_defaults(func=cmd_sample)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (StateFileError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError as exc:
        # numpy's allocation failure names the size; a bare MemoryError names nothing
        sys.stderr.write(f"error: input too large to serve: {exc or 'out of memory'}\n")
        return 2
    except ArithmeticError as exc:
        # an internal cross-check (dual-route agreement, bounds, ...) failed
        sys.stderr.write(f"check failed: {exc}\n")
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
