"""Benchmark-side spans around the calls into each stabc module.

The library carries no tracing of its own.  ``Tracer.install`` replaces every
function defined in a layer module (and ``DensityState.__init__``) by a
wrapper that records a span, in every stabc module that bound the same
function object, so calls between modules are traced too.  ``uninstall``
puts the originals back.  Spans stay in memory as tuples
``(function id, start, end, parent index, dim tag)``; ``profile`` folds
them into per-function numbers and ``layer_metrics`` into per-layer ones.

This module is stdlib only: the parent process aggregates spans that child
processes wrote, and never imports numpy.
"""

from __future__ import annotations

import functools
import importlib
import time
import types

LAYERS = ("matcore", "weyl", "charfun", "states", "complexity", "stateio", "verify", "cli")

# Functions whose first argument says which dimension the call works at; the
# named per-size layer numbers need it where the item label does not carry it.
_DIM_TAGGED = {
    "weyl.weyl_basis_check",
    "weyl.clifford_conjugation_table",
    "states.enumerate_stabilizer_states",
}

ITEM = 0  # function id of the benchmark's own item spans


def _dim_of(arg) -> int | None:
    if isinstance(arg, int):
        return arg
    shape = getattr(arg, "shape", None)
    return int(shape[-1]) if shape else None


class Tracer:
    """Span recorder that patches the stabc modules while installed."""

    def __init__(self):
        self.names = ["item"]
        self.spans: list = []
        self._stack = [-1]
        self._undo: list = []

    # -- recording -----------------------------------------------------------

    def item(self, fn, *args):
        """Run ``fn(*args)`` as one workload item: a parent span of its own."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (ITEM, t0, t1, parent, None)

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, fn, name: str):
        fid = len(self.names)
        self.names.append(name)
        stack = self._stack
        tagged = name in _DIM_TAGGED
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans[idx] = (fid, t0, t1, parent,
                              _dim_of(args[0]) if tagged and args else None)

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"stabc.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in vars(mod).items():
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(obj, f"{layer}.{name}")
        for mod in importlib.import_module("stabc"), *modules:
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._undo.append((mod.__dict__, name, obj))
                    setattr(mod, name, wrappers[obj])
        suites = modules[LAYERS.index("verify")].SUITES
        for name, fn in list(suites.items()):
            self._undo.append((suites, name, fn))
            suites[name] = wrappers[fn]
        density = modules[LAYERS.index("matcore")].DensityState
        self._undo.append((density, "__init__", density.__init__))
        density.__init__ = self._wrap(density.__init__, "matcore.DensityState.__init__")

    def uninstall(self) -> None:
        for target, name, original in reversed(self._undo):
            if isinstance(target, dict):
                target[name] = original
            else:
                setattr(target, name, original)
        self._undo.clear()


# -- aggregation ---------------------------------------------------------------


def profile(spans: list, names: list) -> dict:
    """Calls, total and self time per function, plus two routes, from spans.

    A span's self time is its duration minus that of its direct children.
    Functions with a dimension tag are keyed ``name@d<dim>``.  The routes are
    the definition route without the square root it triggers, and the time
    spent computing square roots (cached lookups excluded).
    """
    n = len(spans)
    child_time = [0.0] * n
    sqrt_child_time = [0.0] * n
    computes_sqrt = [False] * n
    for fid, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
            if names[fid] == "matcore.psd_sqrt":
                sqrt_child_time[parent] += t1 - t0
            elif names[fid] == "matcore._psd_sqrt_matrix":
                computes_sqrt[parent] = True
    fns: dict[str, list] = {}
    prof = {"fn": fns, "item_s": 0.0, "definition_s": 0.0, "sqrt_s": 0.0, "spans": n}
    for i, (fid, t0, t1, parent, tag) in enumerate(spans):
        dur = t1 - t0
        if fid == ITEM:
            prof["item_s"] += dur if parent < 0 else 0.0
            continue
        name = names[fid]
        rec = fns.setdefault(name if tag is None else f"{name}@d{tag}", [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child_time[i]
        if name == "complexity._definition_tables":
            prof["definition_s"] += dur - sqrt_child_time[i]
        elif computes_sqrt[i] or name == "matcore._batch_psd_sqrt":
            prof["sqrt_s"] += dur
    return prof


def merge(profiles: list[dict]) -> dict:
    """Sum of several profiles, e.g. the items of one pass."""
    out = {"fn": {}, "item_s": 0.0, "definition_s": 0.0, "sqrt_s": 0.0, "spans": 0}
    for prof in profiles:
        for key in ("item_s", "definition_s", "sqrt_s", "spans"):
            out[key] += prof[key]
        for name, rec in prof["fn"].items():
            acc = out["fn"].setdefault(name, [0, 0.0, 0.0])
            for j in range(3):
                acc[j] += rec[j]
    return out


def fn_total(prof: dict, name: str, field: int = 1) -> float:
    """Summed calls (field 0), time (1) or self time (2) of one function.

    ``name`` is either a function (all its dimension tags) or ``name@d<dim>``.
    """
    return sum(rec[field] for key, rec in prof["fn"].items()
               if name in (key, key.split("@")[0]))


def layer_metrics(prof: dict) -> dict:
    """The per-layer metrics every workload reports from one pass."""
    out = {}
    for layer in LAYERS:
        recs = [rec for key, rec in prof["fn"].items() if key.startswith(layer + ".")]
        self_s = sum(rec[2] for rec in recs)
        out[f"{layer}.self_ms"] = 1e3 * self_s
        out[f"{layer}.calls"] = sum(rec[0] for rec in recs)
        out[f"{layer}.share_pct"] = 100.0 * self_s / prof["item_s"] if prof["item_s"] else 0.0
    out.update({
        "complexity.definition_ms": 1e3 * prof["definition_s"],
        "complexity.definition.calls": fn_total(prof, "complexity._definition_tables", 0),
        "complexity.report.calls": fn_total(prof, "complexity.complexity_report", 0),
        "matcore.psd_sqrt_ms": 1e3 * prof["sqrt_s"],
        "weyl.coefficient_table_ms": 1e3 * fn_total(prof, "weyl.weyl_coefficient_table"),
        "complexity.batch_ms": 1e3 * fn_total(prof, "complexity.batch_complexity"),
        "trace.spans": prof["spans"],
    })
    return out
