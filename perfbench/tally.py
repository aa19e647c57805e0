"""The record of one timed phase, kept alike by run.py and worker.py.

Stdlib only.  A worker writes ``vars(tally)`` as JSON; the parent rebuilds it
with ``Tally(**doc)``.
"""

from __future__ import annotations

import math
import statistics
import time


def typical(times: list[float]) -> float:
    """A raw operation time for the printed figures: the fastest repeat.

    On a shared machine the fastest repeat is the least disturbed one; the
    gated metrics use probe units instead (see probe.py).
    """
    return min(times)


class Tally:
    """Operations attempted and failed, and per-kind times: raw seconds and
    probe units (the operation's time over the probe kernel's next to it)."""

    def __init__(self, pass_s=None, item_s=None, item_probes=None, units=None,
                 rss_mb=None, attempted=0, failed=0, errors=None):
        self.pass_s: list[float] = pass_s or []
        self.item_s: dict[str, list[float]] = item_s or {}
        self.item_probes: dict[str, list[float]] = item_probes or {}
        self.units: dict[str, int] = units or {}
        self.rss_mb: dict[str, list[float]] = rss_mb or {}
        self.attempted: int = attempted
        self.failed: int = failed
        self.errors: list[str] = errors or []

    def count(self, label: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{label}: {error}")

    def time(self, kind: str, seconds: float, probe_s: float, units: int = 1) -> None:
        self.item_s.setdefault(kind, []).append(seconds)
        self.item_probes.setdefault(kind, []).append(seconds / probe_s)
        self.units[kind] = units

    def another_pass_fits(self, start: float, seconds: float) -> bool:
        """Whether a pass of median length, begun now, ends within ``seconds``."""
        return time.perf_counter() - start + statistics.median(self.pass_s) <= seconds

    # -- metrics ---------------------------------------------------------------

    def wall_s(self) -> float:
        """Raw wall time of one pass, from each kind's fastest repeat."""
        passes = len(self.pass_s)
        return sum(typical(t) * len(t) / passes for t in self.item_s.values())

    def wall_probes(self) -> float:
        """One pass in probe units: each kind's median times its count per pass."""
        passes = len(self.pass_s)
        return sum(statistics.median(r) * len(r) / passes for r in self.item_probes.values())

    def op_probes_geomean(self) -> float:
        """Geometric mean over kinds of the median time in probe units."""
        logs = [math.log(statistics.median(r)) for r in self.item_probes.values()]
        return math.exp(sum(logs) / len(logs))

    def ok_ratio(self) -> float:
        return (self.attempted - self.failed) / self.attempted
