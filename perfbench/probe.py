"""A fixed, stabc-free kernel that measures how fast the machine is right now.

Other tenants of a shared machine slow every process by up to 1.8x, in
spells that come and go within seconds.  The benchmark times this kernel next
to every operation and reports operation times as multiples of it, which
cancels the machine's current speed; a change to stabc cannot change the
kernel.  Run as a script, it is the cli workload's probe: a fresh interpreter
that imports numpy and runs the kernel, like a command does.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(12345)
_A = _RNG.standard_normal((8, 8)) + 1j * _RNG.standard_normal((8, 8))
_H = _RNG.standard_normal((64, 6, 6))
_H = _H + np.swapaxes(_H, 1, 2)
SCRIPT_REPEATS = 30


def kernel() -> None:
    """About 1 ms on one core: small matmuls in a Python loop, a stacked eigh."""
    x = _A
    for _ in range(100):
        np.vdot(x @ _A, x)
    np.linalg.eigh(_H)


def probe() -> float:
    """Wall time of one kernel call, in seconds."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


if __name__ == "__main__":
    for _ in range(SCRIPT_REPEATS):
        kernel()
