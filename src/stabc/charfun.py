"""Characteristic functions over discrete phase space and their L^p moments.

The characteristic table of an operator A collects c(k, l) = tr(D(k, l) A)
over all d^2 phase-space points; it determines A through the expansion
A = (1/d) sum c*(k, l) D(k, l).  Tables carry a source tag recording whether
they came from a state, from the square root of a state, or from a generic
operator, because the two moment families built on them differ exactly in
that respect:

* ``state`` tables have c(0, 0) = 1 (unit trace) and feed the magic witness
  L^p moments;
* ``sqrt_state`` tables obey sum |c|^2 = d (unit trace of the state) and feed
  the complexity machinery and the square-root moment variant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import DensityState, _as_square, check_dim, psd_sqrt
from .weyl import weyl_coefficient_table, weyl_expand

SOURCE_STATE = "state"
SOURCE_SQRT_STATE = "sqrt_state"
SOURCE_GENERIC = "generic"

_STATE_TRACE_TOL = 1e-12
_SQRT_NORM_TOL = 1e-9


@dataclass(frozen=True)
class CharTable:
    """d x d table of characteristic-function values with a source tag.

    The tag drives invariant checks at construction and is never converted
    silently: moments of a state table and of a square-root table are
    different quantities.
    """

    values: np.ndarray
    source: str

    def __post_init__(self):
        v = _as_square(self.values)
        d = check_dim(v.shape[0])
        if self.source not in (SOURCE_STATE, SOURCE_SQRT_STATE, SOURCE_GENERIC):
            raise ValueError(f"unknown source tag {self.source!r}")
        if self.source == SOURCE_STATE and abs(v[0, 0] - 1.0) > _STATE_TRACE_TOL:
            raise ValueError(
                f"state table has c(0,0) = {v[0, 0]}, expected 1 within {_STATE_TRACE_TOL:.1e}"
            )
        if self.source == SOURCE_SQRT_STATE:
            total = float(np.sum(np.abs(v) ** 2))
            if abs(total - d) > _SQRT_NORM_TOL:
                raise ValueError(
                    f"square-root table has sum |c|^2 = {total}, expected {d} "
                    f"within {_SQRT_NORM_TOL:.1e}"
                )
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


def char_table(a: np.ndarray | DensityState) -> CharTable:
    """Characteristic table c(k, l) = tr(D(k, l) A).

    A :class:`DensityState` argument yields a ``state``-tagged table; a plain
    matrix yields a ``generic`` one.
    """
    if isinstance(a, DensityState):
        return CharTable(weyl_coefficient_table(a.rho), SOURCE_STATE)
    return CharTable(weyl_coefficient_table(a), SOURCE_GENERIC)


def sqrt_char_table(rho: DensityState) -> CharTable:
    """Characteristic table of sqrt(rho), tagged ``sqrt_state``."""
    return CharTable(weyl_coefficient_table(psd_sqrt(rho)), SOURCE_SQRT_STATE)


def reconstruct(table: CharTable) -> np.ndarray:
    """Operator determined by a characteristic table: (1/d) sum c* D(k, l)."""
    return weyl_expand(table.values)


def lp_moment(table: CharTable, p: float = 4.0) -> float:
    """L^p moment (sum |c(k, l)|^p)^(1/p) of a state or square-root table.

    Only defined for p >= 2; generic tables have no moment interpretation
    here and are rejected.
    """
    p = float(p)
    if not p >= 2.0:
        raise ValueError(f"moment exponent must be >= 2, got {p}")
    if table.source == SOURCE_GENERIC:
        raise ValueError("moments are defined for state or sqrt_state tables only")
    return float(np.sum(np.abs(table.values) ** p) ** (1.0 / p))
