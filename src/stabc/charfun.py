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

from .matcore import (
    TRACE_TOL,
    DensityState,
    _as_square,
    _check_real,
    _power_sums,
    check_dim,
    psd_sqrt,
)
from .weyl import weyl_coefficient_table, weyl_expand

SOURCE_STATE = "state"
SOURCE_SQRT_STATE = "sqrt_state"
SOURCE_GENERIC = "generic"

_SQRT_NORM_TOL = 1e-9


# eq=False: == and hash by identity, as DensityState; a generated == raises on array fields.
@dataclass(frozen=True, eq=False)
class CharTable:
    """d x d table of characteristic-function values with a source tag.

    The tag drives invariant checks at construction and is never converted
    silently: moments of a state table and of a square-root table are
    different quantities.  Every table must be finite, whatever its tag.
    """

    values: np.ndarray
    source: str

    def __post_init__(self):
        v = _as_square(self.values)
        check_dim(v.shape[0])
        if self.source not in (SOURCE_STATE, SOURCE_SQRT_STATE, SOURCE_GENERIC):
            raise ValueError(f"unknown source tag {self.source!r}")
        _check_invariant(v[None], self.source)  # first, so its message names the failing value
        if not np.isfinite(v).all():
            raise ValueError("characteristic table has non-finite entries")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


def _check_invariant(
    tables: np.ndarray, source: str, square_sums: np.ndarray | None = None
) -> None:
    """Check every member of a stack of tables (n, d, d) against its source's invariant.

    ``state`` tables need c(0, 0) = 1 and ``sqrt_state`` tables
    sum |c|^2 = d; a failure (NaN included) raises ValueError naming the
    first failing member's value.  :class:`CharTable` checks the one-row case.
    ``square_sums`` are the tables' sum |c|^2 if the caller already has them.
    """
    if source == SOURCE_STATE:
        # c(0,0) = tr(D(0,0) A) = tr A: the state's own trace bound.
        what, values, target, tol = "state table has c(0,0)", tables[:, 0, 0], 1, TRACE_TOL
    elif source == SOURCE_SQRT_STATE:
        what, target, tol = "square-root table has sum |c|^2", tables.shape[-1], _SQRT_NORM_TOL
        values = _power_sums(tables, 2) if square_sums is None else square_sums
    else:
        return
    defects = np.abs(values - target)
    if not defects.max(initial=0.0) <= tol:
        i = int(np.argmax(~(defects <= tol)))
        raise ValueError(f"{what} = {values[i]}, expected {target} within {tol:.1e}")


def _checked_tables(stack: np.ndarray, source: str) -> np.ndarray:
    """Characteristic tables of a stack (n, d, d), each checked as a ``source`` table.

    The stacked form of building a :class:`CharTable` per member, bitwise
    the same values, without the per-member copy.
    """
    tables = weyl_coefficient_table(stack)
    _check_invariant(tables, source)
    return tables


def _moment_complexities(roots: np.ndarray) -> np.ndarray:
    """d^2 - sum |c(k,l)(S)|^4 for each root S of a stack (n, d, d): the one moment-route kernel.

    Every C reduces here.  Each table is checked as a ``sqrt_state`` table
    (sum |c|^2 = d), so a member whose trace is not 1 raises ValueError.  The
    check's sums and the moments come from one |c| pass.
    """
    d = roots.shape[-1]
    tables = weyl_coefficient_table(roots)
    squares, fourths = _power_sums(tables, 2, 4)
    _check_invariant(tables, SOURCE_SQRT_STATE, squares)
    return d * d - fourths


def char_table(a: np.ndarray | DensityState) -> CharTable:
    """Characteristic table c(k, l) = tr(D(k, l) A).

    A :class:`DensityState` argument yields a ``state``-tagged table; a plain
    matrix yields a ``generic`` one, and must be finite (ValueError).
    """
    if isinstance(a, DensityState):
        return CharTable(weyl_coefficient_table(a.rho), SOURCE_STATE)
    a = np.asarray(a, dtype=complex)
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return CharTable(weyl_coefficient_table(a), SOURCE_GENERIC)


def sqrt_char_table(rho: DensityState) -> CharTable:
    """Characteristic table of sqrt(rho), tagged ``sqrt_state``."""
    return CharTable(weyl_coefficient_table(psd_sqrt(rho)), SOURCE_SQRT_STATE)


def reconstruct(table: CharTable) -> np.ndarray:
    """Operator determined by a characteristic table: (1/d) sum c* D(k, l)."""
    return weyl_expand(table.values)


def lp_moment(table: CharTable, p: float = 4.0) -> float:
    """L^p moment (sum |c(k, l)|^p)^(1/p) of a state or square-root table.

    Only defined for finite p >= 2; generic tables have no moment
    interpretation here and are rejected.  The one-row case of
    :func:`_lp_moments`.
    """
    if table.source == SOURCE_GENERIC:
        raise ValueError("moments are defined for state or sqrt_state tables only")
    return float(_lp_moments(table.values[None], p)[0])


def _lp_moments(tables: np.ndarray, p: float) -> np.ndarray:
    """L^p moment of each member of a stack of state or square-root tables (n, d, d).

    ValueError for p not finite and >= 2, and for a p so large that a power
    sum overflows.  A sum cannot underflow to zero instead: c(0,0) = 1 in a
    state table, and tr S >= 1 in a square-root table.
    """
    p = _check_real(p, "moment exponent")
    if not 2.0 <= p < np.inf:
        raise ValueError(f"moment exponent must be finite and >= 2, got {p}")
    with np.errstate(over="ignore"):
        sums = _power_sums(tables, p)
    if not np.isfinite(sums).all():
        raise ValueError(f"moment exponent p = {p} overflows the power sum")
    # One scalar pow per member: np.power on an array may take a vector pow
    # (AVX-512) that rounds differently, and printed moments carry the bits.
    return np.array([total ** (1.0 / p) for total in sums])
