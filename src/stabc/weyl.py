"""Discrete Heisenberg-Weyl operator algebra.

The displacement operators on C^d are built from the cyclic shift X
(X|j> = |j+1 mod d>) and the clock Z (Z|j> = omega^j |j>, omega = exp(2 pi i/d))
as

    D(k, l) = tau^(k l) X^k Z^l,        tau = -exp(i pi / d).

tau is a primitive 2d-th root of unity for even d and a d-th root for odd d;
omega = tau^2 in both cases.  All phase arithmetic is done on integer
exponents of tau modulo 2d, so group relations hold exactly:

    D(k,l) D(s,t) = tau^e D((k+s) mod d, (l+t) mod d),
    e = k l + s t + 2 l s - k' l'   (mod 2d),

with (k', l') the reduced index.  When no index reduction occurs the exponent
collapses to the familiar l s - k t; the extra term is the reduction
correction, which matters for even d where tau^d = -1.

Each D(k, l) has one nonzero per column, at row (j + k) mod d.  Coefficient
tables read that support directly and the basis check walks it one shift k
at a time, so nothing here holds all d^2 operators at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError, NotUnitaryError
from .matcore import _as_square, _check_int, check_dim, hs_norm

UNITARY_TOL = 1e-10
# Overlap modulus within this (times d) of d detects proportionality to a
# single displacement operator; exact group structure sits ~6 orders above
# floating noise at the target dimensions.
CLIFFORD_OVERLAP_TOL = 1e-8
_PHASE_SNAP_TOL = 1e-6


def tau_power(d: int, e) -> complex | np.ndarray:
    """tau^e with tau = -exp(i pi / d), for integer exponent(s) e.

    An array of exponents must have an integer dtype.  The exponent is
    reduced mod 2d before exponentiation so the angle is in [0, 2 pi).
    """
    d = check_dim(d)
    if np.ndim(e) == 0:
        e = _check_int(e, "exponent")
    elif not np.issubdtype(np.asarray(e).dtype, np.integer):
        raise ValueError(f"exponents must be integers, got {np.asarray(e).dtype} entries")
    m = (np.asarray(e, dtype=np.int64) * (d + 1)) % (2 * d)
    val = np.exp(1j * np.pi * m / d)
    return complex(val) if np.ndim(e) == 0 else val


@dataclass(frozen=True)
class WeylIndex:
    """Phase-space point (k, l) in Z_d x Z_d."""

    k: int
    l: int
    dim: int

    def __post_init__(self):
        check_dim(self.dim)
        _check_int(self.k, "k")
        _check_int(self.l, "l")
        if not (0 <= self.k < self.dim and 0 <= self.l < self.dim):
            raise ValueError(
                f"index ({self.k}, {self.l}) out of range for dimension {self.dim}"
            )


@dataclass(frozen=True)
class PhaseExponent:
    """Integer exponent e of tau, stored modulo 2d."""

    exponent: int
    dim: int

    def __post_init__(self):
        check_dim(self.dim)
        object.__setattr__(self, "exponent", _check_int(self.exponent, "exponent") % (2 * self.dim))

    @property
    def value(self) -> complex:
        """The unimodular phase tau^e."""
        return tau_power(self.dim, self.exponent)


def weyl_matrix(d: int, k: int, l: int) -> np.ndarray:
    """Matrix of D(k, l); single nonzero per column: D[(j+k) mod d, j] = tau^(kl+2lj)."""
    d = check_dim(d)
    k, l = _check_int(k, "k"), _check_int(l, "l")
    if not (0 <= k < d and 0 <= l < d):
        raise ValueError(f"index ({k}, {l}) out of range for dimension {d}")
    j = np.arange(d)
    m = np.zeros((d, d), dtype=complex)
    m[(j + k) % d, j] = tau_power(d, k * l + 2 * l * j)
    return m


def weyl_coefficient_table(a: np.ndarray) -> np.ndarray:
    """Table of tr(D(k, l) A) over all (k, l), without materializing operators.

    Uses the one-nonzero-per-column structure: tr(D(k,l) A) =
    tau^(kl) sum_j omega^(lj) A[j, (j+k) mod d].

    ``a`` may also be a stack of shape (..., d, d); the result then has the
    same shape, one table per matrix, and every row of the stack goes
    through a single matrix product with the Fourier matrix.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    d = check_dim(a.shape[-1])
    flat, fourier, phase = _table_constants(d)
    # take returns the gather in C order, so the reshape to rows is a view,
    # not a copy of the stack.
    gathered = a.reshape(a.shape[:-2] + (d * d,)).take(flat, axis=-1)
    table = (gathered.reshape(-1, d) @ fourier).reshape(a.shape)
    # In place, with tau as the first operand: numpy's complex multiply
    # rounds differently with the operands swapped, and printed values
    # (verify rows, extremal min/max) carry those last bits.
    return np.multiply(phase, table, out=table)


@lru_cache(maxsize=16)
def _table_constants(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather index, Fourier matrix and phases of :func:`weyl_coefficient_table`.

    flat[k, j] is the flat index of A[j, (j+k) mod d], fourier[j, l] =
    omega^(jl) and phase[k, l] = tau^(kl).  They depend on d alone and cost
    more than the table itself at small d, so they are built once per d and
    shared with :func:`weyl_expand`, :func:`fourier_gate` and the
    definition route of the complexity.
    """
    j = np.arange(d)
    kl = np.outer(j, j)
    constants = ((j[None, :] + j[:, None]) % d + d * j,
                 np.exp(2j * np.pi * kl / d),
                 tau_power(d, kl))
    for array in constants:
        array.setflags(write=False)
    return constants


def weyl_expand(coefficients: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`weyl_coefficient_table`.

    Expands A = (1/d) sum tr(D(k,l)^dag A) D(k,l) over the orthogonal operator
    basis.  The adjoint coefficients come from the stored table through
    D(k,l)^dag = tau^(-e) D(-k, -l) with the integer group-law exponent e, so
    for Hermitian A this coincides with the conjugate-coefficient expansion
    (1/d) sum c* D, and for general A the round trip is still exact.
    """
    c = _as_square(coefficients)
    d = check_dim(c.shape[0])
    _, fourier, phase = _table_constants(d)
    j = np.arange(d)
    rev = (d - j) % d
    e = _product_law(d, j[:, None], j[None, :], rev[:, None], rev[None, :])[0]
    adjoint = tau_power(d, -e) * c[np.ix_(rev, rev)]  # [k, l] = tr(D(k,l)^dag A)
    h = (adjoint * phase) @ fourier / d  # [k, j]
    out = np.empty((d, d), dtype=complex)
    out[(j[:, None] + j[None, :]) % d, j[None, :]] = h
    return out


def _product_law(d: int, k1, l1, k2, l2):
    """Stacked group law D(k1,l1) D(k2,l2) = tau^e D(k, l), elementwise.

    Takes integer arrays (or ints) of valid indices and returns
    (e mod 2d, k, l) of the same shape; :func:`weyl_product_phase` is its
    one-row case.
    """
    k = (k1 + k2) % d
    l = (l1 + l2) % d
    return (k1 * l1 + k2 * l2 + 2 * l1 * k2 - k * l) % (2 * d), k, l


def weyl_product_phase(a: WeylIndex, b: WeylIndex) -> tuple[PhaseExponent, WeylIndex]:
    """Exact group law: matrix(a) @ matrix(b) = tau^e * matrix(reduced index)."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch {a.dim} vs {b.dim}")
    e, k, l = _product_law(a.dim, a.k, a.l, b.k, b.l)
    return PhaseExponent(e, a.dim), WeylIndex(k, l, a.dim)


def weyl_basis_check(d: int) -> bool:
    """True iff tr(D(k,l) D(s,t)^dag) = d delta_ks delta_lt over all d^4 index pairs.

    Checked one shift k at a time on the matrices :func:`weyl_matrix` writes.
    Each D(k, l) must have its d nonzeros at rows (j + k) mod d of columns j
    and none elsewhere, so operators of different shifts have disjoint
    supports.  Within a shift the traces form the Gram matrix of the phase
    vectors D(k, l)[(j + k) mod d, j], which must be d times the identity;
    a NaN entry fails the comparison.
    """
    d = check_dim(d)
    j = np.arange(d)
    ops = np.empty((d, d, d), dtype=complex)  # [l] = D(k, l), refilled per shift
    for k in range(d):
        for l in range(d):
            ops[l] = weyl_matrix(d, k, l)
        phases = ops[:, (j + k) % d, j]  # [l, j]
        if np.count_nonzero(ops) != d * d or np.count_nonzero(phases) != d * d:
            return False
        if not float(np.abs(phases @ phases.conj().T - d * np.eye(d)).max()) <= 1e-10 * d:
            return False
    return True


def fourier_gate(d: int) -> np.ndarray:
    """Discrete Fourier unitary F[j, k] = omega^(jk) / sqrt(d).

    F normalizes the displacement group: conjugation maps D(k, l) to
    D(-l mod d, k) up to a tau power, so :func:`clifford_conjugation_table`
    always succeeds on it.
    """
    d = check_dim(d)
    return _table_constants(d)[1] / np.sqrt(d)


def _snap_phase(d: int, measured: complex) -> PhaseExponent | None:
    """Nearest tau^e to a measured unimodular phase; None if nothing is close."""
    candidates = tau_power(d, np.arange(2 * d))
    dist = np.abs(candidates - measured)
    e = int(np.argmin(dist))
    if dist[e] > _PHASE_SNAP_TOL:
        return None
    return PhaseExponent(e, d)


def clifford_conjugation_table(
    u: np.ndarray,
) -> dict[tuple[int, int], tuple[PhaseExponent, WeylIndex]] | None:
    """Conjugation action of a unitary on the displacement operators.

    For each (k, l) the image u D(k,l) u^dag is projected onto the operator
    basis.  If every image is proportional to a single displacement operator
    (overlap modulus d within tolerance, phase on the tau lattice) the full
    permutation-with-phase table is returned; otherwise None, meaning u does
    not normalize the displacement group.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise NotUnitaryError(f"expected a square matrix, got shape {u.shape}")
    d = check_dim(u.shape[0])
    if not np.isfinite(u).all():
        raise NotUnitaryError("matrix has non-finite entries")
    defect = hs_norm(u.conj().T @ u - np.eye(d))
    if not defect <= UNITARY_TOL * d:
        raise NotUnitaryError(f"unitarity defect {defect:.3e} exceeds {UNITARY_TOL * d:.3e}")

    udag = u.conj().T
    table: dict[tuple[int, int], tuple[PhaseExponent, WeylIndex]] = {}
    for k in range(d):
        for l in range(d):
            image = u @ weyl_matrix(d, k, l) @ udag
            # tr(D(s,t)^dag image) = conj(tr(D(s,t) image^dag))
            overlaps = np.conjugate(weyl_coefficient_table(image.conj().T))
            hits = np.argwhere(np.abs(np.abs(overlaps) - d) <= CLIFFORD_OVERLAP_TOL * d)
            if len(hits) != 1:
                return None
            s, t = (int(hits[0][0]), int(hits[0][1]))
            phase = _snap_phase(d, overlaps[s, t] / d)
            if phase is None:
                return None
            table[(k, l)] = (phase, WeylIndex(s, t, d))
    return table
