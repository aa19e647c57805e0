"""Dense complex-matrix primitives: density states, PSD square roots and
seeded random-state generation.

All routines target dense double precision at desk scale; dimensions above
``DIM_CAP`` are rejected rather than silently degraded.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from math import prod, sqrt

import numpy as np

from .errors import DimensionMismatchError, NegativeEigenvalueError, NotHermitianError

# Hard dimension cap: every algorithm here is O(d^3)-O(d^4) dense.
DIM_CAP = 64
# Matrix entries per block of any stacked evaluation (see _blocks): 4,096 qubit states.
_BLOCK_ENTRIES = 2**14

# Tolerances.  Matrix-norm checks scale with dimension, scalar trace checks
# are absolute.
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
PURITY_TOL = 1e-8
EIGENVALUE_FLOOR = -1e-10
SQRT_CONSISTENCY_TOL = 1e-9
# Eigenvalues below this fraction of the largest one are rank-deficiency dust
# (eigh resolves true zeros only to ~1e-15): square-rooting them would inject
# sqrt(dust) ~ 1e-8 errors, so they are zeroed instead.
SQRT_RANK_RCOND = 1e-13


def _check_int(value, name: str) -> int:
    """``value`` as an int: Python and numpy integers pass, bools and anything else raise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_real(value, name: str) -> float:
    """``value`` as a float: Python and numpy reals pass; bools, strings, None, complex
    numbers and anything else raise."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _check_count(value, name: str) -> int:
    """``value`` as a nonnegative int, checked as by :func:`_check_int`."""
    value = _check_int(value, name)
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")
    return value


def check_dim(d: int) -> int:
    """Validate a Hilbert-space dimension against the dense cap."""
    d = _check_int(d, "dimension")
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    if d > DIM_CAP:
        raise ValueError(f"dimension {d} exceeds the dense cap {DIM_CAP}")
    return d


def _blocks(n: int, d: int) -> Iterator[range]:
    """The one block rule: range(n) cut into blocks of max(1, _BLOCK_ENTRIES // d^2) members.

    The blocks are made as they are taken, so a huge n costs nothing up
    front; a caller that goes over them twice calls this twice.
    """
    size = max(1, _BLOCK_ENTRIES // (d * d))
    return (range(first, min(first + size, n)) for first in range(0, n, size))


def _as_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def hs_norm(a: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm: the one-row case of :func:`_hs_norms`.

    Bitwise ``np.linalg.norm`` of a C-ordered array.
    """
    a = np.asarray(a)
    if not np.issubdtype(a.dtype, np.inexact):  # as np.linalg.norm: a bool matmul is an "or"
        a = a.astype(float)
    return float(_hs_norms(a[None])[0])


def _hs_norms(stack: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each member of a stack, shape (n, ...) -> (n,).

    Each norm is the dot product over the strided real and imaginary views
    that ``np.linalg.norm`` takes (a dot over contiguous copies rounds
    differently), one ``np.vecdot`` row per member, so it is bitwise
    ``np.linalg.norm(stack[i])``.
    """
    flat = stack.reshape(stack.shape[0], prod(stack.shape[1:]))
    re, im = flat.real, flat.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


@lru_cache(maxsize=16)
def _triangle_constants(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The flat indices of the lower triangle of a d x d matrix, diagonal included, and of
    its mirror, and the weights of the triangle's real view: 1 on the diagonal, 2 below it."""
    rows, cols = np.tril_indices(d)
    constants = (rows * d + cols, cols * d + rows, np.repeat(np.where(rows == cols, 1.0, 2.0), 2))
    for array in constants:
        array.setflags(write=False)
    return constants


def _check_density(stack: np.ndarray, message: str) -> None:
    """The one density acceptance rule for a stack (n, d, d): Hermitian, then unit trace.

    First ||A - A^dag||_F <= HERMITIAN_TOL d for every member, else
    NotHermitianError, with ``message`` formatted with the worst member's
    ``defect`` and the ``tol``.  Entry (j, i) of A - A^dag has the modulus of
    entry (i, j), so each norm is read from the lower triangle and its mirror,
    an off-diagonal pair counting twice and the diagonal once.  NaN or inf in
    either triangle makes a defect NaN or inf, which fails.  Then
    |tr A - 1| <= TRACE_TOL for every member, else ValueError naming the
    worst member's trace.  Both are read in one walk over the blocks of
    :func:`_blocks`.  Each trace is one ``einsum`` over its member's
    diagonal, and each squared defect one ``einsum`` of its member's row
    against the weights, so both are bitwise the same at every position of
    every stack (a block matrix-vector product rounded some rows one ulp
    away from the member alone).
    """
    n, d = stack.shape[0], stack.shape[-1]
    lower_at, mirror_at, weights = _triangle_constants(d)
    worst, worst_offset, worst_trace = 0.0, 0.0, 1.0
    for block in _blocks(n, d):
        members = stack[block.start:block.stop]
        # A NaN trace comes only with a non-finite entry, which fails the
        # Hermiticity test first, so only finite offsets need comparing.
        traces = np.einsum("nii->n", members)
        offsets = np.abs(traces - 1.0)
        i = offsets.argmax()  # argmax and an index: ~1 us less than max on a stack of one
        if offsets[i] > worst_offset:
            worst_offset, worst_trace = offsets[i], traces[i]
        # take gathers in C order, as the definition route reads its diagonals,
        # into two contiguous buffers (the steps below on two views of one
        # buffer are strided, and ~4x slower on a block).
        flat = members.reshape(-1, d * d)
        defect, mirror = flat.take(lower_at, axis=1), flat.take(mirror_at, axis=1)
        np.subtract(defect, np.conjugate(mirror, out=mirror), out=defect)
        parts = defect.view(np.float64)
        squares = np.einsum("nk,k->n", np.multiply(parts, parts, out=parts), weights).max()
        if squares > worst or squares != squares:  # a NaN, once met, stays the worst
            worst = squares
    worst, tol = sqrt(worst), HERMITIAN_TOL * d
    if not worst <= tol:
        raise NotHermitianError(message.format(defect=worst, tol=tol))
    if worst_offset > TRACE_TOL:
        raise ValueError(f"trace {complex(worst_trace)} is not 1 within {TRACE_TOL:.1e}")


class DensityState:
    """A d-dimensional density operator with a write-once cached PSD square root.

    The wrapped array must be finite; with ``check`` it is also validated
    (Hermitian, then unit trace, by the one rule of :func:`_check_density`,
    as a stack of one) and its square root, whose floor check bounds the
    eigenvalues, is computed at construction; otherwise on first access.  The
    array and the root are frozen, so instances are safe to share.
    """

    __slots__ = ("_rho", "_sqrt")

    def __init__(self, rho: np.ndarray, *, check: bool = True):
        rho = np.array(_as_square(rho), dtype=complex)
        check_dim(rho.shape[0])
        # Every tolerance test below is False for NaN, so non-finite input
        # is rejected first, whatever the check flag says.
        if not np.isfinite(rho).all():
            raise ValueError("density matrix has non-finite entries")
        if check:
            _check_density(
                rho[None], "density matrix symmetry defect {defect:.3e} exceeds {tol:.3e}")
        rho.setflags(write=False)
        self._rho = rho
        self._sqrt = None
        if check:
            psd_sqrt(self)

    @property
    def rho(self) -> np.ndarray:
        return self._rho

    @property
    def dim(self) -> int:
        return self._rho.shape[0]

    def purity(self) -> float:
        """tr(rho^2): the one-row case of :func:`_power_sums` with p = 2."""
        return float(_power_sums(self._rho[None], 2)[0])

    def is_pure(self) -> bool:
        """The one-row case of :func:`_pure_members`."""
        return _pure_members(self._rho[None], psd_sqrt(self)[None])[1].size == 1

    @classmethod
    def pure(cls, vector: np.ndarray) -> "DensityState":
        """Rank-1 projector onto a (re)normalized state vector, given as a 1-D array."""
        v = np.asarray(vector, dtype=complex)
        if v.ndim != 1:
            raise ValueError(f"expected a state vector (1-D), got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("state vector has non-finite entries")
        with np.errstate(over="ignore"):  # a norm past the float range is inf, refused below
            n = np.linalg.norm(v)
        if not 1e-12 <= n < np.inf:
            raise ValueError(f"cannot normalize a vector of norm {n:.3e}")
        v = v / n
        return cls(np.outer(v, v.conj()), check=False)

    @classmethod
    def maximally_mixed(cls, d: int) -> "DensityState":
        d = check_dim(d)
        return cls(np.eye(d, dtype=complex) / d, check=False)

    def __repr__(self) -> str:  # pragma: no cover
        return f"DensityState(dim={self.dim}, purity={self.purity():.6f})"


def _power_sums(stack: np.ndarray, p: float) -> np.ndarray:
    """sum |x|^p of each matrix of a stack (..., d, d): the one power-sum reduction.

    Over characteristic tables it gives the moments; at p = 2 over states, the purity.
    One real pass, with no complex hypot and no libm pow at p = 2 or 4: p = 2
    contracts the stack's real view (real and imaginary parts side by side)
    with itself, p = 4 contracts |x|^2 = Re(x conj(x)) with itself, and any
    other p sums (|x|^2)^(p/2).  Each sum is one ``einsum`` per member, so a
    member's sum is bitwise the same at every position of every stack: a sum
    over axes (-2, -1) costs ~3x as much on short rows, and a matrix-vector
    product rounds by position.
    """
    # The float64 view needs contiguous complex rows: a strided or real stack is copied.
    stack = np.ascontiguousarray(stack, dtype=complex)
    if p == 2:
        parts = stack.view(np.float64)
        return np.einsum("...ij,...ij->...", parts, parts)
    # One complex buffer: a second temporary raises a block's peak.
    product = np.conjugate(stack)
    squares = np.multiply(stack, product, out=product).real
    if p == 4:
        return np.einsum("...ij,...ij->...", squares, squares)
    return np.einsum("...ij->...", squares ** (p / 2))


def _pure_members(rhos: np.ndarray, roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one purity rule: the purities of a stack's members and the indices of the pure ones.

    Pure means purity 1 and a rank-one root, both within PURITY_TOL.  Purity
    alone accepts lambda_2 up to ~5e-9, where C, which moves with sqrt(lambda_2),
    is off by ~1e-4.  (tr S)^2 - tr rho = sum_{i != j} sqrt(lambda_i lambda_j)
    is rounding-level for a rank-one root and at least 2 sqrt(SQRT_RANK_RCOND)
    ~ 6e-7 for any other.  ``roots`` is the stack's roots; the traces, one
    ``einsum`` per member, are taken only when some member's purity passes.
    """
    purities = _power_sums(rhos, 2)
    at = (purities >= 1.0 - PURITY_TOL).nonzero()[0]
    if at.size:  # indexing by an empty array costs more than the purity test itself
        traces = np.einsum("nii->n", roots)[at].real
        at = at[traces**2 - np.einsum("nii->n", rhos)[at].real <= PURITY_TOL]
    return purities, at


def psd_sqrt(state: DensityState) -> np.ndarray:
    """Square root of a density operator, cached write-once on the state.

    The root is the one-row case of :func:`_checked_sqrt_stack`, so a single
    state and a stack follow the same floor, dust and consistency rules; it
    is computed once (at construction for a checked state).
    """
    if state._sqrt is None:
        root = _checked_sqrt_stack(state.rho[None])[0]
        root.setflags(write=False)
        state._sqrt = root
    return state._sqrt


def _checked_sqrt_stack(rhos: np.ndarray) -> np.ndarray:
    """:func:`_batch_psd_sqrt` of a stack (n, d, d), every root checked against its member.

    ||S^2 - rho|| <= SQRT_CONSISTENCY_TOL must hold for each member (NaN
    fails), else ArithmeticError; the error reports the worst residual.
    """
    roots = _batch_psd_sqrt(rhos)
    residual = float(_hs_norms(roots @ roots - rhos).max(initial=0.0))
    if not residual <= SQRT_CONSISTENCY_TOL:
        raise ArithmeticError(
            f"square-root consistency check failed: residual {residual:.3e} "
            f"exceeds {SQRT_CONSISTENCY_TOL:.1e}"
        )
    return roots


def mix(states: list[DensityState] | tuple[DensityState, ...], weights) -> DensityState:
    """Convex mixture of density states."""
    weights = np.asarray(weights, dtype=float)
    if len(states) != weights.size or weights.size == 0:
        raise ValueError("states and weights must be non-empty and equal length")
    if not np.isfinite(weights).all():
        raise ValueError("mixture weights have non-finite entries")
    if not (weights >= -1e-12).all():
        raise ValueError("mixture weights must be nonnegative")
    total = float(weights.sum())
    if not abs(total - 1.0) <= 1e-8:
        raise ValueError(f"mixture weights sum to {total}, expected 1 within 1e-8")
    d = states[0].dim
    acc = np.zeros((d, d), dtype=complex)
    for w, s in zip(weights, states):
        if s.dim != d:
            raise DimensionMismatchError("mixture components have different dimensions")
        acc += (w / total) * s.rho
    return DensityState(acc, check=False)


def random_pure_vectors(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """The pure-state sampler: n Haar-random unit vectors, the rows of an (n, d) array.

    Each row is a standard complex Gaussian vector (d real parts, then d
    imaginary parts) divided by its norm, all from one
    ``rng.standard_normal((n, 2, d))`` draw.  That draw reads the generator
    exactly as n one-vector draws in sequence, and each norm is bitwise
    ``np.linalg.norm`` (:func:`_hs_norms`), so the rows are bitwise those of
    n sequential draws.
    """
    d = check_dim(d)
    x = rng.standard_normal((_check_count(n, "n"), 2, d))
    v = x[:, 0] + 1j * x[:, 1]
    return v / _hs_norms(v)[:, None]


def random_pure_stack(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Projectors onto :func:`random_pure_vectors`, shape (n, d, d)."""
    u = random_pure_vectors(d, n, rng)
    return u[:, :, None] * u[:, None, :].conj()


def random_pure(d: int, seed) -> DensityState:
    """Haar-random pure state: the one-row case of :func:`random_pure_stack`."""
    return DensityState(random_pure_stack(d, 1, np.random.default_rng(seed))[0], check=False)


def random_mixed_stack(d: int, ranks, rng: np.random.Generator) -> np.ndarray:
    """The rank-constrained Ginibre sampler: one state per entry of ``ranks``.

    rho = G G^dag / tr(G G^dag) with G a d-by-rank standard complex Gaussian
    matrix (its real parts, then its imaginary parts, row-major); rank 1
    reproduces the Haar pure-state distribution.  All 2 d r_i normals come
    from one draw, and each member's product and trace are its own (see
    :func:`_ginibre_stack`), so the stack is bitwise what sequential
    :func:`random_mixed` calls return and leaves the generator in the same
    state.
    """
    d = check_dim(d)
    ranks = np.asarray(ranks).reshape(-1)
    # An empty list has a float dtype, and no rank to refuse.
    if ranks.size and not np.issubdtype(ranks.dtype, np.integer):
        raise ValueError(f"ranks must be integers, got {ranks.dtype} entries")
    ranks = ranks.astype(int, copy=False)
    bad = ranks[(ranks < 1) | (ranks > d)]
    if bad.size:
        raise ValueError(f"rank must be in [1, {d}], got {bad[0]}")
    return _ginibre_stack(d, ranks, rng.standard_normal(2 * d * int(ranks.sum())))


def random_rank_mixed_stack(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """The uniform-rank Ginibre sampler: n states of ranks drawn uniformly from 1..d.

    All n ranks come from one ``rng.integers`` draw, then the states from
    :func:`random_mixed_stack`.
    """
    return random_mixed_stack(d, rng.integers(1, check_dim(d) + 1, size=_check_count(n, "n")), rng)


def _ginibre_stack(d: int, ranks: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Trace-normalized Grams of the Ginibre factors laid out back to back in ``normals``.

    Member i's 2 d r_i normals follow those of the members before it.  One
    batched product per distinct rank; each member's product rounds exactly
    as the single-matrix ``g @ g.conj().T``, its trace is one ``einsum`` over
    its diagonal, bitwise the same at every position of the stack, and the
    stack is normalized in place.
    """
    sizes = 2 * d * ranks
    starts = np.cumsum(sizes) - sizes
    out = np.empty((ranks.size, d, d), dtype=complex)
    # np.flatnonzero(np.bincount(...)) lists the distinct ranks; np.unique would
    # import numpy.ma (~14 ms and ~1.3 MB per process).
    for r in np.flatnonzero(np.bincount(ranks)):
        members = np.flatnonzero(ranks == r)
        blocks = normals[starts[members][:, None] + np.arange(2 * d * r)]
        g = blocks[:, : d * r].reshape(-1, d, r) + 1j * blocks[:, d * r :].reshape(-1, d, r)
        out[members] = g @ g.conj().swapaxes(-1, -2)
    return np.divide(out, np.einsum("nii->n", out).real[:, None, None], out=out)


def random_mixed(d: int, rank: int, seed) -> DensityState:
    """Random rank-constrained Ginibre state: the one-row case of :func:`random_mixed_stack`."""
    rank = _check_int(rank, "rank")
    return DensityState(random_mixed_stack(d, [rank], np.random.default_rng(seed))[0], check=False)


def haar_unitary(d: int, seed) -> np.ndarray:
    """Haar-distributed random unitary (QR of a Ginibre matrix, phase-fixed)."""
    d = check_dim(d)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    diag = np.einsum("ii->i", r)
    return q * (diag / np.abs(diag))


def _batch_psd_sqrt(rhos: np.ndarray) -> np.ndarray:
    """PSD square roots of a stack of Hermitian PSD matrices, shape (..., d, d).

    The one root kernel: :func:`psd_sqrt` calls it on a stack of one.  Reads
    the lower triangle of each matrix, as ``eigh`` does.  Every member's
    eigenvalues obey the one PSD rule of :func:`_cut_spectrum`.  d >= 3 uses
    one stacked ``eigh`` and rebuilds each root as one matrix product; d = 2
    uses the closed form S = (rho + sqrt(l+ l-) 1) / (sqrt(l+) + sqrt(l-)),
    which needs no eigenvectors.  An empty stack has an empty stack of roots.
    """
    if rhos.shape[-1] == 2:
        return _qubit_psd_sqrt(rhos)
    w, v = np.linalg.eigh(rhos)
    _cut_spectrum(w, w[..., -1:])
    scaled = v * np.sqrt(w)[..., None, :]
    # Conjugated in place: a conjugated copy would be one more stack-sized
    # temporary at the peak of a large batch.
    return scaled @ np.conjugate(v, out=v).swapaxes(-1, -2)


def _cut_spectrum(w: np.ndarray, top: np.ndarray) -> None:
    """The one PSD rule for the eigenvalues ``w`` of a stack, applied in place.

    An eigenvalue below EIGENVALUE_FLOOR raises NegativeEigenvalueError (a
    NaN does not); then every eigenvalue below SQRT_RANK_RCOND times ``top``,
    its member's largest eigenvalue broadcast against ``w``, is zeroed.
    """
    low = float(w.min(initial=0.0))
    if low < EIGENVALUE_FLOOR:
        raise NegativeEigenvalueError(
            f"eigenvalue {low:.3e} below tolerated floor {EIGENVALUE_FLOOR:.1e}")
    np.copyto(w, 0.0, where=w < SQRT_RANK_RCOND * top)


def _qubit_psd_sqrt(rhos: np.ndarray) -> np.ndarray:
    # The closed form of _batch_psd_sqrt, each step written into four block-sized
    # buffers (lam_minus and lam_plus, the two rows of one, t, u) in the operation
    # order of the plain expressions, so the roots are bitwise theirs.
    a = rhos[..., 0, 0].real
    c = rhos[..., 1, 1].real
    b = rhos[..., 1, 0]
    lam = np.empty((2,) + a.shape)
    lam_minus, lam_plus = lam
    t, u = np.empty(a.shape), np.empty(a.shape)
    np.square(b.real, out=u)
    u += np.square(b.imag, out=t)  # u = |b|^2
    np.multiply(0.5, np.add(a, c, out=lam_plus), out=lam_plus)
    np.multiply(0.25, np.square(np.subtract(a, c, out=t), out=t), out=t)
    lam_plus += np.sqrt(np.add(t, u, out=t), out=t)
    # det / l+ rather than tr - l+, which cancels for near-pure states; where
    # l+ <= 0 there is nothing to divide by and nothing to cancel.
    np.subtract(np.add(a, c, out=lam_minus), lam_plus, out=lam_minus)
    mask = np.greater(lam_plus, 0)
    np.divide(np.subtract(np.multiply(a, c, out=t), u, out=t), lam_plus, out=lam_minus, where=mask)
    _cut_spectrum(lam, lam_plus)
    norm = np.sqrt(lam_minus, out=t)
    norm += np.sqrt(lam_plus, out=u)
    # A member whose eigenvalues are both zeroed has the zero root.
    u.fill(0.0)
    scale = np.divide(1.0, norm, out=u, where=np.greater(norm, 0, out=mask))
    shift = np.sqrt(np.multiply(lam_plus, lam_minus, out=lam_plus), out=lam_plus)
    root = np.empty(rhos.shape, dtype=complex)
    np.multiply(np.add(a, shift, out=t), scale, out=root[..., 0, 0])
    np.multiply(np.add(c, shift, out=t), scale, out=root[..., 1, 1])
    np.multiply(b, scale, out=root[..., 1, 0])
    np.multiply(np.conjugate(b, out=root[..., 0, 1]), scale, out=root[..., 0, 1])
    return root
