"""Dense complex-matrix primitives: Hermitian eigendecompositions, PSD square
roots, Hilbert-Schmidt inner products, and seeded random-state generation.

All routines target dense double precision at desk scale; dimensions above
``DIM_CAP`` are rejected rather than silently degraded.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NegativeEigenvalueError, NotHermitianError

# Hard dimension cap: every algorithm here is O(d^3)-O(d^4) dense.
DIM_CAP = 64

# Default tolerances.  Matrix-norm checks scale with dimension, scalar trace
# checks are absolute; callers may override per call.
HERMITIAN_TOL = 1e-12
EIG_HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
SQRT_CONSISTENCY_TOL = 1e-9
# Eigenvalues below this fraction of the largest one are rank-deficiency dust
# (eigh resolves true zeros only to ~1e-15): square-rooting them would inject
# sqrt(dust) ~ 1e-8 errors, so they are zeroed instead.
SQRT_RANK_RCOND = 1e-13


def check_dim(d: int) -> int:
    """Validate a Hilbert-space dimension against the dense cap."""
    d = int(d)
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    if d > DIM_CAP:
        raise ValueError(f"dimension {d} exceeds the dense cap {DIM_CAP}")
    return d


def _as_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product tr(a^dag b)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def hs_norm(a: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(np.asarray(a)))


def hermitianize(m: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (m + m^dag) / 2."""
    m = np.asarray(m, dtype=complex)
    return (m + m.conj().T) / 2


def hermitian_eig(m: np.ndarray, *, tol: float = EIG_HERMITIAN_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns eigenvalues in ascending order and the unitary matrix of
    eigenvectors (columns).  Raises :class:`NotHermitianError` when the
    symmetry defect exceeds ``tol * d`` in Hilbert-Schmidt norm.
    """
    m = _as_square(m)
    d = m.shape[0]
    defect = hs_norm(m - m.conj().T)
    if defect > tol * d:
        raise NotHermitianError(f"symmetry defect {defect:.3e} exceeds {tol * d:.3e}")
    w, v = np.linalg.eigh(m)
    return w, v


def _psd_sqrt_matrix(m: np.ndarray, *, floor: float = EIGENVALUE_FLOOR) -> np.ndarray:
    """PSD square root of a Hermitian PSD matrix with eigenvalue-dust clamping.

    Eigenvalues in [floor, 0) are rounding dust and are clamped to zero; more
    negative values indicate an invalid operator and raise.  Positive dust
    below SQRT_RANK_RCOND of the top eigenvalue is zeroed as well.
    """
    w, v = np.linalg.eigh(hermitianize(m))
    if w[0] < floor:
        raise NegativeEigenvalueError(
            f"eigenvalue {w[0]:.3e} below tolerated floor {floor:.1e}"
        )
    w = np.where(w < SQRT_RANK_RCOND * w[-1], 0.0, w)
    root = (v * np.sqrt(w)) @ v.conj().T
    return hermitianize(root)


class DensityState:
    """A d-dimensional density operator with a lazily cached PSD square root.

    The wrapped array must be finite; with ``check`` it is also validated
    (Hermitian, unit trace, eigenvalues above the rounding floor).  It is
    frozen; the square root is computed once on first access and frozen as
    well, so instances are safe to share.
    """

    __slots__ = ("_rho", "_sqrt")

    def __init__(self, rho: np.ndarray, *, check: bool = True):
        rho = np.array(_as_square(rho), dtype=complex)
        d = check_dim(rho.shape[0])
        # Every tolerance test below is False for NaN, so non-finite input
        # is rejected first, whatever the check flag says.
        if not np.isfinite(rho).all():
            raise ValueError("density matrix has non-finite entries")
        if check:
            defect = hs_norm(rho - rho.conj().T)
            if defect > HERMITIAN_TOL * d:
                raise NotHermitianError(
                    f"density matrix symmetry defect {defect:.3e} exceeds {HERMITIAN_TOL * d:.3e}"
                )
            tr = complex(np.trace(rho))
            if abs(tr - 1.0) > TRACE_TOL:
                raise ValueError(f"trace {tr} is not 1 within {TRACE_TOL:.1e}")
            wmin = float(np.linalg.eigvalsh(hermitianize(rho))[0])
            if wmin < EIGENVALUE_FLOOR:
                raise NegativeEigenvalueError(
                    f"eigenvalue {wmin:.3e} below tolerated floor {EIGENVALUE_FLOOR:.1e}"
                )
        rho.setflags(write=False)
        self._rho = rho
        self._sqrt = None

    @property
    def rho(self) -> np.ndarray:
        return self._rho

    @property
    def dim(self) -> int:
        return self._rho.shape[0]

    @property
    def sqrt(self) -> np.ndarray:
        """Hermitian PSD square root, computed once and cached."""
        return psd_sqrt(self)

    def purity(self) -> float:
        """tr(rho^2)."""
        return float(np.sum(np.abs(self._rho) ** 2))

    def is_pure(self, tol: float = 1e-8) -> bool:
        return self.purity() >= 1.0 - tol

    @classmethod
    def pure(cls, vector: np.ndarray) -> "DensityState":
        """Rank-1 projector onto a (re)normalized state vector."""
        v = np.asarray(vector, dtype=complex).reshape(-1)
        if not np.isfinite(v).all():
            raise ValueError("state vector has non-finite entries")
        n = np.linalg.norm(v)
        if n < 1e-12:
            raise ValueError("cannot normalize a (near-)zero vector")
        v = v / n
        return cls(np.outer(v, v.conj()), check=False)

    @classmethod
    def maximally_mixed(cls, d: int) -> "DensityState":
        d = check_dim(d)
        return cls(np.eye(d, dtype=complex) / d, check=False)

    def __repr__(self) -> str:  # pragma: no cover
        return f"DensityState(dim={self.dim}, purity={self.purity():.6f})"


def psd_sqrt(state: DensityState) -> np.ndarray:
    """Square root of a density operator, cached write-once on the state."""
    if state._sqrt is None:
        root = _psd_sqrt_matrix(state.rho)
        if hs_norm(root @ root - state.rho) > SQRT_CONSISTENCY_TOL:
            raise ArithmeticError("square-root consistency check failed")
        root.setflags(write=False)
        state._sqrt = root
    return state._sqrt


def mix(states: list[DensityState] | tuple[DensityState, ...], weights) -> DensityState:
    """Convex mixture of density states."""
    weights = np.asarray(weights, dtype=float)
    if len(states) != weights.size or weights.size == 0:
        raise ValueError("states and weights must be non-empty and equal length")
    if np.any(weights < -1e-12):
        raise ValueError("mixture weights must be nonnegative")
    total = float(weights.sum())
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"mixture weights sum to {total}, expected 1 within 1e-8")
    d = states[0].dim
    acc = np.zeros((d, d), dtype=complex)
    for w, s in zip(weights, states):
        if s.dim != d:
            raise DimensionMismatchError("mixture components have different dimensions")
        acc += (w / total) * s.rho
    return DensityState(acc, check=False)


def random_pure(d: int, seed) -> DensityState:
    """Haar-random pure state (normalized standard complex Gaussian vector)."""
    d = check_dim(d)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return DensityState.pure(v)


def random_mixed(d: int, rank: int, seed) -> DensityState:
    """Random mixed state from the rank-constrained Ginibre construction.

    rho = G G^dag / tr(G G^dag) with G a d-by-rank standard complex Gaussian
    matrix.  rank=1 reproduces the Haar pure-state distribution.
    """
    d = check_dim(d)
    rank = int(rank)
    if not 1 <= rank <= d:
        raise ValueError(f"rank must be in [1, {d}], got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return DensityState(m / np.trace(m).real, check=False)


def haar_unitary(d: int, seed) -> np.ndarray:
    """Haar-distributed random unitary (QR of a Ginibre matrix, phase-fixed)."""
    d = check_dim(d)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def _ginibre_density_batch(d: int, ranks: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Stack of random density matrices, one per requested rank.

    Columns of each Ginibre factor beyond the sample's rank are zeroed, which
    reproduces the rank-r Ginibre ensemble exactly.
    """
    ranks = np.asarray(ranks, dtype=int)
    n = ranks.size
    g = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    col_mask = np.arange(d)[None, None, :] < ranks[:, None, None]
    g = np.where(col_mask, g, 0.0)
    rhos = g @ np.conjugate(np.swapaxes(g, 1, 2))
    traces = np.einsum("nii->n", rhos).real
    return rhos / traces[:, None, None]


def _batch_psd_sqrt(rhos: np.ndarray, *, floor: float = EIGENVALUE_FLOOR) -> np.ndarray:
    """PSD square roots of a stack of Hermitian PSD matrices.

    Reads the lower triangle of each matrix, as ``eigh`` does.  Every member
    obeys the same policy: an eigenvalue below ``floor`` raises, and
    eigenvalues below SQRT_RANK_RCOND of the member's largest are zeroed.
    d >= 3 uses one stacked ``eigh``; d = 2 uses the closed form
    S = (rho + sqrt(l+ l-) 1) / (sqrt(l+) + sqrt(l-)), which needs no
    eigenvectors.
    """
    if rhos.shape[-1] == 2:
        return _qubit_psd_sqrt(rhos, floor)
    w, v = np.linalg.eigh(rhos)
    if float(w.min()) < floor:
        raise NegativeEigenvalueError(
            f"batch eigenvalue {w.min():.3e} below tolerated floor {floor:.1e}"
        )
    w = np.where(w < SQRT_RANK_RCOND * w[:, -1:], 0.0, w)
    return np.einsum("nij,nj,nkj->nik", v, np.sqrt(w), v.conj())


def _qubit_psd_sqrt(rhos: np.ndarray, floor: float) -> np.ndarray:
    a = rhos[..., 0, 0].real
    c = rhos[..., 1, 1].real
    b = rhos[..., 1, 0]
    b2 = b.real**2 + b.imag**2
    lam_plus = 0.5 * (a + c) + np.sqrt(0.25 * (a - c) ** 2 + b2)
    # det / l+ rather than tr - l+, which cancels for near-pure states; where
    # l+ <= 0 there is nothing to divide by and nothing to cancel.
    lam_minus = np.divide(a * c - b2, lam_plus, out=(a + c) - lam_plus, where=lam_plus > 0)
    if float(lam_minus.min()) < floor:
        raise NegativeEigenvalueError(
            f"batch eigenvalue {lam_minus.min():.3e} below tolerated floor {floor:.1e}"
        )
    cut = SQRT_RANK_RCOND * lam_plus
    lam_minus = np.where(lam_minus < cut, 0.0, lam_minus)
    lam_plus = np.where(lam_plus < cut, 0.0, lam_plus)
    norm = np.sqrt(lam_plus) + np.sqrt(lam_minus)
    # A member whose eigenvalues are both zeroed has the zero root.
    scale = np.divide(1.0, norm, out=np.zeros_like(norm), where=norm > 0)
    shift = np.sqrt(lam_plus * lam_minus)
    root = np.empty(rhos.shape, dtype=complex)
    root[..., 0, 0] = (a + shift) * scale
    root[..., 1, 1] = (c + shift) * scale
    root[..., 1, 0] = b * scale
    root[..., 0, 1] = b.conj() * scale
    return root
