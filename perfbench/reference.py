"""Independent references the benchmark checks the library's outputs against.

Everything here is built the slow, obvious way from the definitions (explicit
shift and clock matrix powers, explicit traces, numpy's own eigensolver), so
it shares no code and no shortcut with the library under test.
"""

from __future__ import annotations

import functools

import numpy as np

# Same kind of cut as the library's: eigenvalues this far below the top one
# are rounding dust of a rank-deficient state, and their square roots would
# put ~1e-8 noise into the reference.
_RANK_RCOND = 1e-12


def ginibre_density(d: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """rho = G G^dag / tr(G G^dag) with G a d-by-rank complex Gaussian matrix."""
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2
    return m / np.trace(m).real


def ginibre_stack(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n density matrices with ranks drawn uniformly from 1..d."""
    ranks = rng.integers(1, d + 1, size=n)
    g = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    g = np.where(np.arange(d)[None, None, :] < ranks[:, None, None], g, 0.0)
    m = g @ np.conj(np.swapaxes(g, 1, 2))
    return m / np.einsum("nii->n", m).real[:, None, None]


@functools.lru_cache(maxsize=None)
def _shift_clock_powers(d: int) -> tuple[np.ndarray, np.ndarray]:
    """X^k and Z^l for k, l in 0..d-1, from explicit matrix powers."""
    x = np.roll(np.eye(d, dtype=complex), 1, axis=0)  # X|j> = |j+1 mod d>
    z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    return (np.array([np.linalg.matrix_power(x, k) for k in range(d)]),
            np.array([np.linalg.matrix_power(z, l) for l in range(d)]))


def sqrt_psd(rho: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(rho)
    w = np.where(w < _RANK_RCOND * w[-1], 0.0, w)
    return (v * np.sqrt(w)) @ v.conj().T


def complexity(rho: np.ndarray) -> float:
    """C = d^2 - sum_{k,l} |tr(D(k,l) sqrt(rho))|^4 with D = tau^(kl) X^k Z^l.

    Each trace is the explicit sum tr(X^k (Z^l S)) = sum_ij X^k[i,j] (Z^l S)[j,i].
    """
    d = rho.shape[0]
    xs, zs = _shift_clock_powers(d)
    s = sqrt_psd(rho)
    tau = -np.exp(1j * np.pi / d)
    total = 0.0
    for l in range(d):
        zs_t = (zs[l] @ s).T
        for k in range(d):
            total += abs(tau ** (k * l) * np.sum(xs[k] * zs_t)) ** 4
    return float(d * d - total)


def upper_bound(d: int) -> float:
    return d * d - 2.0 * d / (d + 1)
