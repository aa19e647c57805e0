"""Canonical state families: Bloch-vector qubit states, the pure stabilizer
states of prime dimension, and SIC-POVM fiducial vectors with certification.

The stabilizer states of a prime dimension have a closed form (Gross,
"Hudson's theorem for finite-dimensional quantum systems", J. Math. Phys. 47,
122107 (2006)): the Z basis, plus the quadratic-phase vectors
v[j] = tau^(m j^2 + 2 n j) / sqrt(d) for each generator D(1, m).  Their phases
are exact integer exponents of tau, so no eigensolver is involved.

The stabilizer enumeration and the fiducial constants are never trusted as
given: every enumerated state is certified against the extremal complexity
value it must attain, and every built-in fiducial is passed through the
overlap certificate at construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoKnownFiducialError,
    NotNormalizedError,
    NotPrimeError,
)
from .charfun import _moment_complexities
from .matcore import DensityState, check_dim
from .weyl import WeylIndex, tau_power, weyl_coefficient_table

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

STABILIZER_DIM_MAX = 13

_BLOCH_NORM_TOL = 1e-12
_FIDUCIAL_TOL = 1e-8
_EXTREMAL_TOL = 1e-9


@dataclass(frozen=True)
class BlochVector:
    """Real 3-vector representing a qubit state rho = (1 + r . sigma) / 2."""

    r1: float
    r2: float
    r3: float

    def __post_init__(self):
        # The norm test below is False for NaN, so non-finite input is rejected first.
        if not np.isfinite(self.as_array()).all():
            raise ValueError(f"Bloch vector has non-finite components {self.as_array()}")
        if self.norm() > 1.0 + _BLOCH_NORM_TOL:
            raise ValueError(f"Bloch vector norm {self.norm()} exceeds 1")

    def norm(self) -> float:
        return float(np.sqrt(self.r1**2 + self.r2**2 + self.r3**2))

    def as_array(self) -> np.ndarray:
        return np.array([self.r1, self.r2, self.r3], dtype=float)


def bloch_to_state(b: BlochVector) -> DensityState:
    """Qubit density operator (1 + r . sigma) / 2."""
    if not isinstance(b, BlochVector):
        b = BlochVector(*np.asarray(b, dtype=float).reshape(3))
    return DensityState(_bloch_matrices(b.as_array()[None])[0], check=False)


def _bloch_matrices(r: np.ndarray) -> np.ndarray:
    """(1 + r . sigma) / 2 for each row of a stack of Bloch vectors (n, 3), unchecked."""
    x, y, z = r.T[:, :, None, None]
    return 0.5 * (np.eye(2, dtype=complex) + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z)


def state_to_bloch(rho: DensityState) -> BlochVector:
    """Bloch components r_a = tr(rho sigma_a) of a qubit state."""
    if rho.dim != 2:
        raise DimensionMismatchError(f"Bloch representation needs dimension 2, got {rho.dim}")
    comps = []
    for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        val = complex(np.trace(rho.rho @ sigma))
        if abs(val.imag) > 1e-12:
            raise ValueError(f"Bloch component has imaginary part {val.imag:.3e}")
        comps.append(val.real)
    return BlochVector(*comps)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % q for q in range(2, int(n**0.5) + 1))


@dataclass(frozen=True)
class StabilizerSet:
    """All pure stabilizer states of a prime dimension, grouped by generator.

    The generator classes are (0, 1) followed by (1, m) for m = 0 .. d-1, and
    states[i * dim + s] is the eigenstate of class i's generator with
    eigenvalue omega^s, so each class is in ascending eigenvalue phase in
    [0, 2 pi).  Class (0, 1) is the Z basis: states[s] = |s>.  Class (1, m)
    holds the quadratic-phase vectors v[j] = tau^(m j^2 + 2 n j) / sqrt(d),
    whose D(1, m)-eigenvalue is tau^(-2n) = omega^(-n); state s is the one
    with n = -s mod d.  The order is fixed by these integer exponents, not
    by floating-point phases.
    """

    dim: int
    generators: tuple[WeylIndex, ...]
    states: tuple[DensityState, ...]


def enumerate_stabilizer_states(d: int) -> StabilizerSet:
    """The d (d + 1) pure stabilizer states of a prime dimension d <= 13.

    Each of the d + 1 maximal cyclic subgroups of the displacement group is
    represented by a generator; its joint eigenstates are built in closed
    form (see StabilizerSet for the vectors and their order).  Every returned
    state is certified to attain the extremal complexity value d^2 - d, and
    the set is checked to be pairwise distinct.
    """
    d = check_dim(d)
    if not _is_prime(d):
        raise NotPrimeError(f"stabilizer enumeration needs a prime dimension, got {d}")
    if d > STABILIZER_DIM_MAX:
        raise ValueError(f"stabilizer enumeration capped at d <= {STABILIZER_DIM_MAX}, got {d}")

    generators = [WeylIndex(0, 1, d)] + [WeylIndex(1, m, d) for m in range(d)]
    j = np.arange(d)
    n = (-j)[:, None] % d  # row s has eigenvalue omega^s
    blocks = [np.eye(d, dtype=complex)] + [
        tau_power(d, m * j * j + 2 * n * j) / np.sqrt(d) for m in range(d)
    ]
    states = [DensityState.pure(vector) for block in blocks for vector in block]
    projectors = np.stack([state.rho for state in states])

    # For projectors sqrt(rho) = rho, so the moment route needs no eigensolve.
    floor = d * d - d
    c = _moment_complexities(projectors)
    off = np.flatnonzero(~(np.abs(c - floor) <= _EXTREMAL_TOL))
    if off.size:
        i = int(off[0])
        raise ArithmeticError(
            f"stabilizer eigenstate of {generators[i // d]} has complexity {c[i]}, expected {floor}"
        )

    # ||P_i - P_j||^2 = ||P_i||^2 + ||P_j||^2 - 2 Re <P_i, P_j>, from one Gram matrix.
    flat = projectors.reshape(len(states), -1)
    gram = (flat.conj() @ flat.T).real
    norm_sq = np.diagonal(gram)
    dist_sq = norm_sq[:, None] + norm_sq[None, :] - 2.0 * gram
    if not dist_sq[np.triu_indices(len(states), 1)].min() > 1e-6**2:
        raise ArithmeticError("stabilizer enumeration produced duplicate states")
    return StabilizerSet(d, tuple(generators), tuple(states))


@dataclass(frozen=True)
class FiducialCandidate:
    """A unit vector with its SIC-overlap certificate."""

    dim: int
    vector: np.ndarray
    certified: bool
    max_deviation: float

    def projector(self) -> DensityState:
        return DensityState.pure(self.vector)


def certify_fiducial(f: np.ndarray) -> tuple[bool, float]:
    """Check the SIC symmetry condition on the displacement orbit of f.

    Computes |<f| D(k,l) |f>|^2 for all (k, l) != (0, 0) and reports the
    maximum deviation from 1/(d+1); the candidate is certified iff that
    deviation is at most 1e-8.  ``f`` must be a 1-D array.
    """
    f = np.asarray(f, dtype=complex)
    if f.ndim != 1:
        raise ValueError(f"expected a fiducial vector (1-D), got shape {f.shape}")
    d = check_dim(f.size)
    if not np.isfinite(f).all():
        raise NotNormalizedError("fiducial candidate has non-finite entries")
    with np.errstate(over="ignore"):  # a norm past the float range is inf, refused below
        n = np.linalg.norm(f)
    if not abs(n - 1.0) <= 1e-10:
        raise NotNormalizedError(f"fiducial candidate has norm {n}, expected 1 within 1e-10")
    table = weyl_coefficient_table(np.outer(f, f.conj()))
    overlaps = np.abs(table) ** 2
    overlaps[0, 0] = 1.0 / (d + 1)  # excluded point
    deviation = float(np.abs(overlaps - 1.0 / (d + 1)).max())
    return deviation <= _FIDUCIAL_TOL, deviation


def known_fiducial(d: int) -> FiducialCandidate:
    """Built-in SIC fiducial vector for d = 2 or d = 3, certified on the spot.

    d = 2: the T-type vector with Bloch direction (1, 1, 1)/sqrt(3);
    d = 3: the unit vector proportional to (0, 1, -1).
    The overlap certificate, not the hardcoded constant, is the source of
    truth: construction fails if certification does.
    """
    d = check_dim(d)
    if d == 2:
        ct = np.sqrt((1 + 1 / np.sqrt(3)) / 2)
        st = np.sqrt((1 - 1 / np.sqrt(3)) / 2)
        vec = np.array([ct, np.exp(1j * np.pi / 4) * st], dtype=complex)
    elif d == 3:
        vec = np.array([0.0, 1.0, -1.0], dtype=complex) / np.sqrt(2)
    else:
        raise NoKnownFiducialError(f"no built-in fiducial for dimension {d}")
    certified, deviation = certify_fiducial(vec)
    if not certified:
        raise ArithmeticError(f"built-in fiducial for d={d} failed certification ({deviation:.3e})")
    vec.setflags(write=False)
    return FiducialCandidate(d, vec, certified, deviation)
