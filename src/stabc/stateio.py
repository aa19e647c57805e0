"""JSON state files.

States are exchanged as JSON objects with explicit [re, im] pairs (no complex
literals) for cross-language portability:

    {"dim": 2, "kind": "pure",    "amplitudes": [[re, im], ...]}
    {"dim": d, "kind": "density", "matrix": [[re, im], ...]}        # row-major, d^2 pairs
    {"dim": 2, "kind": "bloch",   "bloch": [r1, r2, r3]}
    {"dim": d, "kind": "mixture", "mixture": [{"weight": w, "amplitudes": [...]}, ...]}

Loading validates the schema and the state invariants and raises
:class:`StateFileError` naming the violated invariant; strings, booleans
and objects where numbers belong are refused, not coerced.  Pure amplitude
vectors with a norm defect in (1e-8, 1e-4] are renormalized with a warning;
larger defects are rejected.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from .errors import StateFileError
from .matcore import DensityState, mix
from .states import BlochVector, bloch_to_state

KINDS = ("pure", "density", "bloch", "mixture")

_NORM_TOL = 1e-8
_NORM_WARN_TOL = 1e-4
_WEIGHT_TOL = 1e-8


def _numbers(values, what: str) -> np.ndarray:
    """A JSON array of finite numbers as a float array.

    Entries must be exactly int or float: numpy would read "1" and true as 1.0.
    """
    if not isinstance(values, list) or not all(type(x) in (int, float) for x in values):
        raise StateFileError(f"{what} must be a JSON array of numbers")
    arr = np.array(values, dtype=float)
    if not np.isfinite(arr).all():
        raise StateFileError(f"{what} has non-finite entries")
    return arr


def _pairs_to_complex(pairs, what: str) -> np.ndarray:
    if not isinstance(pairs, list) or not all(isinstance(p, list) and len(p) == 2 for p in pairs):
        raise StateFileError(f"{what} must be a list of [re, im] pairs")
    arr = _numbers([x for p in pairs for x in p], what).reshape(-1, 2)
    return arr[:, 0] + 1j * arr[:, 1]


def _complex_to_pairs(values: np.ndarray) -> list[list[float]]:
    flat = np.asarray(values, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def _load_amplitudes(payload, d: int, what: str) -> np.ndarray:
    v = _pairs_to_complex(payload, what)
    if v.size != d:
        raise StateFileError(f"{what} has {v.size} amplitudes, expected dim = {d}")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > _NORM_WARN_TOL:
        raise StateFileError(
            f"{what} norm {norm} violates the unit-norm invariant (defect > {_NORM_WARN_TOL:g})"
        )
    if abs(norm - 1.0) > _NORM_TOL:
        warnings.warn(
            f"{what} norm {norm} off by more than {_NORM_TOL:g}; renormalizing",
            stacklevel=3,
        )
    return v / norm


def state_from_dict(doc: dict) -> DensityState:
    """Build a validated density state from a parsed state-file object.

    Input it cannot turn into a valid state raises :class:`StateFileError`,
    never another exception; overflow raises rather than warns, so entries
    near the float range are rejected too.
    """
    if not isinstance(doc, dict):
        raise StateFileError("state file must contain a JSON object")
    d, kind = doc.get("dim"), doc.get("kind")
    if type(d) is not int:  # not bool, which is an int subclass
        raise StateFileError(f"state file needs a JSON integer 'dim', got {type(d).__name__}")
    if kind not in KINDS:
        raise StateFileError(f"unknown kind {kind!r}, expected one of {KINDS}")

    try:
        with np.errstate(over="raise"):
            if kind == "pure":
                return DensityState.pure(_load_amplitudes(doc["amplitudes"], d, "pure state"))
            if kind == "density":
                m = _pairs_to_complex(doc["matrix"], "density matrix")
                if m.size != d * d:
                    raise StateFileError(f"density matrix has {m.size} entries, expected {d * d}")
                return DensityState(m.reshape(d, d))
            if kind == "bloch":
                if d != 2:
                    raise StateFileError(f"bloch payload requires dim = 2, got {d}")
                triple = _numbers(doc["bloch"], "bloch payload")
                if triple.size != 3:
                    raise StateFileError("bloch payload must have exactly 3 components")
                return bloch_to_state(BlochVector(*triple.tolist()))
            components = doc["mixture"]
            if not isinstance(components, list) or not components:
                raise StateFileError("mixture payload must be a non-empty list")
            weights = _numbers([c["weight"] for c in components], "mixture weights")
            if np.any(weights < 0):
                raise StateFileError("mixture weights must be nonnegative")
            if abs(float(weights.sum()) - 1.0) > _WEIGHT_TOL:
                raise StateFileError(
                    f"mixture weights sum to {float(weights.sum())}, expected 1 within {_WEIGHT_TOL:g}"
                )
            parts = [
                DensityState.pure(_load_amplitudes(c["amplitudes"], d, f"mixture component {i}"))
                for i, c in enumerate(components)
            ]
            return mix(parts, weights)
    except StateFileError:
        raise
    except KeyError as exc:
        raise StateFileError(f"state file is missing field {exc}") from exc
    except (TypeError, OverflowError, FloatingPointError) as exc:
        raise StateFileError(f"state file has a malformed value: {exc}") from exc
    except ValueError as exc:
        raise StateFileError(f"state validation failed: {exc}") from exc


def load_state(path: str | Path) -> DensityState:
    """Load and validate a state file."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise StateFileError(f"cannot parse state file {path}: {exc}") from exc
    return state_from_dict(doc)


def pure_state_dict(vector: np.ndarray) -> dict:
    v = np.asarray(vector, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"expected a state vector (1-D), got shape {v.shape}")
    return {"dim": int(v.size), "kind": "pure", "amplitudes": _complex_to_pairs(v)}


def density_state_dict(state: DensityState) -> dict:
    return {
        "dim": state.dim,
        "kind": "density",
        "matrix": _complex_to_pairs(state.rho),
    }


def bloch_state_dict(b: BlochVector) -> dict:
    return {"dim": 2, "kind": "bloch", "bloch": [b.r1, b.r2, b.r3]}


def save_state(doc: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
