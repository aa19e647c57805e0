"""Independent oracle constructions shared by the test modules.

Everything here is built the slow, obvious way (explicit matrix powers,
explicit traces) so it cannot share failure modes with the structured
implementations under test.
"""

import re
import tracemalloc

import numpy as np

from stabc.matcore import SQRT_RANK_RCOND, DensityState


def count_calls(monkeypatch, modules, name, counter):
    """Replace ``name`` in each of ``modules`` by a wrapper that adds 1 to counter[0] per call."""
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        counter[0] += 1
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)


# A number that stands alone: not the digits of a name such as "rank2-d64".
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def rounding_changes_only(old: str, new: str, atol: float = 1e-10, rtol: float = 1e-12) -> list[str]:
    """The lines of ``new`` that differ from ``old`` by more than rounding; [] if none.

    Each line is cut into numbers and the text between them.  The text must be
    equal up to runs of whitespace (column padding), so every name, PASS/FAIL
    and word is; each number must lie within atol + rtol max(1, |old|) of its
    old value, so a count that moves by one fails.
    """
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        return [f"{len(old_lines)} lines became {len(new_lines)}"]
    changed = []
    for number, (a, b) in enumerate(zip(old_lines, new_lines), 1):
        texts = [[" ".join(piece.split()) for piece in _NUMBER.split(line)] for line in (a, b)]
        values = [[float(v) for v in _NUMBER.findall(line)] for line in (a, b)]
        if texts[0] != texts[1] or len(values[0]) != len(values[1]) or any(
            not abs(y - x) <= atol + rtol * max(1.0, abs(x)) for x, y in zip(*values)
        ):
            changed.append(f"line {number}: {a!r} -> {b!r}")
    return changed


def traced_peak_mib(call):
    """(call(), the peak of the memory traced while it ran, in MiB)."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def naive_weyl_matrix(d: int, k: int, l: int) -> np.ndarray:
    """tau^(kl) X^k Z^l from explicit matrix powers."""
    x = np.zeros((d, d), dtype=complex)
    x[(np.arange(d) + 1) % d, np.arange(d)] = 1.0
    z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    tau = -np.exp(1j * np.pi / d)
    return tau ** (k * l) * np.linalg.matrix_power(x, k) @ np.linalg.matrix_power(z, l)


def naive_weyl_stack(d: int) -> np.ndarray:
    """All d^2 operators of :func:`naive_weyl_matrix`, indexed [k, l]."""
    return np.array([[naive_weyl_matrix(d, k, l) for l in range(d)] for k in range(d)])


def naive_char_table(a: np.ndarray) -> np.ndarray:
    """tr(D(k,l) A) by explicit operator construction and np.trace."""
    d = a.shape[0]
    out = np.empty((d, d), dtype=complex)
    for k in range(d):
        for l in range(d):
            out[k, l] = np.trace(naive_weyl_matrix(d, k, l) @ a)
    return out


def naive_jordan_lie(s: np.ndarray, dkl: np.ndarray) -> tuple[float, float]:
    """(J, I) from the anticommutator/commutator norms, nothing shared."""
    anti = dkl @ s + s @ dkl
    comm = dkl @ s - s @ dkl
    j = 0.5 * np.trace(anti @ anti.conj().T).real
    i = 0.5 * np.trace(comm @ comm.conj().T).real
    return float(j), float(i)


def naive_psd_sqrt(rho: np.ndarray) -> np.ndarray:
    """PSD root from one eigh of the Hermitian part, hermitianized again.

    Eigenvalues below SQRT_RANK_RCOND of the largest are zeroed, the
    library's dust policy, so rank-deficient roots are comparable at 1e-13.
    """
    w, v = np.linalg.eigh((rho + rho.conj().T) / 2)
    w = np.where(w < SQRT_RANK_RCOND * w[-1], 0.0, w)
    root = (v * np.sqrt(w)) @ v.conj().T
    return (root + root.conj().T) / 2


def random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def oracle_random_pure(d: int, rng: np.random.Generator) -> DensityState:
    """One Haar-random pure state drawn alone: the per-state sampling code
    the stacked samplers must reproduce bit for bit."""
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return DensityState.pure(v)


def oracle_random_mixed(d: int, rank: int, rng: np.random.Generator) -> DensityState:
    """One rank-constrained Ginibre state drawn alone (see oracle_random_pure)."""
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return DensityState(m / np.trace(m).real, check=False)
