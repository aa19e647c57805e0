"""The phase-space complexity quantifier and its analytic companions.

For a state rho with square root S and displacement operators D(k, l), the
per-point anticommutator and commutator strengths

    J = (1/2) ||{D, S}||^2 = 1 + Re tr(S D S D^dag)
    I = (1/2) ||[D, S]||^2 = 1 - Re tr(S D S D^dag)

satisfy I + J = 2 and multiply into the complexity

    C(rho) = sum_{k,l} I J = d^2 - sum_{k,l} |c(k,l)(S)|^4.

Both routes are implemented and both cost O(d^3) after the one eigensolve
for S: the moment route is the default (the square-root characteristic
table), the definition route is the independent cross-checking oracle (the
J/I tables from shifted diagonals of S, no operator matrices and no
characteristic table).
C is invariant under any per-operator phase change of the D(k, l) and under
Clifford conjugation; it is bounded by 0 <= C <= d^2 - 2d/(d+1), with pure
states confined to [d^2 - d, d^2 - 2d/(d+1)].
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .charfun import char_table, sqrt_char_table
from .errors import NotHermitianError
from .matcore import (
    HERMITIAN_TOL,
    SQRT_RANK_RCOND,
    DensityState,
    _batch_psd_sqrt,
    _ginibre_density_batch,
    check_dim,
    hs_norm,
    psd_sqrt,
)
from .states import BlochVector
from .weyl import WeylIndex, weyl_coefficient_table, weyl_matrix

_CROSS_CHECK_TOL = 1e-10
_TRADEOFF_TOL = 1e-10
_PATH_GAP_TOL = 1e-9
_BOUND_SLACK = 1e-9
_PURITY_THRESHOLD = 1e-8
_COMPLEMENTARITY_TOL = 1e-8


def complexity_upper_bound(d: int) -> float:
    """Global maximum d^2 - 2d/(d+1), attained only by SIC fiducial states."""
    d = check_dim(d)
    return d * d - 2.0 * d / (d + 1)


def pure_complexity_floor(d: int) -> float:
    """Pure-state minimum d^2 - d, attained only by pure stabilizer states."""
    d = check_dim(d)
    return float(d * d - d)


def jordan_lie_terms(rho: DensityState, idx: WeylIndex | tuple[int, int]) -> tuple[float, float]:
    """Anticommutator and commutator strengths (J, I) at one phase-space point.

    Evaluates both the trace form and the Hilbert-Schmidt-norm form and
    raises if they disagree beyond 1e-10, so every call is self-checking.
    """
    if isinstance(idx, WeylIndex):
        if idx.dim != rho.dim:
            raise ValueError(f"index dimension {idx.dim} does not match state dimension {rho.dim}")
        k, l = idx.k, idx.l
    else:
        k, l = (int(idx[0]), int(idx[1]))
    s = psd_sqrt(rho)
    dkl = weyl_matrix(rho.dim, k, l)
    return _jordan_lie_from_parts(s, dkl)


def _jordan_lie_from_parts(s: np.ndarray, dkl: np.ndarray) -> tuple[float, float]:
    ds = dkl @ s
    sd = s @ dkl
    # tr((DS)^dag (SD)) = conj(tr(S D S D^dag)); only the real part enters.
    cross = complex(np.vdot(ds, sd)).real
    j_trace, i_trace = 1.0 + cross, 1.0 - cross
    j_norm = 0.5 * hs_norm(ds + sd) ** 2
    i_norm = 0.5 * hs_norm(ds - sd) ** 2
    if not max(abs(j_trace - j_norm), abs(i_trace - i_norm)) <= _CROSS_CHECK_TOL:
        raise ArithmeticError(
            f"trace/norm cross-check failed: J {j_trace} vs {j_norm}, I {i_trace} vs {i_norm}"
        )
    return j_trace, i_trace


def _definition_tables(rho: DensityState) -> tuple[np.ndarray, np.ndarray]:
    """Full (J, I) tables over all d^2 phase-space points in O(d^3).

    Conjugation by a displacement is a shift plus a phase,
    (D S D^dag)[a, b] = omega^(l(a-b)) S[a-k, b-k], so

        Re tr(S D S D^dag) = Re sum_m omega^(lm) t[k, m],
        t[k, m] = sum_b S[b, b+m] S[b+m-k, b-k],

    the upper m-th diagonal of S against the lower m-th diagonal shifted
    by k.  The norm form (1/2)||DS +- SD||^2 = ||S||^2 +- Re <DS, SD> is
    expanded separately from the upper diagonals alone,

        <DS, SD> = sum_n omega^(ln) sum_a conj(S[a-k, a-k+n]) S[a, a+n],

    which does not assume Hermiticity, and every point is cross-checked
    against the trace form as in the single-point evaluation.
    """
    d = rho.dim
    s = psd_sqrt(rho)
    j = np.arange(d)
    cols = (j[:, None] + j[None, :]) % d
    upper = s[j[:, None], cols]  # [b, m] = S[b, b+m]
    lower = s[cols, j[:, None]]  # [b, m] = S[b+m, b]
    # Doubled along b, so the shift b -> b-k is the view rows d-k .. 2d-k.
    lower2 = np.concatenate([lower, lower])
    upper_conj2 = np.concatenate([upper, upper]).conj()
    trace_diag = np.empty((d, d), dtype=complex)
    norm_diag = np.empty((d, d), dtype=complex)
    for k in range(d):
        trace_diag[k] = np.einsum("bm,bm->m", upper, lower2[d - k:2 * d - k])
        norm_diag[k] = np.einsum("am,am->m", upper_conj2[d - k:2 * d - k], upper)
    fourier = np.exp(2j * np.pi * np.outer(j, j) / d)  # [m, l] = omega^(lm)
    cross = (trace_diag @ fourier).real
    jordan, lie = 1.0 + cross, 1.0 - cross
    norm_sq = hs_norm(s) ** 2
    norm_cross = (norm_diag @ fourier).real
    defect = max(
        float(np.abs(jordan - (norm_sq + norm_cross)).max()),
        float(np.abs(lie - (norm_sq - norm_cross)).max()),
    )
    if not defect <= _CROSS_CHECK_TOL:
        raise ArithmeticError(
            f"trace/norm cross-check failed: defect {defect:.3e} exceeds {_CROSS_CHECK_TOL:.1e}"
        )
    # The two forms agree to first order under an anti-Hermitian change of S,
    # so the root's Hermiticity is checked directly: ||S - S^dag|| from the
    # upper diagonals against the conjugated lower ones.
    asymmetry = hs_norm(upper - lower.conj())
    if not asymmetry <= _CROSS_CHECK_TOL:
        raise ArithmeticError(
            f"square root is not Hermitian: defect {asymmetry:.3e} exceeds {_CROSS_CHECK_TOL:.1e}"
        )
    return jordan, lie


def complexity_by_definition(rho: DensityState) -> float:
    """C(rho) summed directly from the per-point products I * J."""
    jordan, lie = _definition_tables(rho)
    return float(np.sum(jordan * lie))


def complexity_by_moments(rho: DensityState) -> float:
    """C(rho) = d^2 - sum |c(k,l)(sqrt(rho))|^4 from the square-root table."""
    table = sqrt_char_table(rho)
    d = rho.dim
    return float(d * d - np.sum(np.abs(table.values) ** 4))


@dataclass(frozen=True)
class ComplexityReport:
    """Both complexity routes with their per-point tables and diagnostics.

    m4_fourth_power is the fourth power of the L^4 moment of the state's own
    characteristic table; it is populated for pure states only (a rank-one
    square root after eigenvalue-dust zeroing), where it complements c_value
    to exactly d^2.
    """

    dim: int
    c_value: float
    c_via_definition: float
    c_via_moments: float
    jordan_table: np.ndarray
    lie_table: np.ndarray
    path_gap: float
    purity: float
    m4_fourth_power: float | None


def complexity_report(rho: DensityState) -> ComplexityReport:
    """Evaluate both routes, cross-check them, and bundle the diagnostics.

    Raises if any internal consistency check fails: the per-point trade-off
    I + J = 2, the agreement of the two routes, the global bounds, or (for
    pure states) the complementarity with the fourth-moment magic witness.
    """
    d = rho.dim
    jordan, lie = _definition_tables(rho)
    tradeoff_defect = float(np.abs(jordan + lie - 2.0).max())
    if not tradeoff_defect <= _TRADEOFF_TOL:
        raise ArithmeticError(f"trade-off defect {tradeoff_defect:.3e} exceeds {_TRADEOFF_TOL:.1e}")

    c_def = float(np.sum(jordan * lie))
    c_mom = complexity_by_moments(rho)
    gap = abs(c_def - c_mom)
    if not gap <= _PATH_GAP_TOL * d * d:
        raise ArithmeticError(f"route disagreement {gap:.3e} exceeds {_PATH_GAP_TOL * d * d:.1e}")
    if not -_BOUND_SLACK <= c_mom <= complexity_upper_bound(d) + _BOUND_SLACK:
        raise ArithmeticError(f"complexity {c_mom} outside [0, {complexity_upper_bound(d)}]")

    purity = rho.purity()
    m4_fourth = None
    # Complementarity holds for pure states only, and C moves with the root's
    # sqrt(lambda_2): purity alone accepts lambda_2 up to ~5e-9, where C is
    # off by ~1e-4.  So the root must have rank one as well: (tr S)^2 - tr rho
    # = sum_{i != j} sqrt(lambda_i lambda_j) is rounding-level for it and at
    # least 2 sqrt(SQRT_RANK_RCOND) ~ 6e-7 for any root of higher rank.
    if purity >= 1.0 - _PURITY_THRESHOLD and (
        float(np.trace(psd_sqrt(rho)).real) ** 2 - float(np.trace(rho.rho).real)
        <= _PURITY_THRESHOLD
    ):
        m4_fourth = float(np.sum(np.abs(char_table(rho).values) ** 4))
        if not abs(m4_fourth + c_mom - d * d) <= _COMPLEMENTARITY_TOL:
            raise ArithmeticError(
                f"pure-state complementarity defect {abs(m4_fourth + c_mom - d * d):.3e}"
            )

    jordan.setflags(write=False)
    lie.setflags(write=False)
    return ComplexityReport(
        dim=d,
        c_value=c_mom,
        c_via_definition=c_def,
        c_via_moments=c_mom,
        jordan_table=jordan,
        lie_table=lie,
        path_gap=gap,
        purity=purity,
        m4_fourth_power=m4_fourth,
    )


def qubit_complexity(bloch: BlochVector | tuple[float, float, float]) -> float:
    """Closed-form qubit complexity 4 - s^2 - (r1^4 + r2^4 + r3^4)/s^2.

    s = 1 + sqrt(1 - r^2) with the radicand clamped at zero, so s >= 1 and
    the pure-state limit r = 1 is regular.
    """
    if isinstance(bloch, BlochVector):
        r = bloch.as_array()
    else:
        r = np.asarray(bloch, dtype=float).reshape(3)
        if not np.isfinite(r).all():
            raise ValueError(f"Bloch vector has non-finite components {r}")
    r2 = float(r @ r)
    if np.sqrt(r2) > 1.0 + 1e-9:
        raise ValueError(f"Bloch vector norm {np.sqrt(r2)} exceeds 1")
    # Norm defects at rounding scale are resolved to "exactly pure", matching
    # the eigenvalue-dust convention of the square-root route: the kink of
    # sqrt(1 - r^2) would otherwise blow 1e-16 dust up to 1e-8.
    gap = 1.0 - r2
    if gap < 4.0 * SQRT_RANK_RCOND:
        gap = 0.0
    s = 1.0 + np.sqrt(gap)
    return float(4.0 - s * s - np.sum(r**4) / (s * s))


# -- the depolarized-pure family ---------------------------------------------


@dataclass(frozen=True)
class RhoPFamily:
    """Interpolation rho_p = p |psi><psi| + (1 - p) 1/d for a fixed pure psi."""

    psi: DensityState
    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"mixing parameter p must lie in [0, 1], got {self.p}")
        if not self.psi.is_pure():
            raise ValueError(f"family anchor must be pure, purity = {self.psi.purity()}")

    @property
    def dim(self) -> int:
        return self.psi.dim


def rho_p_state(family: RhoPFamily) -> DensityState:
    """The density operator p |psi><psi| + (1 - p) 1/d."""
    d = family.dim
    rho = family.p * family.psi.rho + (1.0 - family.p) * np.eye(d) / d
    return DensityState(rho, check=False)


def _rho_p_closed_form(d: int, p: float, c_psi: float) -> float:
    # sqrt(rho_p) = (a - b)|psi><psi| + b 1 with the weights below, so the
    # square-root table is an affine image of the pure-state table.
    a = np.sqrt(1.0 / d + (1.0 - 1.0 / d) * p)
    b = np.sqrt((1.0 - p) / d)
    return float(
        d * d - (a + (d - 1) * b) ** 4 - (a - b) ** 4 * (d * d - 1 - c_psi)
    )


def rho_p_complexity_analytic(family: RhoPFamily, c_psi: float) -> float:
    """Closed-form C(rho_p) given the anchor's pure-state complexity c_psi."""
    return _rho_p_closed_form(family.dim, family.p, float(c_psi))


def rho_p_second_derivative(family: RhoPFamily, p0: float, step: float = 1e-4) -> float:
    """Second difference of the closed-form complexity along the family.

    Central stencil at interior p0; forward-biased stencil at p0 = 0.  The
    anchor's pure complexity is evaluated once via the moment route.
    """
    h = float(step)
    if h <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    p0 = float(p0)
    c_psi = complexity_by_moments(family.psi)

    def f(p: float) -> float:
        return _rho_p_closed_form(family.dim, p, c_psi)

    if p0 == 0.0:
        if 2 * h > 1.0:
            raise ValueError(f"forward stencil [0, {2 * h}] leaves [0, 1]")
        return (f(0.0) - 2.0 * f(h) + f(2 * h)) / (h * h)
    if p0 - h < 0.0 or p0 + h > 1.0:
        raise ValueError(f"central stencil around {p0} with step {h} leaves [0, 1]")
    return (f(p0 + h) - 2.0 * f(p0) + f(p0 - h)) / (h * h)


def near_pure_curvature_offset(d: int) -> float:
    """Constant term 2 (8 - 16 d + 9 d^2 - d^3)/d in the p -> 1 curvature.

    The second derivative of C(rho_p) behaves as
    -3 (d-1)(d-2) / sqrt(d (1-p)) + this constant + O(sqrt(1-p)), so it
    diverges to -infinity for d > 2 and stays finite for d = 2.
    """
    d = check_dim(d)
    return 2.0 * (8.0 - 16.0 * d + 9.0 * d * d - d**3) / d


def rho_p_expansion_residual(family: RhoPFamily, epsilon: float) -> float:
    """Defect of the near-pure expansion of C(rho_{1-eps}) for a stabilizer anchor.

    Returns C(rho_{1-eps}) minus
    d^2 - d - 4(d-1) eps - 4(d-1)(d-2) eps^(3/2) / sqrt(d);
    the remainder is O(eps^2).  The anchor must sit at the pure-state
    complexity floor (i.e. be a stabilizer state).
    """
    eps = float(epsilon)
    if not 0.0 < eps <= 0.1:
        raise ValueError(f"epsilon must lie in (0, 0.1], got {epsilon}")
    d = family.dim
    c_psi = complexity_by_moments(family.psi)
    floor = pure_complexity_floor(d)
    if abs(c_psi - floor) > 1e-6:
        raise ValueError(
            f"expansion requires a stabilizer anchor (complexity {floor}), got {c_psi}"
        )
    value = _rho_p_closed_form(d, 1.0 - eps, c_psi)
    reference = floor - 4.0 * (d - 1) * eps - 4.0 * (d - 1) * (d - 2) * eps**1.5 / np.sqrt(d)
    return float(value - reference)


# -- batched evaluation and the mixing scans ----------------------------------


def batch_complexity(rhos: np.ndarray) -> np.ndarray:
    """Moment-route complexity of a stack of density matrices, vectorized.

    Equivalent to complexity_by_moments applied along the first axis: one
    stacked square root (the closed form at d = 2, one stacked eigensolve
    otherwise) and one stacked weyl_coefficient_table call, no operators
    materialized.
    Every member must be Hermitian and finite: the square root reads only
    the lower triangle, so anything else raises NotHermitianError instead of
    giving a finite, wrong value.
    """
    rhos = np.asarray(rhos, dtype=complex)
    if rhos.ndim != 3 or rhos.shape[1] != rhos.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {rhos.shape}")
    d = check_dim(rhos.shape[1])
    # NaN or inf makes the defect NaN, which fails the test as well.
    defect = float(np.abs(rhos - np.conj(np.swapaxes(rhos, 1, 2))).max())
    if not defect <= HERMITIAN_TOL * d:
        raise NotHermitianError(
            f"stack symmetry defect {defect:.3e} exceeds {HERMITIAN_TOL * d:.3e} (or is not finite)"
        )
    tables = weyl_coefficient_table(_batch_psd_sqrt(rhos))
    return d * d - np.sum((tables.real**2 + tables.imag**2) ** 2, axis=(1, 2))


@dataclass(frozen=True)
class ConvexityViolation:
    """One sampled mixture whose complexity exceeds the convex combination."""

    index: int
    lam: float
    c_mixture: float
    c_average: float

    @property
    def excess(self) -> float:
        return self.c_mixture - self.c_average


_WITNESS_INDEX = -1


def convexity_witness_states(d: int) -> tuple[DensityState, DensityState, float]:
    """Deterministic mixture showing non-convexity for d >= 3.

    Mixes the p = 0.9 member of the stabilizer-anchored family with the
    anchor itself at equal weight; the mixture is the p = 0.95 member.
    """
    psi = DensityState.pure(np.eye(check_dim(d), dtype=complex)[:, 0])
    fam = RhoPFamily(psi, 0.9)
    return rho_p_state(fam), rho_p_state(replace(fam, p=1.0)), 0.5


def convexity_scan(
    d: int,
    samples: int,
    seed,
    *,
    include_witness: bool = True,
    tolerance: float = 1e-9,
    chunk: int = 32768,
) -> list[ConvexityViolation]:
    """Search random mixtures for convexity violations of the complexity.

    Draws ``samples`` triples (rho_1, rho_2, lambda) with ranks uniform on
    {1, .., d} and lambda uniform on (0, 1), and records every case with
    C(lam rho_1 + (1-lam) rho_2) > lam C(rho_1) + (1-lam) C(rho_2) + tolerance.
    Results are ordered by sample index; the deterministic witness (recorded
    with index -1) is evaluated first when requested.  For d = 2 the expected
    outcome is an empty list.
    """
    d = check_dim(d)
    samples = int(samples)
    rng = np.random.default_rng(seed)
    violations: list[ConvexityViolation] = []

    if include_witness:
        rho_a, rho_b, lam = convexity_witness_states(d)
        mixture = DensityState(lam * rho_a.rho + (1 - lam) * rho_b.rho, check=False)
        c_mix = complexity_by_moments(mixture)
        c_avg = lam * complexity_by_moments(rho_a) + (1 - lam) * complexity_by_moments(rho_b)
        if c_mix > c_avg + tolerance:
            violations.append(ConvexityViolation(_WITNESS_INDEX, lam, c_mix, c_avg))

    done = 0
    while done < samples:
        n = min(chunk, samples - done)
        ranks_a = rng.integers(1, d + 1, size=n)
        ranks_b = rng.integers(1, d + 1, size=n)
        rho_a = _ginibre_density_batch(d, ranks_a, rng)
        rho_b = _ginibre_density_batch(d, ranks_b, rng)
        lam = rng.uniform(size=n)
        mixtures = lam[:, None, None] * rho_a + (1 - lam)[:, None, None] * rho_b
        c_mix = batch_complexity(mixtures)
        c_avg = lam * batch_complexity(rho_a) + (1 - lam) * batch_complexity(rho_b)
        for i in np.flatnonzero(c_mix > c_avg + tolerance):
            violations.append(
                ConvexityViolation(done + int(i), float(lam[i]), float(c_mix[i]), float(c_avg[i]))
            )
        done += n
    return violations


def concavity_witness(d: int) -> tuple[float, float]:
    """(C of the maximally mixed state, mean C of the basis projectors).

    The first value is 0 and the second is d^2 - d, so the strict inequality
    certifies that the complexity is not concave in any dimension.
    """
    d = check_dim(d)
    lhs = complexity_by_moments(DensityState.maximally_mixed(d))
    eye = np.eye(d, dtype=complex)
    rhs = float(
        np.mean([complexity_by_moments(DensityState.pure(eye[:, k])) for k in range(d)])
    )
    return lhs, rhs
