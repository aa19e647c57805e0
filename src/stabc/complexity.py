"""The phase-space complexity quantifier and its analytic companions.

For a state rho with square root S and displacement operators D(k, l), the
per-point anticommutator and commutator strengths

    J = (1/2) ||{D, S}||^2 = 1 + Re tr(S D S D^dag)
    I = (1/2) ||[D, S]||^2 = 1 - Re tr(S D S D^dag)

satisfy I + J = 2 and multiply into the complexity

    C(rho) = sum_{k,l} I J = d^2 - sum_{k,l} |c(k,l)(S)|^4.

Both routes are implemented and both cost O(d^3) after the one eigensolve
for S: the moment route is the default (the square-root characteristic
table), the definition route is the independent cross-checking oracle.  It
writes the J/I tables as cyclic correlations of the diagonals of S and
evaluates them by the correlation theorem: six d x d products with the
Fourier matrix, no loop over the shift k, no operator matrices and no
characteristic table.
C is invariant under any per-operator phase change of the D(k, l) and under
Clifford conjugation; it is bounded by 0 <= C <= d^2 - 2d/(d+1), with pure
states confined to [d^2 - d, d^2 - 2d/(d+1)].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isnan
from typing import NamedTuple

import numpy as np

from .charfun import SOURCE_STATE, _checked_tables, _moment_complexities
from .matcore import (
    SQRT_RANK_RCOND,
    DensityState,
    _batch_psd_sqrt,
    _blocks,
    _check_count,
    _check_hermitian,
    _check_real,
    _hs_norms,
    _power_sums,
    _pure_members,
    check_dim,
    psd_sqrt,
    random_rank_mixed_stack,
)
from .states import BlochVector
from .weyl import WeylIndex, _table_constants

_CROSS_CHECK_TOL = 1e-10
_PATH_GAP_TOL = 1e-9
_BOUND_SLACK = 1e-9
_COMPLEMENTARITY_TOL = 1e-8
# Closed-form C(rho_p) against the generic value, at every member of the family.
_RHO_P_CLOSED_FORM_TOL = 1e-9


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

    One entry of the full definition-route tables, so the trace/norm and
    root-Hermiticity checks of :func:`_definition_tables` cover the call.
    """
    if not isinstance(idx, WeylIndex):
        idx = WeylIndex(idx[0], idx[1], rho.dim)
    if idx.dim != rho.dim:
        raise ValueError(f"index dimension {idx.dim} does not match state dimension {rho.dim}")
    jordan, lie = _definition_tables(psd_sqrt(rho)[None])
    return float(jordan[0, idx.k, idx.l]), float(lie[0, idx.k, idx.l])


def _definition_tables(roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full (J, I) tables over all d^2 phase-space points of each root S of a stack, in O(d^3).

    Conjugation by a displacement is a shift plus a phase,
    (D S D^dag)[a, b] = omega^(l(a-b)) S[a-k, b-k], so

        Re tr(S D S D^dag) = Re sum_m omega^(lm) t[k, m],
        t[k, m] = sum_b U[b, m] L[b-k, m],

    with U[b, m] = S[b, b+m] and L[b, m] = S[b+m, b] the upper and lower
    m-th diagonals of S.  The norm form (1/2)||DS +- SD||^2 =
    ||S||^2 +- Re <DS, SD> is expanded separately from the upper diagonals
    alone,

        <DS, SD> = sum_n omega^(ln) sum_a conj(U[a-k, n]) U[a, n],

    which does not assume Hermiticity, and every point is cross-checked
    against the trace form.  Both inner sums are cyclic correlations along
    b, one column m at a time, so by the correlation theorem they are

        t = F (conj(F) U * F L) / d,    sum_a conj(U[a-k, n]) U[a, n]
          = F (conj(F) U * conj(conj(F) U)) / d,

    with F[j, b] = omega^(jb) the cached, symmetric Fourier matrix and *
    the entrywise product.  The outer sum over m is one more product with
    F on the right: six d x d matrix products in all, and no loop over k.

    ``roots`` has shape (n, d, d) and the tables (n, d, d).  Every product
    broadcasts F against the stack, one product per member, so each member
    is bitwise what a stack of one gives.  Both checks run on every member,
    and the errors report the worst one.
    """
    n, d = roots.shape[0], roots.shape[-1]
    # fourier[j, b] = omega^(jb), symmetric
    fourier, fourier_conj, upper_at, lower_at = _definition_constants(d)
    # take gathers in C order whatever n is; fancy indexing lays a stack out
    # by n, and the products would then round differently per stack size.
    flat = roots.reshape(n, d * d)
    upper = flat.take(upper_at, axis=1)  # [., b, m] = S[b, b+m]
    lower = flat.take(lower_at, axis=1)  # [., b, m] = S[b+m, b]
    fu = fourier_conj @ upper
    # Each complex product is written out with fu first: numpy reuses a large
    # temporary operand in place with the operands swapped, the complex
    # multiply then rounds differently, and a big stack would not be bitwise
    # its one-row cases.
    corr = fourier @ lower
    cross = (fourier @ np.multiply(fu, corr, out=corr) @ fourier).real / d
    jordan, lie = 1.0 + cross, 1.0 - cross
    norm_sq = (_hs_norms(roots) ** 2)[:, None, None]
    corr = fu.conj()
    norm_cross = (fourier @ np.multiply(fu, corr, out=corr) @ fourier).real / d
    defect = max(
        float(np.abs(jordan - (norm_sq + norm_cross)).max(initial=0.0)),
        float(np.abs(lie - (norm_sq - norm_cross)).max(initial=0.0)),
    )
    if not defect <= _CROSS_CHECK_TOL:
        raise ArithmeticError(
            f"trace/norm cross-check failed: defect {defect:.3e} exceeds {_CROSS_CHECK_TOL:.1e}"
        )
    # The two forms agree to first order under an anti-Hermitian change of S,
    # so the root's Hermiticity is checked directly: ||S - S^dag|| from the
    # upper diagonals against the conjugated lower ones.
    asymmetry = float(_hs_norms(upper - lower.conj()).max(initial=0.0))
    if not asymmetry <= _CROSS_CHECK_TOL:
        raise ArithmeticError(
            f"square root is not Hermitian: defect {asymmetry:.3e} exceeds {_CROSS_CHECK_TOL:.1e}"
        )
    return jordan, lie


@lru_cache(maxsize=16)
def _definition_constants(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """F, conj(F) and the flat indices [b, m] of S[b, b+m] and S[b+m, b], built once per d."""
    j = np.arange(d)
    cols = (j[:, None] + j[None, :]) % d
    fourier = _table_constants(d)[1]
    constants = (fourier.conj(), j[:, None] * d + cols, cols * d + j[:, None])
    for array in constants:
        array.setflags(write=False)
    return (fourier, *constants)


def complexity_by_definition(rho: DensityState) -> float:
    """C(rho) summed directly from the per-point products I * J."""
    jordan, lie = _definition_tables(psd_sqrt(rho)[None])
    return float((jordan * lie).sum())


def complexity_by_moments(rho: DensityState) -> float:
    """C(rho) = d^2 - sum |c(k,l)(sqrt(rho))|^4: the one-row case of :func:`_moment_complexities`."""
    return float(_moment_complexities(psd_sqrt(rho)[None])[0])


# eq=False: == and hash by identity, as DensityState; a generated == raises on array fields.
@dataclass(frozen=True, eq=False)
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

    Raises if any internal consistency check fails: the definition route's
    trace/norm and root-Hermiticity checks, the agreement of the two routes,
    the global bounds, or (for pure states) the complementarity with the
    fourth-moment magic witness.  The one-row case of :func:`_reports`.
    """
    block = _reports(rho.rho[None], psd_sqrt(rho)[None])
    c, c_def, gap, purity, m4 = [column.item() for column in block[:5]]
    return ComplexityReport(rho.dim, c, c_def, c, block.jordan[0], block.lie[0], gap, purity,
                            None if isnan(m4) else m4)


class _ReportBlock(NamedTuple):
    """The fields of :class:`ComplexityReport` as columns, one entry per member of a stack.

    The five scalar columns come first; m4_fourth_power is NaN where a member
    is not pure.  jordan and lie are the read-only (n, d, d) tables.
    """

    c_value: np.ndarray
    c_via_definition: np.ndarray
    path_gap: np.ndarray
    purity: np.ndarray
    m4_fourth_power: np.ndarray
    jordan: np.ndarray
    lie: np.ndarray


def _reports(rhos: np.ndarray, roots: np.ndarray) -> _ReportBlock:
    """:func:`complexity_report` of each member of a stack (n, d, d), given its checked roots.

    Each check runs on every member, in the order listed above, and an error
    reports the worst member.  Only pure members get state tables and an m4 entry.
    """
    d = roots.shape[-1]
    jordan, lie = _definition_tables(roots)
    c_def = (jordan * lie).sum(axis=(1, 2))
    c_mom = _moment_complexities(roots)
    gap = np.abs(c_def - c_mom)
    tol = _PATH_GAP_TOL * d * d
    if not gap.max(initial=0.0) <= tol:
        raise ArithmeticError(f"route disagreement {gap.max():.3e} exceeds {tol:.1e}")
    ceiling = complexity_upper_bound(d)
    outside = np.maximum(-c_mom, c_mom - ceiling)
    if not outside.max(initial=0.0) <= _BOUND_SLACK:
        raise ArithmeticError(f"complexity {c_mom[np.argmax(outside)]} outside [0, {ceiling}]")

    purities, at = _pure_members(rhos, roots)
    m4_fourth = np.empty(len(c_mom))
    m4_fourth.fill(np.nan)  # np.full infers a dtype from the NaN: ~1% of a one-row report at d = 8
    if at.size:
        m4 = _power_sums(_checked_tables(rhos[at], SOURCE_STATE), 4)
        defect = np.abs(m4 + c_mom[at] - d * d).max()
        if not defect <= _COMPLEMENTARITY_TOL:
            raise ArithmeticError(f"pure-state complementarity defect {defect:.3e}")
        m4_fourth[at] = m4

    jordan.setflags(write=False)
    lie.setflags(write=False)
    return _ReportBlock(c_mom, c_def, gap, purities, m4_fourth, jordan, lie)


def qubit_complexity(bloch: BlochVector | tuple[float, float, float]) -> float:
    """Closed-form qubit complexity 4 - s^2 - (r1^4 + r2^4 + r3^4)/s^2.

    s = 1 + sqrt(1 - r^2) with the radicand clamped at zero, so s >= 1 and
    the pure-state limit r = 1 is regular.  A tuple is checked as a
    :class:`BlochVector`.  The one-row case of :func:`_qubit_closed_forms`.
    """
    if not isinstance(bloch, BlochVector):
        bloch = BlochVector(*np.asarray(bloch, dtype=float).reshape(3))
    return float(_qubit_closed_forms(bloch.as_array()[None])[0])


def _qubit_closed_forms(r: np.ndarray) -> np.ndarray:
    """The closed form for each row of a stack of Bloch vectors (n, 3), unchecked."""
    # One product per member, as _hs_norms takes its norms: bitwise r_i @ r_i.
    r2 = (r[:, None, :] @ r[:, :, None])[:, 0, 0]
    # Norm defects at rounding scale are resolved to "exactly pure", matching
    # the eigenvalue-dust convention of the square-root route: the kink of
    # sqrt(1 - r^2) would otherwise blow 1e-16 dust up to 1e-8.
    gap = 1.0 - r2
    s = 1.0 + np.sqrt(np.where(gap < 4.0 * SQRT_RANK_RCOND, 0.0, gap))
    return 4.0 - s * s - (r**4).sum(axis=1) / (s * s)


# -- the depolarized-pure family ---------------------------------------------


@dataclass(frozen=True)
class RhoPFamily:
    """Interpolation rho_p = p |psi><psi| + (1 - p) 1/d for a fixed pure psi."""

    psi: DensityState
    p: float

    def __post_init__(self):
        object.__setattr__(self, "p", _check_real(self.p, "mixing parameter p"))
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"mixing parameter p must lie in [0, 1], got {self.p}")
        if not self.psi.is_pure():
            raise ValueError(f"family anchor must be pure, purity = {self.psi.purity()}")

    @property
    def dim(self) -> int:
        return self.psi.dim


def rho_p_state(family: RhoPFamily) -> DensityState:
    """The density operator p |psi><psi| + (1 - p) 1/d: the one-row case of :func:`_rho_p_stack`."""
    return DensityState(_rho_p_stack(family.psi, [family.p])[0], check=False)


def _rho_p_stack(psi: DensityState, ps) -> np.ndarray:
    """The members p |psi><psi| + (1 - p) 1/d, one per p of ``ps``: an unchecked (n, d, d) stack."""
    p = np.asarray(ps, dtype=float)[:, None, None]
    return p * psi.rho + (1.0 - p) * np.eye(psi.dim) / psi.dim


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
    """Central second difference of the closed-form complexity along the family.

    The closed form is analytic on the whole state domain of the family,
    p >= -1/(d-1) (where the weight on psi reaches zero) up to p = 1, so any
    stencil inside it is accepted, including one centred at p0 = 0.  The
    anchor's pure complexity is evaluated once via the moment route.
    """
    h = _check_real(step, "step")
    if not h > 0.0:
        raise ValueError(f"step must be positive, got {step}")
    p0 = _check_real(p0, "p0")
    if not np.isfinite(p0):
        raise ValueError(f"p0 must be finite, got {p0}")
    d = family.dim
    lo = -1.0 / (d - 1)
    if p0 - h < lo or p0 + h > 1.0:
        raise ValueError(f"central stencil around {p0} with step {h} leaves [{lo:.6g}, 1]")
    c_psi = complexity_by_moments(family.psi)

    def f(p: float) -> float:
        return _rho_p_closed_form(d, p, c_psi)

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
    eps = _check_real(epsilon, "epsilon")
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

    Bitwise complexity_by_moments along the first axis: a stacked square
    root (closed form at d = 2, one stacked eigensolve otherwise) through
    :func:`_moment_complexities`, whose table check refuses a member of
    trace other than 1 with ValueError.  The roots skip the S^2 = rho check,
    which would add about a fifth to the call.
    Every member must pass the Hermiticity rule of :class:`DensityState`
    (:func:`~stabc.matcore._check_hermitian`; NaN and inf fail it): the
    square root reads only the lower triangle, so anything else raises
    NotHermitianError instead of giving a finite, wrong value.  That check
    covers the whole stack, block by block, before any root is taken.  The
    roots, the table check and the moments then run
    one block of :func:`_blocks` at a time, in order, so the first block
    with a fault raises: a trace fault in an earlier block raises ValueError
    even if a later block holds a negative eigenvalue.  An empty stack gives
    an empty result.
    """
    rhos = np.asarray(rhos, dtype=complex)
    if rhos.ndim != 3 or rhos.shape[1] != rhos.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {rhos.shape}")
    n, d = rhos.shape[0], check_dim(rhos.shape[1])
    _check_hermitian(
        rhos, "stack symmetry defect {defect:.3e} exceeds {tol:.3e} (or is not finite)")
    out = np.empty(n)
    for block in _blocks(n, d):
        b = slice(block.start, block.stop)
        out[b] = _moment_complexities(_batch_psd_sqrt(rhos[b]))
    return out


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
_CONVEXITY_TOL = 1e-9


def convexity_witness_states(d: int) -> tuple[DensityState, DensityState, float]:
    """Deterministic mixture showing non-convexity for d >= 3.

    Mixes the p = 0.9 member of the stabilizer-anchored family with the
    anchor itself at equal weight; the mixture is the p = 0.95 member.
    """
    psi = DensityState.pure(np.eye(check_dim(d), dtype=complex)[:, 0])
    mixed, pure = (DensityState(rho, check=False) for rho in _rho_p_stack(psi, [0.9, 1.0]))
    return mixed, pure, 0.5


def convexity_scan(d: int, samples: int, seed) -> list[ConvexityViolation]:
    """Search random mixtures for convexity violations of the complexity.

    First evaluates the deterministic witness of
    :func:`convexity_witness_states` and records it with index -1 if it
    violates convexity, which it does for every d >= 3.  Then draws
    ``samples`` >= 0 triples (rho_1, rho_2, lambda), Ginibre states of ranks
    uniform on {1, .., d} and lambda uniform on (0, 1), and records each
    C(lam rho_1 + (1-lam) rho_2) > lam C(rho_1) + (1-lam) C(rho_2) + 1e-9,
    in sample order.  For d = 2 the expected outcome is an empty list.

    Each block of :func:`_blocks` draws its rho_1, then its rho_2
    (:func:`~stabc.matcore.random_rank_mixed_stack`), then its lambdas.
    """
    d = check_dim(d)
    samples = _check_count(samples, "samples")
    rng = np.random.default_rng(seed)
    rho_a, rho_b, lam = convexity_witness_states(d)
    violations = _scan_block(_WITNESS_INDEX, rho_a.rho[None].copy(), rho_b.rho[None].copy(),
                             np.array([lam]))
    for block in _blocks(samples, d):
        rho_a, rho_b = (random_rank_mixed_stack(d, len(block), rng) for _ in range(2))
        violations += _scan_block(block.start, rho_a, rho_b, rng.uniform(size=len(block)))
    return violations


def _scan_block(
    first: int, rho_a: np.ndarray, rho_b: np.ndarray, lam: np.ndarray
) -> list[ConvexityViolation]:
    """Violations among the block's mixtures lam rho_a + (1 - lam) rho_b, indexed from ``first``.

    The one copy of the convexity rule: the witness is a block of one.  The
    states are sampler output or the witness, and the mixtures convex
    combinations of them, so all are Hermitian and finite: each stack, one
    :func:`_blocks` block, goes straight to the root and moment kernels,
    bitwise what :func:`batch_complexity` gives without its input check.
    The mixtures are formed in the buffers of ``rho_a`` and ``rho_b``, which
    must be writable and are overwritten, after both states' complexities;
    the in-place steps are those of the plain expression, so bitwise its values.
    """
    w = lam[:, None, None]
    c_avg = (lam * _moment_complexities(_batch_psd_sqrt(rho_a))
             + (1 - lam) * _moment_complexities(_batch_psd_sqrt(rho_b)))
    mixtures = np.add(np.multiply(w, rho_a, out=rho_a), np.multiply(1 - w, rho_b, out=rho_b),
                      out=rho_a)
    c_mix = _moment_complexities(_batch_psd_sqrt(mixtures))
    return [ConvexityViolation(first + int(i), float(lam[i]), float(c_mix[i]), float(c_avg[i]))
            for i in np.flatnonzero(c_mix > c_avg + _CONVEXITY_TOL)]


def concavity_witness(d: int) -> tuple[float, float]:
    """(C of the maximally mixed state, mean C of the basis projectors).

    The first value is 0 and the second is d^2 - d, so the strict inequality
    certifies that the complexity is not concave in any dimension.
    """
    d = check_dim(d)
    lhs = complexity_by_moments(DensityState.maximally_mixed(d))
    eye = np.eye(d, dtype=complex)
    return lhs, float(np.mean(batch_complexity(eye[:, :, None] * eye[:, None, :])))
