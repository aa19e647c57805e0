"""Named verification suites behind the ``verify`` CLI command.

Each suite replays one block of the library's quantitative claims on freshly
sampled states and returns :class:`CheckResult` rows with stable, greppable
check ids.  Sub-seeds derive from the master seed by a fixed counter scheme,
``SeedSequence([master_seed, suite_code])``, so every suite is individually
reproducible regardless of which other suites ran.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass

import numpy as np

from .charfun import (
    _SQRT_NORM_TOL,
    SOURCE_SQRT_STATE,
    SOURCE_STATE,
    _checked_tables,
    _lp_moments,
    _moment_complexities,
    char_table,
    reconstruct,
)
from .complexity import (
    _BOUND_SLACK,
    _COMPLEMENTARITY_TOL,
    _PATH_GAP_TOL,
    _RHO_P_CLOSED_FORM_TOL,
    RhoPFamily,
    _definition_tables,
    _qubit_closed_forms,
    _reports,
    _rho_p_closed_form,
    _rho_p_stack,
    batch_complexity,
    complexity_by_moments,
    complexity_upper_bound,
    concavity_witness,
    convexity_scan,
    near_pure_curvature_offset,
    pure_complexity_floor,
    rho_p_second_derivative,
    rho_p_expansion_residual,
)
from .matcore import (
    DensityState,
    _blocks,
    _check_int,
    _checked_sqrt_stack,
    _hs_norms,
    _power_sums,
    haar_unitary,
    hs_norm,
    psd_sqrt,
    random_mixed,
    random_mixed_stack,
    random_pure,
    random_pure_stack,
    random_rank_mixed_stack,
)
from .states import (
    _EXTREMAL_TOL,
    _bloch_matrices,
    certify_fiducial,
    enumerate_stabilizer_states,
    known_fiducial,
)
from .weyl import (
    _displacements,
    _product_law,
    clifford_conjugation_table,
    fourier_gate,
    tau_power,
    weyl_basis_check,
    weyl_coefficient_table,
)

DEFAULT_DIMS = (2, 3, 4, 5)
# suite_weyl's product-law and exponent-law rows walk all d^4 index quadruples;
# the product-law row holds the d^2 operators D(k,l) of one d (4,096 entries at d = 8)
# and takes the quadruples in blocks of the block rule: one block's stacked left,
# right and reduced operators, its product and its residual are 2^14 entries each
# (256 quadruples of 8 x 8 at d = 8, 256 KiB per stack).  suite_tradeoff's explicit
# J and I hold the same operators and walk (member, operator) pairs the same way.
_WEYL_LAW_DIM_CAP = 8


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    observed: float
    tolerance: float | None
    passed: bool
    note: str = ""


def _rng_for(seed: int, suite_code: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(suite_code)]))


def _leq(check_id: str, observed: float, tol: float, note: str = "") -> CheckResult:
    return CheckResult(check_id, float(observed), float(tol), bool(observed <= tol), note)


def _sample_block(d: int, members: range, rng: np.random.Generator) -> np.ndarray:
    """Deterministic mix of pure, rank-2 and full-rank states by member index, in one draw."""
    return random_mixed_stack(d, [(1, min(2, d), d)[i % 3] for i in members], rng)


def _block_max(n: int, d: int, evaluate):
    """Running max of ``evaluate(members)``, (m,) or (rows, m), over the blocks of :func:`_blocks`.

    One value per row, holding one block at a time; np.max and np.maximum keep
    a NaN, which fails its row.
    """
    return functools.reduce(np.maximum, (np.max(evaluate(m), axis=-1) for m in _blocks(n, d)))


# -- suites -------------------------------------------------------------------


def suite_weyl(dims=None, seed=0) -> list[CheckResult]:
    dims = tuple(dims) if dims else (2, 3, 4, 5, 7)
    rng = _rng_for(seed, 1)
    results = []
    for d in dims:
        ok = weyl_basis_check(d)
        note = "1 = orthogonal operator basis"
        if d > _WEYL_LAW_DIM_CAP:
            note += f"; product-law and unreduced-exponent rows not run for d > {_WEYL_LAW_DIM_CAP}"
        results.append(
            CheckResult(f"weyl-basis-orthogonality-d{d}", 1.0 if ok else 0.0, None, ok, note)
        )
    # One walk over the index quadruples per d feeds both law rows.  Quadruple
    # q = ((k1 d + l1) d + k2) d + l2 multiplies ops[q // d^2] by ops[q % d^2].
    exponent_rows = []
    for d in dims:
        if d > _WEYL_LAW_DIM_CAP:
            continue
        ops = _displacements(d, *np.divmod(np.arange(d * d), d))  # [k d + l]

        def defects(members):  # product-law residual norms; 1 where an unreduced exponent is off
            q = np.arange(members.start, members.stop)
            k1, l1, k2, l2 = q // d**3, q // d**2 % d, q // d % d, q % d
            e, k, l = _product_law(d, k1, l1, k2, l2)
            resid = ops[q // d**2] @ ops[q % d**2]
            resid -= tau_power(d, e)[:, None, None] * ops[k * d + l]
            unreduced = (k1 + k2 < d) & (l1 + l2 < d)
            return np.stack([_hs_norms(resid), unreduced & (e != (l1 * k2 - k1 * l2) % (2 * d))])
        residual, off = _block_max(d**4, d, defects)
        results.append(_leq(f"weyl-product-law-residual-d{d}", residual, 1e-12 * d))
        ok = bool(off == 0)
        exponent_rows.append(CheckResult(f"weyl-unreduced-exponent-law-d{d}", 1.0 if ok else 0.0,
                                         None, ok, "1 = exponent matches ls-kt"))
    results += exponent_rows
    for d in dims:
        rho = random_mixed(d, d, rng)
        base = complexity_by_moments(rho)
        phases = np.exp(2j * np.pi * rng.uniform(size=(d, d)))
        # tr(D(k,l) S) from explicit operators, one block at a time, so the
        # row stays independent of weyl_coefficient_table.
        root = psd_sqrt(rho)
        table = np.concatenate([
            np.einsum("nij,ji->n", _displacements(d, *np.divmod(np.arange(b.start, b.stop), d)),
                      root) for b in _blocks(d * d, d)]).reshape(d, d) * phases
        rephased = d * d - float(np.sum(np.abs(table) ** 4))
        # Both values are C ~ d^2, summed in different orders (np.sum here, the
        # kernel's einsum there), so rounding scales with d^2 (1.8e-12 at d = 64).
        results.append(_leq(f"weyl-phase-convention-independence-d{d}", abs(rephased - base),
                            max(1e-12, 1e-14 * d * d)))
    return results


def _max_residual(residual, draws) -> float:
    """np.max of residual(a) over the draws, NaN for a draw whose table is refused.

    :func:`char_table` refuses a non-finite table with ValueError; the NaN
    fails the row, so a defect there does not stop the suite.
    """
    values = []
    for a in draws:
        try:
            values.append(residual(a))
        except ValueError:
            values.append(np.nan)
    return np.max(values)


def suite_charfun(dims=None, samples=None, seed=0) -> list[CheckResult]:
    dims = tuple(dims) if dims else DEFAULT_DIMS
    n = samples or 200
    rng = _rng_for(seed, 2)
    results = []
    for d in dims:
        def draws():  # 8 complex Gaussian matrices, drawn as they are taken
            return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(8))

        # np.max keeps a NaN, which fails its row; Python's max drops one that
        # is not its first argument.
        roundtrip = _max_residual(lambda a: hs_norm(reconstruct(char_table(a)) - a), draws())
        results.append(_leq(f"charfun-roundtrip-d{d}", roundtrip, 1e-10 * d))
        parseval = _max_residual(lambda a: abs(float(np.sum(np.abs(char_table(a).values) ** 2))
                                               - d * float(np.vdot(a, a).real)), draws())
        results.append(_leq(f"charfun-parseval-d{d}", parseval, 1e-9))

        # Unchecked tables: the checked kernel would raise before a defect could FAIL the row.
        defect = _block_max(n, d, lambda members: np.abs(_power_sums(weyl_coefficient_table(
            _checked_sqrt_stack(_sample_block(d, members, rng))), 2) - d))
        results.append(_leq(f"charfun-sqrt-table-normalization-d{d}", defect, _SQRT_NORM_TOL))

        pure = random_pure_stack(d, 20, rng)
        collapse = (_checked_tables(pure, SOURCE_STATE)
                    - _checked_tables(_checked_sqrt_stack(pure), SOURCE_SQRT_STATE))
        results.append(_leq(f"charfun-pure-table-collapse-d{d}", np.abs(collapse).max(), 1e-10))

        lo = (1 + (d - 1) / (d + 1)) ** 0.25
        hi = d**0.25

        def outside_bracket(members):  # distance of each m4 outside [lo, hi]; negative inside
            m4 = _lp_moments(
                _checked_tables(random_pure_stack(d, len(members), rng), SOURCE_STATE), 4.0)
            return np.maximum(lo - m4, m4 - hi)
        outside = _block_max(500 if samples is None else n, d, outside_bracket)
        # NaN first: max(0.0, nan) is 0.0 and would pass the row
        results.append(_leq(f"charfun-pure-moment4-bracket-d{d}", max(outside, 0.0), 1e-9))
    return results


def suite_tradeoff(dims=None, samples=None, seed=0) -> list[CheckResult]:
    dims = tuple(dims) if dims else DEFAULT_DIMS
    n = samples or 200
    rng = _rng_for(seed, 3)
    results = []
    for d in dims:
        explicit = d <= _WEYL_LAW_DIM_CAP
        ops = _displacements(d, *np.divmod(np.arange(d * d), d)) if explicit else None  # [k d + l]

        def defects(members):  # |J + I - 2| and the gap to the definition route's tables
            rhos = _sample_block(d, members, rng)
            roots = _checked_sqrt_stack(rhos)
            reports = _reports(rhos, roots)  # every member goes through the report and its checks
            if not explicit:
                return np.abs(reports.jordan + reports.lie - 2.0).max(axis=(1, 2))
            # J = ||{D, S}||^2 / 2 and I = ||[D, S]||^2 / 2 from explicit operators,
            # pair q = i d^2 + k d + l holding member i's root and D(k, l).
            norms = np.empty((2, len(members) * d * d))
            for pairs in _blocks(norms.shape[1], d):
                q = np.arange(pairs.start, pairs.stop)
                root, op = roots[q // (d * d)], ops[q % (d * d)]
                ds, sd = op @ root, root @ op
                norms[0, pairs.start:pairs.stop] = _power_sums(ds + sd, 2)
                norms[1, pairs.start:pairs.stop] = _power_sums(ds - sd, 2)
            jordan, lie = 0.5 * norms.reshape(2, len(members), d, d)
            gap = np.maximum(np.abs(jordan - reports.jordan), np.abs(lie - reports.lie))
            return np.stack([np.abs(jordan + lie - 2.0), gap]).max(axis=(2, 3))
        if not explicit:
            note = f"J + I of the definition route; explicit operators for d <= {_WEYL_LAW_DIM_CAP}"
            results.append(
                _leq(f"tradeoff-sum-defect-d{d}", _block_max(n, d, defects), 1e-10, note))
            continue
        sum_defect, gap = _block_max(n, d, defects)
        results += [_leq(f"tradeoff-sum-defect-d{d}", sum_defect, 1e-10),
                    _leq(f"tradeoff-definition-route-gap-d{d}", gap, 1e-10)]
    return results


def suite_dual_path(dims=None, samples=None, seed=0) -> list[CheckResult]:
    dims = tuple(dims) if dims else DEFAULT_DIMS
    n = samples or 200
    rng = _rng_for(seed, 4)
    results = []
    for d in dims:
        def gaps(members):
            roots = _checked_sqrt_stack(_sample_block(d, members, rng))
            jordan, lie = _definition_tables(roots)
            return np.abs(np.sum(jordan * lie, axis=(1, 2)) - _moment_complexities(roots))
        results.append(_leq(f"dual-path-gap-d{d}", _block_max(n, d, gaps),
                            _PATH_GAP_TOL * d * d))
    return results


def suite_bounds(dims=None, samples=None, seed=0) -> list[CheckResult]:
    dims = tuple(dims) if dims else (2, 3, 5)
    n = samples or 1000
    rng = _rng_for(seed, 5)
    results = []
    for d in dims:
        floor, ceil = pure_complexity_floor(d), complexity_upper_bound(d)
        # The pure ensemble, then the mixed one (floor 0), each drawn and evaluated block by block.
        for kind, sampler, low in (("pure", random_pure_stack, floor),
                                   ("mixed", random_rank_mixed_stack, 0.0)):
            def defects(members):
                c = batch_complexity(sampler(d, len(members), rng))
                return np.stack([low - c, c - ceil])
            below, above = _block_max(n, d, defects)
            results += [_leq(f"bounds-{kind}-floor-defect-d{d}", below, _BOUND_SLACK),
                        _leq(f"bounds-{kind}-ceiling-defect-d{d}", above, _BOUND_SLACK)]
        results.append(
            _leq(f"bounds-maximally-mixed-zero-d{d}",
                 abs(complexity_by_moments(DensityState.maximally_mixed(d))), 1e-10)
        )
    return results


def suite_clifford(dims=None, samples=None, seed=0) -> list[CheckResult]:
    dims = tuple(dims) if dims else (2, 3, 5, 7)
    n = samples or 100
    rng = _rng_for(seed, 6)
    results = []
    for d in dims:
        f = fourier_gate(d)
        table = clifford_conjugation_table(f)
        results.append(CheckResult(f"clifford-fourier-table-d{d}", 1.0 if table else 0.0,
                                   None, table is not None, "1 = conjugation table exists"))

        def invariance_gaps(members):
            rhos = _sample_block(d, members, rng)
            rhos = np.concatenate([f @ rhos @ f.conj().T, rhos])  # rotated block, then the block
            c = _moment_complexities(_checked_sqrt_stack(rhos))
            return np.abs(c[:len(members)] - c[len(members):])
        results.append(_leq(f"clifford-invariance-gap-d{d}",
                            _block_max(n, d, invariance_gaps), 1e-9))

        u = haar_unitary(d, rng)
        haar_table = clifford_conjugation_table(u)
        results.append(CheckResult(
            f"clifford-haar-rejected-d{d}", 0.0 if haar_table is None else 1.0,
            None, haar_table is None, "0 = Haar unitary not Clifford"))

        gaps = []
        for _ in range(16):
            state = random_pure(d, rng)
            u = haar_unitary(d, rng)
            rotated = DensityState(u @ state.rho @ u.conj().T, check=False)
            gaps.append(abs(complexity_by_moments(rotated) - complexity_by_moments(state)))
            if gaps[-1] > 1e-3:
                break
        gap = float(np.max(gaps))  # keeps a NaN, which fails the row
        results.append(CheckResult(f"clifford-generic-unitary-moves-value-d{d}", gap, None,
                                   gap > 1e-3, "invariance is Clifford-specific (gap > 1e-3)"))
    return results


def suite_complementarity(dims=None, samples=None, seed=0) -> list[CheckResult]:
    dims = tuple(dims) if dims else (2, 3, 5)
    n = samples or 500
    rng = _rng_for(seed, 7)
    results = []
    for d in dims:
        def sum_defects(members):
            rhos = random_pure_stack(d, len(members), rng)
            m4_fourth = _power_sums(_checked_tables(rhos, SOURCE_STATE), 4)
            return np.abs(m4_fourth + batch_complexity(rhos) - d * d)
        results.append(_leq(f"complementarity-pure-sum-defect-d{d}",
                            _block_max(n, d, sum_defects), _COMPLEMENTARITY_TOL))
    return results


def suite_qubit(dims=None, samples=None, seed=0) -> list[CheckResult]:
    if dims and set(dims) != {2}:
        raise ValueError(f"the qubit suite covers d = 2 only, got dimensions {list(dims)}")
    n = samples or 1000
    rng = _rng_for(seed, 8)

    def gaps(members):
        bloch = np.empty((len(members), 3))
        for row, i in enumerate(members):
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            radius = 1.0 if i % 2 == 0 else float(rng.uniform() ** (1 / 3))
            bloch[row] = radius * direction
        c = _moment_complexities(_checked_sqrt_stack(_bloch_matrices(bloch)))
        return np.abs(c - _qubit_closed_forms(bloch))
    return [_leq("qubit-closed-form-gap", _block_max(n, 2, gaps), 1e-9)]


def suite_rho_p(dims=None, seed=0) -> list[CheckResult]:
    dims = tuple(dims) if dims else DEFAULT_DIMS
    results = []

    for d in dims:
        psi = DensityState.pure(np.eye(d, dtype=complex)[:, 0])
        fam = RhoPFamily(psi, 0.5)
        c_psi = complexity_by_moments(psi)
        grid = np.linspace(0.0, 1.0, 21)
        generic = _moment_complexities(_checked_sqrt_stack(_rho_p_stack(psi, grid)))
        analytic = [_rho_p_closed_form(d, p, c_psi) for p in grid.tolist()]
        results.append(_leq(f"mixing-family-closed-form-gap-d{d}",
                            np.abs(analytic - generic).max(), _RHO_P_CLOSED_FORM_TOL))

        curv = rho_p_second_derivative(fam, 0.0, 1e-4)
        target = d * d * (d - 1)
        results.append(_leq(f"mixing-family-origin-curvature-error-d{d}",
                            abs(curv - target) / target, 0.01,
                            f"curvature {curv:.4f} vs {target}"))

        edge = rho_p_second_derivative(fam, 1.0 - 1e-4, 5e-5)
        if d == 2:
            ok = np.isfinite(edge) and edge > 0.0
            note = f"curvature {edge:.4f} stays finite and positive (offset {near_pure_curvature_offset(d):.3f})"
        else:
            ok = edge < 0.0
            note = f"curvature {edge:.4f} negative near the pure end"
        results.append(CheckResult(f"mixing-family-near-pure-curvature-sign-d{d}",
                                   float(edge), None, bool(ok), note))

        # The residual's eps^2 term is exact: c2 eps^2 with the coefficient
        # below.  At d = 2 it is the whole residual, so the halving ratio is 4;
        # for d > 2 it is removed and the eps^(5/2) term leaves a ratio 2^(5/2).
        if d == 2:
            c2, target = 0.0, 4.0
        else:
            c2, target = -(d - 1) * (d * d - 8 * d + 8) / d, 2.0**2.5
        ratios = []
        eps = 1e-2
        while eps > 1.2e-4:
            r_big = rho_p_expansion_residual(fam, eps) - c2 * eps**2
            r_half = rho_p_expansion_residual(fam, eps / 2) - c2 * (eps / 2) ** 2
            ratios.append(r_big / r_half)
            eps /= 2
        worst_ratio = np.max(np.abs(np.array(ratios) - target))  # keeps a NaN ratio
        results.append(_leq(f"mixing-family-expansion-quadratic-d{d}", worst_ratio, 1.0,
                            f"halving ratios {['%.3f' % r for r in ratios]}"))

    for d in dims:
        lhs, rhs = concavity_witness(d)
        results.append(CheckResult(f"nonconcavity-witness-d{d}", rhs - lhs, None,
                                   rhs - lhs > 1.0,
                                   f"mixed {lhs:.2e} < mean-projector {rhs:.6f}"))
    return results


def suite_convexity(dims=None, samples=None, seed=0) -> list[CheckResult]:
    dims = tuple(dims) if dims else (2, 3)
    results = []
    for d in dims:
        n = samples or (100000 if d == 2 else 20000)
        violations = convexity_scan(d, n, np.random.SeedSequence([int(seed), 9, d]))
        count = len(violations)
        if d == 2:
            results.append(CheckResult(f"convexity-violations-d{d}", float(count), 0.0,
                                       count == 0, f"{n} sampled mixtures"))
        else:
            w = next((v for v in violations if v.index == -1), None)
            found = (f"witness mixture {w.c_mixture:.4f} > average {w.c_average:.4f}"
                     if w else "no witness")
            results.append(CheckResult(f"convexity-witness-found-d{d}", float(count), None,
                                       count >= 1, f"{found} (+{n} random samples)"))
    return results


def suite_stabilizers(dims=None, samples=None, seed=0) -> list[CheckResult]:
    dims = tuple(dims) if dims else (2, 3, 5)
    rng = _rng_for(seed, 10)
    results = []
    for d in dims:
        projectors = enumerate_stabilizer_states(d).projectors
        count_ok = len(projectors) == d * (d + 1)
        results.append(CheckResult(f"stabilizer-count-d{d}", float(len(projectors)), None,
                                   count_ok, f"expected {d * (d + 1)}"))
        floor = pure_complexity_floor(d)
        c = _moment_complexities(_checked_sqrt_stack(projectors))
        results.append(_leq(f"stabilizer-floor-attainment-d{d}", np.abs(c - floor).max(),
                            _EXTREMAL_TOL))

        undercut = _block_max(samples or 300, d, lambda members: floor - batch_complexity(
            random_pure_stack(d, len(members), rng)))
        results.append(_leq(f"stabilizer-floor-not-undercut-d{d}", undercut, _BOUND_SLACK))
    return results


def suite_fiducials(dims=None, seed=0) -> list[CheckResult]:
    dims = tuple(dims) if dims else (2, 3)
    results = []
    for d in dims:
        fid = known_fiducial(d)
        results.append(_leq(f"fiducial-overlap-deviation-d{d}", fid.max_deviation, 1e-10))
        # The fiducial, then its orbit D(k,l) P D(k,l)^dag, evaluated as one stack.
        proj = fid.projector().rho
        ops = _displacements(d, *np.divmod(np.arange(d * d), d))
        c = _moment_complexities(_checked_sqrt_stack(
            np.concatenate([proj[None], ops @ proj @ ops.conj().swapaxes(1, 2)])))
        results.append(_leq(f"fiducial-ceiling-attainment-d{d}",
                            abs(c[0] - complexity_upper_bound(d)), 1e-9))
        results.append(_leq(f"fiducial-orbit-invariance-d{d}", np.abs(c[1:] - c[0]).max(), 1e-9))

    if 2 in dims:
        _, basis_dev = certify_fiducial(np.array([1.0, 0.0], dtype=complex))
        results.append(CheckResult("fiducial-basis-state-rejected-d2", basis_dev, None,
                                   basis_dev >= 0.5, "stabilizer state fails the overlap symmetry"))
    return results


SUITES = {
    "weyl": suite_weyl,
    "charfun": suite_charfun,
    "tradeoff": suite_tradeoff,
    "dual-path": suite_dual_path,
    "bounds": suite_bounds,
    "clifford": suite_clifford,
    "complementarity": suite_complementarity,
    "qubit": suite_qubit,
    "rho-p": suite_rho_p,
    "convexity": suite_convexity,
    "stabilizers": suite_stabilizers,
    "fiducials": suite_fiducials,
}


def run_suites(names, dims=None, samples=None, seed=0) -> list[tuple[str, list[CheckResult]]]:
    """Run the requested suites (or all of them) and collect their results.

    ``dims`` and ``samples`` override one named suite's defaults.  ValueError
    refuses them with ``all``, samples below 1 or for a suite that draws none
    (weyl, rho-p, fiducials), no or repeated dimensions, and dimensions a
    suite has no check for.
    """
    if not names or names == ["all"]:
        names = list(SUITES)
    overrides = {k: v for k, v in (("dims", dims), ("samples", samples)) if v is not None}
    if overrides and len(names) > 1:
        raise ValueError("dimension and sample overrides need one named suite, not 'all'")
    if samples is not None and _check_int(samples, "samples") < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if dims is not None and len(dims) == 0:
        raise ValueError("dimensions must be one or more, got none")
    if dims is not None and len(set(dims)) < len(dims):
        raise ValueError(f"dimensions must be distinct, got {' '.join(map(str, dims))}")
    out = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or 'all'")
        if overrides and not overrides.keys() <= inspect.signature(SUITES[name]).parameters.keys():
            raise ValueError(f"suite {name!r} draws no samples to override")
        out.append((name, SUITES[name](**overrides, seed=seed)))
    return out
