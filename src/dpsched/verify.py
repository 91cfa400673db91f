"""Cross-validation battery tying the independent routes together.

Each check pits two implementations of the same quantity against each
other: frontier walk vs brute force, LP sweep vs curve interpolation,
closed-form mixing vs direct re-evaluation, piecewise vs enumerative
transition construction, and simulation vs the analytic solve.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EnumerationTooLarge, ModelError, RowDiffCountMismatch
from .model import ModelParams, Policy, _integer, feasible_actions
from . import mrp
from .lp import build_lp, occupation_measure, sweep
from .pareto import ParetoCurve, algorithm1, brute_force_frontier
from .sim import simulate

# Gates of the checks, and the fixed sizes of their samples.
TRANSITION_TOL = 1e-15
COLLINEARITY_TOL = 1e-9
MIXING_GRID = 11
FRONTIER_TOL = 1e-9
LP_OVERLAP_BUDGETS = 20
LP_OVERLAP_TOL = 1e-6
LP_EQUALITY_TOL = 1e-12
SIM_TRIALS = 3
SIM_REL_TOL = 0.02
SIM_TV_TOL = 0.01


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one check; `passed` is None for a check that could not
    run, which is neither a pass nor a failure."""

    name: str
    passed: Optional[bool]
    worst: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        if self.passed is None:
            return f"SKIP  {self.name:<28} not run: {self.detail}"
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag}  {self.name:<28} worst={self.worst:.3e} tol={self.tolerance:.0e} {self.detail}"


def _random_row(params: ModelParams, k: int, rng: np.random.Generator) -> np.ndarray:
    """Row k of a random feasible policy: Dirichlet weights over state k's
    feasible actions, zero elsewhere."""
    acts = feasible_actions(params, k)
    row = np.zeros(params.M + 1)
    row[acts.start:acts.stop] = rng.dirichlet(np.ones(len(acts)))
    return row


def random_policy(params: ModelParams, rng: np.random.Generator) -> Policy:
    """Random feasible row-stochastic policy (Dirichlet rows)."""
    return Policy(params, [_random_row(params, k, rng) for k in range(params.K + 1)])


def random_one_row_pair(
    params: ModelParams, rng: np.random.Generator
) -> tuple[Policy, Policy, int]:
    """Random pair of policies differing in exactly one (multi-action) row.

    Raises RowDiffCountMismatch if no state has two feasible actions (Q=0),
    so that no such pair exists.
    """
    base = random_policy(params, rng)
    rows = [
        k for k in range(params.K + 1) if len(feasible_actions(params, k)) >= 2
    ]
    if not rows:
        raise RowDiffCountMismatch("no state has two feasible actions")
    k = int(rng.choice(rows))
    for _ in range(100):
        row = _random_row(params, k, rng)
        if np.max(np.abs(row - base.f[k])) > 1e-6:
            f2 = base.f.copy()
            f2[k] = row
            return base, Policy(params, f2), k
    raise RuntimeError("failed to draw a differing row")


def check_transition_equivalence(
    params: ModelParams, trials: int, rng: np.random.Generator
) -> CheckResult:
    worst = 0.0
    for _ in range(trials):
        pol = random_policy(params, rng)
        a = mrp.build_transition_enumerative(params, pol)
        b = mrp.build_transition_piecewise(params, pol)
        worst = max(worst, float(np.max(np.abs(a - b))))
    return CheckResult("transition-equivalence", worst <= TRANSITION_TOL, worst, TRANSITION_TOL)


def check_collinearity(
    params: ModelParams, trials: int, rng: np.random.Generator
) -> CheckResult:
    """Mixing two one-row-differing policies traces the chord between their
    reward pairs, with the closed-form interpolation weight and slope."""
    worst = 0.0
    eps_grid = np.linspace(0.0, 1.0, MIXING_GRID)
    for _ in range(trials):
        try:
            F, F2, _ = random_one_row_pair(params, rng)
        except RowDiffCountMismatch as exc:
            return CheckResult("mixing-geometry", True, 0.0, COLLINEARITY_TOL, f"{exc} (0 pairs)")
        ana = mrp.mixing_analysis(params, F, F2)
        worst = max(worst, abs(ana.epsilon_prime(0.0)), abs(ana.epsilon_prime(1.0) - 1.0))
        prev = -1.0
        for eps in eps_grid:
            w = ana.epsilon_prime(float(eps))
            if w < prev - 1e-12:
                worst = max(worst, prev - w)
            prev = w
            mixed = mrp.mix_policies(F, F2, float(eps))
            got = mrp.evaluate(params, mixed)
            want_p, want_d = ana.predicted_point(float(eps))
            worst = max(worst, abs(got.power - want_p), abs(got.delay - want_d))
        try:
            # scale by the slope magnitude: steep segments (tiny power gap)
            # amplify solver rounding in the finite difference
            chord = ana.chord_slope
            worst = max(worst, abs(ana.slope - chord) / max(1.0, abs(chord)))
        except mrp.DegenerateSegment:
            pass
    return CheckResult("mixing-geometry", worst <= COLLINEARITY_TOL, worst, COLLINEARITY_TOL)


def curves_match(a, b) -> float:
    """Worst componentwise vertex discrepancy between two curves."""
    if len(a.vertices) != len(b.vertices):
        return float("inf")
    worst = 0.0
    for va, vb in zip(a.vertices, b.vertices):
        worst = max(worst, abs(va.power - vb.power), abs(va.delay - vb.delay))
    return worst


def check_frontier_equivalence(params: ModelParams, walk: ParetoCurve) -> CheckResult:
    """The walk's frontier `walk` against brute force; not run over the
    enumeration cap."""
    try:
        brute = brute_force_frontier(params)
    except EnumerationTooLarge as exc:
        return CheckResult("frontier-equivalence", None, float("nan"), FRONTIER_TOL, str(exc))
    worst = curves_match(walk, brute)
    detail = f"({len(walk.vertices)} vs {len(brute.vertices)} vertices)"
    return CheckResult("frontier-equivalence", worst <= FRONTIER_TOL, worst, FRONTIER_TOL, detail)


def check_lp_overlap(params: ModelParams, curve: ParetoCurve) -> CheckResult:
    """LP optima at budgets across the walk's frontier `curve`, solved as
    one warm-started `sweep`, against its interpolation; the first budget
    not solved optimally fails the check."""
    budgets = np.linspace(curve.min_power, curve.max_power, LP_OVERLAP_BUDGETS)
    worst = 0.0
    for point in sweep(params, [float(p_th) for p_th in budgets]):
        if point.status != "optimal":
            detail = f"status {point.status} at {point.p_th}"
            return CheckResult("lp-curve-overlap", False, float("inf"), LP_OVERLAP_TOL, detail)
        worst = max(worst, abs(point.delay - curve.interpolate(point.p_th)))
    return CheckResult("lp-curve-overlap", worst <= LP_OVERLAP_TOL, worst, LP_OVERLAP_TOL)


def check_lp_consistency(
    params: ModelParams, trials: int, rng: np.random.Generator
) -> CheckResult:
    """Occupation measures of valid policies satisfy the LP equalities."""
    lp = build_lp(params, p_th=0.0)
    worst = 0.0
    for _ in range(trials):
        pol = random_policy(params, rng)
        pi = mrp.stationary_distribution(mrp.build_transition_enumerative(params, pol))
        x = occupation_measure(params, pol, pi)
        worst = max(worst, float(np.max(np.abs(lp.A_eq @ x - lp.b_eq))))
    return CheckResult("lp-equalities", worst <= LP_EQUALITY_TOL, worst, LP_EQUALITY_TOL)


def check_simulation(
    params: ModelParams,
    trials: int,
    rng: np.random.Generator,
    slots: int = 1_000_000,
    seed: int = 1234,
) -> CheckResult:
    worst = 0.0
    for i in range(trials):
        pol = random_policy(params, rng)
        pi = mrp.stationary_distribution(mrp.build_transition_enumerative(params, pol))
        want_power = mrp.average_power(params, pol, pi)
        want_delay = mrp.average_delay(params, pi)
        got = simulate(params, pol, slots=slots, seed=seed + i)
        if got.overflow_violations or got.underflow_violations:
            return CheckResult(
                "simulation-agreement", False, float("inf"), SIM_REL_TOL, "buffer violation"
            )
        p_err = abs(got.empirical_power - want_power) / want_power
        if want_delay < 0.05:
            d_err = abs(got.empirical_delay - want_delay) / 0.01 * SIM_REL_TOL
        else:
            d_err = abs(got.empirical_delay - want_delay) / want_delay
        tv = 0.5 * float(np.sum(np.abs(np.array(got.state_occupancy) - pi)))
        worst = max(worst, p_err, d_err, tv / SIM_TV_TOL * SIM_REL_TOL)
    return CheckResult("simulation-agreement", worst <= SIM_REL_TOL, worst, SIM_REL_TOL)


def run_battery(
    params: ModelParams,
    seed: int = 7,
    trials: int = 25,
    sim_slots: int = 1_000_000,
) -> list[CheckResult]:
    """Run every check.  Raises ModelError, before any check runs, for a
    non-integral seed, trials or sim_slots, or for seed < 0, trials < 1 or
    sim_slots < 1.  Over the enumeration cap the frontier-equivalence
    result is not run (`passed` None) and the other checks still run."""
    seed, trials = _integer("seed", seed), _integer("trials", trials)
    sim_slots = _integer("slots", sim_slots)
    if seed < 0:
        raise ModelError(f"seed must be >= 0, got {seed}")
    if trials < 1:
        raise ModelError(f"trials must be >= 1, got {trials}")
    if sim_slots < 1:
        raise ModelError(f"slots must be >= 1, got {sim_slots}")
    rng = np.random.default_rng(seed)
    walk = algorithm1(params)
    return [
        check_transition_equivalence(params, trials, rng),
        check_frontier_equivalence(params, walk),
        check_lp_overlap(params, walk),
        check_collinearity(params, trials, rng),
        check_lp_consistency(params, trials, rng),
        check_simulation(params, SIM_TRIALS, rng, slots=sim_slots, seed=seed),
    ]
