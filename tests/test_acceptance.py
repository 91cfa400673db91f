"""Acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run pytest with -s or rely on captured
output shown for failures).  Reference instance throughout: alpha=0.4,
A=2, M=3, Q=5, power=[0,1,4,9].
"""
import time

import numpy as np

from dpsched import mrp
from dpsched.lp import build_lp, occupation_measure, solve_simplex
from dpsched.model import validate_params
from dpsched.pareto import algorithm1, brute_force_frontier
from dpsched.policies import is_threshold
from dpsched.sim import simulate
from dpsched.verify import curves_match, random_one_row_pair, random_policy

from conftest import random_params

PARAMS_VI = validate_params(alpha=0.4, A=2, M=3, Q=5, power=[0, 1, 4, 9])


def report(name: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'}  acceptance[{name}]  {detail}")
    assert passed, f"{name}: {detail}"


def test_1_zero_delay_point():
    t0 = time.perf_counter()
    curve = algorithm1(PARAMS_VI)
    sol = solve_simplex(build_lp(PARAMS_VI, 1.6))
    elapsed = time.perf_counter() - t0
    walk_delay = curve.vertices[0].delay
    ok = (
        abs(walk_delay) <= 1e-9
        and sol.status == "optimal"
        and abs(sol.delay) <= 1e-9
        and elapsed < 1.0
    )
    report(
        "zero-delay-point",
        ok,
        f"walk_delay={walk_delay:.3e} lp_delay={sol.delay:.3e} "
        f"tol=1e-9 runtime={elapsed:.2f}s<1s",
    )


def test_2_frontier_equivalence():
    t0 = time.perf_counter()
    worst = curves_match(algorithm1(PARAMS_VI), brute_force_frontier(PARAMS_VI))
    rng = np.random.default_rng(20240801)
    n_random = 5
    for _ in range(n_random):
        params = random_params(rng)
        worst = max(worst, curves_match(algorithm1(params), brute_force_frontier(params)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    report(
        "frontier-equivalence",
        ok,
        f"worst={worst:.3e} tol=1e-9 instances=1+{n_random} runtime={elapsed:.1f}s<30s",
    )


def test_3_lp_curve_overlap():
    t0 = time.perf_counter()
    curve = algorithm1(PARAMS_VI)
    worst = 0.0
    for p_th in np.linspace(curve.min_power, curve.max_power, 50):
        sol = solve_simplex(build_lp(PARAMS_VI, float(p_th)))
        assert sol.status == "optimal", f"status {sol.status} at p_th={p_th}"
        worst = max(worst, abs(sol.delay - curve.interpolate(float(p_th))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    report(
        "lp-curve-overlap",
        ok,
        f"worst={worst:.3e} tol=1e-6 budgets=50 runtime={elapsed:.1f}s<10s",
    )


def test_4_mixing_geometry():
    rng = np.random.default_rng(20240802)
    worst_coll = worst_end = worst_slope = 0.0
    monotone = True
    for _ in range(50):
        F, F2, _ = random_one_row_pair(PARAMS_VI, rng)
        ana = mrp.mixing_analysis(PARAMS_VI, F, F2)
        worst_end = max(
            worst_end, abs(ana.epsilon_prime(0.0)), abs(ana.epsilon_prime(1.0) - 1.0)
        )
        prev = -1.0
        for eps in np.linspace(0.0, 1.0, 11):
            w = ana.epsilon_prime(float(eps))
            if w < prev - 1e-12:
                monotone = False
            prev = w
            got = mrp.evaluate(PARAMS_VI, mrp.mix_policies(F, F2, float(eps)))
            want_p, want_d = ana.predicted_point(float(eps))
            worst_coll = max(worst_coll, abs(got.power - want_p), abs(got.delay - want_d))
        try:
            # slope error scaled by magnitude: steep segments (tiny power
            # gap) amplify solver rounding in the finite difference
            chord = ana.chord_slope
            worst_slope = max(worst_slope, abs(ana.slope - chord) / max(1.0, abs(chord)))
        except mrp.DegenerateSegment:
            pass
    ok = worst_coll <= 1e-9 and worst_end == 0.0 and monotone and worst_slope <= 1e-9
    report(
        "mixing-geometry",
        ok,
        f"collinearity={worst_coll:.3e} endpoints={worst_end:.3e} "
        f"monotone={monotone} slope={worst_slope:.3e} tol=1e-9 pairs=50",
    )


def test_5_transition_equivalence():
    rng = np.random.default_rng(20240803)
    worst = 0.0
    param_sets = [PARAMS_VI] + [random_params(rng) for _ in range(4)]
    for params in param_sets:
        for _ in range(100):
            pol = random_policy(params, rng)
            a = mrp.build_transition_enumerative(params, pol)
            b = mrp.build_transition_piecewise(params, pol)
            worst = max(worst, float(np.max(np.abs(a - b))))
    ok = worst <= 1e-15
    report(
        "transition-equivalence",
        ok,
        f"worst={worst:.3e} tol=1e-15 policies=100x{len(param_sets)}",
    )


def test_6_threshold_structure():
    curve = algorithm1(PARAMS_VI)
    non_threshold = []
    high_action = []
    for v in curve.vertices:
        assert v.policy is not None
        if not v.policy.is_deterministic() or is_threshold(PARAMS_VI, v.policy) is None:
            non_threshold.append(v.thresholds)
            continue
        # reachable states under the vertex policy
        pi = mrp.stationary_distribution(
            mrp.build_transition_enumerative(PARAMS_VI, v.policy)
        )
        acts = v.policy.action_map()
        for k in range(PARAMS_VI.K + 1):
            if pi[k] > 1e-12 and acts[k] > PARAMS_VI.A:
                high_action.append((v.thresholds, k, acts[k]))
    ok = not non_threshold
    if high_action:
        # non-fatal by design: report the offending instances
        print(f"NOTE  acceptance[threshold-structure]  actions above A on "
              f"reachable states: {high_action}")
    report(
        "threshold-structure",
        ok,
        f"vertices={len(curve.vertices)} non_threshold={non_threshold} "
        f"reachable_actions_above_A={len(high_action)} (non-fatal)",
    )


def test_7_simulation_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240804)
    worst_rel = worst_tv = 0.0
    for i in range(10):
        pol = random_policy(PARAMS_VI, rng)
        want = mrp.evaluate(PARAMS_VI, pol)
        pi = mrp.stationary_distribution(
            mrp.build_transition_enumerative(PARAMS_VI, pol)
        )
        got = simulate(PARAMS_VI, pol, slots=1_000_000, seed=9000 + i)
        assert got.overflow_violations == got.underflow_violations == 0
        worst_rel = max(worst_rel, abs(got.empirical_power - want.power) / want.power)
        if want.delay < 0.05:
            ok_d = abs(got.empirical_delay - want.delay) <= 0.01
            assert ok_d, f"delay abs err {abs(got.empirical_delay - want.delay)}"
        else:
            worst_rel = max(
                worst_rel, abs(got.empirical_delay - want.delay) / want.delay
            )
        worst_tv = max(
            worst_tv, 0.5 * float(np.sum(np.abs(np.array(got.state_occupancy) - pi)))
        )
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 0.02 and worst_tv <= 0.01 and elapsed < 60.0
    report(
        "simulation-agreement",
        ok,
        f"worst_rel={worst_rel:.3e} tol=2e-2 worst_tv={worst_tv:.3e} tol=1e-2 "
        f"policies=10 slots=1e6 runtime={elapsed:.1f}s<60s",
    )


def test_8_lp_soundness():
    curve = algorithm1(PARAMS_VI)
    worst_res = worst_rc = 0.0
    for p_th in np.linspace(curve.min_power, curve.max_power, 20):
        sol = solve_simplex(build_lp(PARAMS_VI, float(p_th)))
        assert sol.status == "optimal"
        worst_res = max(worst_res, sol.equilibrium_residual, sol.normalization_residual)
        worst_res = max(worst_res, max(0.0, -float(np.min(sol.x))))
        worst_res = max(worst_res, max(0.0, sol.power - float(p_th)))
        worst_rc = max(worst_rc, max(0.0, -float(np.min(sol.reduced_costs))))
    rng = np.random.default_rng(20240805)
    lp = build_lp(PARAMS_VI, 0.0)
    worst_eq = 0.0
    for _ in range(100):
        pol = random_policy(PARAMS_VI, rng)
        pi = mrp.stationary_distribution(
            mrp.build_transition_enumerative(PARAMS_VI, pol)
        )
        x = occupation_measure(PARAMS_VI, pol, pi)
        worst_eq = max(worst_eq, float(np.max(np.abs(lp.A_eq @ x - lp.b_eq))))
    ok = worst_res <= 1e-9 and worst_rc <= 1e-9 and worst_eq <= 1e-12
    report(
        "lp-soundness",
        ok,
        f"residual={worst_res:.3e} tol=1e-9 reduced_cost={worst_rc:.3e} tol=1e-9 "
        f"occupation_eq={worst_eq:.3e} tol=1e-12 measures=100",
    )
