"""The four benchmark workloads.

Each workload builds its inputs from the seed (`prepare`), names the
operations of one round (`round_keys`), runs one operation (`run`), checks
its output (`check`, which returns an error message or None) and summarises
the outputs of the first round (`facts`).  Calls into dpsched go through
module attributes, so the tracer's wrappers see them.

Instances are fixed: the ladder rungs K=203 and K=22 (alpha=0.5, A=3, M=5,
power[m]=m^2) and the reference instance (alpha=0.4, A=2, M=3, Q=5,
power=[0,1,4,9]).  The seed orders the LP budgets and drives the simulator.
"""
from __future__ import annotations

import statistics

import numpy as np

from dpsched import lp, model, mrp, pareto, policies, sim, verify

LADDER = dict(alpha=0.5, A=3, M=5, power=[0, 1, 4, 9, 16, 25])
REFERENCE = dict(alpha=0.4, A=2, M=3, Q=5, power=[0, 1, 4, 9])
POINT_TOL = 1e-9    # walk re-solve and brute-vs-walk frontier agreement
LP_TOL = 1e-6       # LP delay against the interpolated frontier
SIM_REL_TOL = 0.02  # acceptance test 7: relative power/delay error
SIM_ABS_DELAY = 0.01  # acceptance test 7: absolute delay error below delay 0.05
LP_BUDGETS = 50
LP_SIM_BUDGET = 1.2
SIM_SLOTS = 1_000_000


def curve_key(curve):
    return tuple((v.power, v.delay, v.thresholds) for v in curve.vertices)


class Walk:
    """`pareto.algorithm1` on ladder rung K=203 (Q=200)."""

    name = "walk"
    work_unit = "algorithm1 calls"

    def __init__(self):
        self.verified = None

    def prepare(self, seed):
        return model.validate_params(Q=200, **LADDER)

    def round_keys(self, inputs, seed, r):
        return [None]

    def work(self, inputs, key):
        return 1

    def run(self, params, key):
        return pareto.algorithm1(params)

    def output_key(self, curve):
        return curve_key(curve)

    def check(self, params, key, curve):
        d = repr(curve_key(curve))  # repr round-trips floats: equal means bit-identical
        if self.verified is not None:
            return None if d == self.verified else "walk output differs from the verified one"
        curve.validate()
        for v in curve.vertices:
            T = mrp.build_transition_piecewise(params, v.policy)
            pi = mrp.stationary_distribution(T)
            err = max(abs(mrp.average_power(params, v.policy, pi) - v.power),
                      abs(mrp.average_delay(params, pi) - v.delay))
            if err > POINT_TOL:
                return f"vertex {v.thresholds} re-solves {err:.3e} away"
        self.verified = d
        return None

    def facts(self, params, curves):
        curve = curves[0]
        last = curve.vertices[-1]
        return {"K": params.K, "vertices": len(curve.vertices),
                "last_power": last.power, "last_delay": last.delay,
                "last_thresholds": list(last.thresholds)}


class Brute:
    """`pareto.brute_force_frontier` on the reference instance, Q=5 and Q=6."""

    name = "brute"
    work_unit = "deterministic policies evaluated"

    def __init__(self):
        self.walks = None
        self.verified = None

    def prepare(self, seed):
        return tuple(model.validate_params(**dict(REFERENCE, Q=q)) for q in (5, 6))

    def round_keys(self, inputs, seed, r):
        return [None]

    def work(self, inputs, key):
        return sum(policies.count_deterministic(p) for p in inputs)

    def run(self, inputs, key):
        return tuple(pareto.brute_force_frontier(p) for p in inputs)

    def output_key(self, curves):
        return tuple((curve_key(c), c.skipped_singular) for c in curves)

    def check(self, inputs, key, curves):
        d = repr(self.output_key(curves))
        if self.verified is not None:
            return None if d == self.verified else "brute output differs from the verified one"
        if self.walks is None:
            self.walks = [pareto.algorithm1(p) for p in inputs]
        for p, brute, walk in zip(inputs, curves, self.walks):
            worst = verify.curves_match(brute, walk)
            if not worst <= POINT_TOL:
                return f"Q={p.Q}: brute force and walk differ by {worst:.3e}"
        self.verified = d
        return None

    def facts(self, inputs, outputs):
        return {f"Q={p.Q}": {"policies": policies.count_deterministic(p),
                             "skipped_singular": c.skipped_singular,
                             "vertices": len(c.vertices)}
                for p, c in zip(inputs, outputs[0])}


class Lp:
    """`lp.build_lp` + `lp.solve_simplex` at 50 budgets on ladder rung K=22.

    One round is a sweep over all budgets in a seeded order, so every budget
    is timed equally often."""

    name = "lp"
    work_unit = "budgets solved"

    def prepare(self, seed):
        params = model.validate_params(Q=19, **LADDER)
        curve = pareto.algorithm1(params)
        budgets = np.linspace(curve.min_power, curve.max_power, LP_BUDGETS)
        return params, curve, [float(b) for b in budgets]

    def round_keys(self, inputs, seed, r):
        order = np.random.default_rng([seed, r]).permutation(LP_BUDGETS)
        return [int(i) for i in order]

    def work(self, inputs, key):
        return 1

    def run(self, inputs, key):
        params, _, budgets = inputs
        return lp.solve_simplex(lp.build_lp(params, budgets[key]))

    def output_key(self, sol):
        return (sol.status, sol.delay, sol.power, sol.iterations,
                None if sol.x is None else sol.x.tobytes())

    def check(self, inputs, key, sol):
        _, curve, budgets = inputs
        if sol.status != "optimal":
            return f"status {sol.status} at budget {budgets[key]}"
        err = abs(sol.delay - curve.interpolate(budgets[key]))
        return None if err <= LP_TOL else f"delay {err:.3e} off the frontier at {budgets[key]}"

    def facts(self, inputs, sols):
        pivots = [s.iterations for s in sols]
        return {"K": inputs[0].K, "n_vars": len(sols[0].x), "budgets": LP_BUDGETS,
                "p_min": inputs[2][0], "p_max": inputs[2][-1],
                "pivots_p50": statistics.median(pivots), "pivots_max": max(pivots)}


class Sim:
    """`sim.simulate` for 10^6 slots on the reference instance under the LP
    optimum at p_th=1.2, which has one randomized row.  The simulation seed
    is derived from the run's seed, so every operation of a run repeats the
    same simulation."""

    name = "sim"
    work_unit = "slots simulated"

    def __init__(self):
        self.want = None

    def prepare(self, seed):
        params = model.validate_params(**REFERENCE)
        sol = lp.solve_simplex(lp.build_lp(params, LP_SIM_BUDGET))
        return params, lp.recover_policy(params, sol)

    def round_keys(self, inputs, seed, r):
        return [int(np.random.SeedSequence(seed).generate_state(1)[0])]

    def work(self, inputs, key):
        return SIM_SLOTS

    def run(self, inputs, key):
        params, policy = inputs
        return sim.simulate(params, policy, SIM_SLOTS, key)

    def output_key(self, res):
        return res

    def check(self, inputs, key, res):
        if self.want is None:
            self.want = mrp.evaluate(*inputs)
        if res.overflow_violations or res.underflow_violations:
            return f"buffer violations {res.overflow_violations}/{res.underflow_violations}"
        want = self.want
        p_err = abs(res.empirical_power - want.power) / want.power
        if p_err > SIM_REL_TOL:
            return f"power off by {p_err:.3e} (relative)"
        d_err = abs(res.empirical_delay - want.delay)
        d_tol = SIM_ABS_DELAY if want.delay < 0.05 else SIM_REL_TOL * want.delay
        return None if d_err <= d_tol else f"delay off by {d_err:.3e}"

    def facts(self, inputs, results):
        params, policy = inputs
        res = results[0]
        return {"slots": SIM_SLOTS,
                "randomized_rows": int(np.sum(policy.f.max(axis=1) < 1 - 1e-9)),
                "seed": res.seed, "power": res.empirical_power, "delay": res.empirical_delay}


WORKLOADS = {w.name: w for w in (Walk, Brute, Lp, Sim)}
