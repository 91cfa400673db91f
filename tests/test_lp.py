import numpy as np
import pytest

from dpsched import errors, lp as lp_module, mrp
from dpsched.lp import (
    LpProblem,
    build_lp,
    equilibrium_matrix,
    occupation_measure,
    recover_policy,
    solve_simplex,
    sweep,
    sweep_to_csv,
)
from dpsched.model import Policy, feasibility_mask, feasible_actions, validate_params
from dpsched.pareto import algorithm1
from dpsched.verify import random_policy


class TestBuildLp:
    def test_reference_dimensions(self, params_vi):
        lp = build_lp(params_vi, 1.0)
        assert lp.n_vars == 23  # sum of feasible-set sizes over the 8 states
        assert lp.A_eq.shape == (8, 23)  # 7 balance rows + normalization
        assert lp.b_eq[-1] == 1.0 and not lp.b_eq[:-1].any()

    def test_objective_and_power_rows(self, params_vi):
        lp = build_lp(params_vi, 1.0)
        for j, (k, m) in enumerate(lp.var_index):
            assert lp.c[j] == pytest.approx(k / 0.8)
            assert lp.a_power[j] == params_vi.power[m]

    def test_negative_budget_rejected(self, params_vi):
        with pytest.raises(ValueError):
            build_lp(params_vi, -0.5)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(alpha=0.4, A=2, M=3, Q=5, power=[0, 1, 4, 9]),
            dict(alpha=0.05, A=2, M=3, Q=5, power=[0, 1, 4, 9]),
            dict(alpha=0.3, A=1, M=2, Q=4, power=[0, 1, 4]),
            dict(alpha=0.5, A=2, M=3, Q=0, power=[0, 1, 4, 9]),
        ],
        ids=["reference", "alpha0.05", "A1", "Q0"],
    )
    def test_cut_rows_are_suffix_sums_of_global_balance(self, kw):
        # Under a policy that sends all of state r's mass through action m,
        # the net flow across the boundary below k is the mass that the
        # global-balance column lam[:, r] - e_r moves into states >= k.
        params = validate_params(**kw)
        ks, ms = np.nonzero(feasibility_mask(params))
        eq = equilibrium_matrix(params, ks, ms)
        assert eq.shape == (params.K, len(ks))
        base = np.zeros((params.K + 1, params.M + 1))
        base[np.arange(params.K + 1), np.minimum(np.arange(params.K + 1), params.M)] = 1.0
        for j, (r, m) in enumerate(zip(ks, ms)):
            f = base.copy()
            f[r] = 0.0
            f[r, m] = 1.0
            lam = mrp.build_transition_enumerative(params, Policy(params, f))
            net = lam[:, r] - np.eye(params.K + 1)[r]
            suffix = np.cumsum(net[::-1])[::-1]
            assert np.max(np.abs(eq[:, j] - suffix[1:])) <= 1e-15, (r, m)


class TestSimplexCore:
    def test_textbook_lp(self, params_vi):
        # max x1 + x2 s.t. x1 + 2 x2 <= 4 (power row), x1 + x2 + s = 2
        # rebuilt as: min -(x1 + x2) over our problem container
        lp = LpProblem(
            params=params_vi,
            p_th=4.0,
            var_index=((0, 0), (1, 0), (2, 0)),
            c=np.array([-1.0, -1.0, 0.0]),
            a_power=np.array([1.0, 2.0, 0.0]),
            A_eq=np.array([[1.0, 1.0, 1.0]]),
            b_eq=np.array([2.0]),
        )
        sol = solve_simplex(lp)
        assert sol.status == "optimal"
        assert float(lp.c @ sol.x) == pytest.approx(-2.0, abs=1e-12)

    def test_infeasible_budget(self, params_vi):
        # zero budget forbids all transmission, but state K must transmit
        sol = solve_simplex(build_lp(params_vi, 0.0))
        assert sol.status == "infeasible"

    def test_zero_delay_budget(self, params_vi):
        sol = solve_simplex(build_lp(params_vi, 1.6))
        assert sol.status == "optimal"
        assert sol.delay == pytest.approx(0.0, abs=1e-9)
        assert sol.power <= 1.6 + 1e-9

    def test_pivot_cap_covers_both_phases(self, params_vi, monkeypatch):
        # at p_th=1.0 both phases pivot (16 + 2), so a cap of one pivot
        # less than the total trips only if it counts the phases together
        pivots = solve_simplex(build_lp(params_vi, 1.0)).iterations
        monkeypatch.setattr(lp_module, "MAX_PIVOTS", pivots)
        assert solve_simplex(build_lp(params_vi, 1.0)).iterations == pivots
        monkeypatch.setattr(lp_module, "MAX_PIVOTS", pivots - 1)
        with pytest.raises(errors.IterationLimit):
            solve_simplex(build_lp(params_vi, 1.0))
        monkeypatch.setattr(lp_module, "MAX_PIVOTS", 3)
        (point,) = sweep(params_vi, [1.0])
        assert point.status == "iteration_limit"
        assert point.delay is None and point.solution is None

    def test_certificates(self, params_vi):
        for p_th in (0.85, 1.0, 1.3, 1.6, 3.0):
            sol = solve_simplex(build_lp(params_vi, p_th))
            assert sol.status == "optimal"
            assert sol.equilibrium_residual <= 1e-9
            assert sol.normalization_residual <= 1e-9
            assert float(np.min(sol.reduced_costs)) >= -1e-9
            assert float(np.min(sol.x)) >= -1e-12


class TestOccupationMeasure:
    def test_random_policies_satisfy_equalities(self, params_vi, rng):
        lp = build_lp(params_vi, 0.0)
        for _ in range(50):
            pol = random_policy(params_vi, rng)
            pi = mrp.stationary_distribution(
                mrp.build_transition_enumerative(params_vi, pol)
            )
            x = occupation_measure(params_vi, pol, pi)
            assert np.max(np.abs(lp.A_eq @ x - lp.b_eq)) <= 1e-12

    def test_objective_matches_delay(self, params_vi, rng):
        lp = build_lp(params_vi, 0.0)
        pol = random_policy(params_vi, rng)
        pi = mrp.stationary_distribution(
            mrp.build_transition_enumerative(params_vi, pol)
        )
        x = occupation_measure(params_vi, pol, pi)
        want = mrp.evaluate(params_vi, pol)
        assert float(lp.c @ x) - 1.0 == pytest.approx(want.delay, abs=1e-12)
        assert float(lp.a_power @ x) == pytest.approx(want.power, abs=1e-12)


class TestRecoverPolicy:
    def test_roundtrip_rewards(self, params_vi):
        for p_th in (0.9, 1.1, 1.6):
            sol = solve_simplex(build_lp(params_vi, p_th))
            pol = recover_policy(params_vi, sol)
            pt = mrp.evaluate(params_vi, pol)
            assert pt.delay == pytest.approx(sol.delay, abs=1e-9)
            assert pt.power <= p_th + 1e-9

    def test_zero_delay_policy_transmits_arrivals(self, params_vi):
        sol = solve_simplex(build_lp(params_vi, 1.6))
        pol = recover_policy(params_vi, sol)
        # reachable states 0 and 2 behave like immediate transmission
        assert pol.f[0, 0] == pytest.approx(1.0)
        assert pol.f[2, 2] == pytest.approx(1.0)

    def test_failure_status_rejected(self, params_vi):
        sol = solve_simplex(build_lp(params_vi, 0.0))
        with pytest.raises(errors.DegenerateSolution):
            recover_policy(params_vi, sol)


def reference_recover_policy(params, sol):
    """Per-state recovery: reachable rows are x[k] / pi_k; each unreachable
    state takes the smallest feasible action not below the previous state's
    largest supported action; if that chain is singular, every unreachable
    state takes its largest feasible action.  Returns (policy, fell_back)."""
    x = np.zeros((params.K + 1, params.M + 1))
    x[feasibility_mask(params)] = sol.x
    x[x < 0.0] = 0.0
    pi = x.sum(axis=1)
    f = np.zeros_like(x)
    unreachable = []
    prev_action = 0
    for k in range(params.K + 1):
        acts = feasible_actions(params, k)
        if pi[k] > 1e-12:
            row = x[k] / pi[k]
            s = row.sum()
            if abs(s - 1.0) > 1e-8:
                raise errors.DegenerateSolution(f"recovered row {k} sums to {s}")
            f[k] = row / s
            prev_action = int(np.max(np.nonzero(row > 1e-12)[0]))
        else:
            unreachable.append(k)
            m = max(prev_action, acts.start)
            if m not in acts:
                raise errors.DegenerateSolution(f"no feasible completion action at state {k}")
            f[k, m] = 1.0
            prev_action = m
    policy = Policy(params, f)
    if not unreachable:
        return policy, False
    try:
        mrp.stationary_distribution(mrp.build_transition_enumerative(params, policy))
    except errors.SingularChain:
        for k in unreachable:
            f[k, :] = 0.0
            f[k, feasible_actions(params, k)[-1]] = 1.0
        return Policy(params, f), True
    return policy, False


# The reference instance and its alpha=0.05, A=1 and Q=0 variants.
RECOVERY_INSTANCES = [
    validate_params(0.4, 2, 3, 5, [0, 1, 4, 9]),
    validate_params(0.05, 2, 3, 5, [0, 1, 4, 9]),
    validate_params(0.4, 1, 3, 5, [0, 1, 4, 9]),
    validate_params(0.4, 2, 3, 0, [0, 1, 4, 9]),
]


@pytest.mark.parametrize("params", RECOVERY_INSTANCES, ids=["reference", "alpha0.05", "A1", "Q0"])
def test_recover_policy_matches_per_state_reference(params, rng):
    """LP optima, and occupation measures of random policies with the mass
    of a random set of states removed (some entries pushed slightly below
    zero), recovered bit-identically to the per-state reference."""
    ks = np.nonzero(feasibility_mask(params))[0]
    sols = [solve_simplex(build_lp(params, p_th)) for p_th in np.linspace(0.5, 2.0, 7)]
    for _ in range(60):
        pol = random_policy(params, rng)
        if rng.random() < 0.5:
            pol = Policy(params, np.eye(params.M + 1)[pol.f.argmax(axis=1)])
        try:
            pi = mrp.stationary_distribution(mrp.build_transition_enumerative(params, pol))
        except errors.SingularChain:
            continue
        x = occupation_measure(params, pol, pi)
        x[(rng.random(params.K + 1) < rng.random())[ks]] = 0.0
        x[rng.integers(len(x))] -= 1e-14
        sols.append(lp_module.LpSolution(status="optimal", iterations=0, x=x))
    for sol in sols:
        if sol.status == "optimal":
            want, _ = reference_recover_policy(params, sol)
            assert recover_policy(params, sol).f.tobytes() == want.f.tobytes()


def test_recover_policy_singular_fallback(params_vi):
    # the zero-delay optimum occupies states 0 and 2 only; completing state 1
    # with action 0 closes {1, 3} off from them
    sol = solve_simplex(build_lp(params_vi, 1.6))
    want, fell_back = reference_recover_policy(params_vi, sol)
    assert fell_back
    assert recover_policy(params_vi, sol).f.tobytes() == want.f.tobytes()


class TestSweep:
    def test_monotone_and_matches_curve(self, params_vi):
        curve = algorithm1(params_vi)
        budgets = np.linspace(curve.min_power, curve.max_power, 15)
        points = sweep(params_vi, [float(b) for b in budgets])
        delays = [p.delay for p in points]
        assert all(p.status == "optimal" for p in points)
        assert all(b <= a + 1e-9 for a, b in zip(delays, delays[1:]))
        for p in points:
            assert p.delay == pytest.approx(curve.interpolate(p.p_th), abs=1e-6)

    def test_csv(self, params_vi):
        csv = sweep_to_csv(sweep(params_vi, [0.0, 1.6]))
        lines = csv.splitlines()
        assert lines[0] == "p_th,delay,status"
        assert lines[1].endswith("infeasible")
        assert lines[2].endswith("optimal")
