import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg.lapack import dgetrf, dgetrs

from dpsched import errors, lp as lp_module, model, mrp
from dpsched.lp import (
    LpProblem,
    LpSolution,
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

from conftest import EDGE_FAMILIES, edge_params


def tableau_pivot(T: np.ndarray, b: np.ndarray, row: int, col: int) -> None:
    """Gauss-Jordan pivot on T[row, col]; rows with a zero in the pivot
    column are left untouched."""
    piv = T[row, col]
    T[row, :] /= piv
    b[row] /= piv
    factor = T[:, col].copy()
    factor[row] = 0.0
    rows = np.flatnonzero(factor)
    T[rows] -= factor[rows, None] * T[row]
    b[rows] -= factor[rows] * b[row]


def bland_phase(
    T: np.ndarray, b: np.ndarray, c: np.ndarray, basis: list[int], n_enter: int, pivots: int
) -> tuple[str, int]:
    """Bland-rule simplex on an explicit tableau, entering only columns
    below n_enter; `pivots` counts the pivots of earlier phases, so that
    MAX_PIVOTS caps the whole solve.  Returns (status, pivots)."""
    while True:
        reduced = c - c[basis] @ T
        eligible = reduced < -lp_module.REDUCED_COST_TOL
        eligible[basis] = False
        eligible[n_enter:] = False
        if not eligible.any():
            return "optimal", pivots
        enter = int(np.argmax(eligible))
        col = T[:, enter]
        leave = -1
        best_ratio = np.inf
        for i in range(T.shape[0]):
            if col[i] > 1e-10:
                ratio = b[i] / col[i]
                if ratio < best_ratio - 1e-12 or (
                    abs(ratio - best_ratio) <= 1e-12
                    and (leave < 0 or basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            return "unbounded", pivots
        tableau_pivot(T, b, leave, enter)
        basis[leave] = enter
        pivots += 1
        if pivots > lp_module.MAX_PIVOTS:
            raise errors.IterationLimit(f"simplex exceeded {lp_module.MAX_PIVOTS} pivots")


def bland_reference(lp: LpProblem) -> LpSolution:
    """Reference: the two-phase dense tableau simplex with Bland's rule that
    `solve_simplex` used before the revised simplex, kept verbatim, plus
    the duality gap of its final basis, whose inverse is the tableau's
    artificial columns."""
    n = lp.n_vars
    # standard form: power row gets a slack, equalities as-is
    A = np.vstack([lp.a_power, lp.A_eq])
    b = np.concatenate([[lp.p_th], lp.b_eq])
    m_rows = A.shape[0]
    slack = np.zeros((m_rows, 1))
    slack[0, 0] = 1.0
    A = np.hstack([A, slack])
    c = np.concatenate([lp.c, [0.0]])
    # nonnegative right-hand side for phase 1
    negative = b < 0
    A[negative] *= -1
    b[negative] *= -1
    n_total = A.shape[1]
    # phase 1: artificial basis
    T = np.hstack([A, np.eye(m_rows)]).astype(float)
    b1 = b.astype(float).copy()
    c1 = np.concatenate([np.zeros(n_total), np.ones(m_rows)])
    basis = list(range(n_total, n_total + m_rows))
    status, iters = bland_phase(T, b1, c1, basis, T.shape[1], 0)
    phase1_obj = float(c1[basis] @ b1)
    if status != "optimal" or phase1_obj > lp_module.FEAS_TOL:
        return LpSolution(status="infeasible", iterations=iters)
    # drive leftover zero-valued artificials out of the basis when possible
    for i, bi in enumerate(basis):
        if bi >= n_total:
            for j in range(n_total):
                if abs(T[i, j]) > 1e-10 and j not in basis:
                    tableau_pivot(T, b1, i, j)
                    basis[i] = j
                    break
    # phase 2: artificials may no longer enter
    c2 = np.concatenate([c, np.zeros(m_rows)])
    status, iters = bland_phase(T, b1, c2, basis, n_total, iters)
    if status == "unbounded":
        return LpSolution(status="unbounded", iterations=iters)
    x_full = np.zeros(T.shape[1])
    x_full[basis] = b1
    x = x_full[:n]
    reduced = (c2 - c2[basis] @ T)[:n_total]
    y = c2[basis] @ T[:, n_total:]  # duals of the sign-flipped rows
    delay = float(lp.c @ x) - 1.0
    power = float(lp.a_power @ x)
    return LpSolution(
        status="optimal",
        x=x,
        delay=delay,
        power=power,
        reduced_costs=reduced,
        iterations=iters,
        equilibrium_residual=float(
            np.max(np.abs(lp.A_eq @ x - lp.b_eq)) if lp.A_eq.size else 0.0
        ),
        normalization_residual=abs(float(np.sum(x)) - 1.0),
        duality_gap=float(c2[basis] @ b1 - y @ b),
    )


def select_cut_rows(params, ks, ms):
    """The cut-balance rows of `equilibrium_matrix` from its three interval
    conditions, one np.select over the (K, n) masks."""
    alpha = params.alpha
    k = np.arange(1, params.K + 1)[:, None]
    low = ks - ms
    high = low + params.A
    return np.select(
        [(ks < k) & (k <= high), (low < k) & (k <= ks) & (k <= high), (high < k) & (k <= ks)],
        [alpha, alpha - 1.0, -1.0],
    )


def mask_drain_basis(params):
    """The drain basis read off the feasibility mask: the power slack, then
    the last column of each state's row of the mask."""
    counts = feasibility_mask(params).sum(axis=1)
    return np.concatenate([[counts.sum()], np.cumsum(counts) - 1])


def restart_instance():
    """Ladder rung K=5 at alpha=0.9 (P_min = 7.578), where the dual simplex
    pivots and then sends RESTART_BUDGET to the restart."""
    return validate_params(0.9, 3, 5, 2, [0, 1, 4, 9, 16, 25])


RESTART_BUDGET = 7.5779999999992


def ladder_budgets(params):
    """50 budgets over the walk's [P_min, P_max]."""
    curve = algorithm1(params)
    return [float(b) for b in np.linspace(curve.min_power, curve.max_power, 50)]


class TestBuildLp:
    def test_reference_dimensions(self, params_vi):
        lp = build_lp(params_vi, 1.0)
        assert lp.n_vars == 23  # sum of feasible-set sizes over the 8 states
        assert lp.A_eq.shape == (8, 23)  # 7 balance rows + normalization
        assert lp.b_eq[-1] == 1.0 and not lp.b_eq[:-1].any()

    def test_objective_and_power_rows(self, params_vi):
        lp = build_lp(params_vi, 1.0)
        ks, ms = np.nonzero(feasibility_mask(params_vi))
        assert lp.n_vars == len(ks)
        for j, (k, m) in enumerate(zip(ks, ms)):
            assert lp.c[j] == pytest.approx(k / 0.8)
            assert lp.a_power[j] == params_vi.power[m]

    def test_negative_budget_rejected(self, params_vi):
        with pytest.raises(ValueError):
            build_lp(params_vi, -0.5)

    @pytest.mark.parametrize("p_th", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_budget_rejected(self, params_vi, p_th):
        # a NaN budget passes the old `p_th < 0` test and broke the simplex down
        with pytest.raises(errors.ModelError, match="must be finite and nonnegative"):
            build_lp(params_vi, p_th)

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


@given(
    family=st.sampled_from(EDGE_FAMILIES),
    alpha=st.floats(0.05, 0.95),
    eps=st.floats(1e-4, 0.02),
    A=st.integers(1, 3),
    extra_m=st.integers(0, 2),
    Q=st.integers(0, 6),
)
@settings(max_examples=100, deadline=None)
@example(family="alpha->1", alpha=0.5, eps=1e-4, A=2, extra_m=1, Q=3)  # alpha = 1
@example(family="Q=0", alpha=0.4, eps=1e-3, A=1, extra_m=2, Q=0)  # M = 3 > K = 1
@example(family="M=A", alpha=0.4, eps=1e-3, A=3, extra_m=0, Q=2)
def test_cut_rows_and_drain_basis_match_mask_references(family, alpha, eps, A, extra_m, Q):
    """`equilibrium_matrix`, over the feasible pairs and over every (state,
    action) pair, is the np.select formula bit for bit, the sign of zero
    included (alpha - 1 is +0.0 at alpha = 1); and the drain basis counted
    from the action bounds is the last column of each row of the mask."""
    params = edge_params(family, alpha, eps, A, extra_m, Q)
    ks, ms = np.nonzero(feasibility_mask(params))
    every = np.indices((params.K + 1, params.M + 1)).reshape(2, -1)
    for rs, acts in ((ks, ms), every):
        got, want = equilibrium_matrix(params, rs, acts), select_cut_rows(params, rs, acts)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()
    basis = lp_module._drain_basis(build_lp(params, 1.0))
    assert basis.tobytes() == mask_drain_basis(params).tobytes()


class TestSimplexCore:
    def test_textbook_lp(self, params_vi):
        # max x1 + x2 s.t. x1 + 2 x2 <= 4 (power row), x1 + x2 + s = 2
        # rebuilt as: min -(x1 + x2) over our problem container
        lp = LpProblem(
            params=params_vi,
            p_th=4.0,
            c=np.array([-1.0, -1.0, 0.0]),
            a_power=np.array([1.0, 2.0, 0.0]),
            A_eq=np.array([[1.0, 1.0, 1.0]]),
            b_eq=np.array([2.0]),
        )
        sol = solve_simplex(lp)
        assert sol.status == "optimal"
        assert float(lp.c @ sol.x) == pytest.approx(-2.0, abs=1e-12)
        # one equality row, not one per state: no drain basis to start from
        assert lp_module._drain_basis(lp) is None and sol.restart == "no start"

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
        # both phases of the solve, the dual simplex and the restart, pivot
        # on ladder rung K=5 at alpha=0.9, 8e-13 below P_min = 7.578: 5 dual
        # pivots end at a row with no entering column whose infeasibility is
        # within rounding, and the restart from one artificial per row takes
        # 15 more; a cap of one pivot less than the total trips only if it
        # counts the two together
        lp = build_lp(restart_instance(), RESTART_BUDGET)
        ends = []
        dual = lp_module._dual_simplex

        def counted_dual(*args):
            out = dual(*args)
            ends.append(out[1])
            return out

        monkeypatch.setattr(lp_module, "_dual_simplex", counted_dual)
        sol = solve_simplex(lp)
        assert sol.restart == "no entering column" and sol.status == "optimal"
        assert ends == [5] and sol.iterations == 5 + 15
        monkeypatch.setattr(lp_module, "MAX_PIVOTS", sol.iterations)
        assert solve_simplex(lp).iterations == sol.iterations
        monkeypatch.setattr(lp_module, "MAX_PIVOTS", sol.iterations - 1)
        with pytest.raises(errors.IterationLimit):
            solve_simplex(lp)
        # the reference instance at p_th=1.0 takes 8 dual pivots
        monkeypatch.setattr(lp_module, "MAX_PIVOTS", 3)
        (point,) = sweep(params_vi, [1.0])
        assert point.status == "iteration_limit"
        assert point.delay is None and point.solution is None

    def test_singular_basis_breaks_down(self, params_vi, monkeypatch):
        # two equal columns make the basis exactly singular
        A = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
        with pytest.raises(errors.SimplexBreakdown):
            lp_module._simplex_phase(
                A, np.array([1.0, 2.0]), np.zeros(3), np.array([0, 1]), 3, 0
            )
        # every factorization reporting a zero pivot: the drain basis sends
        # the solve to the restart, whose first phase-1 basis breaks down,
        # and the sweep records it
        def zero_pivot(B):
            lu, piv, _ = dgetrf(B)
            return lu, piv, 1

        monkeypatch.setattr(lp_module, "dgetrf", zero_pivot)
        (point,) = sweep(params_vi, [1.3])
        assert point.status == "breakdown"
        assert point.delay is None and point.solution is None

    @pytest.mark.parametrize(
        "phase,target,value",
        [(1, "x_B", np.nan), (1, "y", np.nan), (2, "x_B", np.nan), (2, "y", np.nan),
         (2, "u", np.nan), (1, "u", -1.0),
         ("dual", "y", np.nan), ("dual", "x_B", np.nan), ("dual", "rho", np.nan)],
    )
    def test_non_finite_solve_breaks_down(self, monkeypatch, phase, target, value):
        # the dual simplex solves once for the duals y, then at every pivot
        # for x_B and the pivot row rho = B^-T e_r; each phase of the restart
        # solves for x_B, then y (transposed), then the entering column u.
        # On the instance of test_pivot_cap_covers_both_phases all of them
        # pivot.  A NaN in any of them must raise rather than price, pivot,
        # restart or give a verdict, and so must a ray in the restart's
        # phase 1 (u <= 0), where the artificials' sum bounds it
        stages, kinds = [], []

        def staged(run, stage):
            def run_stage(*args, **kwargs):
                stages.append(stage(len(stages)))
                kinds.clear()
                return run(*args, **kwargs)
            return run_stage

        def solve(lu, piv, rhs, trans=0):
            out = dgetrs(lu, piv, rhs, trans=trans)
            if stages[-1] == "dual":
                kinds.append("x_B" if not trans else "rho" if "x_B" in kinds else "y")
            else:
                kinds.append("y" if trans else "u" if kinds and kinds[-1] == "y" else "x_B")
            if stages[-1] == phase and kinds[-1] == target:
                out[0][:] = value
            return out

        monkeypatch.setattr(
            lp_module, "_dual_simplex", staged(lp_module._dual_simplex, lambda i: "dual"))
        # the restart's phases follow the dual stage: phase 1 is the second
        monkeypatch.setattr(
            lp_module, "_simplex_phase", staged(lp_module._simplex_phase, lambda i: i))
        monkeypatch.setattr(lp_module, "dgetrs", solve)
        with pytest.raises(errors.SimplexBreakdown):
            solve_simplex(build_lp(restart_instance(), RESTART_BUDGET))

    def test_ill_conditioned_budget_not_optimal(self):
        # ladder rung K=203 at p_th = 2.5, at or below the least power: the
        # final basis is so ill-conditioned that a basic value reads about
        # -0.013 and the duality gap 19, which the certificate rejects
        params = validate_params(0.5, 3, 5, 200, [0, 1, 4, 9, 16, 25])
        sol = solve_simplex(build_lp(params, 2.5))
        assert sol.status in ("uncertified", "infeasible")
        if sol.status == "uncertified":
            assert float(np.min(sol.x)) < -lp_module.FEAS_TOL
            assert sweep(params, [2.5])[0].delay is None

    def test_steep_budget_certified_relative_to_duals(self):
        # ladder rung K=203 at the power of the walk's last vertex (delay
        # 34.67): the duals reach 7e11, so the duality gap reads -1.9e-4 in
        # absolute terms and -1.6e-16 relative to |y|@|b|.  The certified
        # optimum lies well below that vertex, and the exact chain solve of
        # the recovered policy gives the same power and delay.
        params = validate_params(0.5, 3, 5, 200, [0, 1, 4, 9, 16, 25])
        p_th = 2.5000000000061187
        sol = solve_simplex(build_lp(params, p_th))
        assert sol.status == "optimal"
        assert sol.delay < 34.66666666676474 - 0.1
        point = mrp.evaluate(params, recover_policy(params, sol))
        assert point.power <= p_th + 1e-12
        assert abs(point.delay - sol.delay) <= 1e-9

    def test_small_alpha_basic_reduced_costs(self):
        # alpha = 1e-4 scales the balance rows by 1e4, and the rounding in
        # c - y@A on the basic columns reads about -6e-9; those are zero by
        # definition and reported as zero
        params = edge_params("alpha->0", 0.5, 1e-4, 3, 0, 2)
        sol = solve_simplex(build_lp(params, 3.37))
        assert sol.status == "optimal"
        assert float(np.min(sol.reduced_costs)) >= -1e-9

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
            assert abs(p.solution.duality_gap) <= 1e-9

    def test_ladder_k83(self, monkeypatch):
        """Ladder rung K=83, 50 budgets over [P_min, P_max]: each above
        P_min optimal within 1e-6 of the walk's frontier and with its
        certificate to 1e-9.  At P_min the feasible set is one point and the
        basis is ill-conditioned: the duals reach 1e10, so the duality gap
        reads 1.8e-6 (1.8e-16 relative to |y|@|b|), and a basic value reads
        -3.5e-8, below -FEAS_TOL, so the solve reports the point uncertified
        rather than optimal.  The cap of 5,000
        pivots turns a degenerate stall into a failure instead of a long
        run: in the sweep, which starts each budget from the last optimal
        basis, the most any budget takes is 257, at P_min (61 dual pivots
        end at a row with no entering column, then 196 from one artificial
        per row), and 66 above it; solved alone, P_min takes 509 (313 +
        196) and the most above it is 262."""
        monkeypatch.setattr(lp_module, "MAX_PIVOTS", 5000)
        params = validate_params(0.5, 3, 5, 80, [0, 1, 4, 9, 16, 25])
        curve = algorithm1(params)
        budgets = np.linspace(curve.min_power, curve.max_power, 50)
        points = sweep(params, [float(b) for b in budgets])
        at_min = points[0].solution
        assert points[0].status == "uncertified" and points[0].delay is None
        assert -1e-7 < float(np.min(at_min.x)) < -lp_module.FEAS_TOL
        assert abs(at_min.delay - curve.interpolate(points[0].p_th)) <= 1e-6
        for p in points[1:]:
            assert p.status == "optimal", p.p_th
            assert abs(p.delay - curve.interpolate(p.p_th)) <= 1e-6
            sol = p.solution
            assert sol.equilibrium_residual <= 1e-9 and sol.normalization_residual <= 1e-9
            assert float(np.min(sol.reduced_costs)) >= -1e-9
            assert abs(sol.duality_gap) <= 1e-9

    def test_ladder_k203_formerly_stalled_budgets(self, monkeypatch):
        """Ladder rung K=203, budgets 10-12 of 50 over [P_min, P_max]
        (p_th 2.908-2.990): from one artificial per row they stalled under
        Bland's rule past 5,000 pivots, and the primal two-phase solve from
        the drain basis took 71 each.  The dual simplex takes 43, 42 and 41
        from the drain basis; the sweep solves budget 12 in 41 and, from its
        basis, budgets 11 and 10 in none.  Each is optimal within 1e-6 of
        the walk's frontier."""
        monkeypatch.setattr(lp_module, "MAX_PIVOTS", 5000)
        params = validate_params(0.5, 3, 5, 200, [0, 1, 4, 9, 16, 25])
        curve = algorithm1(params)
        budgets = np.linspace(curve.min_power, curve.max_power, 50)[10:13]
        for p in sweep(params, [float(b) for b in budgets]):
            assert p.status == "optimal", p.p_th
            assert abs(p.delay - curve.interpolate(p.p_th)) <= 1e-6

    @pytest.mark.parametrize("ladder", [False, True], ids=["reference", "ladder-k22"])
    def test_warm_sweep_matches_cold_solves(self, params_vi, monkeypatch, ladder):
        """A sweep of unsorted budgets, below P_min up to past P_max, gives
        each budget the status of a solve from the drain basis and its delay
        to 1e-9.  A budget in the middle that hits the pivot cap is recorded
        as such, and the next budget down starts from the drain basis again,
        so it is that solve bit for bit."""
        params = validate_params(0.5, 3, 5, 19, [0, 1, 4, 9, 16, 25]) if ladder else params_vi
        curve = algorithm1(params)
        budgets = [float(b) for b in np.random.default_rng(26).permutation(
            np.linspace(0.9 * curve.min_power, 1.1 * curve.max_power, 40))]
        cold = [solve_simplex(build_lp(params, b)) for b in budgets]
        for sol, point in zip(cold, sweep(params, budgets)):
            assert point.status == sol.status, point.p_th
            if sol.status == "optimal":
                assert abs(point.delay - sol.delay) <= 1e-9
                assert point.solution.restart is None
        # the cap hit at the budget of median rank
        down = sorted(budgets, reverse=True)
        capped, after = down[20], down[21]
        solve = lp_module.solve_simplex

        def capped_solve(lp):
            if lp.p_th == capped:
                assert lp.start is not None
                raise errors.IterationLimit("simplex exceeded the cap")
            return solve(lp)

        monkeypatch.setattr(lp_module, "solve_simplex", capped_solve)
        points = {p.p_th: p for p in sweep(params, budgets)}
        assert points[capped].status == "iteration_limit" and points[capped].solution is None
        want = cold[budgets.index(after)]
        got = points[after].solution
        assert got.status == want.status == "optimal"
        assert got.iterations == want.iterations and got.x.tobytes() == want.x.tobytes()

    def test_warm_sweep_pivot_totals(self, monkeypatch):
        """The 50-budget sweeps of ladder rungs K=22 and K=203 under a cap of
        5,000 pivots: every budget optimal, in 77 and 1,265 pivots in all
        (the K=203 total includes 518 pivots of the restart at P_min).  One
        by one from the drain basis they take 1,111 and 3,304, and the primal
        two-phase solve took 1,245 and 7,358."""
        monkeypatch.setattr(lp_module, "MAX_PIVOTS", 5000)
        for Q, bound in ((19, 100), (200, 1_500)):
            params = validate_params(0.5, 3, 5, Q, [0, 1, 4, 9, 16, 25])
            points = sweep(params, ladder_budgets(params))
            assert all(p.status == "optimal" for p in points)
            assert sum(p.solution.iterations for p in points) <= bound

    def test_csv(self, params_vi):
        csv = sweep_to_csv(sweep(params_vi, [0.0, 1.6]))
        lines = csv.splitlines()
        assert lines[0] == "p_th,delay,status"
        assert lines[1].endswith("infeasible")
        assert lines[2].endswith("optimal")


class TestStart:
    """The dual simplex starts from the drain policy's basis, and the solve
    restarts from one artificial per row only for the reason it records."""

    # Pivots per budget from P_min up at ladder rung K=22.  A change that
    # moves the pivot path changes these and must say so.
    LADDER_K22_PIVOTS = [
        77, 76, 63, 70, 61, 58, 61, 57, 47, 40, 37, 38, 39, 38, 22, 23, 24,
        23, 23, 15, 15, 15, 15, 15, 15, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6,
        6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 0,
    ]

    def test_ladder_k22_never_restarts(self):
        # the median is 10.5 pivots, against 15.5 for the primal two-phase
        # solve from the same basis and 58 from one artificial per row
        params = validate_params(0.5, 3, 5, 19, [0, 1, 4, 9, 16, 25])
        sols = [solve_simplex(build_lp(params, b)) for b in ladder_budgets(params)]
        assert all(s.status == "optimal" and s.restart is None for s in sols)
        assert [s.iterations for s in sols] == self.LADDER_K22_PIVOTS
        assert np.median(self.LADDER_K22_PIVOTS) == 10.5

    def test_one_feasibility_mask_per_solve(self, monkeypatch):
        # build_lp reads the variables off the mask; the drain basis counts
        # each state's actions from its bounds instead of a second mask
        calls = []

        def counted(params):
            calls.append(params)
            return feasibility_mask(params)

        monkeypatch.setattr(model, "feasibility_mask", counted)
        monkeypatch.setattr(lp_module, "feasibility_mask", counted)
        params = validate_params(0.5, 3, 5, 19, [0, 1, 4, 9, 16, 25])
        sol = solve_simplex(build_lp(params, 3.0))
        assert sol.status == "optimal" and sol.restart is None
        assert len(calls) <= 1

    @pytest.mark.parametrize("pivot_tol", [1e-9, 3e-9, 1e-8])
    def test_infeasible_verdict_counts_entries_below_pivot_tol(self, monkeypatch, pivot_tol):
        # At the P_min budget of ladder rung K=83 the dual simplex reaches a
        # row with no entering column.  At PIVOT_TOL 3e-9 and 1e-8 that row
        # has entries just below the pivot threshold which a feasible x can
        # use; unless the Farkas test allows for their largest contribution,
        # it calls the feasible budget infeasible.  The row gives no verdict,
        # and the restart ends uncertified, as at 1e-9.
        monkeypatch.setattr(lp_module, "PIVOT_TOL", pivot_tol)
        params = validate_params(0.5, 3, 5, 80, [0, 1, 4, 9, 16, 25])
        sol = solve_simplex(build_lp(params, algorithm1(params).min_power))
        assert sol.status == "uncertified" and sol.restart == "no entering column"

    def test_singular_drain_basis_restarts(self):
        # at alpha=1, A=M=1 every state t >= 1 keeps its backlog under the
        # drain policy, so its chain has several closed classes
        params = edge_params("A=1", 1.0, 0.5, 1, 0, 3)
        for p_th in (0.5, 1.2, 1.25, 2.0, 5.0):
            lp = build_lp(params, p_th)
            sol, want = solve_simplex(lp), bland_reference(lp)
            assert sol.restart == "singular basis"
            assert sol.status == want.status
            if want.status == "optimal":
                assert abs(sol.delay - want.delay) <= 1e-12

    def test_uncertified_drain_solve_restarts(self, params_vi, monkeypatch):
        # no budget measured ends uncertified in the dual simplex, so the
        # dual's first solution is marked uncertified here; the restart
        # certifies the same optimum, its pivots counted after the dual's
        solution = lp_module._solution
        dual_pivots = []

        def first_uncertified(lp, A, b, c, basis, x_B, y, pivots):
            sol = solution(lp, A, b, c, basis, x_B, y, pivots)
            if dual_pivots:
                return sol
            dual_pivots.append(pivots)
            return replace(sol, status="uncertified")

        monkeypatch.setattr(lp_module, "_solution", first_uncertified)
        lp = build_lp(params_vi, 1.0)
        sol = solve_simplex(lp)
        assert sol.status == "optimal" and sol.restart == "uncertified"
        assert dual_pivots == [8] and sol.iterations > 8
        monkeypatch.undo()
        assert abs(sol.delay - solve_simplex(lp).delay) <= 1e-12

    def test_steep_budget_restarts_without_entering_column(self):
        # the steep budget of test_steep_budget_certified_relative_to_duals:
        # after 735 dual pivots a row whose basic value reads -0.19 has no
        # entering column; against |rho|@|b| = 2.6e8 that is rounding, not
        # a verdict, and the restart certifies the budget
        params = validate_params(0.5, 3, 5, 200, [0, 1, 4, 9, 16, 25])
        sol = solve_simplex(build_lp(params, 2.5000000000061187))
        assert sol.status == "optimal" and sol.restart == "no entering column"

    def test_start_not_dual_feasible_restarts(self, params_vi):
        # the basis of the lazy policy, which sends max(0, k - Q), prices
        # the drain policy's columns below zero
        counts = feasibility_mask(params_vi).sum(axis=1)
        lazy = np.concatenate([[0], np.cumsum(counts)[:-1]])
        lp = build_lp(params_vi, 1.2)
        sol = solve_simplex(replace(lp, start=np.append(lazy, lp.n_vars)))
        want = solve_simplex(lp)
        assert sol.restart == "not dual feasible" and want.restart is None
        assert sol.status == want.status == "optimal"
        assert abs(sol.delay - want.delay) <= 1e-12

    def test_start_must_be_a_basis(self, params_vi):
        lp = build_lp(params_vi, 1.2)
        for start in ([0, 1], np.arange(8) - 1, np.full(9, lp.n_vars + 1)):
            with pytest.raises(errors.ModelError, match="start must hold 9 column indices"):
                solve_simplex(replace(lp, start=start))


class TestAgainstBland:
    def test_reference_sweep(self, params_vi):
        """Status and delay of the Bland tableau across and beyond the
        reference frontier, in far fewer pivots."""
        curve = algorithm1(params_vi)
        for p_th in np.linspace(0.0, curve.max_power + 0.5, 41):
            lp = build_lp(params_vi, float(p_th))
            sol, want = solve_simplex(lp), bland_reference(lp)
            assert sol.status == want.status
            assert sol.iterations <= want.iterations
            if want.status == "optimal":
                assert abs(sol.delay - want.delay) <= 1e-12

    @pytest.mark.parametrize("M,Q", [(1, 3), (2, 3), (3, 2), (2, 1)])
    def test_alpha_one_a_one(self, M, Q):
        """At alpha=1, A=1 a state that sends one bit stays where it is, so
        many bases are singular.  The solve agrees with the tableau on both
        sides of P_min = power[1] = 1.25."""
        params = edge_params("A=1", 1.0, 0.5, 1, M - 1, Q)
        for p_th in (0.5, 1.2, 1.25, 2.0, 5.0):
            lp = build_lp(params, p_th)
            sol, want = solve_simplex(lp), bland_reference(lp)
            assert sol.status == want.status == ("optimal" if p_th >= 1.25 else "infeasible")
            if want.status == "optimal":
                assert abs(sol.delay - want.delay) <= 1e-12


@given(
    family=st.sampled_from(EDGE_FAMILIES),
    alpha=st.floats(0.05, 0.95),
    eps=st.floats(1e-4, 0.02),
    A=st.integers(1, 3),
    extra_m=st.integers(0, 2),
    Q=st.integers(0, 6),
    budget=st.floats(0.0, 1.05),
)
@settings(max_examples=60, deadline=None)
# the tableau calls this optimal with delay -0.333 and an equality residual
# of 1.6e-4; the solve and the walk both give 0
@example(family="alpha->0", alpha=0.5, eps=1e-4, A=3, extra_m=0, Q=2, budget=1e-4)
def test_edge_instances_match_bland(family, alpha, eps, A, extra_m, Q, budget):
    """alpha near 0 and 1 (alpha = 1 included), Q = 0, M = A and A = 1, at a
    budget up to 1.05 power[M]: the status of the Bland tableau, the budget
    kept, no reduced cost below -1e-9, and the delay to 1e-9: the
    tableau's where its own certificate holds (equality residual at most
    1e-9, finite duality gap), else the walk's frontier at the budget."""
    params = edge_params(family, alpha, eps, A, extra_m, Q)
    p_th = budget * float(params.power_array[params.M])
    lp = build_lp(params, p_th)
    sol, want = solve_simplex(lp), bland_reference(lp)
    assert sol.status == want.status
    if want.status == "optimal":
        if want.equilibrium_residual <= 1e-9 and np.isfinite(want.duality_gap):
            assert abs(sol.delay - want.delay) <= 1e-9
        else:
            assert abs(sol.delay - algorithm1(params).interpolate(p_th)) <= 1e-9
        assert sol.power <= p_th + 1e-9
        assert float(np.min(sol.reduced_costs)) >= -1e-9


@given(
    family=st.sampled_from(EDGE_FAMILIES),
    alpha=st.floats(0.05, 0.95),
    eps=st.floats(1e-4, 0.02),
    A=st.integers(1, 3),
    extra_m=st.integers(0, 2),
    Q=st.integers(0, 6),
    budget=st.floats(0.0, 1.05),
)
@settings(max_examples=200, deadline=None)
def test_edge_drain_basis_dual_feasible_or_restarts(family, alpha, eps, A, extra_m, Q, budget):
    """On the instances of test_edge_instances_match_bland, the drain basis
    is dual feasible, or the solve restarts from one artificial per row for
    the reason that basis gives (singular, or not dual feasible); either way
    the status is the Bland tableau's."""
    params = edge_params(family, alpha, eps, A, extra_m, Q)
    lp = build_lp(params, budget * float(params.power_array[params.M]))
    sol = solve_simplex(lp)
    assert sol.status == bland_reference(lp).status
    # the standard form: the power row and its slack over the equalities
    A_std = np.hstack([np.vstack([lp.a_power, lp.A_eq]), np.eye(len(lp.b_eq) + 1, 1)])
    c = np.append(lp.c, 0.0)
    basis = lp_module._drain_basis(lp)
    lu, piv, info = dgetrf(A_std[:, basis])
    if info:
        assert sol.restart == "singular basis"
        return
    reduced = c - dgetrs(lu, piv, c[basis], trans=1)[0] @ A_std
    reduced[basis] = 0.0
    assert reduced.min() >= -lp_module.REDUCED_COST_TOL or sol.restart == "not dual feasible"
    assert sol.restart in (None, "singular basis", "no entering column", "uncertified")


def test_import_leaves_scipy_optimize_unloaded():
    """`import dpsched` must not pull in scipy.optimize (HiGHS) or
    scipy.linalg (its LAPACK/BLAS routines come from `dpsched._lapack`):
    `import scipy.optimize` after `import dpsched` adds 0.31-0.43 s and
    about 44 MB to a process's start (2-CPU host), scipy.linalg included."""
    src = str(Path(lp_module.__file__).resolve().parents[1])
    code = ("import sys, dpsched; "
            "print(sorted({'scipy.linalg', 'scipy.optimize'} & set(sys.modules)))")
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
