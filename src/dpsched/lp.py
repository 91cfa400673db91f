"""Occupation-measure linear program.

Minimizes average delay subject to a power budget over variables
x[k, m] = pi_k * f[k, m], with the cut-balance equalities, normalization,
and the overflow/underflow mask.  Solved by a dense two-phase simplex
with Bland's rule; an optimal policy is recovered by dividing each row of
x by its state mass.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateSolution, IterationLimit
from .model import ModelParams, Policy, feasibility_mask, feasible_actions
from .mrp import StationaryDistribution

FEAS_TOL = 1e-9
REDUCED_COST_TOL = 1e-9
DEFAULT_MAX_PIVOTS = 1_000_000


@dataclass(frozen=True)
class LpProblem:
    """min c@x  s.t.  a_power@x <= p_th,  A_eq@x = b_eq,  x >= 0.

    Variables are the masked occupation measures, ordered lexicographically
    by (state, action); masked-out pairs are absent, not bounded.
    """

    params: ModelParams
    p_th: float
    var_index: tuple[tuple[int, int], ...]
    c: np.ndarray
    a_power: np.ndarray
    A_eq: np.ndarray
    b_eq: np.ndarray
    eq_scale: float

    @property
    def n_vars(self) -> int:
        return len(self.var_index)


@dataclass(frozen=True)
class LpSolution:
    status: str  # optimal | infeasible | unbounded
    x: Optional[np.ndarray]
    delay: Optional[float]
    power: Optional[float]
    reduced_costs: Optional[np.ndarray]
    iterations: int
    equilibrium_residual: float = float("nan")
    normalization_residual: float = float("nan")


def equilibrium_matrix(params: ModelParams, var_index: Sequence[tuple[int, int]]) -> np.ndarray:
    """Cut-balance equality rows, one per state boundary k = 1..K.

    Upward flow across the boundary below k (an arrival outrunning the
    transmission) balances downward flow (transmissions past the boundary,
    with or without an arrival).
    """
    K, A, M, alpha = params.K, params.A, params.M, params.alpha
    col = {km: j for j, km in enumerate(var_index)}
    rows = np.zeros((K, len(var_index)))
    for k in range(1, K + 1):
        row = rows[k - 1]
        for l in range(max(0, k - A), k):
            for m in range(0, l + A - k + 1):
                j = col.get((l, m))
                if j is not None:
                    row[j] += alpha
        for r in range(k, min(k + M - 1, K) + 1):
            for m in range(r - k + 1, min(r - k + A, M) + 1):
                j = col.get((r, m))
                if j is not None:
                    row[j] -= 1 - alpha
            for m in range(r - k + A + 1, M + 1):
                j = col.get((r, m))
                if j is not None:
                    row[j] -= 1.0
    return rows


def build_lp(params: ModelParams, p_th: float) -> LpProblem:
    """Assemble the transformed program for a given power budget."""
    if p_th < 0:
        raise ValueError(f"power budget must be nonnegative, got {p_th}")
    # row-major nonzero order is the lexicographic (state, action) order
    ks, ms = np.nonzero(feasibility_mask(params))
    var_index = tuple(zip(ks.tolist(), ms.tolist()))
    n = len(var_index)
    c = ks / (params.alpha * params.A)
    a_power = params.power_array[ms]
    eq = equilibrium_matrix(params, var_index)
    # small-alpha instances scale the balance rows to keep pivots healthy
    scale = 1.0 / params.alpha if params.alpha < 0.1 else 1.0
    rows = [eq * scale, np.ones((1, n))]
    A_eq = np.vstack(rows)
    b_eq = np.zeros(params.K + 1)
    b_eq[-1] = 1.0
    return LpProblem(
        params=params,
        p_th=float(p_th),
        var_index=var_index,
        c=c,
        a_power=a_power,
        A_eq=A_eq,
        b_eq=b_eq,
        eq_scale=scale,
    )


def occupation_measure(params: ModelParams, policy: Policy, pi: StationaryDistribution) -> np.ndarray:
    """x[k, m] = pi_k * f[k, m] over the masked variable order."""
    return (pi.pi[:, None] * policy.f)[feasibility_mask(params)]


def _pivot(T: np.ndarray, b: np.ndarray, row: int, col: int) -> None:
    piv = T[row, col]
    T[row, :] /= piv
    b[row] /= piv
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            factor = T[r, col]
            T[r, :] -= factor * T[row, :]
            b[r] -= factor * b[row]


def _simplex_phase(
    T: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    basis: list[int],
    banned: frozenset[int],
    max_iter: int,
    start_iter: int,
) -> tuple[str, int]:
    """Bland-rule simplex on an explicit tableau; returns (status, pivots)."""
    it = start_iter
    while True:
        reduced = c - c[basis] @ T
        enter = -1
        for j in range(T.shape[1]):
            if j in banned or j in basis:
                continue
            if reduced[j] < -REDUCED_COST_TOL:
                enter = j
                break
        if enter < 0:
            return "optimal", it
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
            return "unbounded", it
        _pivot(T, b, leave, enter)
        basis[leave] = enter
        it += 1
        if it > max_iter:
            raise IterationLimit(f"simplex exceeded {max_iter} pivots")


def solve_simplex(lp: LpProblem, max_iter: int = DEFAULT_MAX_PIVOTS) -> LpSolution:
    """Two-phase dense simplex with Bland's anti-cycling rule."""
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
    for i in range(m_rows):
        if b[i] < 0:
            A[i, :] *= -1
            b[i] *= -1
    n_total = A.shape[1]
    # phase 1: artificial basis
    T = np.hstack([A, np.eye(m_rows)]).astype(float)
    b1 = b.astype(float).copy()
    c1 = np.concatenate([np.zeros(n_total), np.ones(m_rows)])
    basis = list(range(n_total, n_total + m_rows))
    status, iters = _simplex_phase(T, b1, c1, basis, frozenset(), max_iter, 0)
    phase1_obj = float(c1[basis] @ b1)
    if status != "optimal" or phase1_obj > FEAS_TOL:
        return LpSolution(
            status="infeasible",
            x=None,
            delay=None,
            power=None,
            reduced_costs=None,
            iterations=iters,
        )
    # drive leftover zero-valued artificials out of the basis when possible
    for i, bi in enumerate(basis):
        if bi >= n_total:
            for j in range(n_total):
                if abs(T[i, j]) > 1e-10 and j not in basis:
                    _pivot(T, b1, i, j)
                    basis[i] = j
                    break
    banned = frozenset(range(n_total, n_total + m_rows))
    # phase 2
    c2 = np.concatenate([c, np.zeros(m_rows)])
    status, iters = _simplex_phase(T, b1, c2, basis, banned, max_iter, iters)
    if status == "unbounded":
        return LpSolution(
            status="unbounded",
            x=None,
            delay=None,
            power=None,
            reduced_costs=None,
            iterations=iters,
        )
    x_full = np.zeros(n_total)
    for i, bi in enumerate(basis):
        if bi < n_total:
            x_full[bi] = b1[i]
    x = x_full[:n]
    reduced = (c2 - c2[basis] @ T)[:n_total]
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
    )


def recover_policy(params: ModelParams, sol: LpSolution) -> Policy:
    """Invert x[k, m] = pi_k * f[k, m] back to a policy.

    Rows with no stationary mass (unreachable states) are completed with
    the smallest feasible action not below the previous row's largest
    action, so the returned matrix is a fully specified policy.
    """
    if sol.status != "optimal" or sol.x is None:
        raise DegenerateSolution(f"cannot recover a policy from status {sol.status}")
    x = np.zeros((params.K + 1, params.M + 1))
    x[feasibility_mask(params)] = sol.x
    x[x < 0.0] = 0.0
    pi = x.sum(axis=1)
    f = np.zeros_like(x)
    unreachable = []
    prev_action = 0
    for k in range(params.K + 1):
        if pi[k] > 1e-12:
            row = x[k] / pi[k]
            s = row.sum()
            if abs(s - 1.0) > 1e-8:
                raise DegenerateSolution(f"recovered row {k} sums to {s}")
            f[k] = row / s
            prev_action = int(np.max(np.nonzero(row > 1e-12)[0]))
        else:
            unreachable.append(k)
            acts = feasible_actions(params, k)
            m = max(prev_action, acts.start)
            if m not in acts:
                raise DegenerateSolution(f"no feasible completion action at state {k}")
            f[k, m] = 1.0
            prev_action = m
    policy = Policy(params, f)
    if unreachable:
        # The completion above can leave an unreachable state idling into a
        # second closed class (e.g. state 1 between reachable states 0 and 2),
        # which makes the balance system singular.  Fall back to draining
        # those states with their largest feasible action, which always moves
        # toward the states the LP solution occupies.
        from .errors import SingularChain
        from .mrp import build_transition_enumerative, stationary_distribution

        try:
            stationary_distribution(build_transition_enumerative(params, policy))
        except SingularChain:
            for k in unreachable:
                f[k, :] = 0.0
                f[k, feasible_actions(params, k)[-1]] = 1.0
            policy = Policy(params, f)
    return policy


@dataclass(frozen=True)
class SweepPoint:
    p_th: float
    status: str
    delay: Optional[float]
    solution: Optional[LpSolution]


def sweep(params: ModelParams, budgets: Sequence[float]) -> list[SweepPoint]:
    """One LP solve per power budget; failures are recorded per budget."""
    out = []
    for p_th in budgets:
        try:
            sol = solve_simplex(build_lp(params, p_th))
        except IterationLimit:
            out.append(SweepPoint(p_th=p_th, status="iteration_limit", delay=None, solution=None))
            continue
        out.append(
            SweepPoint(p_th=p_th, status=sol.status, delay=sol.delay, solution=sol)
        )
    return out


def sweep_to_csv(points: Sequence[SweepPoint]) -> str:
    lines = ["p_th,delay,status"]
    for pt in points:
        d = f"{pt.delay:.17g}" if pt.delay is not None else ""
        lines.append(f"{pt.p_th:.17g},{d},{pt.status}")
    return "\n".join(lines) + "\n"


def to_mps(lp: LpProblem, name: str = "DPSCHED") -> str:
    """Fixed-format MPS rendering for external verification."""
    lines = [f"NAME          {name}", "ROWS", " N  DELAY", " L  POWER"]
    n_eq = lp.A_eq.shape[0]
    for i in range(n_eq):
        tag = "NORM" if i == n_eq - 1 else f"EQ{i + 1}"
        lines.append(f" E  {tag}")
    lines.append("COLUMNS")

    def fmt(col: str, row: str, val: float) -> str:
        return f"    {col:<10}{row:<10}{val:.12g}"

    for j, (k, m) in enumerate(lp.var_index):
        col = f"X{k}_{m}"
        if lp.c[j] != 0.0:
            lines.append(fmt(col, "DELAY", lp.c[j]))
        if lp.a_power[j] != 0.0:
            lines.append(fmt(col, "POWER", lp.a_power[j]))
        for i in range(n_eq):
            if lp.A_eq[i, j] != 0.0:
                tag = "NORM" if i == n_eq - 1 else f"EQ{i + 1}"
                lines.append(fmt(col, tag, lp.A_eq[i, j]))
    lines.append("RHS")
    lines.append(fmt("RHS", "POWER", lp.p_th))
    for i in range(n_eq):
        if lp.b_eq[i] != 0.0:
            tag = "NORM" if i == n_eq - 1 else f"EQ{i + 1}"
            lines.append(fmt("RHS", tag, lp.b_eq[i]))
    lines.append("BOUNDS")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"
