"""Occupation-measure linear program.

Minimizes average delay subject to a power budget over variables
x[k, m] = pi_k * f[k, m], with one cut-balance equality per state boundary,
normalization, and the overflow/underflow mask.  The cut-balance rows are
built from three interval masks on the states each action can reach; the
program is solved by a dense two-phase tableau simplex with Bland's rule,
one vectorised row update per pivot and at most MAX_PIVOTS pivots.  An
optimal policy is recovered by dividing each row of x by its state mass.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import mrp
from .errors import DegenerateSolution, IterationLimit, ModelError, SingularChain
from .model import ModelParams, Policy, _complete_actions, feasibility_mask

FEAS_TOL = 1e-9
REDUCED_COST_TOL = 1e-9
MAX_PIVOTS = 1_000_000


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

    @property
    def n_vars(self) -> int:
        return len(self.var_index)


@dataclass(frozen=True)
class LpSolution:
    """A failed solve (infeasible | unbounded) carries only its status and
    pivot count."""

    status: str  # optimal | infeasible | unbounded
    iterations: int
    x: Optional[np.ndarray] = None
    delay: Optional[float] = None
    power: Optional[float] = None
    reduced_costs: Optional[np.ndarray] = None
    equilibrium_residual: float = float("nan")
    normalization_residual: float = float("nan")


def equilibrium_matrix(params: ModelParams, ks: np.ndarray, ms: np.ndarray) -> np.ndarray:
    """Cut-balance equality rows, one per state boundary k = 1..K, over the
    variables (ks[j], ms[j]).

    Upward flow across the boundary below k (an arrival outrunning the
    transmission) balances downward flow (transmissions past the boundary,
    with or without an arrival).  From state r under action m the next state
    is low = r-m without an arrival and high = r-m+A with one, so the
    coefficient of (r, m) in row k is +alpha if r < k <= high, -(1-alpha) if
    low < k <= min(r, high), -1 if high < k <= r, and 0 otherwise.
    """
    alpha = params.alpha
    k = np.arange(1, params.K + 1)[:, None]
    low = ks - ms
    high = low + params.A
    return np.select(
        [(ks < k) & (k <= high), (low < k) & (k <= ks) & (k <= high), (high < k) & (k <= ks)],
        # alpha - 1 is -(1 - alpha) exactly, with +0.0 at alpha = 1
        [alpha, alpha - 1.0, -1.0],
    )


def build_lp(params: ModelParams, p_th: float) -> LpProblem:
    """Assemble the transformed program for a given power budget."""
    if p_th < 0:
        raise ModelError(f"power budget must be nonnegative, got {p_th}")
    # row-major nonzero order is the lexicographic (state, action) order
    ks, ms = np.nonzero(feasibility_mask(params))
    # small-alpha instances scale the balance rows to keep pivots healthy
    scale = 1.0 / params.alpha if params.alpha < 0.1 else 1.0
    A_eq = np.vstack([equilibrium_matrix(params, ks, ms) * scale, np.ones((1, len(ks)))])
    b_eq = np.zeros(params.K + 1)
    b_eq[-1] = 1.0
    return LpProblem(
        params=params,
        p_th=float(p_th),
        var_index=tuple(zip(ks.tolist(), ms.tolist())),
        c=ks / (params.alpha * params.A),
        a_power=params.power_array[ms],
        A_eq=A_eq,
        b_eq=b_eq,
    )


def occupation_measure(params: ModelParams, policy: Policy, pi: np.ndarray) -> np.ndarray:
    """x[k, m] = pi_k * f[k, m] over the masked variable order."""
    return (pi[:, None] * policy.f)[feasibility_mask(params)]


def _pivot(T: np.ndarray, b: np.ndarray, row: int, col: int) -> None:
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


def _simplex_phase(
    T: np.ndarray, b: np.ndarray, c: np.ndarray, basis: list[int], n_enter: int, pivots: int
) -> tuple[str, int]:
    """Bland-rule simplex on an explicit tableau, entering only columns
    below n_enter; `pivots` counts the pivots of earlier phases, so that
    MAX_PIVOTS caps the whole solve.  Returns (status, pivots)."""
    while True:
        reduced = c - c[basis] @ T
        eligible = reduced < -REDUCED_COST_TOL
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
        _pivot(T, b, leave, enter)
        basis[leave] = enter
        pivots += 1
        if pivots > MAX_PIVOTS:
            raise IterationLimit(f"simplex exceeded {MAX_PIVOTS} pivots")


def solve_simplex(lp: LpProblem) -> LpSolution:
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
    negative = b < 0
    A[negative] *= -1
    b[negative] *= -1
    n_total = A.shape[1]
    # phase 1: artificial basis
    T = np.hstack([A, np.eye(m_rows)]).astype(float)
    b1 = b.astype(float).copy()
    c1 = np.concatenate([np.zeros(n_total), np.ones(m_rows)])
    basis = list(range(n_total, n_total + m_rows))
    status, iters = _simplex_phase(T, b1, c1, basis, T.shape[1], 0)
    phase1_obj = float(c1[basis] @ b1)
    if status != "optimal" or phase1_obj > FEAS_TOL:
        return LpSolution(status="infeasible", iterations=iters)
    # drive leftover zero-valued artificials out of the basis when possible
    for i, bi in enumerate(basis):
        if bi >= n_total:
            for j in range(n_total):
                if abs(T[i, j]) > 1e-10 and j not in basis:
                    _pivot(T, b1, i, j)
                    basis[i] = j
                    break
    # phase 2: artificials may no longer enter
    c2 = np.concatenate([c, np.zeros(m_rows)])
    status, iters = _simplex_phase(T, b1, c2, basis, n_total, iters)
    if status == "unbounded":
        return LpSolution(status="unbounded", iterations=iters)
    x_full = np.zeros(T.shape[1])
    x_full[basis] = b1
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

    Rows with no stationary mass (unreachable states) are completed by
    `model._complete_actions`, carrying each reachable row's largest
    supported action, so the returned matrix is a fully specified policy.
    Each reachable row is divided by its own mass, so it sums to 1 within
    rounding; the completion max(a, k-Q) never exceeds min(k, M), as
    a <= min(j, M) for an earlier state j and k-Q <= A <= M.
    """
    if sol.status != "optimal" or sol.x is None:
        raise DegenerateSolution(f"cannot recover a policy from status {sol.status}")
    states = np.arange(params.K + 1)
    x = np.zeros((params.K + 1, params.M + 1))
    x[feasibility_mask(params)] = sol.x
    x[x < 0.0] = 0.0
    pi = x.sum(axis=1)
    reach = pi > 1e-12
    rows = x[reach] / pi[reach, None]
    top = np.zeros(params.K + 1, dtype=int)
    top[reach] = params.M - np.argmax(rows[:, ::-1] > 1e-12, axis=1)
    acts = _complete_actions(params, top, reach)
    f = np.zeros_like(x)
    f[reach] = rows / rows.sum(axis=1)[:, None]
    unreachable = states[~reach]
    f[unreachable, acts[unreachable]] = 1.0
    policy = Policy(params, f)
    if unreachable.size:
        # The completion above can leave an unreachable state idling into a
        # second closed class (e.g. state 1 between reachable states 0 and 2),
        # which makes the balance system singular.  Fall back to draining
        # those states with their largest feasible action, which always moves
        # toward the states the LP solution occupies.
        try:
            mrp.stationary_distribution(mrp.build_transition_enumerative(params, policy))
        except SingularChain:
            f[unreachable] = 0.0
            f[unreachable, np.minimum(unreachable, params.M)] = 1.0
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
