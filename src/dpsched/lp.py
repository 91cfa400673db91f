"""Occupation-measure linear program.

Minimizes average delay subject to a power budget over variables
x[k, m] = pi_k * f[k, m], with one cut-balance equality per state boundary,
normalization, and the overflow/underflow mask.  The cut-balance
coefficient of (r, m) in row k depends only on m and k - r, so the rows are
windows of one (M+1) x (2K+1) table, itself read from two fixed rows
(`equilibrium_matrix`).  An optimal policy is recovered by dividing each
row of x by its state mass.

The program is solved in the standard form A@x = b, x >= 0 of `build_lp`'s
arrays plus a slack on the power row.  `solve_simplex` assembles it once per
solve, writing the power row and the equalities into one zeroed array; the
`LpProblem` holds only its own arrays, so `dataclasses.replace` cannot leave
a stale standard form behind.  Every pivot writes the entering column over
the leaving one in the basis matrix, factors that (K+2)-square matrix afresh
(LAPACK getrf; Bartels & Golub 1969 on refactoring) and solves against it
(getrs).

- Start: a crash basis (Bixby 1992) of the power slack and, for every state
  k, the column (k, min(k, M)) of the drain policy, which sends as much as
  it can; it is the last of the state's columns, whose number the action
  bounds max(k - Q, 0)..min(k, M) give.  For alpha < 1 a slot without an
  arrival lowers any positive backlog, so the drain chain has one closed
  class and its columns form a nonsingular basis whose solution is its
  stationary measure, >= 0.  The slack is basic, so the power row's dual is
  0 and the reduced costs are those of the min-delay problem, which the
  drain policy solves: the basis is dual feasible, and only the slack can
  be negative, by the budget's shortfall.  `LpProblem.start` gives another
  basis instead; `sweep` takes the last optimal one.  Only b depends on the
  budget, so an optimal basis is dual feasible at any budget (the
  parametric right-hand side of Gass & Saaty 1955).
- Dual simplex (Lemke 1954): the most negative basic value x_r leaves.  Its
  pivot row a = (B^-T e_r)@A is formed negated, as rho@A with
  rho = -B^-T e_r, and among the columns whose entry a_j is below
  -PIVOT_TOL times the row's largest |a_j|, the least ratio d_j / |a_j| of
  reduced cost to entry enters; among ratios within RATIO_TOL of the least,
  the largest |a_j|.  The reduced costs are updated in place,
  d -= theta * a with theta = d_q / a_q, and the leaving column's becomes
  -theta.  The solve ends once every basic value is at least -RATIO_TOL;
  the duals and the certificate are then computed afresh from the final
  basis.
- Farkas verdict: every feasible x has x_r + sum of a_j x_j over the
  nonbasic columns = x_r's current value, with x_r >= 0.  The variables sum
  to 1 and the slack is at most p_th (power is nonnegative), so that sum is
  at least min(0, least a_j over the variables) + min(0, a_slack) * p_th,
  which counts the entries in (-PIVOT_TOL * max|a_j|, 0) that the ratio test
  leaves out.  A row with no entering column proves the problem infeasible
  if its basic value is below that bound by more than
  FEAS_TOL * (1 + |rho|@|b|), the scale of the rounding in rho@b; otherwise
  it gives no verdict.
- Anti-cycling: a step of at most RATIO_TOL is degenerate (the dual's
  least ratio, or the primal's step in x).  After DEGENERATE_STREAK
  degenerate pivots in a row, Bland's rule (Bland 1977) takes over until a
  pivot is nondegenerate: in the dual the infeasible row of lowest basis
  index leaves and the lowest tied column enters; in the primal the lowest
  eligible column enters and the lowest tied basis index leaves.
- Restart: from one artificial per row, after the rows with a negative
  right-hand side are negated, by a two-phase primal simplex, when the
  problem lacks `build_lp`'s shape, when the start or a later basis has an
  exactly zero LU pivot (alpha = 1 with A = M leaves every state t >= A
  where it is, so the drain chain has several closed classes), when the
  start is not dual feasible, or when the dual simplex ends on a row
  without a verdict or with an uncertified solution.  `LpSolution.restart`
  says which.  An infeasible verdict of the dual stands.
- Restart phases: Dantzig's rule enters the most negative reduced cost
  c - y@A.  The ratio test runs over the rows whose entry of the entering
  column exceeds PIVOT_TOL times its largest; among ratios within RATIO_TOL
  of the least, the largest pivot leaves.  Phase 1 ends once the
  artificials sum to at most RATIO_TOL, and reports the problem infeasible
  if their least sum exceeds FEAS_TOL.  Artificials left in the basis at
  zero are pivoted out where a column allows it.
- MAX_PIVOTS caps the pivots of the dual simplex and of the restart
  together.
- Breakdown: a restart basis whose LU has an exactly zero pivot,
  non-finite basic values, duals, pivot rows or entering columns, or a
  phase-1 ray (impossible in exact arithmetic, as the artificials' sum is
  bounded below by 0) raises SimplexBreakdown.

The solution carries its certificate: the equality and normalization
residuals, the reduced costs of the final basis (zero on its basic columns,
as in a tableau) and its duality gap c@x - y@b, which is the sum over the
basic columns of the rounding in their reduced costs times x.  The status
is "optimal" only if x and the power slack are at least -FEAS_TOL, every
row's residual is at most FEAS_TOL, every reduced cost is at least
-REDUCED_COST_TOL, and the gap is at most REDUCED_COST_TOL
relative to 1 + |y|@|b| + |c_B|@|x_B|.  Relative, because its rounding grows
with the terms that cancel: the duals reach 1e10 at P_min of ladder K=83,
where the gap reads 1.8e-6, and 7e11 at the power of the walk's last vertex
at K=203.  Otherwise the status is "uncertified", with the same fields for
inspection.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from . import mrp
from ._lapack import dgetrf, dgetrs
from .errors import (
    DegenerateSolution,
    IterationLimit,
    ModelError,
    SimplexBreakdown,
    SingularChain,
)
from .model import ModelParams, Policy, _complete_actions, feasibility_mask

# Phase 1 leaving more than this much artificial mass means infeasible, as
# does a dual row without an entering column whose basic value is below
# the Farkas bound by more than FEAS_TOL * (1 + |rho|@|b|); a reduced cost
# below -REDUCED_COST_TOL may enter in the primal and makes a dual start
# infeasible; and the certificate is held to both: the 1e-9 to which
# acceptance tests 3 and 8 hold the solution's residuals and reduced costs.
FEAS_TOL = 1e-9
REDUCED_COST_TOL = 1e-9
# An entry of the primal's entering column or of the dual's pivot row may
# pivot only above this share of its largest entry.  Basis: on ladder rung
# K=83 with Bland after 20 degenerate pivots, an absolute 1e-10 let a
# rounding-level entry pivot and made the next basis exactly singular.
# With the dual ratio test, the shares 1e-10 to 1e-9 solve the 50 budgets
# of K=83 one by one alike (49 optimal to 4.4e-11 of the walk, P_min
# uncertified 2.0e-7 off).  Without the dropped entries in the Farkas bound,
# 3e-9 and 1e-8 called P_min infeasible; with them they solve all 50 as
# 1e-9 does.
PIVOT_TOL = 1e-9
# Ratios this close tie, and a step this short is degenerate.  Absolute:
# x sums to 1, so the basic values are at most 1 (the power slack at most
# p_th).
RATIO_TOL = 1e-12
# Degenerate pivots in a row before Bland's rule.  Basis, on the ladder
# K=22, 43, 83 and 203 (50 budgets per rung solved one by one from the
# drain basis, 5,000-pivot cap, dual ratio test): 10 breaks one K=203
# budget down, 15 leaves one uncertified, and 20, 30 and 50 give every
# status of the primal solve.  The median is 10.5 pivots at every rung
# for each streak from 15, and the most at K=203 is 1,414, 1,216 and 1,203
# at 20, 30 and 50.
DEGENERATE_STREAK = 30
MAX_PIVOTS = 1_000_000


@dataclass(frozen=True)
class LpProblem:
    """min c@x  s.t.  a_power@x <= p_th,  A_eq@x = b_eq,  x >= 0.

    Variables are the masked occupation measures, ordered lexicographically
    by (state, action), the order of `np.nonzero(feasibility_mask(params))`;
    masked-out pairs are absent, not bounded.  `start` is the basis the
    solve starts from, the `basis` of an optimal `LpSolution` of the same
    program at another budget, or None for the drain basis.
    """

    params: ModelParams
    p_th: float
    c: np.ndarray
    a_power: np.ndarray
    A_eq: np.ndarray
    b_eq: np.ndarray
    start: Optional[np.ndarray] = None

    @property
    def n_vars(self) -> int:
        return len(self.c)


@dataclass(frozen=True)
class LpSolution:
    """A failed solve (infeasible | unbounded) carries only its status and
    pivot count.  An optimal or uncertified one carries its certificate: the
    residuals, the reduced costs c - y@A of the final basis over the
    variables and the power slack, and the duality gap c@x - y@b.  An
    optimal one whose basis holds no artificial carries that basis, indices
    into the variables followed by the power slack (index n_vars).  A solve
    that restarted from one artificial per row says why in `restart`: "no
    start" (no drain basis), "singular basis", "not dual feasible", "no
    entering column" or "uncertified"."""

    status: str  # optimal | uncertified | infeasible | unbounded
    iterations: int
    x: Optional[np.ndarray] = None
    delay: Optional[float] = None
    power: Optional[float] = None
    reduced_costs: Optional[np.ndarray] = None
    equilibrium_residual: float = float("nan")
    normalization_residual: float = float("nan")
    duality_gap: float = float("nan")
    basis: Optional[np.ndarray] = None
    restart: Optional[str] = None


def equilibrium_matrix(params: ModelParams, ks: np.ndarray, ms: np.ndarray) -> np.ndarray:
    """Cut-balance equality rows, one per state boundary k = 1..K, over the
    variables (ks[j], ms[j]).

    Upward flow across the boundary below k (an arrival outrunning the
    transmission) balances downward flow (transmissions past the boundary,
    with or without an arrival).  From state r under action m the next state
    is low = r-m without an arrival and high = r-m+A with one, so the
    coefficient of (r, m) in row k is +alpha if r < k <= high, -(1-alpha) if
    low < k <= min(r, high), -1 if high < k <= r, and 0 otherwise.

    Only whether k <= r and e = k - low = k - r + m decide the coefficient.
    So two fixed rows over e, one for k <= r and one for k > r, give a table
    whose entry (m, K + k - r) is the coefficient of action m; row m is a
    window of each fixed row.  The column of (r, m) is again one window:
    the K entries of table row m from K + 1 - r on.
    """
    K, A, alpha = params.K, params.A, params.alpha
    # over e + K for e in [-K, K + M]
    size = 2 * K + params.M + 1
    at_or_below = np.zeros(size)
    # alpha - 1 is -(1 - alpha) exactly, with +0.0 at alpha = 1
    at_or_below[K + 1:K + A + 1] = alpha - 1.0
    at_or_below[K + A + 1:] = -1.0
    above = np.zeros(size)
    above[:K + A + 1] = alpha
    table = np.empty((params.M + 1, 2 * K + 1))
    table[:, :K + 1] = _windows(at_or_below, params.M + 1, K + 1)
    table[:, K + 1:] = _windows(above, params.M + 1, K, K + 1)
    return _windows(table, K + 2, K)[ms, K + 1 - ks].T


def _windows(a: np.ndarray, count: int, width: int, start: int = 0) -> np.ndarray:
    """View whose entry [..., i, j] is a[..., start + i + j], for i < count
    and j < width: the windows of `a`'s last axis, which must hold them."""
    step = a.strides[-1]
    return np.ndarray(
        a.shape[:-1] + (count, width),
        buffer=a,
        offset=start * step,
        strides=a.strides[:-1] + (step, step),
    )


def _budget(p_th: float) -> float:
    """p_th as a float; ModelError unless it is finite and nonnegative."""
    if not 0 <= p_th < math.inf:
        raise ModelError(f"power budget must be finite and nonnegative, got {p_th}")
    return float(p_th)


def build_lp(params: ModelParams, p_th: float) -> LpProblem:
    """Assemble the transformed program for a given power budget."""
    p_th = _budget(p_th)
    # row-major nonzero order is the lexicographic (state, action) order
    ks, ms = np.nonzero(feasibility_mask(params))
    # small-alpha instances scale the balance rows to keep pivots healthy
    scale = 1.0 / params.alpha if params.alpha < 0.1 else 1.0
    A_eq = np.empty((params.K + 1, len(ks)))
    np.multiply(equilibrium_matrix(params, ks, ms), scale, out=A_eq[:-1])
    A_eq[-1] = 1.0
    b_eq = np.zeros(params.K + 1)
    b_eq[-1] = 1.0
    return LpProblem(
        params=params,
        p_th=p_th,
        c=ks / (params.alpha * params.A),
        a_power=params.power_array[ms],
        A_eq=A_eq,
        b_eq=b_eq,
    )


def occupation_measure(params: ModelParams, policy: Policy, pi: np.ndarray) -> np.ndarray:
    """x[k, m] = pi_k * f[k, m] over the masked variable order."""
    return (pi[:, None] * policy.f)[feasibility_mask(params)]


def _factor(B: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """LU factors and pivots of a basis matrix; None if an LU pivot is
    exactly zero."""
    lu, piv, info = dgetrf(B)
    return None if info else (lu, piv)


def _factor_or_break(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    factors = _factor(B)
    if factors is None:
        raise SimplexBreakdown("basis LU has an exactly zero pivot")
    return factors


def _simplex_phase(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    basis: np.ndarray,
    n_enter: int,
    pivots: int,
    floor: float = -np.inf,
) -> tuple[str, int, np.ndarray, np.ndarray]:
    """Revised simplex for min c@x, A@x = b, x >= 0 from `basis` (updated in
    place), entering only columns below n_enter and stopping as optimal once
    the objective is at most `floor`.  `pivots` counts the pivots of earlier
    phases, so that MAX_PIVOTS caps the whole solve.  Returns (status,
    pivots, x_B, y), with x_B and the duals y of the final basis.

    Every pivot factors the basis afresh.  Dantzig pricing enters the most
    negative reduced cost, and among ratio ties the largest pivot leaves.
    After DEGENERATE_STREAK degenerate pivots in a row, Bland's rule (lowest
    entering index, lowest leaving basis index) takes over until a pivot is
    nondegenerate.
    """
    streak = 0
    while True:
        lu, piv = _factor_or_break(A[:, basis])
        x_B = dgetrs(lu, piv, b)[0]
        y = dgetrs(lu, piv, c[basis], trans=1)[0]
        objective = c[basis] @ x_B
        if objective <= floor:
            return "optimal", pivots, x_B, y
        reduced = c[:n_enter] - y @ A[:, :n_enter]
        reduced[basis[basis < n_enter]] = 0.0
        bland = streak >= DEGENERATE_STREAK
        enter = int(np.argmax(reduced < -REDUCED_COST_TOL) if bland else np.argmin(reduced))
        # a NaN or inf in x_B reaches the objective, and one in y every
        # nonbasic reduced cost, including the entering one (argmin takes a
        # NaN first); checking the two scalars costs less than the arrays
        if not (math.isfinite(objective) and math.isfinite(reduced[enter])):
            raise SimplexBreakdown("basis solve gave non-finite values")
        if reduced[enter] >= -REDUCED_COST_TOL:
            return "optimal", pivots, x_B, y
        u = dgetrs(lu, piv, A[:, enter])[0]
        rows = np.flatnonzero(u > PIVOT_TOL * np.max(np.abs(u)))
        if not rows.size:
            # a NaN in u empties `rows`
            if not np.isfinite(u).all():
                raise SimplexBreakdown("entering column solve gave non-finite values")
            return "unbounded", pivots, x_B, y
        ratio = np.maximum(x_B[rows], 0.0) / u[rows]
        step = ratio.min()
        tied = rows[ratio <= step + RATIO_TOL]
        leave = tied[np.argmin(basis[tied])] if bland else tied[np.argmax(u[tied])]
        basis[leave] = enter
        pivots += 1
        if pivots > MAX_PIVOTS:
            raise IterationLimit(f"simplex exceeded {MAX_PIVOTS} pivots")
        streak = streak + 1 if step <= RATIO_TOL else 0


def _dual_simplex(
    lp: LpProblem, A: np.ndarray, b: np.ndarray, c: np.ndarray, basis: np.ndarray
) -> tuple[Union[LpSolution, str], int]:
    """Dual simplex for min c@x, A@x = b, x >= 0 from `basis` (updated in
    place), which must be dual feasible.  Returns (outcome, pivots): an
    "optimal" or "uncertified" solution once every basic value is at least
    -RATIO_TOL, an "infeasible" one when a row certifies it, or why the
    solve must restart: "singular basis" (an exactly zero LU pivot), "not
    dual feasible" (the start), or "no entering column" for a row whose
    infeasibility is within rounding.

    Every pivot factors the basis afresh and solves for x_B and
    rho = -B^-T e_r of the leaving row r; rho@A is the pivot row negated,
    and the reduced costs are updated in place.  The most negative basic
    value leaves, and among ratio ties the largest pivot enters.  After
    DEGENERATE_STREAK degenerate pivots in a row, Bland's rule (lowest
    leaving basis index among the infeasible rows, lowest entering index)
    takes over until a pivot is nondegenerate.
    """
    pivots = streak = 0
    B = A[:, basis]
    factors = _factor(B)
    if factors is None:
        return "singular basis", pivots
    lu, piv = factors
    reduced = c - dgetrs(lu, piv, c[basis], trans=1)[0] @ A
    reduced[basis] = 0.0
    least = reduced.min()
    if not math.isfinite(least):
        raise SimplexBreakdown("dual solve gave non-finite values")
    if least < -REDUCED_COST_TOL:
        return "not dual feasible", pivots
    n = lp.n_vars
    unit = np.zeros(len(b))
    while True:
        x_B = dgetrs(lu, piv, b)[0]
        leave = int(x_B.argmin())
        # argmin takes a NaN first
        if not math.isfinite(x_B[leave]):
            raise SimplexBreakdown("basis solve gave non-finite values")
        if x_B[leave] >= -RATIO_TOL:
            y = dgetrs(lu, piv, c[basis], trans=1)[0]
            return _solution(lp, A, b, c, basis, x_B, y, pivots), pivots
        bland = streak >= DEGENERATE_STREAK
        if bland:
            rows = (x_B < -RATIO_TOL).nonzero()[0]
            leave = int(rows[basis[rows].argmin()])
        # rho = -B^-T e_r, so row = rho@A is the pivot row negated
        unit[leave] = -1.0
        rho = dgetrs(lu, piv, unit, trans=1)[0]
        unit[leave] = 0.0
        row = rho @ A
        # a NaN in rho reaches the largest entry, which then empties `cols`
        largest = abs(row).max()
        row[basis] = 0.0
        cols = (row > PIVOT_TOL * largest).nonzero()[0]
        if not cols.size:
            if not math.isfinite(largest):
                raise SimplexBreakdown("pivot row solve gave non-finite values")
            # the most the entries left out can lower the row's value at a
            # feasible x, whose variables sum to 1 and whose slack is at
            # most p_th
            dropped = max(row[:n].max(), 0.0) + max(row[n], 0.0) * b[0]
            if x_B[leave] < -dropped - FEAS_TOL * (1.0 + abs(rho) @ abs(b)):
                return LpSolution(status="infeasible", iterations=pivots), pivots
            return "no entering column", pivots
        ratio = np.maximum(reduced[cols], 0.0) / row[cols]
        step = ratio.min()
        tied = cols[ratio <= step + RATIO_TOL]
        enter = int(tied[0] if bland or len(tied) == 1 else tied[row[tied].argmax()])
        theta = reduced[enter] / row[enter]
        reduced -= theta * row
        reduced[basis[leave]] = theta
        reduced[enter] = 0.0
        basis[leave] = enter
        pivots += 1
        if pivots > MAX_PIVOTS:
            raise IterationLimit(f"simplex exceeded {MAX_PIVOTS} pivots")
        streak = streak + 1 if step <= RATIO_TOL else 0
        B[:, leave] = A[:, enter]
        factors = _factor(B)
        if factors is None:
            return "singular basis", pivots
        lu, piv = factors


def _drain_basis(lp: LpProblem) -> Optional[np.ndarray]:
    """Crash basis of the drain policy, which sends min(k, M) in state k:
    the power slack plus that policy's columns.  None if `lp` lacks
    `build_lp`'s shape.

    State k's actions are max(k - Q, 0)..min(k, M), and the largest, the
    drain policy's, is the last of the state's columns.
    """
    params = lp.params
    k = np.arange(params.K + 1)
    counts = np.minimum(k, params.M) - np.maximum(k - params.Q, 0) + 1
    if len(lp.b_eq) != len(counts) or counts.sum() != lp.n_vars:
        return None
    return np.concatenate([[lp.n_vars], np.cumsum(counts) - 1])


def solve_simplex(lp: LpProblem) -> LpSolution:
    """Dual simplex from `lp.start`, or from the drain policy's basis.
    Where that basis is unavailable, singular or not dual feasible, or its
    solve ends uncertified or without a verdict, the solve restarts from
    one artificial per row; the pivots of both attempts count together."""
    # standard form: the power row and its slack over the equalities
    n = lp.n_vars
    A = np.zeros((len(lp.b_eq) + 1, n + 1))
    A[0, :n] = lp.a_power
    A[0, n] = 1.0
    A[1:, :n] = lp.A_eq
    b = np.concatenate([[lp.p_th], lp.b_eq])
    c = np.concatenate([lp.c, [0.0]])
    if lp.start is None:
        basis = _drain_basis(lp)
    else:
        basis = np.array(lp.start, dtype=int)
        if basis.shape != b.shape or not (0 <= basis.min() and basis.max() <= n):
            raise ModelError(f"start must hold {len(b)} column indices in 0..{n}")
    pivots, reason = 0, "no start"
    if basis is not None:
        out, pivots = _dual_simplex(lp, A, b, c, basis)
        if isinstance(out, str):
            reason = out
        elif out.status == "uncertified":
            reason = out.status
        else:
            return out
    # nonnegative right-hand side, one artificial per row
    sign = np.where(b < 0, -1.0, 1.0)
    A = np.hstack([A * sign[:, None], np.eye(len(b))])
    sol = _two_phase(lp, A, b * sign, np.arange(n + 1, A.shape[1]), pivots)
    return replace(sol, restart=reason)


def _two_phase(
    lp: LpProblem, A: np.ndarray, b: np.ndarray, basis: np.ndarray, pivots: int
) -> LpSolution:
    """Phases 1 and 2 on A@x = b from `basis` (updated in place), where A is
    the standard form with its artificial columns appended; `pivots` counts
    the pivots of an earlier attempt."""
    n = lp.n_vars
    n_total = n + 1
    # phase 1: minimise the sum of the artificials; at or below RATIO_TOL
    # that sum is zero to rounding, and any further pivot only stalls
    c1 = np.zeros(A.shape[1])
    c1[n_total:] = 1.0
    status, pivots, x_B, _ = _simplex_phase(A, b, c1, basis, A.shape[1], pivots, RATIO_TOL)
    if status == "unbounded":
        raise SimplexBreakdown("phase 1 found a ray, though the artificials' sum is at least 0")
    if c1[basis] @ x_B > FEAS_TOL:
        return LpSolution(status="infeasible", iterations=pivots)
    # drive leftover zero-valued artificials out of the basis when possible;
    # the pivot is measured against the artificial's own entry, 1
    for i in np.flatnonzero(basis >= n_total):
        lu, piv = _factor_or_break(A[:, basis])
        row = dgetrs(lu, piv, np.eye(len(b))[:, i], trans=1)[0] @ A[:, :n_total]
        row[basis[basis < n_total]] = 0.0
        j = int(np.argmax(np.abs(row)))
        if abs(row[j]) > PIVOT_TOL:
            basis[i] = j
    # phase 2: artificials may no longer enter
    c2 = np.concatenate([lp.c, np.zeros(A.shape[1] - n)])
    status, pivots, x_B, y = _simplex_phase(A, b, c2, basis, n_total, pivots)
    if status == "unbounded":
        return LpSolution(status="unbounded", iterations=pivots)
    return _solution(lp, A, b, c2, basis, x_B, y, pivots)


def _solution(
    lp: LpProblem,
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    basis: np.ndarray,
    x_B: np.ndarray,
    y: np.ndarray,
    pivots: int,
) -> LpSolution:
    """The basic solution of `basis`, with x_B and its duals y, and its
    certificate over the variables and the power slack, A's first n_vars + 1
    columns."""
    n = lp.n_vars
    n_total = n + 1
    x_full = np.zeros(A.shape[1])
    x_full[basis] = x_B
    x = x_full[:n]
    # the certificate; the gap relative to the terms it cancels
    A0, x0 = A[:, :n_total], x_full[:n_total]
    reduced = c[:n_total] - y @ A0
    reduced[basis[basis < n_total]] = 0.0
    c_B = c[basis]
    gap = float(c_B @ x_B - y @ b)
    gap_size = 1.0 + abs(y) @ abs(b) + abs(c_B) @ abs(x_B)
    # a NaN fails each test, as the least or largest entry is then NaN
    certified = bool(
        x0.min() >= -FEAS_TOL
        and abs(A0 @ x0 - b).max() <= FEAS_TOL
        and reduced.min() >= -REDUCED_COST_TOL
        and abs(gap) <= REDUCED_COST_TOL * gap_size
    )
    return LpSolution(
        status="optimal" if certified else "uncertified",
        x=x,
        delay=float(lp.c @ x) - 1.0,
        power=float(lp.a_power @ x),
        reduced_costs=reduced,
        iterations=pivots,
        equilibrium_residual=float(abs(lp.A_eq @ x - lp.b_eq).max()) if lp.A_eq.size else 0.0,
        normalization_residual=abs(float(x.sum()) - 1.0),
        duality_gap=gap,
        basis=basis.copy() if certified and basis.max() < n_total else None,
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
            mrp.evaluate(params, policy)
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
    """One LP solve per power budget, in input order; failures are recorded
    per budget, and only an optimal point carries a delay.

    The budgets are solved from the largest down, each from the last
    optimal basis, which is dual feasible at any budget, as only b depends
    on the budget; after a failure the next budget starts from the drain
    basis."""
    for p_th in budgets:
        _budget(p_th)
    base = build_lp(params, 0.0)
    out: list[Optional[SweepPoint]] = [None] * len(budgets)
    start = None
    for i in sorted(range(len(budgets)), key=lambda i: -budgets[i]):
        p_th = budgets[i]
        try:
            sol = solve_simplex(replace(base, p_th=float(p_th), start=start))
        except IterationLimit:
            status, sol = "iteration_limit", None
        except SimplexBreakdown:
            status, sol = "breakdown", None
        else:
            status = sol.status
        start = None if sol is None else sol.basis
        delay = sol.delay if status == "optimal" else None
        out[i] = SweepPoint(p_th=p_th, status=status, delay=delay, solution=sol)
    return out


def sweep_to_csv(points: Sequence[SweepPoint]) -> str:
    lines = ["p_th,delay,status"]
    for pt in points:
        d = f"{pt.delay:.17g}" if pt.delay is not None else ""
        lines.append(f"{pt.p_th:.17g},{d},{pt.status}")
    return "\n".join(lines) + "\n"
