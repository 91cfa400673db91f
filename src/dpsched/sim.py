"""Seeded Monte-Carlo simulation of the buffer under a policy.

Produces empirical power and delay estimates, with batch-means confidence
half-widths, for validation against the analytic chain solve.  Two
independent PCG64 streams (split from one seed) drive arrivals and
transmission choices, so runs are bit-reproducible.

The sample path is fixed by the two streams.  Slot n has an arrival
(a = 1) when the n-th arrival draw is below alpha; the total backlog is
t = q + A*a; the slot sends the action of rank r in state t, where r is the
number of that state's cumulative action probabilities (over its nonzero
actions, in increasing order, the last pinned to 1.0) that are <= the n-th
transmission draw; and the next backlog is t - s clamped to [0, Q].  Given
the draws, each slot is a fixed map of the backlog, so that path is
computed exactly without a per-slot loop:

1. The slots are cut into B = ceil(slots / L) blocks of L = floor(sqrt(slots))
   consecutive slots, stored step-major (step j of every block is one row).
2. Pass 1 runs every block from all Q+1 start states at once, all blocks in
   lockstep, and gives each block's map from start state to end state.
   Lanes that meet stay together, since they see the same draws (the
   coupling behind Propp & Wilson's coupling from the past, 1996); once
   every block's lanes have met, one lane per block is kept.  That lane is
   then the block's path whatever its start state, so pass 1 records t
   and s from the next step on.  The last block's padding steps only
   reach its end map, which is never read.
3. Chaining the maps from the empty buffer gives each block's true start
   state.
4. Pass 2 reruns every block from its true start state and records t and s
   for the steps before the lanes met: all L steps if they never met.  One
   step body serves both passes.  The padding steps are dropped before any
   statistic.
5. The statistics are vectorised.  The power sum is a sequential
   np.add.accumulate, so it rounds exactly like a running sum.

Cost: the Python loops run L + m lockstep steps of numpy work over B-wide
rows, m <= L being the steps pass 1 takes until it finds every block's
lanes met (it looks every _MERGE_CHECK_EVERY steps; m = 17 of L = 1000 on
the reference instance at 10^6 slots), and B-1 chaining steps; each step
also visits the W-1 threshold rows of the action table, W being the most
actions any state randomizes over.
The work is O(slots) once the lanes have merged.  A chain whose lanes never
merge (e.g. alpha = 1 under a policy that sends A in every state it
reaches) keeps all Q+1 lanes and runs 2L steps, so pass 1 costs
O(slots * (Q+1)); at Q = 200 and 10^6 slots that is about as slow as a
per-slot loop.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import ModelError
from .model import ModelParams, Policy

TRACE_ROW_CAP = 100_000
# two-sided 95% standard normal quantile, Phi^-1(0.975)
Z_95 = 1.959963984540054
# pass 1 tests whether all lanes have merged every this many steps
_MERGE_CHECK_EVERY = 8
# one shared nan, so that results of equal runs still compare equal
_NO_HALFWIDTH = float("nan")


@dataclass(frozen=True)
class SimulationResult:
    """One run: the averages and the occupancy cover the slots after
    burn-in, the violation counters every slot.

    power_halfwidth and delay_halfwidth are 95% batch-means half-widths:
    the post-burn-in slots are cut into batches of L = floor(sqrt(slots))
    consecutive slots (a remainder shorter than L is left out), and the
    half-width is Z_95 * sd(batch means) / sqrt(batches).  Batches of a
    mixing chain are close to independent when L is long against the
    mixing time, which is the basis of the interval; it is nan with fewer
    than 2 batches.
    """

    slots: int
    burn_in: int
    seed: int
    empirical_power: float
    empirical_delay: float
    state_occupancy: tuple[float, ...]
    overflow_violations: int
    underflow_violations: int
    power_halfwidth: float
    delay_halfwidth: float


def _action_tables(params: ModelParams, policy: Policy):
    """Per-state action lookup, keyed by key = t*W + r.

    W is the largest number of nonzero actions in a state.  At total
    backlog t and transmission draw u the rank r is the number of entries
    of thr[:, t] that are <= u; thr[i, t] is state t's (i+1)-th cumulative
    probability over its nonzero actions, and its last one (1.0 in the draw
    rule) and the padding of states with fewer actions are 2.0, above any
    draw.  act[key] is state t's r-th nonzero action and nxt[key] the next
    backlog, t - act[key] clamped to [0, Q].
    """
    f = policy.f
    nz = f > 0.0
    n_act = nz.sum(axis=1)
    width = int(n_act.max())
    # nonzero columns of each row first, in increasing order
    cols = np.argsort(~nz, axis=1, kind="stable")[:, :width]
    thr = np.take_along_axis(np.cumsum(f, axis=1), cols[:, : width - 1], axis=1)
    thr[np.arange(width - 1) >= n_act[:, None] - 1] = 2.0
    act = cols.reshape(-1)
    nxt = np.clip(np.repeat(np.arange(params.K + 1), width) - act, 0, params.Q)
    return np.ascontiguousarray(thr.T), act, nxt


def _key(t, u, thr):
    """Lookup key t*W + r of one slot at total backlog t (any shape, last
    axis = blocks) and transmission draw u."""
    key = t * (len(thr) + 1)
    for row in thr:
        key += row.take(t) <= u
    return key


def _halfwidth(batch_means: np.ndarray) -> float:
    n = len(batch_means)
    if n < 2:
        return _NO_HALFWIDTH
    return float(Z_95 * np.std(batch_means, ddof=1) / np.sqrt(n))


def simulate(
    params: ModelParams,
    policy: Policy,
    slots: int,
    seed: int,
    trace_path: Optional[Union[str, Path]] = None,
) -> SimulationResult:
    """Run the queue for `slots` timeslots from an empty buffer.

    The first min(slots // 10, 10^4) slots are burn-in and excluded from
    the averages.  Delay is estimated via Little's law from the average
    buffer occupancy, matching the analytic route.  Raises ModelError for
    slots < 1 or seed < 0.
    """
    if slots < 1:
        raise ModelError(f"slots must be >= 1, got {slots}")
    if seed < 0:
        raise ModelError(f"seed must be >= 0, got {seed}")
    alpha, A, Q, K = params.alpha, params.A, params.Q, params.K
    # t - s lies in [-M, K]
    dt = np.min_scalar_type(-max(K, params.M) - 1)
    L = int(np.sqrt(slots))
    B = -(-slots // L)
    arr_ss, tx_ss = np.random.SeedSequence(seed).spawn(2)
    buf = np.zeros(B * L)
    np.random.Generator(np.random.PCG64(arr_ss)).random(out=buf[:slots])
    arrivals = buf[:slots] < alpha
    inc = np.zeros(B * L, dtype=dt)
    np.multiply(arrivals, A, out=inc[:slots], casting="unsafe")
    inc_steps = np.ascontiguousarray(inc.reshape(B, L).T)
    np.random.Generator(np.random.PCG64(tx_ss)).random(out=buf[:slots])
    buf[slots:] = 0.0
    draws = np.ascontiguousarray(buf.reshape(B, L).T)
    del buf
    thr, act, nxt = _action_tables(params, policy)
    t_rec = np.empty((L, B), dtype=dt)
    s_rec = np.empty((L, B), dtype=dt)

    def step(q, j, record):
        """Step j from backlogs q (last axis = blocks); returns the next
        backlogs and, if `record`, stores the step's t and s."""
        t = q + inc_steps[j]
        key = _key(t, draws[j], thr)
        if record:
            t_rec[j] = t
            s_rec[j] = act.take(key)
        return nxt.take(key)

    # pass 1: each block's end state from every start state; once every
    # block's lanes have met, the lane left is the path, so it is recorded
    lanes = np.repeat(np.arange(Q + 1)[:, None], B, axis=1)
    met = L  # pass 1 recorded steps met..L-1
    for j in range(L):
        lanes = step(lanes, j, record=lanes.ndim == 1)
        if lanes.ndim == 2 and j % _MERGE_CHECK_EVERY == 0 and (lanes == lanes[0]).all():
            lanes = lanes[0]
            met = j + 1
    # the true start state of each block
    if lanes.ndim == 1:
        start = np.concatenate([[0], lanes[:-1]])
    else:
        ends = lanes.T.tolist()
        starts = [0]
        for b in range(B - 1):
            starts.append(ends[b][starts[-1]])
        start = np.array(starts)

    # pass 2: the steps before the lanes met, from the true start states
    q = start
    for j in range(met):
        q = step(q, j, record=True)
    t_path = t_rec.T.reshape(-1)[:slots]
    s_path = s_rec.T.reshape(-1)[:slots]
    q_path = t_path - inc[:slots]
    d_path = t_path - s_path
    underflow = int(np.count_nonzero(d_path < 0))
    overflow = int(np.count_nonzero(d_path > Q))

    burn = min(slots // 10, 10_000)
    n_eff = slots - burn
    n_batch = n_eff // L
    counts = np.bincount(t_path[burn:], minlength=K + 1).tolist()
    total = sum(counts)
    q_post = q_path[burn:]
    q_sum = float(q_post.sum(dtype=np.int64))
    p_post = params.power_array[s_path[burn:]]
    power_hw = _halfwidth(p_post[: n_batch * L].reshape(n_batch, L).mean(axis=1))
    delay_hw = _halfwidth(
        q_post[: n_batch * L].reshape(n_batch, L).mean(axis=1) / (alpha * A)
    )
    power_sum = float(np.add.accumulate(p_post, out=p_post)[-1])

    if trace_path is not None:
        cap = min(slots, TRACE_ROW_CAP)
        rows = np.column_stack(
            [np.arange(cap), arrivals[:cap], t_path[:cap], s_path[:cap], q_path[:cap]]
        )
        text = ("%d,%d,%d,%d,%d\n" * cap) % tuple(rows.reshape(-1).tolist())
        Path(trace_path).write_text("n,a,t,s,q\n" + text)
    return SimulationResult(
        slots=slots,
        burn_in=burn,
        seed=seed,
        empirical_power=power_sum / n_eff,
        empirical_delay=(q_sum / n_eff) / (alpha * A),
        state_occupancy=tuple(cnt / total for cnt in counts),
        overflow_violations=overflow,
        underflow_violations=underflow,
        power_halfwidth=power_hw,
        delay_halfwidth=delay_hw,
    )
