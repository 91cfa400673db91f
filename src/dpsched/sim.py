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

1. The draw rule becomes one function of a key.  The cuts are the sorted
   distinct cumulative probabilities below each state's last one, and a
   draw's bin is the number of cuts <= the draw.  Every state's thresholds
   are cuts, so the bin fixes every state's rank exactly, draws equal to a
   cut included: state t's rank in bin b is the number of its thresholds at
   cuts below b.  A key is (bin << shift) + t, 2^shift > K, and sent[key]
   is the action of total backlog t in that bin and nxt[key] the next
   backlog, t - sent[key] clamped to [0, Q].  Up to _TABLE_KEYS keys both
   are tables; beyond, they are worked out per slot, one comparison per
   threshold column, so memory does not grow with the cuts.
2. Each slot's event, (bin << shift) + A*a, is built once, vectorised and
   in slot order; its key is then event + q.  The slots are cut into
   B = ceil(slots / L) blocks of L = floor(sqrt(slots)) consecutive slots,
   and the events are copied once to step-major order (step j of every
   block is one row).  Padding slots past the end have no arrival and draw
   0.0, below every cut, so their event is 0.
3. A step of all blocks is q = nxt[event + q], one lookup with the tables.
   Pass 1 runs every block from all Q+1 start states at once, all blocks in
   lockstep, and gives each block's map from start state to end state.
   Lanes that meet stay together, since they see the same draws (the
   coupling behind Propp & Wilson's coupling from the past, 1996); once
   every block's lanes have met, one lane per block is kept.  That lane is
   then the block's path whatever its start state, so pass 1 records q from
   the next step on.  The last block's padding steps only reach its end
   map, which is never read.
4. Chaining the maps from the empty buffer gives each block's true start
   state, and pass 2 reruns every block from it, recording q for the steps
   before the lanes met: all L steps if they never met.
5. Adding the q path to the events gives every slot's key, and the keys
   give every statistic, a chunk of whole batches at a time: each chunk
   holds max(1, _CHUNK // L) * L post-burn-in slots and starts on a batch
   boundary.  The distinct keys before burn-in and after, with their counts
   (a bincount added into one count array up to _TABLE_KEYS keys, per-chunk
   np.unique merged beyond), give the occupancy and both violation
   counters.  power[sent[key]] gives a chunk's powers in one reused buffer:
   its batch means, each its own row's reduction, and its share of the
   power sum, a sequential np.add.accumulate with the carried sum added
   into its first entry, so it rounds exactly like one running sum.  The
   padding slots are dropped before any statistic, and the trace is
   written _CHUNK rows at a time.

Cost: the Python loops run L + m lockstep steps over B-wide rows (Q+1 rows
of them until the lanes meet), m <= L being the steps pass 1 takes until
it finds every block's lanes met (it looks every _MERGE_CHECK_EVERY steps;
m = 17 of L = 1000 on the reference instance at 10^6 slots), and B-1
chaining steps.  With the tables a step is one add and one gather; the
rest is a fixed few passes over the slots, plus one per cut for up to
_FEW_CUTS cuts and a binary search over the cuts beyond.  The keys number
(len(cuts)+1) << shift, and len(cuts) grows with the states that
randomize: the LP optimum of the reference instance, one randomized row,
has 1 cut and 16 keys, and ladder K=203 with every row randomized 999
cuts and 256,000 keys, both tabled.  Ladder K=2003 with every row
randomized has 9,999 cuts and 2.0e7 keys, which the tables would hold in
about 1 GB; there a step takes, per lane, a gather, a comparison and an
add per threshold column, as many passes as one per action and step.
Memory is O(slots) bytes of keys and paths: the events and their
step-major copy in the smallest signed type that holds every key (intp
past the tables), the recorded q and the q path in that of Q + 1, 1 byte
each on the reference instance.  Beyond those it is O((Q+1)*B) lanes and
O(chunk) floats: the tracemalloc peak of 10^6 slots on the reference
instance is 3.2 MB, with a trace 4.9 MB.  The work is O(slots) once the
lanes have merged.  A chain whose lanes never merge (e.g. alpha = 1 under
a policy that sends A in every state it reaches) keeps all Q+1 lanes and
runs 2L steps, so pass 1 costs O(slots * (Q+1)): 0.3-0.5 s at Q = 200 and
10^6 slots on a 2-CPU x86-64 host.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import InvalidPolicy, ModelError
from .model import ModelParams, Policy, _integer

TRACE_ROW_CAP = 100_000
# two-sided 95% standard normal quantile, Phi^-1(0.975)
Z_95 = 1.959963984540054
# pass 1 tests whether all lanes have merged every this many steps
_MERGE_CHECK_EVERY = 8
# one shared nan, so that results of equal runs still compare equal
_NO_HALFWIDTH = float("nan")
# up to this many cuts a draw is compared with each; beyond, binary search
_FEW_CUTS = 4
# the draw rule is tabled up to this many keys, (cuts + 1) << shift
_TABLE_KEYS = 1 << 18
# draws are binned, statistics taken and trace rows written in chunks of
# about this many slots
_CHUNK = 1 << 14


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


def _draw_rule(policy: Policy, Q: int, shift: int, qt):
    """The cuts of the policy's draw rule, of_sent and next_of, keys being
    (bin << shift) + t with 2^shift > K.

    of_sent(values) gives a function of keys (and an optional out array):
    values[the action sent at each key].  next_of(event, q) gives the next
    backlogs, of type qt, of slots with events (bin << shift) + A*a at
    backlogs q.  A threshold of state t at cut i is <= every draw of bins
    i+1 and up, so t's rank in bin b is the number of its thresholds whose
    i+1 is <= b, one comparison per threshold column.  Up to _TABLE_KEYS
    keys the actions and next backlogs are tables, and a lookup is one
    gather; beyond, they are worked out per slot, so memory stays
    O((K+1)*(M+1)) however many cuts there are.
    """
    # states K+1..2^shift-1, never reached, get no thresholds
    f = np.zeros((1 << shift, policy.f.shape[1]))
    f[: len(policy.f)] = policy.f
    nz = f > 0.0
    n_act = nz.sum(axis=1)
    width = int(n_act.max())
    # nonzero columns of each row first, in increasing order
    cols = np.argsort(~nz, axis=1, kind="stable")[:, :width]
    below = np.arange(width - 1) < n_act[:, None] - 1
    thr = np.take_along_axis(np.cumsum(f, axis=1), cols[:, :-1], axis=1)
    cuts = np.unique(thr[below])
    # the first bin at which each threshold counts (none, in padding), in
    # int32 to keep the per-slot temporaries small
    first_bin = np.where(below, np.searchsorted(cuts, thr) + 1, len(cuts) + 1)
    thr_cols = np.ascontiguousarray(first_bin.T, dtype=np.int32)
    acts = cols.reshape(-1)
    nxt = np.clip(np.repeat(np.arange(len(f)), width) - acts, 0, Q)

    mask = (1 << shift) - 1

    def at(event, t):
        """Place t*width + rank in acts and nxt of each slot (intp events)
        at total backlog t."""
        b = (event >> shift).astype(np.int32)
        place = t * width
        for col in thr_cols:
            place += b >= col.take(t)
        return place

    def next_of(event, q):
        # t is freed only after the gather: freed before it, its pages went
        # back to the system and faulted in again every step, which made
        # the steps of ladder K=2003 1.3 times as long
        t = q + (event & mask)
        return nxt.take(at(event, t))

    def of_sent(values):
        by_place = values[acts]
        return lambda key, out=None: by_place.take(at(key, key & mask), out=out)

    size = (len(cuts) + 1) << shift
    if size > _TABLE_KEYS:
        return cuts, of_sent, next_of
    keys = np.arange(size)
    place = at(keys, keys & mask)
    sent, nxt_key = acts.take(place), nxt.take(place).astype(qt)
    return cuts, lambda values: values[sent].take, lambda event, q: nxt_key.take(event + q)


def _bin(u, cuts, out):
    """out = the number of cuts <= each draw of u."""
    if len(cuts) > _FEW_CUTS:
        out[...] = np.searchsorted(cuts, u, side="right")
        return
    out[...] = 0
    for c in cuts:
        out += u >= c


def _key_counts(chunks, size):
    """The distinct values of the key arrays `chunks`, of [0, size), and
    their counts over all of them.

    Up to _TABLE_KEYS keys the counts add up in one array; beyond, each
    chunk's distinct keys merge into the sorted ones seen so far."""
    if size > _TABLE_KEYS:
        seen, n_seen = np.empty(0, np.intp), np.empty(0, np.intp)
        for chunk in chunks:
            keys, n = np.unique(chunk, return_counts=True)
            keys, n = np.concatenate([seen, keys]), np.concatenate([n_seen, n])
            # two sorted runs: a stable sort merges them in one pass
            order = np.argsort(keys, kind="stable")
            keys, n = keys[order], n[order]
            first = np.flatnonzero(np.diff(keys, prepend=-1))
            seen, n_seen = keys[first], np.add.reduceat(n, first)
        return seen, n_seen
    n = np.zeros(size, np.intp)
    for chunk in chunks:
        n_chunk = np.bincount(chunk)
        n[: len(n_chunk)] += n_chunk
    seen = np.flatnonzero(n)
    return seen, n[seen]


def _step(next_of, event, q):
    """Backlogs after one slot of the blocks from backlogs q (last axis =
    blocks), `event` being the slot's event row."""
    return next_of(event, q)


def _batch_chunks(burn: int, slots: int, L: int) -> list[slice]:
    """Slices of the post-burn-in slots burn..slots-1, each of whole batches
    of L slots (the last one may end in the remainder) and starting on a
    batch boundary."""
    width = max(1, _CHUNK // L) * L
    return [slice(lo, min(lo + width, slots)) for lo in range(burn, slots, width)]


def _batch_pass(power_of, key, q_path, chunks, L):
    """The running sum of the powers over the slots of `chunks` (from
    `_batch_chunks`), and the power and backlog means of each whole batch.

    A chunk's powers are gathered into one reused buffer.  Each batch mean
    is its own row's reduction, so it is bit for bit that of one
    (batches, L) array; the carried sum is added into a chunk's first entry
    before the sequential np.add.accumulate, so the sum rounds exactly like
    one running sum over every slot."""
    burn = chunks[0].start
    n_batch = (chunks[-1].stop - burn) // L
    power_means, q_means = np.empty(n_batch), np.empty(n_batch)
    p = np.empty(chunks[0].stop - burn)
    power_sum = 0.0
    for c in chunks:
        n = c.stop - c.start
        p_n = power_of(key[c], out=p[:n])
        b, nb = (c.start - burn) // L, n // L
        power_means[b : b + nb] = p_n[: nb * L].reshape(nb, L).mean(axis=1)
        q_means[b : b + nb] = q_path[c.start : c.start + nb * L].reshape(nb, L).mean(axis=1)
        if c.start > burn:
            p_n[0] += power_sum
        power_sum = float(np.add.accumulate(p_n, out=p_n)[-1])
    return power_sum, power_means, q_means


def _write_trace(path, key, q_path, mask, sent_of):
    """Write the rows n,a,t,s,q of the slots of `key`, _CHUNK rows at a
    time."""
    with Path(path).open("w") as fh:
        fh.write("n,a,t,s,q\n")
        for lo in range(0, len(key), _CHUNK):
            k = key[lo : lo + _CHUNK]
            t, q = k & mask, q_path[lo : lo + len(k)]
            rows = np.column_stack([np.arange(lo, lo + len(k)), t != q, t, sent_of(k), q])
            fh.write(("%d,%d,%d,%d,%d\n" * len(k)) % tuple(rows.reshape(-1).tolist()))


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
    a non-integral slots or seed, slots < 1 or seed < 0, and InvalidPolicy
    for a policy whose shape is not (K+1, M+1) of `params`.
    """
    slots, seed = _integer("slots", slots), _integer("seed", seed)
    if slots < 1:
        raise ModelError(f"slots must be >= 1, got {slots}")
    if seed < 0:
        raise ModelError(f"seed must be >= 0, got {seed}")
    alpha, A, Q, K = params.alpha, params.A, params.Q, params.K
    if policy.f.shape != (K + 1, params.M + 1):
        raise InvalidPolicy(
            f"policy of shape {policy.f.shape} does not fit these parameters, "
            f"which need {(K + 1, params.M + 1)}"
        )
    # signed backlog type that holds Q + 1
    qt = np.min_scalar_type(-Q - 1)
    # key = (bin << shift) + t, t = key & mask
    shift = K.bit_length()
    mask = (1 << shift) - 1
    cuts, of_sent, next_of = _draw_rule(policy, Q, shift, qt)
    sent_of = of_sent(np.arange(params.M + 1))
    size = (len(cuts) + 1) << shift
    # a signed key type that holds size; intp past a table, for its gathers
    kt = np.dtype(np.intp) if size > _TABLE_KEYS else np.min_scalar_type(-size - 1)

    L = int(np.sqrt(slots))
    B = -(-slots // L)
    arr_ss, tx_ss = np.random.SeedSequence(seed).spawn(2)
    arr_gen = np.random.Generator(np.random.PCG64(arr_ss))
    tx_gen = np.random.Generator(np.random.PCG64(tx_ss))
    events = np.zeros(B * L, dtype=kt)
    u = np.empty(_CHUNK)
    A_key = kt.type(A)
    for lo in range(0, slots, _CHUNK):
        n = min(_CHUNK, slots - lo)
        ev = events[lo : lo + n]
        _bin(tx_gen.random(out=u[:n]), cuts, ev)
        ev <<= shift
        ev += (arr_gen.random(out=u[:n]) < alpha) * A_key
    steps = np.ascontiguousarray(events.reshape(B, L).T)
    q_rec = np.empty((L, B), dtype=qt)

    # pass 1: each block's end state from every start state; once every
    # block's lanes have met, the lane left is the path, so it is recorded
    lanes = np.repeat(np.arange(Q + 1, dtype=qt)[:, None], B, axis=1)
    met = L  # pass 1 recorded steps met..L-1
    for j in range(L):
        if lanes.ndim == 1:
            q_rec[j] = lanes
        lanes = _step(next_of, steps[j], lanes)
        if lanes.ndim == 2 and j % _MERGE_CHECK_EVERY == 0 and (lanes == lanes[0]).all():
            lanes = lanes[0]
            met = j + 1
    # the true start state of each block
    if lanes.ndim == 1:
        start = np.concatenate([[0], lanes[:-1]])
    else:
        starts = [0]
        for b in range(B - 1):
            starts.append(lanes[starts[-1], b])
        start = np.array(starts)
    del lanes

    # pass 2: the steps before the lanes met, from the true start states
    q = start.astype(qt)
    for j in range(met):
        q_rec[j] = q
        q = _step(next_of, steps[j], q)
    del steps
    q_path = q_rec.T.reshape(-1)[:slots]
    del q_rec
    key = events[:slots]
    key += q_path

    burn = min(slots // 10, 10_000)
    n_eff = slots - burn
    chunks = _batch_chunks(burn, slots, L)
    post, n_post = _key_counts((key[c] for c in chunks), size)
    pre, n_pre = _key_counts([key[:burn]], size)
    counts = np.bincount(post & mask, weights=n_post, minlength=K + 1).tolist()
    total = sum(counts)
    seen = np.concatenate([pre, post])
    n_seen = np.concatenate([n_pre, n_post])
    d = (seen & mask) - sent_of(seen)
    underflow = int(n_seen[d < 0].sum())
    overflow = int(n_seen[d > Q].sum())
    q_sum = float(q_path[burn:].sum(dtype=np.int64))
    power_sum, power_means, q_means = _batch_pass(
        of_sent(params.power_array), key, q_path, chunks, L
    )

    if trace_path is not None:
        _write_trace(trace_path, key[:TRACE_ROW_CAP], q_path, mask, sent_of)
    return SimulationResult(
        slots=slots,
        burn_in=burn,
        seed=seed,
        empirical_power=power_sum / n_eff,
        empirical_delay=(q_sum / n_eff) / (alpha * A),
        state_occupancy=tuple(cnt / total for cnt in counts),
        overflow_violations=overflow,
        underflow_violations=underflow,
        power_halfwidth=_halfwidth(power_means),
        delay_halfwidth=_halfwidth(q_means / (alpha * A)),
    )
