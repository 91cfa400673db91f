"""Optimal delay-power tradeoff curve.

Two independent routes: a threshold walk that descends the frontier one
vertex at a time, and a brute-force lower convex hull of every
deterministic policy's reward pair.  Their agreement is the package's
central cross-check.  The reward cloud is one stream of scored blocks
(`scored_blocks`), which brute force folds into a staircase and `dpsched
pareto` writes out row by row: neither keeps the cloud.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidPolicy, SingularChain
from .model import (
    ModelParams,
    Policy,
    _last_state_at_most,
    feasibility_mask,
)
from .mrp import DelayPowerPoint, _singular, score_map_runs, score_maps
from .policies import (
    DEFAULT_ENUMERATION_CAP,
    enumerate_deterministic,
    initial_actions,
    neighbors_increase_threshold,
    policy_from_actions,
)

log = logging.getLogger(__name__)

# Two points are the same vertex if both coordinates agree to this.
POINT_TOL = 1e-12
# The walk accepts a candidate whose delay is at most this below the
# current vertex's, and ties candidates whose slopes agree to it.
SLOPE_TOL = 1e-9
# The walk accepts only candidates more than this below the current power.
# This absolute floor ends the walk at K=203 after 74 vertices, 6.1e-12
# above the minimum power: the truncation of ROADMAP item 1 (see the FOUND
# line on it in CHANGES.md).
POWER_STEP_FLOOR = 1e-12
# A candidate less than this share of the current power below it ties with
# it: the chain solves score walk vertices within 1e-14 relative of their
# exact values (the exact-oracle test in tests/test_mrp.py), so such a step
# is rounding, not a power saving the floor refused.
POWER_TIE_RTOL = 2e-14
# A middle point within this perpendicular distance of the chord joining
# its neighbors is treated as collinear and dropped.
COLLINEAR_TOL = 1e-9


@dataclass(frozen=True)
class Segment:
    start: DelayPowerPoint
    end: DelayPowerPoint

    @property
    def slope(self) -> float:
        """Delay increase per unit of power saved (nonnegative on the curve)."""
        return (self.end.delay - self.start.delay) / (self.start.power - self.end.power)


@dataclass(frozen=True)
class ParetoCurve:
    """Piecewise-linear frontier, ordered by strictly decreasing power."""

    vertices: tuple[DelayPowerPoint, ...]
    skipped_singular: int = 0
    # Why the walk stopped: "power_resolution" if its last step refused a
    # candidate only for lowering power by no more than POWER_STEP_FLOOR
    # (and by more than a tie, POWER_TIE_RTOL), else "exhausted"; None for
    # curves not found by the walk.
    stop_reason: Optional[str] = None

    @property
    def segments(self) -> tuple[Segment, ...]:
        return tuple(
            Segment(a, b) for a, b in zip(self.vertices, self.vertices[1:])
        )

    @property
    def min_power(self) -> float:
        return self.vertices[-1].power

    @property
    def max_power(self) -> float:
        return self.vertices[0].power

    def validate(self) -> None:
        """Check frontier invariants: power strictly decreasing, delay
        nondecreasing, slopes nonnegative and strictly increasing."""
        vs = self.vertices
        for a, b in zip(vs, vs[1:]):
            if not b.power < a.power:
                raise ValueError(f"power not strictly decreasing: {a.power} -> {b.power}")
            if b.delay < a.delay - POINT_TOL:
                raise ValueError(f"delay decreasing: {a.delay} -> {b.delay}")
        slopes = [s.slope for s in self.segments]
        for s in slopes:
            if s < -POINT_TOL:
                raise ValueError(f"negative segment slope {s}")
        for s1, s2 in zip(slopes, slopes[1:]):
            if not s2 > s1 - POINT_TOL:
                raise ValueError(f"slopes not increasing: {s1} -> {s2}")

    def interpolate(self, power: float) -> float:
        """Optimal delay at a given power budget (piecewise linear).

        Budgets above the maximum-power vertex, +inf included, return the
        minimum delay; budgets below the minimum-power vertex are infeasible,
        and so is a NaN budget.
        """
        if not power >= self.min_power - 1e-9:
            raise ValueError(
                f"power {power} below the feasible minimum {self.min_power}"
            )
        ps = np.array([v.power for v in reversed(self.vertices)])
        ds = np.array([v.delay for v in reversed(self.vertices)])
        return float(np.interp(power, ps, ds))

    def to_csv(self) -> str:
        lines = ["power,delay,thresholds"]
        for v in self.vertices:
            ts = " ".join(str(t) for t in v.thresholds) if v.thresholds else ""
            lines.append(f"{v.power:.17g},{v.delay:.17g},{ts}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {
            "vertices": [
                {
                    "power": v.power,
                    "delay": v.delay,
                    "thresholds": list(v.thresholds) if v.thresholds else None,
                    "policy": v.policy.f.tolist() if v.policy is not None else None,
                }
                for v in self.vertices
            ],
            "segments": [
                {"slope": s.slope} for s in self.segments
            ],
        }
        return json.dumps(doc, indent=2)


def _perp_distance(a: DelayPowerPoint, b: DelayPowerPoint, c: DelayPowerPoint) -> float:
    """Perpendicular distance of b from the line through a and c."""
    ux, uy = c.power - a.power, c.delay - a.delay
    vx, vy = b.power - a.power, b.delay - a.delay
    norm = (ux * ux + uy * uy) ** 0.5
    if norm == 0.0:
        return (vx * vx + vy * vy) ** 0.5
    return abs(ux * vy - uy * vx) / norm


def _drop_collinear(points: Sequence[DelayPowerPoint]) -> list[int]:
    """Indices of the points kept after pruning the interior points lying on
    the chord of their neighbors.

    Deleting out[i] changes only the triples centred at i-1 and i, and the
    triples before them did not qualify, so the scan resumes at i-1: the
    result is that of restarting from the front after every deletion."""
    out = list(range(len(points)))
    i = 1
    while i < len(out) - 1:
        a, b, c = (points[j] for j in out[i - 1 : i + 2])
        if _perp_distance(a, b, c) <= COLLINEAR_TOL:
            del out[i]
            i = max(1, i - 1)
        else:
            i += 1
    return out


def lower_convex_hull(points: Sequence[DelayPowerPoint]) -> ParetoCurve:
    """Pareto-optimal lower-left convex boundary of a reward point cloud.

    Monotone-chain scan in the (power, delay) plane; collinear interior
    points are dropped; hull vertices past the minimum-delay point are
    dominated and discarded.

    The sort is stable, so of exact duplicates the first in input order is
    the one returned, and a later one changes nothing.  A point whose delay
    exceeds by more than POINT_TOL the least delay of the points sorted
    before it changes nothing either, up to the rounding of the orientation
    test: it never represents the near-equal powers of a point that is
    returned, pops no vertex that is returned and does not end the Pareto
    prefix.  Brute force merges its blocks on these two rules
    (`_merge_staircase`).  The lower hull of a union is the lower hull of the
    parts' hulls, but the result of this function on a union is not its
    result on the parts' results: near-equal powers are grouped by a chain
    of POINT_TOL steps, the Pareto prefix ends at a POINT_TOL step and
    collinear points are dropped at COLLINEAR_TOL, and points a first call
    discards can break those ties differently in a second.
    """
    if not points:
        raise ValueError("need at least one point")
    pts = sorted(points, key=lambda p: (p.power, p.delay))
    # keep only the least-delay representative of (near-)equal powers
    dedup: list[DelayPowerPoint] = []
    for p in pts:
        if dedup and abs(p.power - dedup[-1].power) <= POINT_TOL:
            if p.delay < dedup[-1].delay:
                dedup[-1] = p
            continue
        dedup.append(p)
    hull: list[DelayPowerPoint] = []
    for p in dedup:
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            cross = (a.power - o.power) * (p.delay - o.delay) - (
                a.delay - o.delay
            ) * (p.power - o.power)
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    # Pareto prefix: walk from min power while delay strictly decreases.
    frontier = [hull[0]]
    for p in hull[1:]:
        if p.delay < frontier[-1].delay - POINT_TOL:
            frontier.append(p)
        else:
            break
    frontier.reverse()  # decreasing power, increasing delay
    return ParetoCurve(vertices=tuple(frontier[i] for i in _drop_collinear(frontier)))


def _walk_rewards(params: ModelParams, maps: list[np.ndarray]) -> list[tuple[float, float]]:
    """(power, delay) of each action map of one level, scored by one
    `score_maps` call; a singular chain raises SingularChain naming the
    thresholds of the first such map in the level's order."""
    lu, kept, power, delay = score_maps(params, np.array(maps))
    if kept.size < len(maps):
        failed = np.ones(len(maps), dtype=bool)
        failed[kept] = False
        i = int(np.argmax(failed))
        ts = _last_state_at_most(maps[i], params.M)
        raise SingularChain(f"singular chain for thresholds {ts}: {_singular(lu, i)}")
    return list(zip(power.tolist(), delay.tolist()))


def algorithm1(params: ModelParams) -> ParetoCurve:
    """Frontier by the threshold walk.

    Starts from the zero-delay immediate-transmission strategy and, at each
    step, raises one threshold of some current strategy by 1, accepting the
    candidates that reduce power at the smallest delay-per-power slope.
    Tied candidates are all kept for the next expansion; the recorded
    vertex is the tied point of least power (lexicographically smallest
    thresholds among equals).

    Every walk strategy covers all states (thresholds[M] = K), so its
    action map determines its thresholds: the walk carries and scores
    strategies as maps, and derives thresholds only to break ties, to name
    a singular chain and for the vertices it returns, whose policies it
    builds from their maps (`_vertex_policies`).  A step expands its
    strategies level by level: the raised maps of one level are scored as
    one stack (`score_maps`), so every chain's point is bit for bit its own
    solve.
    """
    M = params.M
    acts0 = initial_actions(params)
    current = {acts0.tobytes(): acts0}
    ((p_p, d_p),) = _walk_rewards(params, [acts0])
    walk = [(p_p, d_p, acts0)]
    while True:
        # Neighbors with the exact same reward pair only reassign unreachable
        # states: they are alternative representations of the current vertex,
        # so their own neighbors must be explored too (transitively).
        candidates: dict[bytes, tuple[float, float, np.ndarray]] = {}
        level = list(current.values())
        while level:
            fresh: dict[bytes, np.ndarray] = {}
            for acts in level:
                for nb in neighbors_increase_threshold(params, acts):
                    key = nb.tobytes()
                    if key not in current and key not in candidates:
                        fresh.setdefault(key, nb)
            if not fresh:
                break
            level = []
            for (key, nb), (p, d) in zip(fresh.items(), _walk_rewards(params, list(fresh.values()))):
                if abs(p - p_p) <= POINT_TOL and abs(d - d_p) <= POINT_TOL:
                    current[key] = nb
                    level.append(nb)
                else:
                    candidates[key] = (p, d, nb)
        accepted = [
            (p, d, acts)
            for p, d, acts in candidates.values()
            if d >= d_p - SLOPE_TOL and p < p_p - POWER_STEP_FLOOR
        ]
        if not accepted:
            break
        slopes = [max(d - d_p, 0.0) / (p_p - p) for p, d, _ in accepted]
        s_min = min(slopes)
        tied = [c for s, c in zip(slopes, accepted) if s <= s_min + SLOPE_TOL]
        # vertex representative: least power, then lexicographic thresholds
        best = tied[0] if len(tied) == 1 else min(
            tied, key=lambda c: (c[0], _last_state_at_most(c[2], M)))
        p_p, d_p, _ = best
        walk.append(best)
        current = {acts.tobytes(): acts for _, _, acts in tied}
    floored = any(d >= d_p - SLOPE_TOL and p < p_p * (1 - POWER_TIE_RTOL)
                  for p, d, _ in candidates.values())
    kept = [walk[i] for i in _drop_collinear([DelayPowerPoint(p, d) for p, d, _ in walk])]
    maps = np.array([acts for _, _, acts in kept])
    return ParetoCurve(
        vertices=tuple(
            DelayPowerPoint(p, d, policy, _last_state_at_most(acts, M))
            for (p, d, acts), policy in zip(kept, _vertex_policies(params, maps))
        ),
        stop_reason="power_resolution" if floored else "exhausted",
    )


def _vertex_policies(params: ModelParams, maps: np.ndarray) -> list[Policy]:
    """The deterministic policies of the action maps (V, K+1), after one
    check of every (state, action) pair against `feasibility_mask`: for a
    one-hot policy matrix, the whole of `Policy`'s validation."""
    ok = feasibility_mask(params)[np.arange(params.K + 1), maps]
    if not ok.all():
        i, k = np.argwhere(~ok)[0]
        raise InvalidPolicy(f"f[{k}][{maps[i, k]}] = 1.0 violates the overflow/underflow mask")
    return [policy_from_actions(params, acts) for acts in maps]


def _merge_staircase(staircase, block):
    """Rows of `staircase` and `block`, each a (power, delay, payload)
    triple of arrays, that `lower_convex_hull` of their union must see, in
    (power, delay) order.  The rows are sorted by `np.lexsort((delay,
    power))`, which is stable, so `staircase` rows precede the `block` rows
    they tie with.  A row is dropped if its (power, delay) exactly equals
    the previous sorted row's, or if its delay exceeds the least delay of
    the rows before it by more than POINT_TOL; the rows left form a
    staircase.  Neither rule drops a row whose presence can change what
    `lower_convex_hull` returns, and a row dropped stays droppable whatever
    rows later blocks add, so folding the blocks of a cloud in through this
    function keeps every row that one call over the whole cloud needs;
    merging the blocks' hulls would not (see `lower_convex_hull`)."""
    power, delay, payload = (np.concatenate(pair) for pair in zip(staircase, block))
    order = np.lexsort((delay, power))
    p, d = power[order], delay[order]
    drop = np.zeros(order.size, dtype=bool)
    drop[1:] = ((p[1:] == p[:-1]) & (d[1:] == d[:-1])) | (
        d[1:] > np.minimum.accumulate(d)[:-1] + POINT_TOL
    )
    keep = order[~drop]
    return power[keep], delay[keep], payload[keep]


def scored_blocks(params: ModelParams, cap: int = DEFAULT_ENUMERATION_CAP):
    """The reward cloud of every deterministic policy, a block at a time:
    for each block of `enumerate_deterministic`, yield the powers, delays
    and action maps of its nonsingular chains, in enumeration order, and
    the count of its singular ones, scored by the run rule
    (`mrp.score_map_runs`), bit for bit as by one `score_maps` call on the
    block.  The first `next` raises EnumerationTooLarge if the count
    exceeds `cap`; once the stream is exhausted, the singular chains
    skipped are logged."""
    skipped = 0
    for acts in enumerate_deterministic(params, cap=cap):
        kept, power, delay = score_map_runs(params, acts)
        singular = len(acts) - kept.size
        skipped += singular
        yield power, delay, acts[kept], singular
    if skipped:
        log.warning("skipped %d deterministic policies with singular chains", skipped)


def brute_force_frontier(
    params: ModelParams, cap: int = DEFAULT_ENUMERATION_CAP
) -> ParetoCurve:
    """Frontier by exhaustive enumeration: the oracle route.

    Each block of the scored stream (`scored_blocks`) is merged into the
    staircase of the rows scored so far (`_merge_staircase`), so memory is
    O(block + staircase): the staircase ends with 97 rows on the reference
    instance at Q=6 and 121 at ladder K=9 (259,200 policies).  One
    `lower_convex_hull` over the staircase's bare reward points gives the
    curve of the whole cloud, and only its vertices get a policy."""
    staircase = (np.empty(0), np.empty(0), np.empty((0, params.K + 1), dtype=np.intp))
    skipped = 0
    for power, delay, maps, singular in scored_blocks(params, cap):
        staircase = _merge_staircase(staircase, (power, delay, maps))
        skipped += singular
    power, delay, maps = staircase
    points = list(map(DelayPowerPoint, power.tolist(), delay.tolist()))
    # the staircase holds no two equal reward pairs: a vertex names its row
    row = {pt: i for i, pt in enumerate(points)}
    vertices = tuple(
        DelayPowerPoint(v.power, v.delay, policy_from_actions(params, maps[row[v]]))
        for v in lower_convex_hull(points).vertices
    )
    return ParetoCurve(vertices=vertices, skipped_singular=skipped)
