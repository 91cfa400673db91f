"""Policy generation and classification.

Exhaustive deterministic enumeration (input to the brute-force oracle),
threshold recognition, and one-step threshold neighbor generation for the
frontier walk.
"""
from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

import itertools

import numpy as np

from .errors import EnumerationTooLarge, InfeasibleThresholds
from .model import (
    ModelParams,
    Policy,
    ThresholdPolicy,
    _last_state_at_most,
    feasible_actions,
    threshold_action_map,
    threshold_to_policy,
)

DEFAULT_ENUMERATION_CAP = 10_000_000


def policy_from_actions(params: ModelParams, actions: Sequence[int]) -> Policy:
    """Deterministic policy from a state -> action map (assumed feasible)."""
    f = np.zeros((params.K + 1, params.M + 1))
    f[np.arange(params.K + 1), actions] = 1.0
    return Policy(params, f, validate=False)


def count_deterministic(params: ModelParams) -> int:
    """Number of deterministic policies: product of feasible-set sizes."""
    return math.prod(len(feasible_actions(params, k)) for k in range(params.K + 1))


def enumerate_deterministic(
    params: ModelParams, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[Policy]:
    """Yield every deterministic policy, lexicographic over (state, action)."""
    total = count_deterministic(params)
    if total > cap:
        raise EnumerationTooLarge(
            f"{total} deterministic policies exceed the cap of {cap}"
        )
    action_sets = [list(feasible_actions(params, k)) for k in range(params.K + 1)]
    for combo in itertools.product(*action_sets):
        yield policy_from_actions(params, combo)


def is_threshold(params: ModelParams, policy: Policy) -> Optional[ThresholdPolicy]:
    """Recognize a policy as threshold-based, or return None.

    Accepted policies have a nondecreasing deterministic action map, with
    state 1 transmitting (the zero-action threshold is pinned to state 0),
    and at most one fractional row that splits between adjacent actions.
    """
    f = policy.f
    K, M = params.K, params.M
    det_tol = 1e-9
    # level[k]: deterministic action, or the lower split action for the
    # (at most one) fractional row.
    levels: list[int] = []
    frac_state = frac_m = None
    frac_w = 0.0
    for k in range(K + 1):
        row = f[k]
        top = int(np.argmax(row))
        if row[top] > 1 - det_tol:
            levels.append(top)
            continue
        support = np.nonzero(row > det_tol)[0]
        if frac_state is not None or len(support) != 2:
            return None
        lo, hi = int(support[0]), int(support[1])
        if hi != lo + 1:
            return None
        frac_state, frac_m, frac_w = k, lo, float(row[lo])
        levels.append(lo)
    if any(b < a for a, b in zip(levels, levels[1:])):
        return None
    if K >= 1 and levels[1] == 0:
        return None  # state 1 idles: not representable with the 0-threshold at 0
    if frac_state is not None and any(
        levels[k] <= frac_m for k in range(frac_state + 1, K + 1)
    ):
        return None  # states past the split must use the higher action
    ts = _last_state_at_most(levels, M)
    try:
        if frac_state is not None:
            tp = ThresholdPolicy(ts, randomized_index=frac_m, weight=frac_w)
        else:
            tp = ThresholdPolicy(ts)
        rebuilt = threshold_to_policy(params, tp)
    except InfeasibleThresholds:
        return None
    if np.max(np.abs(rebuilt.f - policy.f)) > 1e-9:
        return None
    return tp


def initial_threshold_policy(params: ModelParams) -> ThresholdPolicy:
    """Zero-delay starting point of the frontier walk: transmit every
    arrival immediately (threshold m capped at min(m, A)), completed to
    full state coverage."""
    from .model import complete_thresholds

    raw = ThresholdPolicy(
        tuple(min(m, params.A) for m in range(params.M + 1))
    )
    return complete_thresholds(params, raw)


def neighbors_increase_threshold(
    params: ModelParams, tp: ThresholdPolicy
) -> list[ThresholdPolicy]:
    """All legal variants of tp with exactly one threshold raised by 1.

    The zero-action threshold stays pinned at 0 and the raised vector must
    stay nondecreasing, within [0, K], and induce a feasible policy.
    """
    if not tp.is_deterministic():
        raise InfeasibleThresholds("neighbor generation requires a deterministic policy")
    out = []
    ts = tp.thresholds
    for m in range(1, len(ts)):
        cand = list(ts)
        cand[m] += 1
        if cand[m] > params.K:
            continue
        if m + 1 < len(cand) and cand[m] > cand[m + 1]:
            continue
        try:
            nb = ThresholdPolicy(tuple(cand))
            threshold_action_map(params, nb)
        except InfeasibleThresholds:
            continue
        out.append(nb)
    return out
