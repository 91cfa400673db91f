"""Policy generation and classification.

Exhaustive deterministic enumeration (input to the brute-force oracle and
the point cloud), threshold recognition (of any policy, and of a stack of
deterministic action maps at once), and one-step threshold neighbor
generation for the frontier walk.
"""
from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import EnumerationTooLarge, InfeasibleThresholds
from .model import (
    ModelParams,
    Policy,
    ThresholdPolicy,
    _action_matrix,
    _last_state_at_most,
    feasible_actions,
    threshold_to_policy,
)

DEFAULT_ENUMERATION_CAP = 10_000_000
# Block size of `enumerate_deterministic`: BLOCK_BYTES // (8 (K+1)^2)
# policies, 512 at K=7 and 404 at K=8.  The divisor, the bytes of one dense
# (K+1)^2 matrix, only sets the sizes; scoring builds no such matrix.
# Basis, measured on brute force at Q=5 and Q=6 (tracemalloc peak of one
# block of `pareto.scored_blocks`, median over the full blocks): about 1.57
# KB per policy of block at K=7 and 1.69 KB at K=8 (2.15 and 2.29 KB while
# every chain of a block was factored), so a block peaks near 0.8 MB and
# 0.7 MB, and brute force keeps little else (a staircase of about 100
# rows).  In the `brute` benchmark (perfbench, --seconds 4, four runs each
# on a 2-CPU x86-64 host), with one chain factored per run of policies that
# share it, blocks of 512 KiB took 0.0214-0.0231 s against 0.0242-0.0257 s
# for 256 KiB, but peaked at 70.7-70.8 MB RSS against 69.5-69.8 MB; while
# every chain was factored, 256 KiB took 0.0334 s median against 0.0370 s
# for 128 KiB (69.9-70.1 MB against 69.1-69.3 MB), and 512 KiB was no
# faster.
BLOCK_BYTES = 256 * 1024


def policy_from_actions(params: ModelParams, actions: Sequence[int]) -> Policy:
    """Deterministic policy from a state -> action map (assumed feasible)."""
    return Policy(params, _action_matrix(params, actions), validate=False)


def count_deterministic(params: ModelParams) -> int:
    """Number of deterministic policies: product of feasible-set sizes."""
    return math.prod(len(feasible_actions(params, k)) for k in range(params.K + 1))


def enumerate_deterministic(
    params: ModelParams, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[np.ndarray]:
    """Yield every deterministic policy as its state -> action map, in
    blocks: (N, K+1) int arrays whose rows run lexicographically over
    (state, action), in the order of `itertools.product` over the feasible
    sets.  N is BLOCK_BYTES // (8 (K+1)^2), at least 1; the last block
    holds the remainder.  Raises
    EnumerationTooLarge before the first block if the count exceeds `cap`.
    """
    total = count_deterministic(params)
    if total > cap:
        raise EnumerationTooLarge(
            f"{total} deterministic policies exceed the cap of {cap}"
        )
    sets = [feasible_actions(params, k) for k in range(params.K + 1)]
    block = max(1, BLOCK_BYTES // (8 * (params.K + 1) ** 2))
    for start in range(0, total, block):
        # mixed-radix decode of the policy numbers, the last state fastest
        idx = np.arange(start, min(start + block, total))
        acts = np.empty((idx.size, params.K + 1), dtype=np.intp)
        for k in range(params.K, -1, -1):
            idx, digit = np.divmod(idx, len(sets[k]))
            acts[:, k] = digit + sets[k].start
        yield acts


def is_threshold(params: ModelParams, policy: Policy) -> Optional[ThresholdPolicy]:
    """Recognize a policy as threshold-based, or return None.

    The candidate takes each row's first supported action as its level and
    randomizes the first fractional row between that level and the next
    action.  `ThresholdPolicy` and `threshold_to_policy` reject candidates
    no threshold vector can express, and the policy is accepted only if the
    candidate rebuilds it to within 1e-9 (so at most one row is fractional).
    """
    f = policy.f
    det_tol = 1e-9
    frac = np.flatnonzero(f.max(axis=1) <= 1 - det_tol)
    levels = np.argmax(f > det_tol, axis=1)
    ts = _last_state_at_most(levels, params.M)
    try:
        if frac.size:
            m = int(levels[frac[0]])
            tp = ThresholdPolicy(ts, randomized_index=m, weight=float(f[frac[0], m]))
        else:
            tp = ThresholdPolicy(ts)
        rebuilt = threshold_to_policy(params, tp)
    except InfeasibleThresholds:
        return None
    if np.max(np.abs(rebuilt.f - f)) > det_tol:
        return None
    return tp


def is_threshold_map(acts: np.ndarray) -> np.ndarray:
    """Whether `is_threshold` accepts the deterministic policies of the
    action maps acts (..., K+1), by one vectorised rule: a map is a
    threshold strategy exactly when it is nondecreasing and state 1
    transmits (thresholds[0] = 0)."""
    return (np.diff(acts, axis=-1) >= 0).all(axis=-1) & (acts[..., 1] >= 1)


def initial_actions(params: ModelParams) -> np.ndarray:
    """Action map of the zero-delay starting point of the frontier walk:
    state k transmits every arrival at once, min(k, A) bits, or k-Q if more
    is needed to avoid overflow.  It is the map of the thresholds (min(m,
    A) for m = 0..M), completed over every state by `_complete_actions`."""
    k = np.arange(params.K + 1)
    return np.maximum(np.minimum(k, params.A), k - params.Q)


def neighbors_increase_threshold(params: ModelParams, acts: np.ndarray) -> np.ndarray:
    """Action maps (n, K+1) of the variants of a threshold strategy with one
    threshold raised by 1, in order of the raised index.  The strategy is
    given as its action map `acts` and covers every state (thresholds[M] =
    K), so maps and thresholds determine each other.

    Raising thresholds[m] moves state thresholds[m]+1 from action m+1 to m:
    each neighbour lowers by 1 the action a of a state k whose action
    exceeds its predecessor's, where a >= 2 (thresholds[0] stays 0) and
    a-1 >= k-Q (no overflow).  Ascending k is the raised-index order.
    """
    k = np.arange(1, params.K + 1)
    a = acts[1:]
    k = k[(a > acts[:-1]) & (a >= 2) & (a - 1 >= k - params.Q)]
    raised = np.repeat(acts[None], k.size, axis=0)
    raised[np.arange(k.size), k] -= 1
    return raised
