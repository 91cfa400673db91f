import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpsched import errors, policies
from dpsched.model import (
    Policy,
    ThresholdPolicy,
    _last_state_at_most,
    feasibility_mask,
    feasible_actions,
    threshold_action_map,
    threshold_to_policy,
    validate_params,
)
from dpsched.policies import (
    count_deterministic,
    enumerate_deterministic,
    initial_actions,
    is_threshold,
    is_threshold_map,
    neighbors_increase_threshold,
    policy_from_actions,
)
from dpsched.verify import random_policy

from conftest import EDGE_FAMILIES, deterministic_policies, edge_params

LADDER = dict(alpha=0.5, A=3, M=5, power=[0, 1, 4, 9, 16, 25])


class TestEnumeration:
    def test_reference_count(self, params_vi):
        assert count_deterministic(params_vi) == 2304

    def test_count_matches_product(self, params_vi):
        sizes = [len(feasible_actions(params_vi, k)) for k in range(8)]
        assert count_deterministic(params_vi) == math.prod(sizes)

    def test_enumeration_is_exhaustive_and_unique(self, params_vi):
        seen = set()
        for pol in deterministic_policies(params_vi):
            key = tuple(pol.action_map())
            assert key not in seen
            seen.add(key)
            for k, m in enumerate(key):
                assert m in feasible_actions(params_vi, k)
        assert len(seen) == 2304

    def test_enumeration_matches_manual_odometer(self, params_vi):
        # independent route: hand-rolled odometer over the feasible sets
        sets = [list(feasible_actions(params_vi, k)) for k in range(8)]
        idx = [0] * 8
        odometer = set()
        while True:
            odometer.add(tuple(sets[k][idx[k]] for k in range(8)))
            pos = 7
            while pos >= 0:
                idx[pos] += 1
                if idx[pos] < len(sets[pos]):
                    break
                idx[pos] = 0
                pos -= 1
            if pos < 0:
                break
        enumerated = {
            tuple(p.action_map()) for p in deterministic_policies(params_vi)
        }
        assert enumerated == odometer

    def test_cap_enforced(self, params_vi):
        with pytest.raises(errors.EnumerationTooLarge):
            list(enumerate_deterministic(params_vi, cap=100))

    @pytest.mark.parametrize("Q", [5, 6])
    @pytest.mark.parametrize("block_bytes", [None, 8 * 8 * 8 * 7])
    def test_blocks_concatenate_to_product_order(self, Q, block_bytes, monkeypatch):
        # default blocks: 4 of 512 and one of 256 at Q=5 (K=7), 22 of 404 and
        # one of 328 at Q=6 (K=8); then blocks of 7 and 5 policies, with
        # remainders
        if block_bytes is not None:
            monkeypatch.setattr(policies, "BLOCK_BYTES", block_bytes)
        params = validate_params(0.4, 2, 3, Q, [0, 1, 4, 9])
        size = policies.BLOCK_BYTES // (8 * (params.K + 1) ** 2)
        blocks = list(enumerate_deterministic(params))
        assert [len(b) for b in blocks[:-1]] == [size] * (len(blocks) - 1)
        assert len(blocks[-1]) == count_deterministic(params) - size * (len(blocks) - 1)
        assert all(b.shape[1] == params.K + 1 and b.dtype.kind == "i" for b in blocks)
        sets = [feasible_actions(params, k) for k in range(params.K + 1)]
        assert np.concatenate(blocks).tolist() == [list(c) for c in itertools.product(*sets)]

    def test_cap_raises_before_any_block(self, params_vi):
        blocks = enumerate_deterministic(params_vi, cap=2303)
        with pytest.raises(errors.EnumerationTooLarge, match="2304"):
            next(blocks)
        assert sum(len(b) for b in enumerate_deterministic(params_vi, cap=2304)) == 2304

    def test_q_zero_one_block_of_one_map(self):
        params = validate_params(0.5, 2, 2, 0, [0, 1, 3])
        assert [b.tolist() for b in enumerate_deterministic(params)] == [[[0, 1, 2]]]

    def test_more_states_than_numpy_dimensions(self):
        # Q=0 leaves each state one action: one policy of 71 states, more
        # than the 64 dimensions np.unravel_index can decode
        params = validate_params(0.5, 70, 70, 0, [m * m for m in range(71)])
        assert [b.tolist() for b in enumerate_deterministic(params)] == [[list(range(71))]]

    def test_q_zero_single_policy(self):
        params = validate_params(0.5, 2, 2, 0, [0, 1, 3])
        pols = deterministic_policies(params)
        assert len(pols) == 1
        assert pols[0].action_map() == [0, 1, 2]


class TestIsThreshold:
    def test_vertex_style_policy(self, params_vi):
        pol = policy_from_actions(params_vi, [0, 1, 1, 1, 2, 2, 2, 2])
        tp = is_threshold(params_vi, pol)
        assert tp is not None
        assert tp.thresholds == (0, 3, 7, 7)

    def test_randomized_adjacent_split(self, params_vi):
        tp_in = ThresholdPolicy((0, 2, 7, 7), randomized_index=1, weight=0.3)
        pol = threshold_to_policy(params_vi, tp_in)
        tp = is_threshold(params_vi, pol)
        assert tp is not None
        assert tp.randomized_index == 1
        assert tp.weight == pytest.approx(0.3)

    def test_non_monotone_rejected(self, params_vi):
        pol = policy_from_actions(params_vi, [0, 2, 1, 1, 2, 2, 2, 2])
        assert is_threshold(params_vi, pol) is None

    def test_lazy_state_one_rejected(self, params_vi):
        # state 1 idles; not representable with the zero-action threshold
        # pinned at state 0
        pol = policy_from_actions(params_vi, [0, 0, 1, 1, 2, 2, 2, 2])
        assert is_threshold(params_vi, pol) is None

    def test_generic_random_policy_rejected(self, params_vi, rng):
        pol = random_policy(params_vi, rng)
        assert is_threshold(params_vi, pol) is None

    def test_roundtrip_all_feasible_threshold_vectors(self, params_vi):
        K = params_vi.K
        for t1 in range(K + 1):
            for t2 in range(t1, K + 1):
                for t3 in range(t2, K + 1):
                    tp = ThresholdPolicy((0, t1, t2, t3))
                    try:
                        pol = threshold_to_policy(params_vi, tp)
                    except errors.InfeasibleThresholds:
                        continue
                    got = is_threshold(params_vi, pol)
                    if pol.action_map()[1] == 0:
                        # state 1 idles after completion; not representable
                        # with the zero-action threshold pinned at state 0
                        assert got is None
                        continue
                    assert got is not None
                    assert threshold_to_policy(params_vi, got) == pol


# The reference instance and its Q=0 and A=1 variants.
RECOGNITION_INSTANCES = [
    validate_params(0.4, 2, 3, 5, [0, 1, 4, 9]),
    validate_params(0.4, 2, 3, 0, [0, 1, 4, 9]),
    validate_params(0.4, 1, 3, 5, [0, 1, 4, 9]),
]


def reference_is_threshold(params, policy):
    """Per-state recognition: a nondecreasing deterministic action map with
    state 1 transmitting, and at most one fractional row that splits between
    adjacent actions, every later state using the higher one; the
    thresholds must rebuild the policy to within 1e-9."""
    f, K, M = policy.f, params.K, params.M
    levels, frac = [], None
    for k in range(K + 1):
        top = int(np.argmax(f[k]))
        if f[k, top] > 1 - 1e-9:
            levels.append(top)
            continue
        support = [m for m in range(M + 1) if f[k, m] > 1e-9]
        if frac is not None or len(support) != 2 or support[1] != support[0] + 1:
            return None
        frac = (k, support[0], float(f[k, support[0]]))
        levels.append(support[0])
    if any(b < a for a, b in zip(levels, levels[1:])) or levels[1] == 0:
        return None
    if frac is not None and any(levels[k] <= frac[1] for k in range(frac[0] + 1, K + 1)):
        return None
    ts = tuple(max((k for k in range(K + 1) if levels[k] <= m), default=-1) for m in range(M + 1))
    try:
        if frac is None:
            tp = ThresholdPolicy(ts)
        else:
            tp = ThresholdPolicy(ts, randomized_index=frac[1], weight=frac[2])
        rebuilt = threshold_to_policy(params, tp)
    except errors.InfeasibleThresholds:
        return None
    return tp if np.max(np.abs(rebuilt.f - policy.f)) <= 1e-9 else None


@pytest.mark.parametrize("params", RECOGNITION_INSTANCES, ids=["reference", "Q0", "A1"])
def test_is_threshold_matches_per_state_reference(params, rng):
    """Every deterministic policy, every adjacent one-row split of one (the
    lower action weighted 0.25, so it is not the row's largest entry) and
    random policies with many fractional rows."""
    n_threshold = n_split_threshold = 0
    for det in deterministic_policies(params):
        cands = [det]
        for k, a in enumerate(det.action_map()):
            if a + 1 in feasible_actions(params, k):
                f = det.f.copy()
                f[k, a], f[k, a + 1] = 0.25, 0.75
                cands.append(Policy(params, f))
        for i, pol in enumerate(cands):
            want = reference_is_threshold(params, pol)
            assert is_threshold(params, pol) == want
            n_threshold += want is not None
            n_split_threshold += want is not None and i > 0
    for _ in range(50):
        pol = random_policy(params, rng)
        assert is_threshold(params, pol) == reference_is_threshold(params, pol)
    assert n_threshold > 0
    assert n_split_threshold > 0 or params.Q == 0


# The reference instance at Q=0..5, A=1 (M=3, Q=4), A=M=3 (Q=3), A=M=1
# (Q=6) and ladder K=6 (Q=3).
MAP_RULE_INSTANCES = [validate_params(0.4, 2, 3, Q, [0, 1, 4, 9]) for Q in range(6)] + [
    validate_params(0.4, 1, 3, 4, [0, 1, 4, 9]),
    validate_params(0.4, 3, 3, 3, [0, 1, 4, 9]),
    validate_params(0.4, 1, 1, 6, [0, 1]),
    validate_params(Q=3, **LADDER),
]


def test_threshold_map_rule_agrees_with_is_threshold():
    """`is_threshold_map` of each block of deterministic action maps accepts
    exactly the maps whose policy `is_threshold` accepts, on all 4,717 maps
    of the instances."""
    n_maps = n_threshold = 0
    for params in MAP_RULE_INSTANCES:
        for block in enumerate_deterministic(params):
            want = [is_threshold(params, policy_from_actions(params, a)) is not None
                    for a in block]
            assert is_threshold_map(block).tolist() == want
            n_maps += len(block)
            n_threshold += sum(want)
    assert n_maps == 4717
    assert 0 < n_threshold < n_maps


def neighbor_thresholds(params, ts):
    """Thresholds of the neighbours of the fully covering vector `ts`,
    generated from its action map."""
    acts = np.array(threshold_action_map(params, ThresholdPolicy(ts)))
    return [_last_state_at_most(nb, params.M)
            for nb in neighbors_increase_threshold(params, acts)]


class TestWalkMoves:
    def test_initial_policy(self, params_vi):
        acts = initial_actions(params_vi)
        assert acts.tolist() == [0, 1, 2, 2, 2, 2, 2, 2]
        assert _last_state_at_most(acts, params_vi.M) == (0, 1, 7, 7)

    @given(
        family=st.sampled_from(EDGE_FAMILIES + ["ladder"]),
        alpha=st.floats(0.05, 0.95),
        eps=st.floats(1e-4, 0.02),
        A=st.integers(1, 3),
        extra_m=st.integers(0, 2),
        Q=st.integers(0, 6),
        ladder_q=st.sampled_from([0, 1, 5, 19, 40, 80, 200, 400]),
    )
    @settings(max_examples=60, deadline=None)
    def test_initial_actions_expand_the_raw_thresholds(
        self, family, alpha, eps, A, extra_m, Q, ladder_q
    ):
        # the map of the thresholds min(m, A), completed over every state:
        # the expansion the walk started from when it carried thresholds
        if family == "ladder":
            params = validate_params(Q=ladder_q, **LADDER)
        else:
            params = edge_params(family, alpha, eps, A, extra_m, Q)
        acts = initial_actions(params)
        raw = ThresholdPolicy(tuple(min(m, params.A) for m in range(params.M + 1)))
        assert acts.tolist() == threshold_action_map(params, raw)
        assert acts.shape == (params.K + 1,)
        assert feasibility_mask(params)[np.arange(params.K + 1), acts].all()

    def test_neighbors_raise_one_threshold(self, params_vi):
        ts = (0, 1, 7, 7)
        nbs = neighbor_thresholds(params_vi, ts)
        assert nbs == [(0, 2, 7, 7)]
        for nb in nbs:
            diffs = [(a, b) for a, b in zip(ts, nb) if a != b]
            assert diffs == [(diffs[0][0], diffs[0][0] + 1)]

    def test_zero_threshold_never_raised(self, params_vi):
        # (0, 7, 7, 7) gives state 7 an infeasible action
        for t1 in range(1, 7):
            for nb in neighbor_thresholds(params_vi, (0, t1, 7, 7)):
                assert nb[0] == 0

    def test_monotonicity_and_range_respected(self, params_vi):
        nbs = neighbor_thresholds(params_vi, (0, 3, 3, 7))
        assert nbs
        for nb in nbs:
            assert all(a <= b for a, b in itertools.pairwise(nb))
            assert max(nb) <= params_vi.K

    def test_infeasible_neighbors_skipped(self, params_vi):
        # (0, 7, 7, 7) would leave state 7 without a feasible action
        nbs = neighbor_thresholds(params_vi, (0, 6, 6, 7))
        assert (0, 7, 7, 7) not in nbs
        assert (0, 6, 7, 7) in nbs
