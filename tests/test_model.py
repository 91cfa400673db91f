import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpsched import errors
from dpsched.lp import build_lp
from dpsched.model import (
    ModelParams,
    Policy,
    ThresholdPolicy,
    complete_thresholds,
    feasibility_mask,
    feasible_actions,
    parse_param_text,
    threshold_action_map,
    threshold_to_policy,
    validate_params,
)
from dpsched.policies import neighbors_increase_threshold


class TestValidateParams:
    def test_reference_instance(self):
        p = validate_params(0.4, 2, 3, 5, [0, 1, 4, 9])
        assert p.K == 7
        assert p.power == (0.0, 1.0, 4.0, 9.0)

    def test_m_less_than_a(self):
        with pytest.raises(errors.MLessThanA):
            validate_params(0.4, 2, 1, 5, [0, 1])

    def test_per_bit_cost_must_increase(self):
        # 3/2 < 2/1 violates the convexity of the power table
        with pytest.raises(errors.PowerNotIncreasingPerBit):
            validate_params(0.5, 1, 2, 3, [0, 2, 3])

    def test_alpha_bounds(self):
        with pytest.raises(errors.NonPositiveAlpha):
            validate_params(0.0, 1, 1, 1, [0, 1])
        with pytest.raises(errors.AlphaAboveOne):
            validate_params(1.5, 1, 1, 1, [0, 1])
        # deterministic arrivals are allowed
        assert validate_params(1.0, 1, 1, 1, [0, 1]).alpha == 1.0

    def test_power_zero_nonzero(self):
        with pytest.raises(errors.PowerZeroNonzero):
            validate_params(0.4, 1, 1, 1, [1, 2])

    def test_power_table_length(self):
        with pytest.raises(errors.ModelError):
            validate_params(0.4, 2, 3, 5, [0, 1, 4])


class TestFeasibleActions:
    def test_reference_states(self, params_vi):
        assert set(feasible_actions(params_vi, 0)) == {0}
        assert set(feasible_actions(params_vi, 7)) == {2, 3}
        assert set(feasible_actions(params_vi, 3)) == {0, 1, 2, 3}

    def test_out_of_range(self, params_vi):
        with pytest.raises(errors.StateOutOfRange):
            feasible_actions(params_vi, 8)
        with pytest.raises(errors.StateOutOfRange):
            feasible_actions(params_vi, -1)

    @given(
        A=st.integers(1, 4),
        extra_m=st.integers(0, 3),
        Q=st.integers(0, 10),
    )
    def test_bounds_monotone_in_state(self, A, extra_m, Q):
        M = A + extra_m
        power = [float(m * m) for m in range(M + 1)]
        params = validate_params(0.5, A, M, Q, power)
        prev_lo = prev_hi = -1
        for k in range(params.K + 1):
            acts = feasible_actions(params, k)
            assert len(acts) >= 1
            assert acts.start >= prev_lo and acts[-1] >= prev_hi
            prev_lo, prev_hi = acts.start, acts[-1]


class TestPolicy:
    def test_row_sum_enforced(self, params_vi):
        f = np.zeros((8, 4))
        f[:, 0] = 1.0
        f[7, 0] = 0.0  # state 7 cannot stay silent, and row sums to 0
        with pytest.raises(errors.InvalidPolicy):
            Policy(params_vi, f)

    def test_mask_enforced(self, params_vi):
        f = np.zeros((8, 4))
        for k in range(8):
            f[k, min(k, 2) if k < 7 else 2] = 1.0
        f[0, :] = 0.0
        f[0, 1] = 1.0  # underflow: transmit 1 from empty backlog
        with pytest.raises(errors.InvalidPolicy):
            Policy(params_vi, f)

    def test_csv_roundtrip(self, params_vi, rng):
        from dpsched.verify import random_policy

        pol = random_policy(params_vi, rng)
        again = Policy.from_csv(params_vi, pol.to_csv())
        assert np.max(np.abs(again.f - pol.f)) < 1e-15


class TestThresholdPolicy:
    def test_initial_strategy_expansion(self, params_vi):
        # raw thresholds min(m, A); completion assigns action 2 to all
        # states above the covered range
        tp = ThresholdPolicy((0, 1, 2, 2))
        acts = threshold_action_map(params_vi, tp)
        assert acts == [0, 1, 2, 2, 2, 2, 2, 2]
        pol = threshold_to_policy(params_vi, tp)
        assert pol.action_map() == acts

    def test_single_active_threshold(self, params_vi):
        # transmit 1 bit whenever k >= 1 when feasible; state 7 is forced to 2
        tp = ThresholdPolicy((0, 7, 7, 7))
        with pytest.raises(errors.InfeasibleThresholds):
            threshold_to_policy(params_vi, tp)
        tp = ThresholdPolicy((0, 6, 7, 7))
        assert threshold_to_policy(params_vi, tp).action_map() == [0, 1, 1, 1, 1, 1, 1, 2]

    def test_randomized_split(self, params_vi):
        tp = ThresholdPolicy((0, 2, 7, 7), randomized_index=1, weight=0.5)
        pol = threshold_to_policy(params_vi, tp)
        frac = np.argwhere((pol.f > 0) & (pol.f < 1))
        assert [tuple(e) for e in frac] == [(2, 1), (2, 2)]
        assert pol.f[2, 1] == pol.f[2, 2] == 0.5

    def test_nondecreasing_required(self):
        with pytest.raises(errors.InfeasibleThresholds):
            ThresholdPolicy((0, 3, 2, 5))

    def test_zero_threshold_pinned(self):
        with pytest.raises(errors.InfeasibleThresholds):
            ThresholdPolicy((1, 2, 3, 4))

    def test_completion_is_canonical(self, params_vi):
        tp = complete_thresholds(params_vi, ThresholdPolicy((0, 1, 2, 2)))
        assert tp.thresholds == (0, 1, 7, 7)
        # completion only touches states unreachable under the raw rule
        assert threshold_action_map(params_vi, tp) == threshold_action_map(
            params_vi, ThresholdPolicy((0, 1, 2, 2))
        )

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_policy_invariants(self, data):
        params = validate_params(0.5, 2, 3, 4, [0, 1, 4, 9])
        K = params.K
        t1 = data.draw(st.integers(0, K))
        t2 = data.draw(st.integers(t1, K))
        t3 = data.draw(st.integers(t2, K))
        tp = ThresholdPolicy((0, t1, t2, t3))
        try:
            pol = threshold_to_policy(params, tp)
        except errors.InfeasibleThresholds:
            return
        assert np.allclose(pol.f.sum(axis=1), 1.0, atol=1e-12)


# The reference instance and its Q=0 variant (no state has a choice of
# action past the covered range).
BOOKKEEPING_INSTANCES = [
    validate_params(0.4, 2, 3, 5, [0, 1, 4, 9]),
    validate_params(0.4, 2, 3, 0, [0, 1, 4, 9]),
]


def reference_action_map(params, ts):
    """Per-state expansion of a threshold vector, or None if infeasible:
    action m on (ts[m-1], ts[m]], then each later state takes the smallest
    feasible action not below its predecessor's."""
    if ts[-1] > params.K:
        return None
    acts = []
    for k in range(params.K + 1):
        if k <= ts[-1]:
            m = next(m for m, t in enumerate(ts) if k <= t)
        else:
            m = max(acts[-1], feasible_actions(params, k).start)
        if m not in feasible_actions(params, k):
            return None
        acts.append(m)
    return acts


def all_threshold_vectors(params):
    """Every nondecreasing vector (0, t_1, ..., t_M) with entries in 0..K+1."""
    for rest in itertools.combinations_with_replacement(range(params.K + 2), params.M):
        yield (0,) + rest


@pytest.mark.parametrize("params", BOOKKEEPING_INSTANCES, ids=["reference", "Q0"])
class TestFeasibilityBookkeeping:
    def test_action_map_and_completion_match_per_state_reference(self, params):
        n_feasible = 0
        for ts in all_threshold_vectors(params):
            tp = ThresholdPolicy(ts)
            want = reference_action_map(params, ts)
            if want is None:
                with pytest.raises(errors.InfeasibleThresholds):
                    threshold_action_map(params, tp)
                with pytest.raises(errors.InfeasibleThresholds):
                    complete_thresholds(params, tp)
                continue
            n_feasible += 1
            assert threshold_action_map(params, tp) == want
            canonical = tuple(
                max((k for k, a in enumerate(want) if a <= m), default=-1)
                for m in range(params.M + 1)
            )
            if canonical[0] != 0:
                # state 1 idles: no vector with thresholds[0] = 0 has this map
                with pytest.raises(errors.InfeasibleThresholds):
                    complete_thresholds(params, tp)
            else:
                assert complete_thresholds(params, tp).thresholds == canonical
        assert n_feasible > 0

    def test_neighbors_are_the_feasible_raised_vectors(self, params):
        for ts in all_threshold_vectors(params):
            want = []
            for m in range(1, params.M + 1):
                cand = list(ts)
                cand[m] += 1
                try:
                    nb = ThresholdPolicy(tuple(cand))
                    threshold_to_policy(params, nb)
                except errors.InfeasibleThresholds:
                    continue
                want.append(nb)
            assert neighbors_increase_threshold(params, ThresholdPolicy(ts)) == want

    def test_lp_variables_in_lexicographic_feasible_order(self, params):
        want = tuple(
            (k, m) for k in range(params.K + 1) for m in feasible_actions(params, k)
        )
        assert build_lp(params, 1.0).var_index == want
        assert [tuple(e) for e in np.argwhere(feasibility_mask(params))] == list(want)


class TestParamFile:
    def test_parse(self):
        text = "alpha=0.4\nA=2\nM=3\nQ=5\npower=0,1,4,9\n"
        p = parse_param_text(text)
        assert p == validate_params(0.4, 2, 3, 5, [0, 1, 4, 9])

    def test_missing_key(self):
        with pytest.raises(errors.ModelError):
            parse_param_text("alpha=0.4\nA=2\n")
