import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpsched import errors, model
from dpsched.lp import build_lp
from dpsched.model import (
    Policy,
    ThresholdPolicy,
    _last_state_at_most,
    feasibility_mask,
    feasible_actions,
    param_fields,
    params_from_fields,
    parse_param_text,
    threshold_action_map,
    threshold_to_policy,
    validate_params,
)
from dpsched.policies import neighbors_increase_threshold

from conftest import raised_threshold_reference


class TestValidateParams:
    def test_reference_instance(self):
        p = validate_params(0.4, 2, 3, 5, [0, 1, 4, 9])
        assert p.K == 7
        assert p.power == (0.0, 1.0, 4.0, 9.0)

    @pytest.mark.parametrize("field, value", [("A", 2.5), ("M", 3.9), ("Q", 5.2),
                                              ("Q", float("nan")), ("M", "3")])
    def test_non_integral_field_is_named(self, field, value):
        args = dict(dict(alpha=0.4, A=2, M=3, Q=5, power=[0, 1, 4, 9]), **{field: value})
        with pytest.raises(errors.ModelError, match=f"^{field} must be an integer"):
            validate_params(**args)

    @pytest.mark.parametrize("field, value", [("alpha", "x"), ("alpha", None),
                                              ("power[2]", [0, 1, "x", 9]),
                                              ("power[1]", [0, None, 4, 9])])
    def test_non_numeric_field_is_named(self, field, value):
        name = field.split("[")[0]
        args = dict(dict(alpha=0.4, A=2, M=3, Q=5, power=[0, 1, 4, 9]), **{name: value})
        with pytest.raises(errors.ModelError, match=f"^{re.escape(field)} must be a number"):
            validate_params(**args)

    @pytest.mark.parametrize("power", [None, 9, "0,1,4,9"])
    def test_power_that_is_not_a_sequence_is_named(self, power):
        with pytest.raises(errors.ModelError, match="^power must be a sequence of numbers"):
            validate_params(0.4, 2, 3, 5, power)

    def test_integral_floats_and_numpy_integers(self):
        want = validate_params(0.4, 2, 3, 5, [0, 1, 4, 9])
        for A, M, Q in [(2.0, 3.0, 5.0), (np.int64(2), np.int32(3), np.uint8(5))]:
            p = validate_params(0.4, A, M, Q, [0, 1, 4, 9])
            assert p == want and all(type(v) is int for v in (p.A, p.M, p.Q))

    def test_m_less_than_a(self):
        with pytest.raises(errors.MLessThanA):
            validate_params(0.4, 2, 1, 5, [0, 1])

    def test_per_bit_cost_must_increase(self):
        # the per-bit cost falls from 2/1 to 3/2; this rule is not convexity,
        # which `test_power_must_be_convex` covers
        with pytest.raises(errors.PowerNotIncreasingPerBit):
            validate_params(0.5, 1, 2, 3, [0, 2, 3])

    def test_power_must_be_convex(self):
        # increments 1, 2, 1.6 decrease, though the per-bit cost 1, 1.5,
        # 1.53 rises; on such tables the walk's frontier is wrong
        message = r"power must be convex .*: power\[2\]-power\[1\]=2\.0, power\[3\]-power\[2\]=1\.5"
        with pytest.raises(errors.PowerNotConvex, match=message):
            validate_params(0.5, 1, 3, 3, [0, 1, 3, 4.6])
        # weakly convex (tied increments 2, 2) stays accepted
        assert validate_params(0.5, 1, 3, 3, [0, 1, 3, 5]).power == (0.0, 1.0, 3.0, 5.0)

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

    @pytest.mark.parametrize("A, M, Q, power, error, message", [
        (0, 3, 5, [0, 1, 4, 9], errors.ModelError, "A must be a positive integer, got 0"),
        (2, 3, -1, [0, 1, 4, 9], errors.ModelError, "Q must be nonnegative, got -1"),
        (2, 3, 5, [0, 2, 2, 9], errors.PowerNotIncreasingPerBit,
         "power must be strictly increasing: power[1]=2.0, power[2]=2.0"),
        (1, 1, 5, [0, 0], errors.PowerNotIncreasingPerBit, "power[1] must be > 0, got 0.0"),
        (1, 1, 5, [0, -1], errors.PowerNotIncreasingPerBit, "power[1] must be > 0, got -1.0"),
    ])
    def test_field_bounds_are_named(self, A, M, Q, power, error, message):
        with pytest.raises(error) as info:
            validate_params(0.4, A, M, Q, power)
        assert type(info.value) is error and str(info.value) == message

    @pytest.mark.parametrize("A, M, power, name", [
        # a last entry of +inf passes every order check of the table
        (2, 3, [0, 1, 4, math.inf], r"power\[3\] must be finite, got inf"),
        (1, 1, [0, math.inf], r"power\[1\] must be finite, got inf"),
        (2, 3, [0, 1, math.nan, 9], r"power\[2\] must be finite, got nan"),
        (2, 3, [math.nan, 1, 4, 9], r"power\[0\] must be finite, got nan"),
    ])
    def test_power_table_finite(self, A, M, power, name):
        with pytest.raises(errors.ModelError, match=name):
            validate_params(0.4, A, M, 5, power)


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

    @staticmethod
    def drain(params):
        """The policy matrix that sends min(k, M) in every state k."""
        f = np.zeros((params.K + 1, params.M + 1))
        f[np.arange(params.K + 1), np.minimum(np.arange(params.K + 1), params.M)] = 1.0
        return f

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_is_named(self, params_vi, value):
        # a NaN fails every comparison, so it passed the range, mask and
        # row-sum checks, and the chain solve then blamed recurrent classes
        f = self.drain(params_vi)
        f[2] = [value, 0.5, 0.5, 0.0]
        with pytest.raises(errors.InvalidPolicy, match=re.escape(f"f[2][0] = {value} ")):
            Policy(params_vi, f)

    def test_entry_outside_unit_interval_is_named(self, params_vi):
        f = self.drain(params_vi)
        f[3] = [0.0, 1.5, -0.5, 0.0]
        with pytest.raises(errors.InvalidPolicy, match=re.escape("f[3][1] = 1.5 must lie in [0, 1]")):
            Policy(params_vi, f)

    def test_wrong_shape_is_named(self, params_vi):
        with pytest.raises(errors.InvalidPolicy, match=re.escape("policy must be (8, 4), got (8, 3)")):
            Policy(params_vi, self.drain(params_vi)[:, :3])

    def test_row_that_does_not_sum_to_one_is_named(self, params_vi):
        f = self.drain(params_vi)
        f[3] = [0.0, 0.5, 0.4, 0.0]
        with pytest.raises(errors.InvalidPolicy, match="row 3 sums to 0.9, expected 1"):
            Policy(params_vi, f)

    @pytest.mark.parametrize("rows, message", [
        ([[1, 0, 0, 0]] * 7 + [[0, 0, 1]], "row 7 has 3 entries, expected 4"),
        ([[1, 0, 0, 0]] * 6 + [[0, 1, 0, 0, 0]] * 2, "row 6 has 5 entries, expected 4"),
        ([[1, 0, 0, 0]] * 7 + [1], "row 7 must be a sequence of 4 numbers, got 1"),
        ([["1", 0, 0, "x"]] * 8, "f[0][3] = 'x' must be a number"),
        ([[1, 0, [0], 0]] * 8, "f[0][2] = [0] must be a number"),
    ])
    def test_malformed_rows_are_named(self, params_vi, rows, message):
        # numpy's ValueError or TypeError, which names no entry, does not escape
        with pytest.raises(errors.InvalidPolicy) as info:
            Policy(params_vi, rows)
        assert str(info.value) == message

    def test_attributes_cannot_be_assigned(self, params_vi):
        pol = Policy(params_vi, self.drain(params_vi))
        with pytest.raises(AttributeError, match="Policy is immutable"):
            pol.f = None

    def test_action_map_of_a_randomized_policy(self, params_vi):
        pol = threshold_to_policy(params_vi, ThresholdPolicy((0, 2, 7, 7), 1, 0.5))
        with pytest.raises(errors.InvalidPolicy, match="deterministic policies only"):
            pol.action_map()

    @pytest.mark.parametrize("text, message", [
        ("0,0,0,x\n", "policy line 1 field 4 must be a number, got 'x'"),
        ("# header\n\n1,0,0,0\n0,1,,0\n", "policy line 4 field 3 must be a number, got ''"),
        ("1,0,0,0\n0,1,0\n", "policy line 2 has 3 fields, expected 4"),
        ("1,0,0,0\n0,1,0,0,0\n", "policy line 2 has 5 fields, expected 4"),
    ])
    def test_malformed_csv_is_named(self, params_vi, text, message):
        with pytest.raises(errors.ModelError) as info:
            Policy.from_csv(params_vi, text)
        assert str(info.value) == message


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

    @pytest.mark.parametrize("kwargs, message", [
        (dict(thresholds=()), "empty threshold vector"),
        (dict(thresholds=(0, 2, 7, 7), randomized_index=1),
         "randomized_index and weight must be given together"),
        (dict(thresholds=(0, 2, 7, 7), randomized_index=3, weight=0.5),
         "randomized_index 3 out of range"),
        (dict(thresholds=(0, 2, 7, 7), randomized_index=1, weight=1.5),
         re.escape("weight must be in [0, 1], got 1.5")),
    ])
    def test_malformed_vector_is_named(self, kwargs, message):
        with pytest.raises(errors.InfeasibleThresholds, match=message):
            ThresholdPolicy(**kwargs)

    def test_action_map_of_a_vector_of_the_wrong_length(self, params_vi):
        with pytest.raises(errors.InfeasibleThresholds,
                           match="threshold vector has 3 entries, expected 4"):
            threshold_action_map(params_vi, ThresholdPolicy((0, 2, 7)))

    def test_completion_is_canonical(self, params_vi):
        acts = threshold_action_map(params_vi, ThresholdPolicy((0, 1, 2, 2)))
        ts = _last_state_at_most(acts, params_vi.M)
        assert ts == (0, 1, 7, 7)
        # completion only touches states unreachable under the raw rule
        assert threshold_action_map(params_vi, ThresholdPolicy(ts)) == acts

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


# The reference instance, its Q=0 variant (no state has a choice of action
# past the covered range), an A=1 instance and an M=A instance.
BOOKKEEPING_INSTANCES = [
    validate_params(0.4, 2, 3, 5, [0, 1, 4, 9]),
    validate_params(0.4, 2, 3, 0, [0, 1, 4, 9]),
    validate_params(0.5, 1, 2, 4, [0, 1, 4]),
    validate_params(0.4, 2, 2, 3, [0, 1, 4]),
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


@pytest.mark.parametrize("params", BOOKKEEPING_INSTANCES, ids=["reference", "Q0", "A1", "MA"])
class TestFeasibilityBookkeeping:
    def test_action_map_and_completion_match_per_state_reference(self, params):
        n_feasible = 0
        for ts in all_threshold_vectors(params):
            tp = ThresholdPolicy(ts)
            want = reference_action_map(params, ts)
            if want is None:
                with pytest.raises(errors.InfeasibleThresholds):
                    threshold_action_map(params, tp)
                continue
            n_feasible += 1
            assert threshold_action_map(params, tp) == want
            canonical = tuple(
                max((k for k, a in enumerate(want) if a <= m), default=-1)
                for m in range(params.M + 1)
            )
            assert _last_state_at_most(threshold_action_map(params, tp), params.M) == canonical
            if canonical[0] != 0:
                # state 1 idles: no vector with thresholds[0] = 0 has this map
                with pytest.raises(errors.InfeasibleThresholds):
                    ThresholdPolicy(canonical)
        assert n_feasible > 0

    def test_neighbors_are_the_feasible_raised_vectors(self, params):
        # every feasible fully covering vector (the only ones the walk
        # carries), given as its map: the maps of its feasible raised
        # vectors, in order of the raised index
        n_checked = 0
        for ts in all_threshold_vectors(params):
            if ts[-1] != params.K or reference_action_map(params, ts) is None:
                continue
            n_checked += 1
            acts = np.array(threshold_action_map(params, ThresholdPolicy(ts)))
            got = neighbors_increase_threshold(params, acts)
            want = [threshold_action_map(params, nb)
                    for nb in raised_threshold_reference(params, ts)]
            assert got.shape == (len(want), params.K + 1) and got.dtype == acts.dtype
            assert got.tolist() == want
        assert n_checked > 0

    def test_lp_variables_in_lexicographic_feasible_order(self, params):
        want = tuple(
            (k, m) for k in range(params.K + 1) for m in feasible_actions(params, k)
        )
        lp = build_lp(params, 1.0)
        ks, ms = np.array(want).T
        assert lp.n_vars == len(want)
        assert np.array_equal(lp.c, ks / (params.alpha * params.A))
        assert np.array_equal(lp.a_power, params.power_array[ms])
        assert [tuple(e) for e in np.argwhere(feasibility_mask(params))] == list(want)


class TestParamFile:
    def test_parse(self):
        text = "alpha=0.4\nA=2\nM=3\nQ=5\npower=0,1,4,9\n"
        p = parse_param_text(text)
        assert p == validate_params(0.4, 2, 3, 5, [0, 1, 4, 9])

    def test_missing_key(self):
        with pytest.raises(errors.ModelError):
            parse_param_text("alpha=0.4\nA=2\n")

    def test_every_missing_field_is_named_once(self):
        with pytest.raises(errors.ModelError) as info:
            params_from_fields(dict(A="2", power="0,1,4,9"))
        assert str(info.value) == "missing parameters: ['alpha', 'M', 'Q']"

    def test_fields_are_validated_once(self, monkeypatch):
        calls = []

        def spy(**fields):
            calls.append(fields)
            return validate_params(**fields)

        monkeypatch.setattr(model, "validate_params", spy)
        p = params_from_fields(dict(alpha="0.4", A="2", M="3", Q="5", power="0,1,4,9"))
        assert p == validate_params(0.4, 2, 3, 5, [0, 1, 4, 9])
        assert calls == [dict(alpha=0.4, A=2, M=3, Q=5, power=[0.0, 1.0, 4.0, 9.0])]

    def test_fields_are_the_text_of_each_line(self):
        text = "# reference\n alpha = 0.4 \n\nA=2\npower=0,1,4,9\nA=3\n"
        assert param_fields(text) == dict(alpha="0.4", A="3", power="0,1,4,9")

    def test_line_without_equals_is_named(self):
        with pytest.raises(errors.ModelError, match="bad parameter line: 'Q 5'"):
            parse_param_text("alpha=0.4\nA=2\nM=3\nQ 5\npower=0,1,4,9\n")

    @pytest.mark.parametrize("key, value, message", [
        ("A", "2.5", "A must be an integer, got '2.5'"),
        ("Q", "five", "Q must be an integer, got 'five'"),
        ("alpha", "0.4.1", "alpha must be a number, got '0.4.1'"),
        ("power", "0,1,4,x", "power[3] must be a number, got 'x'"),
    ])
    def test_malformed_number_is_named(self, key, value, message):
        kv = dict(dict(alpha="0.4", A="2", M="3", Q="5", power="0,1,4,9"), **{key: value})
        text = "".join(f"{k}={v}\n" for k, v in kv.items())
        with pytest.raises(errors.ModelError) as info:
            parse_param_text(text)
        assert str(info.value) == message
