import numpy as np
import pytest

from dpsched import mrp
from dpsched.model import ThresholdPolicy, threshold_to_policy, validate_params
from dpsched.sim import simulate
from dpsched.verify import random_policy


class TestDeterminism:
    def test_same_seed_bit_identical(self, params_vi, rng):
        pol = random_policy(params_vi, rng)
        a = simulate(params_vi, pol, slots=50_000, seed=42)
        b = simulate(params_vi, pol, slots=50_000, seed=42)
        assert a == b

    def test_different_seed_differs(self, params_vi, rng):
        pol = random_policy(params_vi, rng)
        a = simulate(params_vi, pol, slots=50_000, seed=42)
        b = simulate(params_vi, pol, slots=50_000, seed=43)
        assert a.empirical_power != b.empirical_power


class TestExactCases:
    def test_deterministic_cycle(self):
        # alpha = 1, A = M = Q = 1: a packet arrives and is sent every slot
        params = validate_params(1.0, 1, 1, 1, [0, 1])
        pol = threshold_to_policy(params, ThresholdPolicy((0, 2)))
        res = simulate(params, pol, slots=10_000, seed=0)
        assert res.empirical_power == pytest.approx(1.0, abs=1e-12)
        assert res.empirical_delay == pytest.approx(0.0, abs=1e-12)
        assert res.state_occupancy[1] == pytest.approx(1.0, abs=1e-12)
        assert res.overflow_violations == res.underflow_violations == 0

    def test_immediate_transmit_zero_delay(self, params_vi):
        pol = threshold_to_policy(params_vi, ThresholdPolicy((0, 1, 7, 7)))
        res = simulate(params_vi, pol, slots=200_000, seed=5)
        assert res.empirical_delay == pytest.approx(0.0, abs=1e-12)
        assert res.empirical_power == pytest.approx(1.6, rel=0.02)


class TestAnalyticAgreement:
    def test_random_policies(self, params_vi, rng):
        for i in range(3):
            pol = random_policy(params_vi, rng)
            want = mrp.evaluate(params_vi, pol)
            pi = mrp.stationary_distribution(
                mrp.build_transition_enumerative(params_vi, pol)
            )
            got = simulate(params_vi, pol, slots=400_000, seed=100 + i)
            assert got.overflow_violations == got.underflow_violations == 0
            assert got.empirical_power == pytest.approx(want.power, rel=0.03)
            if want.delay >= 0.05:
                assert got.empirical_delay == pytest.approx(want.delay, rel=0.03)
            else:
                assert got.empirical_delay == pytest.approx(want.delay, abs=0.01)
            tv = 0.5 * float(np.sum(np.abs(np.array(got.state_occupancy) - pi)))
            assert tv <= 0.01


class TestTrace:
    def test_trace_rows_and_dynamics(self, params_vi, rng, tmp_path):
        pol = random_policy(params_vi, rng)
        path = tmp_path / "trace.csv"
        simulate(params_vi, pol, slots=500, seed=1, trace_path=path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,a,t,s,q"
        assert len(lines) == 501
        prev_q = 0
        for line in lines[1:]:
            n, a, t, s, q = (int(v) for v in line.split(","))
            assert q == prev_q
            assert t == q + params_vi.A * a
            assert 0 <= s <= min(t, params_vi.M)
            prev_q = min(max(t - s, 0), params_vi.Q)

    def test_trace_cap(self, params_vi, rng, tmp_path):
        pol = random_policy(params_vi, rng)
        path = tmp_path / "trace.csv"
        simulate(params_vi, pol, slots=150_000, seed=1, trace_path=path)
        assert len(path.read_text().splitlines()) == 100_001


class TestValidation:
    def test_slots_lower_bound(self, params_vi, rng):
        pol = random_policy(params_vi, rng)
        with pytest.raises(ValueError):
            simulate(params_vi, pol, slots=0, seed=0)

    def test_burn_in_rule(self, params_vi, rng):
        pol = random_policy(params_vi, rng)
        assert simulate(params_vi, pol, slots=50, seed=0).burn_in == 5
        assert simulate(params_vi, pol, slots=300_000, seed=0).burn_in == 10_000
