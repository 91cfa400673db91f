import numpy as np
import pytest

from dpsched import errors, mrp
from dpsched.model import Policy, ThresholdPolicy, threshold_to_policy, validate_params
from dpsched.verify import random_one_row_pair, random_policy

from conftest import random_params


def immediate_transmit(params_vi) -> Policy:
    return threshold_to_policy(params_vi, ThresholdPolicy((0, 1, 7, 7)))


class TestTransitionBuilders:
    def test_state_zero_transitions(self, params_vi, rng):
        pol = random_policy(params_vi, rng)
        lam = mrp.build_transition_enumerative(params_vi, pol).matrix
        # state 0 only stays (no arrival) or jumps by A (arrival)
        assert lam[0, 0] == pytest.approx(0.6)
        assert lam[2, 0] == pytest.approx(0.4)

    def test_two_state_chain(self, params_vi):
        lam = mrp.build_transition_enumerative(params_vi, immediate_transmit(params_vi)).matrix
        assert lam[0, 0] == pytest.approx(0.6)
        assert lam[2, 0] == pytest.approx(0.4)
        assert lam[0, 2] == pytest.approx(0.6)
        assert lam[2, 2] == pytest.approx(0.4)

    def test_columns_sum_to_one(self, params_vi, rng):
        for _ in range(20):
            pol = random_policy(params_vi, rng)
            cols = mrp.build_transition_enumerative(params_vi, pol).column_sums()
            assert np.max(np.abs(cols - 1.0)) <= 1e-15

    def test_piecewise_case_values(self, params_vi, rng):
        pol = random_policy(params_vi, rng)
        lam = mrp.build_transition_piecewise(params_vi, pol).matrix
        # jump of 2 from state 5 to 3 can only happen without an arrival
        assert lam[3, 5] == pytest.approx(0.6 * pol.f[5, 2])
        # self-loop at the empty state
        assert lam[0, 0] == pytest.approx(0.6 * pol.f[0, 0])

    def test_construction_equivalence(self, params_vi, rng):
        for _ in range(100):
            pol = random_policy(params_vi, rng)
            a = mrp.build_transition_enumerative(params_vi, pol).matrix
            b = mrp.build_transition_piecewise(params_vi, pol).matrix
            assert np.max(np.abs(a - b)) <= 1e-15

    def test_construction_equivalence_random_params(self, rng):
        for _ in range(5):
            params = random_params(rng)
            for _ in range(20):
                pol = random_policy(params, rng)
                a = mrp.build_transition_enumerative(params, pol).matrix
                b = mrp.build_transition_piecewise(params, pol).matrix
                assert np.max(np.abs(a - b)) <= 1e-15


class TestStationary:
    def test_two_state_chain(self, params_vi):
        T = mrp.build_transition_enumerative(params_vi, immediate_transmit(params_vi))
        pi = mrp.stationary_distribution(T).pi
        expected = np.zeros(8)
        expected[0], expected[2] = 0.6, 0.4
        assert np.max(np.abs(pi - expected)) < 1e-14

    def test_deterministic_cycle(self):
        params = validate_params(1.0, 1, 1, 0, [0, 1])
        # a packet arrives and is transmitted every slot
        pol = threshold_to_policy(params, ThresholdPolicy((0, 1)))
        pi = mrp.stationary_distribution(
            mrp.build_transition_enumerative(params, pol)
        ).pi
        assert pi[1] == pytest.approx(1.0, abs=1e-12)

    def test_stationarity_residual(self, params_vi, rng):
        for _ in range(20):
            pol = random_policy(params_vi, rng)
            T = mrp.build_transition_enumerative(params_vi, pol)
            pi = mrp.stationary_distribution(T).pi
            assert np.max(np.abs(T.matrix @ pi - pi)) <= 1e-10
            assert abs(pi.sum() - 1.0) <= 1e-12

    def test_eigenvector_oracle(self, params_vi, rng):
        # independent route: eigenvector of the transition matrix
        pol = random_policy(params_vi, rng)
        T = mrp.build_transition_enumerative(params_vi, pol)
        pi = mrp.stationary_distribution(T).pi
        w, v = np.linalg.eig(T.matrix)
        i = int(np.argmin(np.abs(w - 1.0)))
        ref = np.real(v[:, i])
        ref = ref / ref.sum()
        assert np.max(np.abs(pi - ref)) < 1e-9

    def test_singular_chain_detected(self):
        params = validate_params(0.5, 1, 1, 2, [0, 1])
        # disconnected deterministic chain: {0<->1} and {2<->3} both closed
        f = np.zeros((4, 2))
        f[0, 0] = 1.0
        f[1, 1] = 1.0
        f[2, 0] = 1.0  # stays in {2,3}: 2 -> 2 or 3
        f[3, 1] = 1.0  # 3 -> 2 or 3
        pol = Policy(params, f)
        T = mrp.build_transition_enumerative(params, pol)
        with pytest.raises(errors.SingularChain):
            mrp.stationary_distribution(T)


class TestRewards:
    def test_immediate_transmit_point(self, params_vi):
        pt = mrp.evaluate(params_vi, immediate_transmit(params_vi))
        assert pt.power == pytest.approx(1.6, abs=1e-12)
        assert pt.delay == pytest.approx(0.0, abs=1e-12)

    def test_point_mass_delay(self, params_vi):
        pi = mrp.StationaryDistribution(np.eye(8)[7])
        assert mrp.average_delay(params_vi, pi) == pytest.approx(7.75)

    def test_empty_state_costs_nothing(self, params_vi, rng):
        pol = random_policy(params_vi, rng)
        pi = mrp.StationaryDistribution(np.eye(8)[0])
        assert mrp.average_power(params_vi, pol, pi) == 0.0

    def test_power_linear_delay_invariant_in_table(self, params_vi, rng):
        doubled = validate_params(0.4, 2, 3, 5, [0, 2, 8, 18])
        pol = random_policy(params_vi, rng)
        pol2 = Policy(doubled, pol.f)
        a = mrp.evaluate(params_vi, pol)
        b = mrp.evaluate(doubled, pol2)
        assert b.power == pytest.approx(2 * a.power, rel=1e-12)
        assert b.delay == pytest.approx(a.delay, rel=1e-12)

    def test_lazy_policy_dominated_in_power(self, params_vi):
        lazy = threshold_to_policy(params_vi, ThresholdPolicy((0, 6, 7, 7)))
        pt = mrp.evaluate(params_vi, lazy)
        assert pt.power < 1.6
        assert pt.delay > 0

    def test_unreachable_rows_do_not_matter(self, params_vi):
        base = immediate_transmit(params_vi)
        f = base.f.copy()
        f[7, :] = 0.0
        f[7, 3] = 1.0  # state 7 unreachable under this policy
        alt = Policy(params_vi, f)
        a, b = mrp.evaluate(params_vi, base), mrp.evaluate(params_vi, alt)
        assert (a.power, a.delay) == (b.power, b.delay)


class TestMixing:
    def test_endpoints(self, params_vi, rng):
        F, F2, _ = random_one_row_pair(params_vi, rng)
        assert mrp.mix_policies(F, F2, 0.0) == F
        assert mrp.mix_policies(F, F2, 1.0) == F2
        mid = mrp.mix_policies(F, F2, 0.5)
        k = F.differing_rows(F2)[0]
        assert np.allclose(mid.f[k], 0.5 * (F.f[k] + F2.f[k]))

    def test_epsilon_prime_endpoints_and_monotone(self, params_vi, rng):
        for _ in range(50):
            F, F2, _ = random_one_row_pair(params_vi, rng)
            ana = mrp.mixing_analysis(params_vi, F, F2)
            assert ana.epsilon_prime(0.0) == 0.0
            assert ana.epsilon_prime(1.0) == pytest.approx(1.0, abs=1e-14)
            grid = np.linspace(0, 1, 1000)
            vals = [ana.epsilon_prime(float(e)) for e in grid]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_reward_interpolation(self, params_vi, rng):
        cache = mrp.EvalCache()
        for _ in range(50):
            F, F2, _ = random_one_row_pair(params_vi, rng)
            ana = mrp.mixing_analysis(params_vi, F, F2, cache)
            for eps in np.arange(0.1, 1.0, 0.1):
                got = mrp.evaluate(params_vi, mrp.mix_policies(F, F2, float(eps)), cache)
                want_p, want_d = ana.predicted_point(float(eps))
                assert abs(got.power - want_p) <= 1e-9
                assert abs(got.delay - want_d) <= 1e-9

    def test_collinearity(self, params_vi, rng):
        cache = mrp.EvalCache()
        for _ in range(20):
            F, F2, _ = random_one_row_pair(params_vi, rng)
            a = mrp.evaluate(params_vi, F, cache)
            b = mrp.evaluate(params_vi, F2, cache)
            ux, uy = b.power - a.power, b.delay - a.delay
            norm = (ux * ux + uy * uy) ** 0.5
            if norm < 1e-9:
                continue
            for eps in np.linspace(0, 1, 11):
                p = mrp.evaluate(params_vi, mrp.mix_policies(F, F2, float(eps)), cache)
                vx, vy = p.power - a.power, p.delay - a.delay
                assert abs(ux * vy - uy * vx) / norm <= 1e-9


class TestSegmentSlope:
    def test_closed_form_matches_finite_difference(self, params_vi, rng):
        count = 0
        while count < 50:
            F, F2, _ = random_one_row_pair(params_vi, rng)
            try:
                s = mrp.segment_slope(params_vi, F, F2)
            except errors.DegenerateSegment:
                continue
            err = abs(s.closed_form - s.finite_difference)
            assert err / max(1.0, abs(s.finite_difference)) <= 1e-9
            count += 1

    def test_symmetric(self, params_vi, rng):
        F, F2, _ = random_one_row_pair(params_vi, rng)
        a = mrp.segment_slope(params_vi, F, F2)
        b = mrp.segment_slope(params_vi, F2, F)
        assert a.closed_form == pytest.approx(b.closed_form, abs=1e-9)

    def test_identical_policies_degenerate(self, params_vi, rng):
        F = random_policy(params_vi, rng)
        with pytest.raises(errors.RowDiffCountMismatch):
            mrp.segment_slope(params_vi, F, F)
        # same rewards with a genuine one-row difference is also degenerate
        f2 = F.f.copy()
        F2 = Policy(params_vi, f2)
        assert F2 == F
