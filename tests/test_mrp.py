import tracemalloc
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.blas import dgbmv
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from dpsched import errors, mrp, pareto
from dpsched.model import (
    Policy,
    ThresholdPolicy,
    _action_matrix,
    feasible_actions,
    threshold_to_policy,
    validate_params,
)
from dpsched.pareto import algorithm1
from dpsched.policies import enumerate_deterministic, initial_actions, policy_from_actions
from dpsched.verify import random_one_row_pair, random_policy

from conftest import EDGE_FAMILIES, deterministic_policies, edge_params, random_params


def balance_matrix(lam):
    """The normalized balance system H: a ones row over (lam - I)[:K]."""
    n = lam.shape[0]
    return np.vstack([np.ones((1, n)), (lam - np.eye(n))[: n - 1, :]])


def dense_factor(lam):
    """Reference: dense LU with partial pivoting of H, singular below
    SINGULAR_TOL (the solve `mrp` used before the banded one)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lu_piv = lu_factor(balance_matrix(lam), check_finite=False)
    if np.min(np.abs(np.diag(lu_piv[0]))) < mrp.SINGULAR_TOL:
        raise errors.SingularChain("dense pivot below SINGULAR_TOL")
    return lu_piv


def dense_stationary(lam):
    n = lam.shape[0]
    e0 = np.zeros(n)
    e0[0] = 1.0
    pi = lu_solve(dense_factor(lam), e0, check_finite=False)
    lower, upper = mrp._bandwidths(lam)
    # the checks of `_clean_pi` on lam's band, one block of all n states
    band = np.asfortranarray(mrp._gather_band(lam, lower, upper))
    one_chain = SimpleNamespace(band=band, kl=lower + 1, ku=upper,
                                starts=np.array([0]), sizes=np.array([n]))
    pi, failed = mrp._clean_pi(one_chain, pi)
    if np.any(failed):
        raise errors.SingularChain("dense solve fails the checks of _clean_pi")
    return pi


def verdict(solve, lam):
    """pi, or None if the solve raises SingularChain."""
    try:
        return solve(lam)
    except errors.SingularChain:
        return None


def random_deterministic(params, rng):
    acts = [int(rng.choice(feasible_actions(params, k))) for k in range(params.K + 1)]
    return policy_from_actions(params, acts)


REFERENCE = dict(A=2, M=3, Q=5, power=[0, 1, 4, 9])
# alpha at both ends, A=1, M=A and Q=0, around the reference instance
EDGE_INSTANCES = {
    "alpha0.01": validate_params(alpha=0.01, **REFERENCE),
    "alpha0.37": validate_params(alpha=0.37, **REFERENCE),
    "alpha1": validate_params(alpha=1.0, **REFERENCE),
    "A1": validate_params(0.4, 1, 3, 5, [0, 1, 4, 9]),
    "M=A": validate_params(0.4, 2, 2, 5, [0, 1, 3]),
    "Q0": validate_params(0.4, 2, 3, 0, [0, 1, 4, 9]),
}


def closed_prefix(lam):
    """The smallest n such that no move leaves states 0..n-1 and every
    state >= n moves to a lower one, from the dense lam one state at a
    time: start past the last state without a move down, and grow the
    prefix to the highest state it reaches until it reaches no further."""
    nz = lam != 0
    top = [int(np.flatnonzero(nz[:, k]).max()) for k in range(len(lam))]
    size = 1 + max(k for k in range(len(lam)) if not nz[:k, k].any())
    while max(top[:size]) >= size:
        size = max(top[:size]) + 1
    return size


def stacked_lam(params, f):
    """The transition matrix of each policy matrix of a stack, (N, K+1, K+1)."""
    return np.array([mrp.build_transition_enumerative(params, g) for g in f])


def closed_prefixes(params, f):
    """`closed_prefix` of each chain of a stack of policy matrices, (N,)."""
    return np.array([closed_prefix(chain) for chain in stacked_lam(params, f)])


def support_ends(f):
    """The least and greatest action of each row's support, (N, K+1) each,
    one row at a time."""
    ends = [[(m.min(), m.max()) for m in map(np.flatnonzero, rows)] for rows in f]
    return tuple(np.moveaxis(np.array(ends), -1, 0))


def sparse_policy(params, rng):
    """A random policy whose rows each keep a random nonempty subset of
    their feasible actions, so that some supports have gaps and lo < hi."""
    f = random_policy(params, rng).f
    keep = rng.random(f.shape) < 0.5
    keep[np.arange(len(f)), f.argmax(axis=1)] = True
    f = np.where(keep, f, 0.0)
    return Policy(params, f / f.sum(axis=1, keepdims=True))


def chain_sum(v):
    """The sum of one chain's entries as the stacked path takes it: one
    segment of `np.add.reduceat`."""
    return np.add.reduceat(v, [0])[0]


def single_chain_solve(params, policy):
    """Reference: the one-policy-at-a-time path that the stacked one
    replaced: the chain cut to its closed prefix (`closed_prefix`), the
    bands of the prefix gathered from its dense lam, its own dgbtrf,
    dgbtrs and dgbmv calls, its refinement step (GTH on its closed class,
    `mrp._closed_class_pi`, where the correction exceeds REFINE_TOL), the
    checks of `_clean_pi` and the rewards, all on the prefix alone.
    Returns (power, delay, pi), pi zero past the prefix, or None for a
    singular chain."""
    full = mrp.build_transition_enumerative(params, policy)
    n = closed_prefix(full)
    lam = full[:n, :n]
    kl, ku = params.A + 1, params.M
    t = np.arange(params.A + params.M + 2)[:, None]
    k = np.arange(n)
    j = k - params.M - 1 + t  # h[t, k] = H[k - ku + t, k] = (lam - I)[j, k]
    inside = (j >= 0) & (j <= n - 1)
    g = lam.take(np.where(inside, j * n + k, 0)) * inside  # g[t, k] = lam[j, k]
    keep = inside & (j <= n - 2)
    h = g * keep - (keep & (j == k))
    ab = np.zeros((2 * kl + ku + 1, n), order="F")
    ab[kl:] = h
    ab[kl:-1, 1:] -= h[1:, :-1]
    ab[kl + ku, 0] = 1.0
    ab, piv, _ = dgbtrf(ab, kl, ku, overwrite_ab=1)
    if np.min(np.abs(ab[kl + ku])) < mrp.SINGULAR_TOL:
        return None

    def solve(b):
        z, _ = dgbtrs(ab, kl, ku, b, piv)
        x = z.copy()
        x[:-1] -= z[1:]
        return x

    def lam_times(x):
        # BLAS band storage of lam (kl = A, ku = M) is g[1:]; gbmv wants at
        # least kl+ku+1 rows, and a Q=0 chain has fewer
        y = dgbmv(max(n, len(g) - 1), n, params.A, params.M, 1.0,
                  np.asfortranarray(g[1:]), x)
        return y[:n]

    e0 = np.zeros(n)
    e0[0] = 1.0
    pi = solve(e0)
    r = e0.copy()
    r[0] -= chain_sum(pi)
    r[1:] -= lam_times(pi)[:-1] - pi[:-1]
    d = solve(r)
    pi = pi + d
    if np.abs(d).max() > mrp.REFINE_TOL:
        pi = mrp._closed_class_pi(lam)
        if pi is None:
            return None
    if np.any(pi < -mrp.SINGULAR_TOL):
        return None
    pi = np.clip(pi, 0.0, None)
    pi = pi / chain_sum(pi)
    if np.max(np.abs(lam_times(pi) - pi)) > mrp.STATIONARITY_TOL:
        return None
    d = chain_sum(np.arange(n) * pi) / (params.alpha * params.A) - 1.0
    if d < -mrp.STATIONARITY_TOL:
        return None
    power = chain_sum((policy.f @ params.power_array)[:n] * pi)
    return float(power), max(float(d), 0.0), np.append(pi, np.zeros(len(full) - n))


def stacked_stationary(params, band, sizes):
    """pi of each chain of a stack of full-size lam bands, laid side by side
    (A+M+1, N (K+1)), from one stacked solve, each on its first `sizes`
    states (its closed prefix, or all K+1), zero past them, (N, K+1); and
    the mask of the chains that the pivot test or `_clean_pi` calls
    singular."""
    n = params.K + 1
    cut = (np.arange(n) < sizes[:, None]).ravel()
    lu = mrp.lu_factor(band[:, cut], params.A, params.M, sizes)
    pis, failed = mrp._stationary(lu)
    pi = np.zeros((len(sizes), n))
    pi.reshape(-1)[cut.nonzero()[0][lu.columns]] = pis
    singular = np.ones(len(pi), dtype=bool)
    singular[lu.chains[~np.broadcast_to(failed, lu.chains.shape)]] = False
    return pi, singular


def stacked_points(params, policies):
    """(power, delay) of each policy from one `score_stack` call, or None for
    the singular ones."""
    _, kept, power, delay = mrp.score_stack(params, np.stack([p.f for p in policies]))
    out = [None] * len(policies)
    for c, pw, d in zip(kept.tolist(), power.tolist(), delay.tolist()):
        out[c] = (pw, d)
    return out


def assert_stack_matches_single_chains(params, policies):
    """Bit for bit: the stacked points and verdicts, of the policies and of
    the policies followed by themselves reversed (so that every chain has
    neighbours on both sides), against the reference path, one chain at a
    time; returns the number of singular chains among the policies."""
    want = [single_chain_solve(params, pol) for pol in policies]
    want = [None if w is None else w[:2] for w in want]
    assert stacked_points(params, policies) == want
    assert stacked_points(params, policies + policies[::-1]) == want + want[::-1]
    return want.count(None)


def smallest_pivot(params, policy):
    band = mrp._lam_band(params, policy.f)
    ab, _, _ = dgbtrf(mrp._balance_band(band, params.A, params.M, np.array([params.K + 1])),
                      params.A + 1, params.M)
    return np.min(np.abs(ab[params.A + 1 + params.M]))


def pick_by_pivot(params, test, n):
    """The first n deterministic policies whose smallest pivot passes test."""
    out = []
    for pol in deterministic_policies(params):
        if test(smallest_pivot(params, pol)):
            out.append(pol)
            if len(out) == n:
                return out
    raise AssertionError("too few policies")


def immediate_transmit(params_vi) -> Policy:
    return threshold_to_policy(params_vi, ThresholdPolicy((0, 1, 7, 7)))


class TestTransitionBuilders:
    def test_state_zero_transitions(self, params_vi, rng):
        pol = random_policy(params_vi, rng)
        lam = mrp.build_transition_enumerative(params_vi, pol)
        # state 0 only stays (no arrival) or jumps by A (arrival)
        assert lam[0, 0] == pytest.approx(0.6)
        assert lam[2, 0] == pytest.approx(0.4)

    def test_two_state_chain(self, params_vi):
        lam = mrp.build_transition_enumerative(params_vi, immediate_transmit(params_vi))
        assert lam[0, 0] == pytest.approx(0.6)
        assert lam[2, 0] == pytest.approx(0.4)
        assert lam[0, 2] == pytest.approx(0.6)
        assert lam[2, 2] == pytest.approx(0.4)

    def test_columns_sum_to_one(self, params_vi, rng):
        for _ in range(20):
            pol = random_policy(params_vi, rng)
            cols = mrp.build_transition_enumerative(params_vi, pol).sum(axis=0)
            assert np.max(np.abs(cols - 1.0)) <= 1e-15

    def test_piecewise_case_values(self, params_vi, rng):
        pol = random_policy(params_vi, rng)
        lam = mrp.build_transition_piecewise(params_vi, pol)
        # jump of 2 from state 5 to 3 can only happen without an arrival
        assert lam[3, 5] == pytest.approx(0.6 * pol.f[5, 2])
        # self-loop at the empty state
        assert lam[0, 0] == pytest.approx(0.6 * pol.f[0, 0])

    def test_construction_equivalence(self, params_vi, rng):
        for _ in range(100):
            pol = random_policy(params_vi, rng)
            a = mrp.build_transition_enumerative(params_vi, pol)
            b = mrp.build_transition_piecewise(params_vi, pol)
            assert np.max(np.abs(a - b)) <= 1e-15

    def test_construction_equivalence_random_params(self, rng):
        for _ in range(5):
            params = random_params(rng)
            for _ in range(20):
                pol = random_policy(params, rng)
                a = mrp.build_transition_enumerative(params, pol)
                b = mrp.build_transition_piecewise(params, pol)
                assert np.max(np.abs(a - b)) <= 1e-15

    def test_enumerative_matches_event_loop_exactly(self, params_vi, rng):
        # the scatters must add each entry's terms in the order of a loop
        # over (state, action) events, so results are bit-identical
        for params in [params_vi] + [random_params(rng) for _ in range(3)]:
            for _ in range(20):
                pol = random_policy(params, rng)
                ref = np.zeros((params.K + 1, params.K + 1))
                for i in range(params.K + 1):
                    for m in range(params.M + 1):
                        p = pol.f[i, m]
                        if p != 0.0:
                            ref[i - m, i] += (1 - params.alpha) * p
                            ref[i - m + params.A, i] += params.alpha * p
                lam = mrp.build_transition_enumerative(params, pol)
                assert np.array_equal(lam, ref)

    def test_returned_arrays_are_read_only(self, params_vi, rng):
        pol = random_policy(params_vi, rng)
        lam = mrp.build_transition_enumerative(params_vi, pol)
        for a in (lam, mrp.build_transition_piecewise(params_vi, pol),
                  mrp.stationary_distribution(lam)):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0


class TestStationary:
    def test_two_state_chain(self, params_vi):
        T = mrp.build_transition_enumerative(params_vi, immediate_transmit(params_vi))
        pi = mrp.stationary_distribution(T)
        expected = np.zeros(8)
        expected[0], expected[2] = 0.6, 0.4
        assert np.max(np.abs(pi - expected)) < 1e-14

    def test_deterministic_cycle(self):
        params = validate_params(1.0, 1, 1, 0, [0, 1])
        # a packet arrives and is transmitted every slot
        pol = threshold_to_policy(params, ThresholdPolicy((0, 1)))
        pi = mrp.stationary_distribution(
            mrp.build_transition_enumerative(params, pol)
        )
        assert pi[1] == pytest.approx(1.0, abs=1e-12)

    def test_stationarity_residual(self, params_vi, rng):
        for _ in range(20):
            pol = random_policy(params_vi, rng)
            T = mrp.build_transition_enumerative(params_vi, pol)
            pi = mrp.stationary_distribution(T)
            assert np.max(np.abs(T @ pi - pi)) <= 1e-10
            assert abs(pi.sum() - 1.0) <= 1e-12

    def test_eigenvector_oracle(self, params_vi, rng):
        # independent route: eigenvector of the transition matrix
        pol = random_policy(params_vi, rng)
        T = mrp.build_transition_enumerative(params_vi, pol)
        pi = mrp.stationary_distribution(T)
        w, v = np.linalg.eig(T)
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
        pi = np.eye(8)[7]
        assert mrp.average_delay(params_vi, pi) == pytest.approx(7.75)

    def test_empty_state_costs_nothing(self, params_vi, rng):
        pol = random_policy(params_vi, rng)
        pi = np.eye(8)[0]
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

    def test_shape_mismatch_and_epsilon_outside_unit_interval(self, params_vi, rng):
        F, F2, _ = random_one_row_pair(params_vi, rng)
        other = validate_params(0.4, 2, 3, 6, [0, 1, 4, 9])
        G = policy_from_actions(other, initial_actions(other))
        with pytest.raises(errors.RowDiffCountMismatch, match="different shapes"):
            mrp.mix_policies(F, G, 0.5)
        for eps in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match=r"epsilon must be in \[0, 1\]"):
                mrp.mix_policies(F, F2, eps)

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
        for _ in range(50):
            F, F2, _ = random_one_row_pair(params_vi, rng)
            ana = mrp.mixing_analysis(params_vi, F, F2)
            for eps in np.arange(0.1, 1.0, 0.1):
                got = mrp.evaluate(params_vi, mrp.mix_policies(F, F2, float(eps)))
                want_p, want_d = ana.predicted_point(float(eps))
                assert abs(got.power - want_p) <= 1e-9
                assert abs(got.delay - want_d) <= 1e-9

    def test_no_pair_without_a_two_action_state(self, rng):
        params = validate_params(0.5, 2, 2, 0, [0, 1, 3])
        with pytest.raises(errors.RowDiffCountMismatch, match="two feasible actions"):
            random_one_row_pair(params, rng)

    def test_collinearity(self, params_vi, rng):
        for _ in range(20):
            F, F2, _ = random_one_row_pair(params_vi, rng)
            a = mrp.evaluate(params_vi, F)
            b = mrp.evaluate(params_vi, F2)
            ux, uy = b.power - a.power, b.delay - a.delay
            norm = (ux * ux + uy * uy) ** 0.5
            if norm < 1e-9:
                continue
            for eps in np.linspace(0, 1, 11):
                p = mrp.evaluate(params_vi, mrp.mix_policies(F, F2, float(eps)))
                vx, vy = p.power - a.power, p.delay - a.delay
                assert abs(ux * vy - uy * vx) / norm <= 1e-9


class TestSegmentSlope:
    def test_closed_form_matches_finite_difference(self, params_vi, rng):
        count = 0
        while count < 50:
            F, F2, _ = random_one_row_pair(params_vi, rng)
            ana = mrp.mixing_analysis(params_vi, F, F2)
            try:
                slope, chord = ana.slope, ana.chord_slope
            except errors.DegenerateSegment:
                continue
            assert abs(slope - chord) / max(1.0, abs(chord)) <= 1e-9
            count += 1

    def test_symmetric(self, params_vi, rng):
        F, F2, _ = random_one_row_pair(params_vi, rng)
        a = mrp.mixing_analysis(params_vi, F, F2)
        b = mrp.mixing_analysis(params_vi, F2, F)
        assert a.slope == pytest.approx(b.slope, abs=1e-9)

    def test_identical_policies_degenerate(self, params_vi, rng):
        F = random_policy(params_vi, rng)
        with pytest.raises(errors.RowDiffCountMismatch):
            mrp.mixing_analysis(params_vi, F, F)
        # same rewards with a genuine one-row difference is also degenerate
        f2 = F.f.copy()
        F2 = Policy(params_vi, f2)
        assert F2 == F

    def test_unreachable_row_pair_has_no_slope(self, params_vi):
        F = immediate_transmit(params_vi)
        f2 = F.f.copy()
        f2[7, :] = 0.0
        f2[7, 3] = 1.0  # state 7 unreachable under F
        ana = mrp.mixing_analysis(params_vi, F, Policy(params_vi, f2))
        for slope in ("slope", "chord_slope"):
            with pytest.raises(errors.DegenerateSegment):
                getattr(ana, slope)


class TestBandedSolve:
    """The banded factorization against the dense LU of H it replaced."""

    @pytest.mark.parametrize("Q, singular", [(5, 539), (6, 2795)])
    def test_brute_force_verdicts_and_pi_match_dense(self, Q, singular):
        params = validate_params(alpha=0.4, **dict(REFERENCE, Q=Q))
        count = 0
        for pol in deterministic_policies(params):
            lam = mrp.build_transition_enumerative(params, pol)
            want = verdict(dense_stationary, lam)
            got = verdict(mrp.stationary_distribution, lam)
            assert (got is None) == (want is None)
            if want is None:
                count += 1
            else:
                assert np.max(np.abs(got - want)) <= 1e-14
        assert count == singular

    @pytest.mark.parametrize("name", EDGE_INSTANCES)
    def test_random_policy_verdicts_and_pi_match_dense(self, name, rng):
        params = EDGE_INSTANCES[name]
        pols = [random_policy(params, rng) for _ in range(100)]
        # near alpha=0.01 a deterministic chain can be so close to
        # decomposable that neither LU can tell it from a singular one
        if params.alpha > 0.01:
            pols += [random_deterministic(params, rng) for _ in range(300)]
        for pol in pols:
            lam = mrp.build_transition_enumerative(params, pol)
            want = verdict(dense_stationary, lam)
            got = verdict(mrp.stationary_distribution, lam)
            assert (got is None) == (want is None)
            if want is not None:
                assert np.max(np.abs(got - want)) <= 1e-12

    def test_band_storage_holds_h_times_d(self, rng):
        for params in list(EDGE_INSTANCES.values()) + [random_params(rng) for _ in range(3)]:
            pol = random_policy(params, rng)
            lam = mrp.build_transition_enumerative(params, pol)
            n = params.K + 1
            D = np.eye(n) - np.eye(n, k=1)  # pi = D z, z the tail sums
            want = balance_matrix(lam) @ D
            ab = mrp._balance_band(mrp._lam_band(params, pol.f), params.A, params.M, np.array([n]))
            kl, ku = params.A + 1, params.M
            assert ab.shape == (2 * kl + ku + 1, n)
            assert not ab[:kl].any()  # fill-in space of gbtrf
            got = np.zeros((n, n))
            for r in range(n):
                for k in range(max(0, r - kl), min(n, r + ku + 1)):
                    got[r, k] = ab[kl + ku + r - k, k]
            assert np.array_equal(got, want)

    def test_band_from_policy_is_lams_band(self, rng):
        # bit for bit, for the rows of a stack, one policy and one row of a
        # policy
        for params in list(EDGE_INSTANCES.values()) + [random_params(rng) for _ in range(3)]:
            n = params.K + 1
            f = np.stack([random_policy(params, rng).f for _ in range(5)])
            band = mrp._lam_band(params, f.reshape(-1, params.M + 1))
            assert band.shape == (params.A + params.M + 1, 5 * n)
            for c, lam in enumerate(stacked_lam(params, f)):
                assert np.array_equal(band[:, c * n:(c + 1) * n],
                                      mrp._gather_band(lam, params.A, params.M))
            assert np.array_equal(mrp._lam_band(params, f[2]), band[:, 2 * n:3 * n])
            assert np.array_equal(mrp._lam_band(params, f[2, -1:]), band[:, 3 * n - 1:3 * n])

    @pytest.mark.parametrize("chains", [0, 1, 3])
    def test_band_matvec_matches_dense(self, chains, rng):
        # Q=0 has fewer columns per chain (K+1 = A+1) than the band has rows
        for params in EDGE_INSTANCES.values():
            f = np.array([random_policy(params, rng).f for _ in range(chains)])
            f = f.reshape(chains, params.K + 1, params.M + 1)
            x = rng.standard_normal((chains, params.K + 1))
            band = mrp._lam_band(params, f.reshape(-1, params.M + 1))
            flat = mrp._lam_matvec(band, params.A, params.M, x.ravel())
            assert flat.shape == (x.size,)
            got = flat.reshape(x.shape)
            want = np.array([lam @ xc for lam, xc in zip(stacked_lam(params, f), x)])
            want = want.reshape(x.shape)
            assert got.shape == x.shape
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-14 * np.max(np.abs(x), initial=0.0)

    def test_scoring_allocates_no_dense_matrix(self):
        # ladder K=2003: one dense lam would take 2004**2 * 8 B = 32 MB
        params = validate_params(0.5, 3, 5, 2000, [0, 1, 4, 9, 16, 25])
        f = policy_from_actions(params, initial_actions(params)).f[None]
        _, kept, _, _ = mrp.score_stack(params, f)
        assert kept.tolist() == [0]
        tracemalloc.start()
        try:
            mrp.score_stack(params, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_mixing_solve_matches_dense(self, rng):
        instances = [p for name, p in EDGE_INSTANCES.items() if name != "Q0"]  # Q=0: no pair
        for params in instances + [random_params(rng) for _ in range(3)]:
            for _ in range(10):
                F, F2, _ = random_one_row_pair(params, rng)
                ana = mrp.mixing_analysis(params, F, F2)
                lam = mrp.build_transition_enumerative(params, F)
                lam2 = mrp.build_transition_enumerative(params, F2)
                assert np.array_equal(ana.delta_k[1:], (lam2 - lam)[:-1, ana.k])
                want = lu_solve(dense_factor(lam), ana.delta_k, check_finite=False)
                assert np.max(np.abs(ana.v - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_walk_vertex_against_40_digit_solve(self):
        mpmath = pytest.importorskip("mpmath")
        params = validate_params(0.5, 3, 5, 40, [0, 1, 4, 9, 16, 25])  # ladder K=43
        vertex = algorithm1(params).vertices[-1]
        lam = mrp.build_transition_enumerative(params, vertex.policy)
        n = params.K + 1
        with mpmath.workdps(40):
            H = mpmath.matrix(balance_matrix(lam).tolist())
            e0 = mpmath.matrix([1] + [0] * (n - 1))
            pi = mpmath.lu_solve(H, e0)
            r = mrp.power_reward_vector(params, vertex.policy)
            power = mpmath.fsum(mpmath.mpf(r[k]) * pi[k] for k in range(n))
            delay = mpmath.fsum(k * pi[k] for k in range(n)) / (params.alpha * params.A) - 1

            def error(p):
                return max(
                    float(abs(mrp.average_power(params, vertex.policy, p) - power) / power),
                    float(abs(mrp.average_delay(params, p) - delay) / delay),
                )

            banded = error(mrp.stationary_distribution(lam))
            dense = error(dense_stationary(lam))
        assert banded <= dense


# The instances of the stacked-path check: the brute-force instances and
# edge instances around them, with their singular counts.
STACK_INSTANCES = {
    "reference": (validate_params(alpha=0.4, **REFERENCE), 539),
    "Q6": (validate_params(alpha=0.4, **dict(REFERENCE, Q=6)), 2795),
    # 539, the exact count, since a chain whose refinement correction
    # exceeds REFINE_TOL is solved by GTH on its closed class: the LU's
    # pivot test passed one chain with two closed classes
    "alpha0.01": (validate_params(alpha=0.01, **REFERENCE), 539),
    # 539 since each chain is solved on its closed prefix, the exact count;
    # the full-size solve called two chains singular that have one closed
    # class: action maps (0,1,1,2,1,1,1,2) and (0,1,1,3,1,1,1,2)
    "alpha0.99": (validate_params(alpha=0.99, **REFERENCE), 539),
    "alpha1": (validate_params(alpha=1.0, **REFERENCE), 1986),
    "A1M3Q6": (validate_params(0.4, 1, 3, 6, [0, 1, 4, 9]), 1574),
    "Q0": (validate_params(0.4, 2, 3, 0, [0, 1, 4, 9]), 0),
    "M=A=3": (validate_params(0.4, 3, 3, 6, [0, 1, 4, 9]), 3090),
}


class TestStackedSolve:
    """A stack of chains, factored as one block-diagonal band, against the
    same chains scored one at a time."""

    @pytest.mark.parametrize("name", STACK_INSTANCES)
    def test_every_deterministic_policy(self, name):
        params, singular = STACK_INSTANCES[name]
        count = 0
        for block in enumerate_deterministic(params):
            pols = [policy_from_actions(params, acts) for acts in block]
            count += assert_stack_matches_single_chains(params, pols)
            # one chain alone (the path of `evaluate`) on a sample
            got = stacked_points(params, pols)
            for i in range(0, len(pols), 17):
                assert stacked_points(params, [pols[i]]) == [got[i]]
        assert count == singular

    @pytest.mark.parametrize("name", ["Q0", "reference", "alpha1"])
    def test_one_chain_stack(self, name):
        # at Q=0 one chain has K+1 = A+1 columns, fewer than the A+M+1 rows
        # of its band
        params = STACK_INSTANCES[name][0]
        for pol in deterministic_policies(params)[:60]:
            want = single_chain_solve(params, pol)
            assert stacked_points(params, [pol]) == [None if want is None else want[:2]]

    def test_zero_pivot_chains_between_nonsingular_ones(self):
        params = STACK_INSTANCES["alpha1"][0]
        z1, z2 = pick_by_pivot(params, lambda p: p == 0.0, 2)
        a, b, c = pick_by_pivot(params, lambda p: p > 0.01, 3)
        for stack in ([a, z1, b, z2, c], [z1, a, b], [a, b, z1], [a, z1, z2, b]):
            assert assert_stack_matches_single_chains(params, stack) == (
                sum(p is z1 or p is z2 for p in stack))

    def test_rounding_level_pivot_chains_between_nonsingular_ones(self):
        params = STACK_INSTANCES["reference"][0]
        t1, t2 = pick_by_pivot(params, lambda p: 0.0 < p < 1e-14, 2)
        a, b, c = pick_by_pivot(params, lambda p: p > 0.01, 3)
        for stack in ([a, t1, b, t2, c], [t1, a, b], [a, t1, t2, b, c]):
            assert assert_stack_matches_single_chains(params, stack) == (
                sum(p is t1 or p is t2 for p in stack))

    def test_block_without_a_nonsingular_chain(self):
        for name, test in (("alpha1", lambda p: p == 0.0),
                           ("reference", lambda p: 0.0 < p < 1e-14)):
            params = STACK_INSTANCES[name][0]
            pols = pick_by_pivot(params, test, 3)
            lu = mrp.lu_factor(mrp._lam_band(params, np.concatenate([p.f for p in pols])),
                               params.A, params.M, np.full(len(pols), params.K + 1))
            assert lu.chains.size == 0
            assert mrp.lu_solve(lu, np.zeros((0, params.K + 1))).shape == (0, params.K + 1)
            pis, failed = mrp._stationary(lu)
            assert pis.shape == (0,) and failed.shape == (0,)
            assert stacked_points(params, pols) == [None] * 3
            with pytest.raises(errors.SingularChain, match="pivot below"):
                mrp.evaluate(params, pols[0])


def random_maps(params, rng, n):
    """n random feasible action maps, (n, K+1)."""
    k = np.arange(params.K + 1)
    return rng.integers(np.maximum(k - params.Q, 0), np.minimum(k, params.M) + 1,
                        size=(n, params.K + 1))


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_maps_score_as_matrices(params, acts):
    """`score_maps` against `score_stack` of the maps' one-hot policy
    matrices, bit for bit: the chains kept, their powers and delays, and the
    factors; and the maps in reverse order give each chain the same bits.
    Returns the factors and the chains kept."""
    lu, *got = mrp.score_maps(params, acts)
    want_lu, *want = mrp.score_stack(params, _action_matrix(params, acts))
    fields = ("band", "ab", "piv", "chains", "starts", "last", "sizes")
    # the prefix columns each kept, as indices into the stack's cut band
    columns = np.arange(mrp._prefix_sizes(params, acts, acts).sum())
    for a, b in zip(got + [getattr(lu, f) for f in fields] + [columns[lu.columns]],
                    want + [getattr(want_lu, f) for f in fields] + [columns[want_lu.columns]]):
        assert_same_bits(a, b)
    _, kept, power, delay = mrp.score_maps(params, acts[::-1])
    order = np.argsort(len(acts) - 1 - kept)
    for a, b in zip(got, [len(acts) - 1 - kept[order], power[order], delay[order]]):
        assert_same_bits(a, b)
    return lu, got[0]


def t_fastest(band):
    return np.moveaxis(band, 0, -1).flags.c_contiguous


class TestMapBand:
    """Action maps scored straight from their band (`mrp._map_band`,
    `mrp.score_maps`) against their one-hot policy matrices."""

    def test_map_band_is_the_one_hot_band(self, rng):
        for params in list(EDGE_INSTANCES.values()) + [random_params(rng) for _ in range(5)]:
            acts = random_maps(params, rng, 7)
            for stack in (acts.ravel(), acts[0]):
                band = mrp._map_band(params, stack)
                assert_same_bits(band, mrp._lam_band(params, _action_matrix(params, stack)))
                assert band.shape == (params.A + params.M + 1, stack.size)

    def test_bands_are_blas_band_storage(self, rng):
        # t varies fastest in both builders' bands, so the band of a stack
        # is the BLAS band storage of its block-diagonal lam
        for params in EDGE_INSTANCES.values():
            acts = random_maps(params, rng, 5)
            assert t_fastest(mrp._map_band(params, acts.ravel()))
            assert t_fastest(mrp._lam_band(params, _action_matrix(params, acts.ravel())))
            assert t_fastest(mrp._lam_band(params, _action_matrix(params, acts[0])))

    def test_lu_factor_keeps_the_band_unless_it_drops_a_chain(self):
        params = STACK_INSTANCES["reference"][0]
        n = params.K + 1
        acts = next(enumerate_deterministic(params))
        for build in (lambda a: mrp._map_band(params, a.ravel()),
                      lambda a: mrp._lam_band(params, _action_matrix(params, a.ravel()))):
            band = build(acts)
            lu = mrp.lu_factor(band, params.A, params.M, np.full(len(acts), n))
            assert 0 < lu.chains.size < len(acts)
            assert not np.shares_memory(lu.band, band) and t_fastest(lu.band)
            chains = band.reshape(len(band), len(acts), n)[:, lu.chains]
            assert_same_bits(lu.band, chains.reshape(len(band), -1))
            band = build(acts[lu.chains])
            lu = mrp.lu_factor(band, params.A, params.M, np.full(lu.chains.size, n))
            assert lu.chains.size == band.shape[1] // n
            assert np.shares_memory(lu.band, band)
        # a band gathered out of lam is copied into band storage
        lam = mrp.build_transition_enumerative(params, _action_matrix(params, acts[0]))
        band = mrp._gather_band(lam, params.A, params.M)
        lu = mrp.lu_factor(band, params.A, params.M, np.array([n]))
        assert t_fastest(lu.band)
        assert_same_bits(lu.band, band)

    @pytest.mark.parametrize("name", STACK_INSTANCES)
    def test_every_brute_block_scores_as_its_matrices(self, name):
        params, singular = STACK_INSTANCES[name]
        count = 0
        for acts in enumerate_deterministic(params):
            count += len(acts) - assert_maps_score_as_matrices(params, acts)[1].size
        assert count == singular

    def test_block_without_a_nonsingular_chain(self):
        for name, test in (("alpha1", lambda p: p == 0.0),
                           ("reference", lambda p: 0.0 < p < 1e-14)):
            params = STACK_INSTANCES[name][0]
            acts = np.array([p.action_map() for p in pick_by_pivot(params, test, 3)])
            lu, kept = assert_maps_score_as_matrices(params, acts)
            assert lu.chains.size == 0 and kept.size == 0


class TestMapRuns:
    """`mrp.score_map_runs`, which factors the first map of each run of maps
    with one closed-prefix chain, against `score_maps` on the whole stack."""

    def test_runs_score_as_the_whole_stack(self, rng):
        for params in [p for p, _ in STACK_INSTANCES.values()] + [random_params(rng) for _ in range(3)]:
            acts = random_maps(params, rng, 300)
            acts = acts[np.lexsort(acts.T[::-1])]  # the first state slowest, as enumerated
            for stack in (acts, acts[::-1], acts[:1]):
                _, *want = mrp.score_maps(params, stack)
                for got, w in zip(mrp.score_map_runs(params, stack), want):
                    assert_same_bits(got, w)

    def test_a_run_is_factored_once(self, monkeypatch):
        params = STACK_INSTANCES["reference"][0]
        acts = np.repeat(initial_actions(params)[None], 5, axis=0)
        acts[1:, -1] = acts[2:, -2] = 3  # past the closed prefix, states 0..2
        factored = []
        lu_factor = mrp.lu_factor

        def spy(band, lower, upper, sizes):
            factored.append(len(sizes))
            return lu_factor(band, lower, upper, sizes)

        monkeypatch.setattr(mrp, "lu_factor", spy)
        kept, power, delay = mrp.score_map_runs(params, acts)
        assert factored == [1] and kept.tolist() == list(range(5))
        assert (power == power[0]).all() and (delay == delay[0]).all()


@given(
    family=st.sampled_from(EDGE_FAMILIES),
    alpha=st.floats(0.05, 0.95),
    eps=st.floats(1e-4, 0.02),
    A=st.integers(1, 3),
    extra_m=st.integers(0, 2),
    Q=st.integers(0, 6),
    n=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_map_band_and_score_edge_instances(family, alpha, eps, A, extra_m, Q, n, seed):
    """alpha near 0 and 1 (alpha = 1 included), Q = 0, M = A and A = 1: the
    band and score of random action maps are, bit for bit, those of their
    one-hot policy matrices."""
    params = edge_params(family, alpha, eps, A, extra_m, Q)
    acts = random_maps(params, np.random.default_rng(seed), n)
    assert_same_bits(mrp._map_band(params, acts.ravel()),
                     mrp._lam_band(params, _action_matrix(params, acts.ravel())))
    assert_maps_score_as_matrices(params, acts)


@given(
    family=st.sampled_from(EDGE_FAMILIES),
    alpha=st.floats(0.05, 0.95),
    eps=st.floats(1e-4, 0.02),
    A=st.integers(1, 3),
    extra_m=st.integers(0, 2),
    Q=st.integers(0, 6),
    n=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
@example(family="alpha->1", alpha=0.5, eps=1e-4, A=2, extra_m=1, Q=4, n=8, seed=0)
@settings(max_examples=60, deadline=None)
def test_prefix_sizes_edge_instances(family, alpha, eps, A, extra_m, Q, n, seed):
    """alpha near 0 and 1 (alpha = 1 included), Q = 0, M = A and A = 1: the
    closed prefixes by the support rule, of random action maps and of random
    policies with sparsified supports (lo < hi in some rows), are those of
    `closed_prefix`, and `score_stack` factors each kept chain on its own."""
    params = edge_params(family, alpha, eps, A, extra_m, Q)
    rng = np.random.default_rng(seed)
    acts = random_maps(params, rng, n)
    assert_same_bits(mrp._prefix_sizes(params, acts, acts),
                     closed_prefixes(params, _action_matrix(params, acts)))
    f = np.stack([sparse_policy(params, rng).f for _ in range(n)])
    want = closed_prefixes(params, f)
    assert_same_bits(mrp._prefix_sizes(params, *support_ends(f)), want)
    lu = mrp.score_stack(params, f)[0]
    assert_same_bits(lu.sizes, want[lu.chains])


@given(
    family=st.sampled_from(EDGE_FAMILIES),
    alpha=st.floats(0.05, 0.95),
    eps=st.floats(1e-4, 0.02),
    A=st.integers(1, 3),
    extra_m=st.integers(0, 2),
    Q=st.integers(0, 6),
    n_random=st.integers(0, 6),
    n_deterministic=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
@example(family="alpha->0", alpha=0.5, eps=1e-4, A=2, extra_m=0, Q=4,
         n_random=0, n_deterministic=1, seed=0)
@example(family="alpha->0", alpha=0.5, eps=1e-4, A=2, extra_m=0, Q=4,
         n_random=1, n_deterministic=2, seed=2)
# every chain has one closed class and a stacked pi within 5.6e-16 of the
# exact one; the dense LU's pi of chain 1 is 1.25e-12 off
@example(family="alpha->0", alpha=0.5, eps=1e-4, A=3, extra_m=0, Q=5,
         n_random=4, n_deterministic=1, seed=1)
# chain 0 (closed class {1,4}, the dropped row's state 6 transient): the
# LU's pi is 1.3e-14 off the exact one, and its refinement correction,
# 1.07e-12, would take it 1.06e-12 off; it exceeds REFINE_TOL, so GTH
# solves the chain
@example(family="alpha->1", alpha=0.5, eps=0.005859375, A=3, extra_m=0, Q=3,
         n_random=1, n_deterministic=1, seed=76169)
@settings(max_examples=60, deadline=None)
def test_stacked_chain_solve_edge_instances(
    family, alpha, eps, A, extra_m, Q, n_random, n_deterministic, seed
):
    """alpha near 0 and 1 (alpha = 1 included), Q = 0, M = A and A = 1: a
    shuffled stack of randomized and deterministic policies gives, bit for
    bit, the points, verdicts and pi of each chain solved alone, and pi
    within 1e-12 of the exact one wherever the chain has one closed class."""
    check_stacked_chain_solve(family, alpha, eps, A, extra_m, Q, n_random, n_deterministic, seed)


def test_stacked_chain_solve_two_closed_classes_reported_singular():
    # chain 2 has two closed classes, {1,4} and {0,2,3,5,6}, and passes the
    # banded LU's pivot test; its refinement correction exceeds REFINE_TOL,
    # and GTH's closed-class count calls it singular
    draw = ("alpha->0", 0.5, 0.017282721226793602, 3, 1, 3, 4, 1, 10001)
    check_stacked_chain_solve(*draw)
    assert_two_closed_classes_singular(*stacked_draw(*draw))


def test_stacked_chain_solve_two_closed_classes_at_small_alpha():
    # chain 1, action map [0,0,1,3,2,3,3,3,3], has two closed classes, {0,3}
    # and {1,2,4,5}, and passes the banded LU's pivot test; its refinement
    # correction exceeds REFINE_TOL, and GTH's closed-class count calls it
    # singular
    draw = ("alpha->0", 0.07251608247655741, 0.003419022073490339, 3, 0, 5, 0, 2, 4161366086)
    check_stacked_chain_solve(*draw)
    assert_two_closed_classes_singular(*stacked_draw(*draw))


def test_stacked_chain_solve_refinement_off_exact_pi():
    # chain 3's dropped balance row is transient, and its refinement
    # correction, 7.6e-12, is rounding noise of a working-precision
    # residual; it exceeds REFINE_TOL, so GTH solves the chain
    check_stacked_chain_solve("alpha->1", 0.5, 0.002484920129379763, 3, 0, 2, 6, 3, 113)


def stacked_draw(family, alpha, eps, A, extra_m, Q, n_random, n_deterministic, seed):
    """The instance and the shuffled policies of one draw of
    `test_stacked_chain_solve_edge_instances`."""
    params = edge_params(family, alpha, eps, A, extra_m, Q)
    rng = np.random.default_rng(seed)
    pols = [random_policy(params, rng) for _ in range(n_random)]
    pols += [random_deterministic(params, rng) for _ in range(n_deterministic)]
    return params, [pols[i] for i in rng.permutation(len(pols))]


def stacked_solve(params, pols):
    """lam, pi and the singular mask of each policy's chain, from one
    stacked solve on the closed prefixes."""
    f = np.stack([p.f for p in pols])
    lam = stacked_lam(params, f)
    band = mrp._lam_band(params, np.concatenate(f))
    return (lam,) + stacked_stationary(params, band, closed_prefixes(params, f))


def check_stacked_chain_solve(*draw):
    """The checks of `test_stacked_chain_solve_edge_instances` on one draw."""
    params, pols = stacked_draw(*draw)
    if not pols:
        return
    assert_stack_matches_single_chains(params, pols)
    lam, pis, singular = stacked_solve(params, pols)
    for c, (pi, fail) in enumerate(zip(pis, singular)):
        want = single_chain_solve(params, pols[c])
        if fail:
            assert want is None
            continue
        assert np.array_equal(pi, want[2])
        if closed_class_count(lam[c]) == 1:
            exact = np.array(exact_stationary(lam[c]), dtype=float)
            assert np.max(np.abs(pi - exact)) <= 1e-12


def test_exact_stationary_holds_no_mass_on_transient_states():
    # alpha = 0.0031: chain 5's columns sum to 1 only to rounding, and its
    # balance system taken as it is puts 4.0e-12 on state 0, which the
    # chain leaves for good; the exact pi, mrp's and GTH's are zero there
    draw = ("alpha->0", 0.4148277487079912, 0.003139653908565925, 3, 1, 5, 4, 5, 3568868006)
    check_stacked_chain_solve(*draw)
    params, pols = stacked_draw(*draw)
    lam = stacked_lam(params, np.stack([p.f for p in pols]))[5]
    assert np.flatnonzero(np.array(exact_stationary(lam))).tolist() == [4, 7]
    assert np.flatnonzero(mrp._closed_class_pi(lam)).tolist() == [4, 7]


def assert_two_closed_classes_singular(params, pols):
    """Every chain of the stack with more than one closed class is called
    singular by the stacked solve."""
    lam, _, singular = stacked_solve(params, pols)
    for c, chain in enumerate(lam):
        if closed_class_count(chain) > 1:
            assert singular[c], f"chain {c} has {closed_class_count(chain)} closed classes"


def test_refinement_of_a_nearly_decomposable_chain():
    """At alpha=1e-4, A=M=2, Q=4 the chain of action map [0,1,1,1,0,1,2]
    keeps its mass in states 4 and 6 (pi_4 = 1-alpha, pi_6 = alpha), and
    states 0-3 leave only through 0 -> 2 -> 3 -> 4, each step of
    probability alpha: cond(H) is about 8e12.  One refinement step leaves
    pi 8.8e-9 off; its correction exceeds REFINE_TOL, so GTH on the closed
    class {4, 6} solves it to rounding level, stacked or alone."""
    params = edge_params("alpha->0", 0.5, 1e-4, 2, 0, 4)
    pol = policy_from_actions(params, [0, 1, 1, 1, 0, 1, 2])
    want = np.zeros(params.K + 1)
    want[4], want[6] = 1.0 - params.alpha, params.alpha
    lam = mrp.build_transition_enumerative(params, pol)
    pi = mrp.stationary_distribution(lam)
    assert np.max(np.abs(pi - want)) <= 1e-15
    assert np.array_equal(pi, single_chain_solve(params, pol)[2])
    other = policy_from_actions(params, initial_actions(params))
    assert_stack_matches_single_chains(params, [other, pol, other])


def exact_stationary(lam):
    """The stationary distribution of lam, a chain with one closed class,
    in exact fractions: Gaussian elimination of its normalized balance
    system H (a ones row over the first K rows of lam - I).  The moves are
    lam's off-diagonal entries, and each state stays with the exact rest
    of its column: lam's columns sum to 1 only to rounding, and a chain
    with transient states can amplify that defect (see
    `test_exact_stationary_holds_no_mass_on_transient_states`)."""
    n = len(lam)
    p = [[Fraction(float(lam[r, c])) for c in range(n)] for r in range(n)]
    for c in range(n):
        p[c][c] = 1 - sum(p[r][c] for r in range(n) if r != c)
    rows = [[Fraction(1)] * n + [Fraction(1)]]
    rows += [[p[r][c] - (r == c) for c in range(n)] + [Fraction(0)] for r in range(n - 1)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return [row[n] / row[r] for r, row in enumerate(rows)]


def closed_class_count(lam):
    """The number of closed classes of lam's nonzero graph (exact): its
    strongly connected components with no edge out."""
    graph = csr_matrix(lam.T != 0)  # an edge i -> j where lam[j, i] != 0
    count, label = connected_components(graph, directed=True, connection="strong")
    i, j = graph.nonzero()
    closed = np.ones(count, dtype=bool)
    closed[label[i][label[i] != label[j]]] = False
    return int(closed.sum())


# Every deterministic policy of these instances is solved on its closed
# prefix and at full size, against the exact closed-class count.
PREFIX_INSTANCES = {
    "alpha0.4": validate_params(alpha=0.4, **REFERENCE),
    "alpha0.01": validate_params(alpha=0.01, **REFERENCE),
    "alpha0.9": validate_params(alpha=0.9, **REFERENCE),
    "alpha0.999": validate_params(alpha=0.999, **REFERENCE),
    "alpha1": validate_params(alpha=1.0, **REFERENCE),
    "A1": validate_params(0.4, 1, 3, 5, [0, 1, 4, 9]),
    "M=A": validate_params(0.4, 2, 2, 5, [0, 1, 3]),
    "Q6": validate_params(alpha=0.4, **dict(REFERENCE, Q=6)),
    "Q6alpha0.999": validate_params(alpha=0.999, **dict(REFERENCE, Q=6)),
}


class TestClosedPrefix:
    """Each chain's closed prefix by the support rule (`mrp._prefix_sizes`)
    against `closed_prefix`, and each chain solved on it against the same
    chain solved on all its states and the exact closed-class count."""

    @pytest.mark.parametrize("name", PREFIX_INSTANCES)
    def test_prefix_solve_is_exact(self, name):
        params = PREFIX_INSTANCES[name]
        n = params.K + 1
        wrong = {"prefix": 0, "full": 0}
        for acts in enumerate_deterministic(params):
            lam = stacked_lam(params, _action_matrix(params, acts))
            band = mrp._map_band(params, acts.ravel())
            sizes = np.array([closed_prefix(chain) for chain in lam])
            assert_same_bits(mrp._prefix_sizes(params, acts, acts), sizes)
            # a chain whose state K has no move down is solved in full
            assert (sizes[~lam[:, :-1, -1].any(axis=1)] == n).all()
            singular = np.array([closed_class_count(chain) > 1 for chain in lam])
            pi, prefix_singular = stacked_stationary(params, band, sizes)
            full_pi, full_singular = stacked_stationary(params, band, np.full(len(acts), n))
            wrong["prefix"] += int((prefix_singular != singular).sum())
            wrong["full"] += int((full_singular != singular).sum())
            both = ~prefix_singular & ~full_singular
            apart = np.abs(pi - full_pi).max(axis=1) > 1e-9
            # where the two differ more, the full solve is the one off
            for c in np.flatnonzero(both & apart):
                exact = np.array(exact_stationary(lam[c]), dtype=float)
                assert np.max(np.abs(pi[c] - exact)) <= 1e-15
            wrong["apart"] = wrong.get("apart", 0) + int((both & apart).sum())
        assert wrong["prefix"] <= wrong["full"]
        # no full solve is more than 1e-9 off: at alpha=0.999, Q=6 six full
        # solves that refinement alone leaves further off go to GTH
        assert wrong["apart"] == 0

    @pytest.mark.parametrize("Q", [5, 6])
    @pytest.mark.parametrize("alpha", [0.4, 0.01, 0.999, 1.0])
    def test_map_rule_is_the_band_pattern_rule(self, Q, alpha):
        # every deterministic policy of the reference instance: the rule on
        # the maps gives the prefix read off lam's nonzero pattern
        params = validate_params(alpha=alpha, **dict(REFERENCE, Q=Q))
        for acts in enumerate_deterministic(params):
            assert_same_bits(mrp._prefix_sizes(params, acts, acts),
                             closed_prefixes(params, _action_matrix(params, acts)))

    def test_chain_without_a_move_down_from_k_is_solved_in_full(self):
        # at alpha=1 a state sending A bits moves only to itself: the drain
        # policy, min(k, M), keeps states 0..A, unless state K sends A
        params = STACK_INSTANCES["alpha1"][0]
        A, K = params.A, params.K
        acts = np.array([np.minimum(np.arange(K + 1), params.M)] * 2)
        acts[1, -1] = A
        assert mrp._prefix_sizes(params, acts, acts).tolist() == [A + 1, K + 1]
        # randomized rows: state K-1 sending A-1 or A has no move down (and
        # reaches K), state K-1 sending A or A+1 has one
        f = _action_matrix(params, acts[[0, 0]])
        f[:, K - 1] = 0.0
        f[0, K - 1, [A - 1, A]] = f[1, K - 1, [A, A + 1]] = 0.5
        sizes = mrp._prefix_sizes(params, *support_ends(f))
        assert sizes.tolist() == [K + 1, A + 1]
        assert_same_bits(sizes, closed_prefixes(params, f))

    def test_support_rule_on_a_wide_band(self):
        # M=60: the band has 63 rows, and a random policy's column has
        # nonzeros in all of them, a sparsified one's in some
        params = validate_params(0.5, 2, 60, 70, [m * m for m in range(61)])
        rng = np.random.default_rng(5)
        pols = [random_policy(params, rng), random_deterministic(params, rng),
                policy_from_actions(params, initial_actions(params)),
                sparse_policy(params, rng)]
        f = np.stack([p.f for p in pols])
        lam = stacked_lam(params, f)
        sizes = mrp._prefix_sizes(params, *support_ends(f))
        assert sizes.tolist() == [closed_prefix(chain) for chain in lam]
        assert sizes.min() == params.A + 1 and sizes.max() == params.K + 1
        assert assert_stack_matches_single_chains(params, pols) == 0

    def test_stacks_mixing_prefix_lengths_full_chains_and_singular_ones(self):
        params = STACK_INSTANCES["reference"][0]
        pols = deterministic_policies(params)
        acts = np.array([p.action_map() for p in pols])
        sizes = closed_prefixes(params, _action_matrix(params, acts))
        _, kept, _, _ = mrp.score_maps(params, acts)
        nonsingular = np.zeros(len(acts), dtype=bool)
        nonsingular[kept] = True
        # a nonsingular chain of every prefix length, and singular chains
        # of a short prefix and of full length
        picks = [int(np.flatnonzero(nonsingular & (sizes == s))[0]) for s in range(3, params.K + 2)]
        picks[2:2] = [int(np.flatnonzero(~nonsingular & (sizes == 4))[0])]
        picks.append(int(np.flatnonzero(~nonsingular & (sizes == params.K + 1))[0]))
        assert set(sizes[picks]) == set(range(3, params.K + 2))
        for order in (picks, picks[::-1], picks[1::2] + picks[::2]):
            assert assert_stack_matches_single_chains(params, [pols[i] for i in order]) == 2
            lu, kept = assert_maps_score_as_matrices(params, acts[order])
            assert len(kept) == len(order) - 2 and len(set(lu.sizes.tolist())) > 1

    def test_recorded_walk_stacks(self, monkeypatch):
        # the stacks of the ladder K=203 walk, one chain at a time and as
        # matrices, in both orders
        params = validate_params(0.5, 3, 5, 200, [0, 1, 4, 9, 16, 25])
        stacks = []
        score_maps = pareto.score_maps

        def record(params, acts):
            stacks.append(acts.copy())
            return score_maps(params, acts)

        monkeypatch.setattr(pareto, "score_maps", record)
        algorithm1(params)
        assert len(stacks) == 161
        for i, acts in enumerate(stacks):
            lu, kept, power, delay = mrp.score_maps(params, acts)
            assert kept.tolist() == list(range(len(acts)))
            assert lu.sizes.max() < params.K + 1
            assert_maps_score_as_matrices(params, acts)
            for c in range(len(acts)):
                _, _, p, d = mrp.score_maps(params, acts[c:c + 1])
                assert (p.item(), d.item()) == (power[c], delay[c])
            if i % 8 == 0:
                pols = [policy_from_actions(params, a) for a in acts]
                assert assert_stack_matches_single_chains(params, pols) == 0


def gth_stationary(lam, n):
    """The stationary distribution of lam on its closed prefix 0..n-1, in
    exact fractions, by GTH elimination (Grassmann, Taksar & Heyman 1985):
    states n-1 down to 1 are censored out one at a time, each pivot the
    state's outflow to the states left, and fill-in stays in lam's band.
    No subtraction occurs.  Needs every state of the prefix to reach
    state 0."""
    out = [{} for _ in range(n)]  # out[i][j]: probability of i -> j
    into = [set() for _ in range(n)]
    for j, i in zip(*np.nonzero(lam[:n, :n])):
        out[i][j] = Fraction(float(lam[j, i]))
        into[j].add(i)
    for m in range(n - 1, 0, -1):
        down = [(j, p) for j, p in out[m].items() if j < m]
        pivot = sum(p for _, p in down)
        for i in [i for i in into[m] if i < m]:
            out[i][m] /= pivot
            for j, p in down:
                out[i][j] = out[i].get(j, 0) + out[i][m] * p
                into[j].add(i)
    x = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for j in range(1, n):
        x[j] = sum((x[i] * out[i][j] for i in into[j] if i < j), Fraction(0))
    total = sum(x)
    return [v / total for v in x]


class TestExactOracle:
    """The walk's vertices against exact rational values (GTH on the closed
    prefix, `gth_stationary`)."""

    LADDER = dict(alpha=0.5, A=3, M=5, power=[0, 1, 4, 9, 16, 25])

    def exact_point(self, params, vertex):
        lam = mrp.build_transition_enumerative(params, vertex.policy)
        pi = gth_stationary(lam, closed_prefix(lam))
        acts = vertex.policy.action_map()
        power = sum(int(params.power[a]) * p for a, p in zip(acts, pi))
        delay = sum(k * p for k, p in enumerate(pi)) / Fraction(params.alpha * params.A) - 1
        return power, delay

    def test_gth_on_the_prefix_is_the_full_exact_solve(self):
        params = validate_params(Q=19, **self.LADDER)  # ladder K=22
        for vertex in algorithm1(params).vertices:
            lam = mrp.build_transition_enumerative(params, vertex.policy)
            n = closed_prefix(lam)
            assert gth_stationary(lam, n) + [0] * (params.K + 1 - n) == exact_stationary(lam)

    @pytest.mark.parametrize("K", [22, 83, 203])
    def test_walk_vertices_within_1e14_of_exact(self, K):
        params = validate_params(Q=K - 3, **self.LADDER)
        worst = Fraction(0)
        for vertex in algorithm1(params).vertices:
            for got, want in zip((vertex.power, vertex.delay), self.exact_point(params, vertex)):
                worst = max(worst, abs(Fraction(got) - want) / (abs(want) or 1))
        assert worst <= Fraction(1, 10**14)
