import re
import tracemalloc
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpsched import lp, mrp, sim
from dpsched.errors import InvalidPolicy, ModelError
from dpsched.model import (
    Policy,
    ThresholdPolicy,
    feasible_actions,
    threshold_to_policy,
    validate_params,
)
from dpsched.pareto import algorithm1
from dpsched.sim import _MERGE_CHECK_EVERY, _NO_HALFWIDTH, Z_95, simulate
from dpsched.verify import random_policy

from conftest import EDGE_FAMILIES, edge_params

# fields the per-slot loop below computes; every one must match it exactly
LOOP_FIELDS = (
    "slots",
    "burn_in",
    "seed",
    "empirical_power",
    "empirical_delay",
    "state_occupancy",
    "overflow_violations",
    "underflow_violations",
)


def loop_simulate(params, policy, slots, seed, trace_path=None):
    """Reference: the per-slot loop that `simulate` replaces, kept verbatim
    (same streams, draw rule, burn-in, counters and trace) to check that
    the block-parallel path is the same sample path bit for bit."""
    alpha, A, Q, K = params.alpha, params.A, params.Q, params.K
    power = list(params.power)
    ss = np.random.SeedSequence(seed)
    arr_ss, tx_ss = ss.spawn(2)
    arrivals = (
        np.random.Generator(np.random.PCG64(arr_ss)).random(slots) < alpha
    ).astype(np.int64).tolist()
    draws = np.random.Generator(np.random.PCG64(tx_ss)).random(slots).tolist()
    cum_rows = []
    for k in range(K + 1):
        actions = [m for m in range(params.M + 1) if policy.f[k, m] > 0.0]
        cums = np.cumsum([policy.f[k, m] for m in actions]).tolist()
        cums[-1] = 1.0
        cum_rows.append((cums, actions))
    burn = min(slots // 10, 10_000)
    q = 0
    q_sum = 0.0
    power_sum = 0.0
    counts = [0] * (K + 1)
    overflow = underflow = 0
    trace_rows = []
    trace_cap = min(slots, 100_000) if trace_path is not None else 0
    for n in range(slots):
        a = arrivals[n]
        t = q + A * a
        cums, actions = cum_rows[t]
        s = actions[min(bisect_right(cums, draws[n]), len(actions) - 1)]
        if n >= burn:
            q_sum += q
            power_sum += power[s]
            counts[t] += 1
        if n < trace_cap:
            trace_rows.append(f"{n},{a},{t},{s},{q}")
        q_next = q + A * a - s
        if q_next < 0:
            underflow += 1
            q_next = 0
        elif q_next > Q:
            overflow += 1
            q_next = Q
        q = q_next
    if trace_path is not None:
        Path(trace_path).write_text("n,a,t,s,q\n" + "\n".join(trace_rows) + "\n")
    n_eff = slots - burn
    total = sum(counts)
    return dict(
        slots=slots,
        burn_in=burn,
        seed=seed,
        empirical_power=power_sum / n_eff,
        empirical_delay=(q_sum / n_eff) / (alpha * A),
        state_occupancy=tuple(cnt / total for cnt in counts),
        overflow_violations=overflow,
        underflow_violations=underflow,
    )


def assert_same_path(params, policy, slots, seed):
    got = simulate(params, policy, slots, seed)
    want = loop_simulate(params, policy, slots, seed)
    assert {f: repr(getattr(got, f)) for f in LOOP_FIELDS} == {
        f: repr(v) for f, v in want.items()
    }
    return got


def draw_cuts(params, policy):
    """The cuts of the policy's draw rule and its number of keys."""
    shift = params.K.bit_length()
    cuts = sim._draw_rule(policy, params.Q, shift, np.int16)[0]
    return cuts, (len(cuts) + 1) << shift


def unchecked_policy(params, rng):
    """Random row-stochastic policy over the nonzero actions, mask not
    enforced: state 0 always underflows and full states can overflow.  No
    state sends 0 bits at no power, so padding slots past the end would
    show in every statistic."""
    f = np.zeros((params.K + 1, params.M + 1))
    f[:, 1:] = rng.dirichlet(np.ones(params.M), size=params.K + 1)
    return Policy(params, f, validate=False)


def rarely_merging_policy(slots):
    """Two backlog states whose lanes merge only on an arrival that draws
    the rarer action in state 2, at a rate tuned so that about one block of
    floor(sqrt(slots)) slots is left unmerged at the end of the block pass."""
    params = validate_params(0.5, 1, 2, 1, [0, 1, 3])
    L = int(np.sqrt(slots))
    eps = np.log(L) / (params.alpha * L)
    f = np.zeros((3, 3))
    f[0, 0] = f[1, 0] = 1.0
    f[2, 1], f[2, 2] = eps, 1.0 - eps
    return params, Policy(params, f)


def swap_policy():
    """alpha = 1, A = 1, Q = 1: backlog 0 -> 1 -> 0 -> ...  The slot map is
    a bijection, so the lanes of the block pass never merge."""
    params = validate_params(1.0, 1, 2, 1, [0, 1, 3])
    f = np.zeros((3, 3))
    f[0, 0] = f[1, 0] = f[2, 2] = 1.0
    return params, Policy(params, f)


def flush_policy():
    """M = K and every state sends its whole backlog, so every lane is at
    backlog 0 after one step: the lanes meet at the first merge check."""
    params = validate_params(0.5, 2, 4, 2, [0, 1, 3, 6, 10])
    f = np.zeros((params.K + 1, params.M + 1))
    f[np.arange(params.K + 1), np.arange(params.K + 1)] = 1.0
    return params, Policy(params, f)


def two_step_policy():
    """alpha = 1, A = 1, Q = 2: backlog 2 -> 1 -> 0 -> 0, so the lanes meet
    after the second step of every block, between two merge checks."""
    params = validate_params(1.0, 1, 2, 2, [0, 1, 3])
    f = np.zeros((4, 3))
    f[0, 0] = f[1, 1] = f[2, 2] = f[3, 2] = 1.0
    return params, Policy(params, f)


def steps_until_met(params, policy, slots, seed):
    """Reference for the block pass's merge test: runs every block of
    floor(sqrt(slots)) slots from each start state, one slot at a time with
    the rule of `loop_simulate` (padding slots past the end have no arrival
    and draw 0.0), and returns j + 1 for the first step j, a multiple of
    _MERGE_CHECK_EVERY, after which every block's lanes are equal, or None
    if there is none."""
    L = int(np.sqrt(slots))
    B = -(-slots // L)
    arr_ss, tx_ss = np.random.SeedSequence(seed).spawn(2)
    arrivals = np.zeros(B * L, dtype=bool)
    arrivals[:slots] = np.random.Generator(np.random.PCG64(arr_ss)).random(slots) < params.alpha
    draws = np.zeros(B * L)
    draws[:slots] = np.random.Generator(np.random.PCG64(tx_ss)).random(slots)
    rows = []
    for k in range(params.K + 1):
        actions = [m for m in range(params.M + 1) if policy.f[k, m] > 0.0]
        cums = np.cumsum([policy.f[k, m] for m in actions]).tolist()
        cums[-1] = 1.0
        rows.append((cums, actions))
    lanes = [list(range(params.Q + 1)) for _ in range(B)]
    for j in range(L):
        for b in range(B):
            n = b * L + j
            for i, q in enumerate(lanes[b]):
                t = q + params.A * arrivals[n]
                cums, actions = rows[t]
                s = actions[min(bisect_right(cums, draws[n]), len(actions) - 1)]
                lanes[b][i] = min(max(t - s, 0), params.Q)
        if j % _MERGE_CHECK_EVERY == 0 and all(len(set(ln)) == 1 for ln in lanes):
            return j + 1
    return None


EXACT_INSTANCES = {
    "reference": (0.4, 2, 3, 5, [0, 1, 4, 9]),
    "Q0": (0.5, 2, 2, 0, [0, 1, 3]),
    "A1-alpha0.05": (0.05, 1, 3, 4, [0, 1, 2.5, 4.5]),
    "alpha0.01": (0.01, 2, 3, 5, [0, 1, 4, 9]),
    "alpha0.99": (0.99, 2, 3, 5, [0, 1.3, 3.7, 8.2]),
    "alpha1": (1.0, 2, 3, 5, [0, 1, 4, 9]),
}
# 7, 1001 and 12345 are not multiples of floor(sqrt(slots)); the burn-in
# cap of 10^4 binds from 10^5 slots on
EXACT_SLOTS = (1, 2, 7, 50, 500, 1001, 12345, 100_000, 200_000)


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
        assert res.power_halfwidth == res.delay_halfwidth == 0.0

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
        with pytest.raises(ModelError, match="slots must be >= 1, got -3"):
            simulate(params_vi, pol, slots=-3, seed=0)

    def test_seed_lower_bound(self, params_vi, rng):
        # a negative seed is a ModelError, not numpy's SeedSequence error
        pol = random_policy(params_vi, rng)
        with pytest.raises(ModelError, match="seed must be >= 0, got -1"):
            simulate(params_vi, pol, slots=10, seed=-1)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(slots=1000.5, seed=0), "slots must be an integer, got 1000.5"),
        (dict(slots=1000, seed=1.5), "seed must be an integer, got 1.5"),
        (dict(slots="1000", seed=0), "slots must be an integer, got '1000'"),
    ])
    def test_non_integral_slots_or_seed_is_named(self, params_vi, rng, kwargs, message):
        # a ModelError naming the field, not a TypeError from range or numpy
        pol = random_policy(params_vi, rng)
        with pytest.raises(ModelError) as info:
            simulate(params_vi, pol, **kwargs)
        assert str(info.value) == message

    def test_integral_floats_and_numpy_integers_pass(self, params_vi, rng):
        pol = random_policy(params_vi, rng)
        want = simulate(params_vi, pol, slots=1000, seed=3)
        for slots, seed in [(1000.0, np.int64(3)), (np.int32(1000), 3.0)]:
            assert simulate(params_vi, pol, slots=slots, seed=seed) == want

    @pytest.mark.parametrize("dQ", (-1, 1))
    def test_policy_of_another_buffer(self, params_vi, rng, dQ):
        # without the check, a policy with more rows than K+1 would run
        pol = random_policy(params_vi, rng)
        other = validate_params(
            params_vi.alpha, params_vi.A, params_vi.M, params_vi.Q + dQ, params_vi.power
        )
        want = re.escape(str(pol.f.shape)) + ".*" + re.escape(str((other.K + 1, other.M + 1)))
        with pytest.raises(InvalidPolicy, match=want):
            simulate(other, pol, slots=1000, seed=0)

    def test_burn_in_rule(self, params_vi, rng):
        pol = random_policy(params_vi, rng)
        assert simulate(params_vi, pol, slots=50, seed=0).burn_in == 5
        assert simulate(params_vi, pol, slots=300_000, seed=0).burn_in == 10_000


class TestSamePathAsLoop:
    """The block-parallel simulator reproduces the per-slot loop exactly."""

    @pytest.mark.parametrize("slots", EXACT_SLOTS)
    @pytest.mark.parametrize("name", sorted(EXACT_INSTANCES))
    def test_random_policies(self, name, slots):
        params = validate_params(*EXACT_INSTANCES[name])
        rng = np.random.default_rng([slots, len(name)])
        assert_same_path(params, random_policy(params, rng), slots, int(rng.integers(2**32)))

    @pytest.mark.parametrize("slots", (7, 1001, 12345))
    def test_violation_counters(self, slots):
        params = validate_params(0.9, 2, 3, 5, [0, 1, 4, 9])
        pol = unchecked_policy(params, np.random.default_rng(slots))
        got = assert_same_path(params, pol, slots, seed=slots)
        if slots > 1000:
            assert got.overflow_violations > 0 and got.underflow_violations > 0

    @pytest.mark.parametrize("slots", (2, 7, 50, 12345, 100_000))
    def test_lanes_that_never_merge(self, slots):
        params, pol = swap_policy()
        got = assert_same_path(params, pol, slots, seed=3)
        occ = got.state_occupancy
        assert occ[0] == 0.0 and occ[1] + occ[2] == 1.0
        assert round(abs(occ[1] - occ[2]) * (slots - got.burn_in)) <= 1

    @pytest.mark.parametrize("slots", (400, 2500, 10_000))
    def test_one_block_left_unmerged(self, slots):
        # lanes may only be dropped once every block's lanes have met
        params, pol = rarely_merging_policy(slots)
        for seed in range(20):
            assert_same_path(params, pol, slots, seed)

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_draw_equal_to_a_threshold(self, params_vi, seed, tmp_path):
        # a state picks its r-th action when exactly r of its cumulative
        # probabilities are <= the draw; put a draw on a threshold
        slots = 500
        arr_ss, tx_ss = np.random.SeedSequence(seed).spawn(2)
        arrives = np.random.Generator(np.random.PCG64(arr_ss)).random(slots) < params_vi.alpha
        draws = np.random.Generator(np.random.PCG64(tx_ss)).random(slots)
        n = int(np.argmax(arrives))  # backlog 0 until here, so t = A
        f = np.zeros((params_vi.K + 1, params_vi.M + 1))
        for k in range(params_vi.K + 1):
            acts = feasible_actions(params_vi, k)
            if len(acts) > 1:
                f[k, acts[0]], f[k, acts[1]] = draws[n], 1.0 - draws[n]
            else:
                f[k, acts[0]] = 1.0
        pol = Policy(params_vi, f)
        assert pol.f[params_vi.A, 0] == draws[n]
        path = tmp_path / "trace.csv"
        assert_same_path(params_vi, pol, slots, seed)
        simulate(params_vi, pol, slots, seed, trace_path=path)
        row = path.read_text().splitlines()[n + 1]
        assert row == f"{n},1,{params_vi.A},1,0"

    def test_keys_need_int32(self):
        # every row randomized at ladder K=203: about 1000 cuts, so the
        # table has more keys than int16 holds, and draws are binned by
        # binary search
        params = validate_params(0.5, 3, 5, 200, [0, 1, 4, 9, 16, 25])
        pol = random_policy(params, np.random.default_rng(203))
        cuts, size = draw_cuts(params, pol)
        assert len(cuts) > sim._FEW_CUTS
        assert np.iinfo(np.int16).max + 1 < size <= sim._TABLE_KEYS
        assert_same_path(params, pol, 20_000, seed=203)

    def test_deterministic_table_of_128_keys(self):
        # one bin and K + 1 = 128 keys: the key type must hold K + 1 itself
        params = validate_params(0.5, 2, 3, 125, [0, 1, 4, 9])
        f = np.zeros((params.K + 1, params.M + 1))
        f[np.arange(params.K + 1), np.minimum(np.arange(params.K + 1), params.A)] = 1.0
        pol = Policy(params, f)
        assert draw_cuts(params, pol)[1] == 128
        assert_same_path(params, pol, 3000, seed=128)

    @pytest.mark.parametrize(
        "instance, pool",
        [
            (EXACT_INSTANCES["reference"], (2, 4, 8, 12)),
            ((0.5, 3, 5, 19, [0, 1, 4, 9, 16, 25]), tuple(range(1, 16))),
        ],
    )
    def test_states_sharing_a_cut(self, instance, pool):
        # each state's thresholds are drawn from one pool of multiples of
        # 1/16, so states share them and their cuts merge; the small pool
        # leaves at most _FEW_CUTS cuts, the large one more
        params = validate_params(*instance)
        rng = np.random.default_rng(len(pool))
        f = np.zeros((params.K + 1, params.M + 1))
        n_thr = 0
        for k in range(params.K + 1):
            acts = feasible_actions(params, k)
            cums = np.sort(rng.choice(pool, len(acts) - 1, replace=False)) / 16
            f[k, acts] = np.diff(np.concatenate([[0.0], cums, [1.0]]))
            n_thr += len(acts) - 1
        pol = Policy(params, f)
        cuts, _ = draw_cuts(params, pol)
        assert len(cuts) < n_thr
        assert (len(cuts) > sim._FEW_CUTS) == (len(pool) > sim._FEW_CUTS)
        for seed in range(3):
            assert_same_path(params, pol, 12345, seed)

    @pytest.mark.parametrize("slots", (1, 7, 500, 100_000, 150_000))
    def test_trace_bytes(self, params_vi, slots, tmp_path):
        pol = random_policy(params_vi, np.random.default_rng(slots))
        simulate(params_vi, pol, slots, 5, trace_path=tmp_path / "new.csv")
        loop_simulate(params_vi, pol, slots, 5, trace_path=tmp_path / "loop.csv")
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "loop.csv").read_bytes()
        assert new.count(b"\n") == min(slots, 100_000) + 1


class TestUntabledDrawRule:
    """Past _TABLE_KEYS keys the draw rule is worked out per slot from the
    threshold columns instead of tabled; the path is still the loop's."""

    @pytest.fixture(autouse=True)
    def untabled(self, monkeypatch):
        monkeypatch.setattr(sim, "_TABLE_KEYS", 0)

    @pytest.mark.parametrize("slots", (7, 12345))
    @pytest.mark.parametrize("name", sorted(EXACT_INSTANCES))
    def test_random_policies(self, name, slots):
        params = validate_params(*EXACT_INSTANCES[name])
        rng = np.random.default_rng([slots, len(name)])
        assert_same_path(params, random_policy(params, rng), slots, int(rng.integers(2**32)))

    def test_violation_counters(self):
        params = validate_params(0.9, 2, 3, 5, [0, 1, 4, 9])
        pol = unchecked_policy(params, np.random.default_rng(1001))
        got = assert_same_path(params, pol, 1001, seed=1001)
        assert got.overflow_violations > 0 and got.underflow_violations > 0

    def test_lanes_that_never_merge(self):
        params, pol = swap_policy()
        assert_same_path(params, pol, 12345, seed=3)

    def test_many_cuts(self):
        # every row randomized at ladder K=22: over _FEW_CUTS cuts
        params = validate_params(0.5, 3, 5, 19, [0, 1, 4, 9, 16, 25])
        pol = random_policy(params, np.random.default_rng(22))
        assert len(draw_cuts(params, pol)[0]) > sim._FEW_CUTS
        assert_same_path(params, pol, 5000, seed=22)

    def test_trace_bytes(self, params_vi, tmp_path):
        pol = random_policy(params_vi, np.random.default_rng(500))
        simulate(params_vi, pol, 500, 5, trace_path=tmp_path / "new.csv")
        loop_simulate(params_vi, pol, 500, 5, trace_path=tmp_path / "loop.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


def many_cuts():
    """Random cuts with their neighbours one ulp up, the multiples of 1/64,
    and 1.0, which is above every draw."""
    cuts = np.random.default_rng(40).random(40)
    return np.concatenate([cuts, np.nextafter(cuts, 1.0), np.arange(1, 64) / 64, [1.0]])


@pytest.mark.parametrize(
    "cuts",
    [[], [0.5, np.nextafter(0.5, 1.0), 1.0], many_cuts()],
    ids=["none", "few", "many"],
)
def test_draw_bins_match_searchsorted(cuts):
    """A draw's bin is the number of cuts <= it."""
    cuts = np.unique(cuts)
    rng = np.random.default_rng(len(cuts))
    u = np.concatenate(
        [[0.0, np.nextafter(1.0, 0.0)], cuts, np.nextafter(cuts, 0.0), rng.random(1000)]
    )
    u = u[u < 1.0]
    got = np.empty(len(u), dtype=np.int32)
    sim._bin(u, cuts, got)
    assert np.array_equal(got, np.searchsorted(cuts, u, side="right"))


def reference_lp_optimum():
    """The sim benchmark's instance and policy: the reference instance under
    the LP optimum at p_th = 1.2 (one randomized row)."""
    params = validate_params(*EXACT_INSTANCES["reference"])
    pol = lp.recover_policy(params, lp.solve_simplex(lp.build_lp(params, 1.2)))
    assert np.count_nonzero((pol.f > 0).sum(axis=1) > 1) == 1
    return params, pol


def traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_of_a_million_slots():
    """The sim benchmark's run: 10^6 slots.  What grows with the run is its
    1-byte-per-slot arrays (int8 keys and backlogs): the events, their
    step-major copy and the recorded q, 3 MB at once in pass 2, the q path
    replacing the step-major copy after it.  The statistics take a chunk of
    whole batches at a time, about 0.1 MB of floats and intp keys each.
    The peak is 3.2 MB; it was 10.3 MB when the statistics held the power
    path and an intp copy of every key (8 MB each), and 25.0 MB when each
    step compared the draws with every threshold row."""
    params, pol = reference_lp_optimum()
    assert traced_peak(lambda: simulate(params, pol, 1_000_000, seed=0)) <= 4.5e6


def test_peak_memory_of_a_traced_million_slots(tmp_path):
    """The same run with a trace of its first 10^5 slots.  The trace is
    written _CHUNK = 16,384 rows at a time: each chunk's (rows, 5) intp array
    (0.66 MB), the tuple of its 81,920 ints with the int objects above 256
    (about 1.2 MB) and the text (about 0.5 MB) come on top of the untraced
    run's 3 MB of keys and backlogs.  The peak is 4.9 MB; it was 26.9 MB
    with the trace formatted from one tuple of all 500,000 ints."""
    params, pol = reference_lp_optimum()
    trace = tmp_path / "t.csv"
    assert traced_peak(lambda: simulate(params, pol, 1_000_000, 0, trace_path=trace)) <= 6.0e6
    assert trace.read_bytes().count(b"\n") == sim.TRACE_ROW_CAP + 1


def test_peak_memory_of_a_policy_randomized_in_every_state():
    """Ladder K=2003 with every row randomized has about 10^4 cuts, so a
    table of its draw rule would have about 2e7 keys (1.03 GB in tracemalloc
    for a 10^5-slot run when the rule was always tabled).  Past _TABLE_KEYS
    the rule is worked out per slot: 10^4 slots peak at about 7.1 MB,
    against 9.2 MB with a threshold comparison per action and step."""
    params = validate_params(0.5, 3, 5, 2000, [0, 1, 4, 9, 16, 25])
    pol = random_policy(params, np.random.default_rng(2003))
    _, size = draw_cuts(params, pol)
    assert size > 10**7 > sim._TABLE_KEYS
    tracemalloc.start()
    try:
        got = simulate(params, pol, 10_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9.2e6
    want = loop_simulate(params, pol, 10_000, seed=0)
    assert {f: repr(getattr(got, f)) for f in LOOP_FIELDS} == {f: repr(v) for f, v in want.items()}


@pytest.fixture
def step_calls(monkeypatch):
    """Counts the calls of `sim._step`: pass 1 makes L of them, pass 2 one
    per step it replays."""
    calls = []
    step = sim._step

    def counted(*args):
        calls.append(None)
        return step(*args)

    monkeypatch.setattr(sim, "_step", counted)
    return calls


def reference_random_policy(slots):
    params = validate_params(*EXACT_INSTANCES["reference"])
    return params, random_policy(params, np.random.default_rng(slots))


# name: (instance, slots, seed, steps pass 2 replays when the lanes meet)
MERGE_CASES = {
    "first-check": (flush_policy, 1001, 0, 1),
    # L = 9 and L - 1 = 8 is a merge check: the lanes are found met on the
    # last step, so pass 1 records nothing; 85 slots leave a partial block
    "last-step": (two_step_policy, 81, 0, 9),
    "last-step-partial": (two_step_policy, 85, 0, 9),
    "mid-block": (two_step_policy, 289, 0, 9),
    # floor(sqrt(slots)) does not divide slots: the last block is partial
    "partial-1001": (lambda: reference_random_policy(1001), 1001, 11, 25),
    "partial-12345": (lambda: reference_random_policy(12345), 12345, 12, 17),
    "never": (swap_policy, 1001, 3, None),
}


class TestPassTwoReplay:
    """Pass 1 records the path once every block's lanes have met, and pass 2
    replays only the steps before that, from the true start states."""

    @pytest.mark.parametrize("name", sorted(MERGE_CASES))
    def test_same_path_and_replayed_steps(self, step_calls, name):
        instance, slots, seed, met = MERGE_CASES[name]
        params, pol = instance()
        L = int(np.sqrt(slots))
        assert steps_until_met(params, pol, slots, seed) == met
        assert_same_path(params, pol, slots, seed)
        assert len(step_calls) == L + (L if met is None else met)

    def test_pass_two_replays_fewer_than_L_steps(self, step_calls):
        # lanes of the reference instance meet within a few dozen steps;
        # replaying all L = 316 steps would mean the full second pass is back
        params, pol = reference_random_policy(100_000)
        simulate(params, pol, 100_000, seed=1)
        L = 316
        replayed = len(step_calls) - L
        assert 0 < replayed < L // 2


@pytest.fixture(scope="module")
def ladder_curves():
    return {
        K: algorithm1(validate_params(0.5, 3, 5, K - 3, [0, 1, 4, 9, 16, 25]))
        for K in (22, 203)
    }


@pytest.mark.parametrize("K", (22, 203))
def test_walk_vertices_same_path(ladder_curves, K):
    vertices = ladder_curves[K].vertices
    params = vertices[0].policy.params
    for v in (vertices[0], vertices[len(vertices) // 2], vertices[-1]):
        assert_same_path(params, v.policy, 20_000, seed=K)


@given(
    family=st.sampled_from(EDGE_FAMILIES),
    alpha=st.floats(0.05, 0.95),
    eps=st.floats(1e-4, 0.02),
    A=st.integers(1, 3),
    extra_m=st.integers(0, 2),
    Q=st.integers(0, 6),
    slots=st.integers(1, 5000),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_edge_instances_same_path(family, alpha, eps, A, extra_m, Q, slots, seed):
    """alpha near 0 and 1 (alpha = 1 included), Q = 0, M = A and A = 1."""
    params = edge_params(family, alpha, eps, A, extra_m, Q)
    pol = random_policy(params, np.random.default_rng(seed))
    assert_same_path(params, pol, slots, seed)


class TestConfidenceHalfwidth:
    def test_batch_means_from_trace(self, params_vi, rng, tmp_path):
        pol = random_policy(params_vi, rng)
        slots = 50_000
        res = simulate(params_vi, pol, slots, 8, trace_path=tmp_path / "t.csv")
        rows = np.loadtxt(tmp_path / "t.csv", delimiter=",", skiprows=1, dtype=int)
        L = 223  # floor(sqrt(50000))
        post = rows[res.burn_in:]
        n_batch = len(post) // L
        batches = post[: n_batch * L].reshape(n_batch, L, 5)
        power = np.asarray(params_vi.power)[batches[:, :, 3]].mean(axis=1)
        delay = batches[:, :, 4].mean(axis=1) / (params_vi.alpha * params_vi.A)
        for got, means in ((res.power_halfwidth, power), (res.delay_halfwidth, delay)):
            want = Z_95 * np.std(means, ddof=1) / np.sqrt(n_batch)
            assert got == pytest.approx(want, rel=1e-12)

    def test_nan_below_two_batches(self, params_vi, rng):
        pol = random_policy(params_vi, rng)
        res = simulate(params_vi, pol, 1, 0)
        assert np.isnan(res.power_halfwidth) and np.isnan(res.delay_halfwidth)
        assert res == simulate(params_vi, pol, 1, 0)

    def test_interval_covers_exact_value(self, params_vi, rng):
        pol = random_policy(params_vi, rng)
        want = mrp.evaluate(params_vi, pol)
        hits = 0
        for seed in range(20):
            res = simulate(params_vi, pol, 20_000, seed)
            hits += abs(res.empirical_power - want.power) <= res.power_halfwidth
            hits += abs(res.empirical_delay - want.delay) <= res.delay_halfwidth
        # were the 40 intervals independent with 95% coverage, 33 or fewer
        # hits would have probability 0.34%
        assert hits >= 34


def full_array_halfwidths(params, trace, burn, L):
    """Both half-widths from one (batches, L) array of the post-burn-in
    slots of a trace, as one pass over the whole run would take them."""
    post = np.loadtxt(trace, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)[burn:]
    n_batch = len(post) // L
    if n_batch < 2:
        return _NO_HALFWIDTH, _NO_HALFWIDTH
    power = params.power_array[post[:, 3]]
    power_means = power[: n_batch * L].reshape(n_batch, L).mean(axis=1)
    q_means = post[: n_batch * L, 4].reshape(n_batch, L).mean(axis=1)
    return tuple(
        float(Z_95 * np.std(means, ddof=1) / np.sqrt(n_batch))
        for means in (power_means, q_means / (params.alpha * params.A))
    )


class TestChunkedStatistics:
    """The statistics are taken a chunk of whole batches at a time: every
    field must be that of one pass over the whole run, whatever the chunk."""

    # L = 111 for 12,345 slots: chunks below L, at L, above L and not a
    # multiple of it, a multiple of it, and one chunk for the whole run
    @pytest.mark.parametrize("chunk", (1, 7, 50, 111, 200, 333, 1 << 14))
    # 1 slot is one batch, 2 slots two; at 12,345 slots the burn-in of 1,234
    # is not a multiple of L and the last 11 slots are in no batch
    @pytest.mark.parametrize("slots", (1, 2, 12345))
    @pytest.mark.parametrize("tabled", (True, False), ids=("tabled", "untabled"))
    def test_same_fields_and_halfwidths(self, monkeypatch, tmp_path, params_vi, chunk, slots, tabled):
        monkeypatch.setattr(sim, "_CHUNK", chunk)
        if not tabled:
            monkeypatch.setattr(sim, "_TABLE_KEYS", 0)
        pol = random_policy(params_vi, np.random.default_rng(slots))
        got = simulate(params_vi, pol, slots, 9, trace_path=tmp_path / "new.csv")
        want = loop_simulate(params_vi, pol, slots, 9, trace_path=tmp_path / "loop.csv")
        assert {f: repr(getattr(got, f)) for f in LOOP_FIELDS} == {
            f: repr(v) for f, v in want.items()
        }
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()
        L = int(np.sqrt(slots))
        halfwidths = full_array_halfwidths(params_vi, tmp_path / "loop.csv", got.burn_in, L)
        assert repr((got.power_halfwidth, got.delay_halfwidth)) == repr(halfwidths)

    @pytest.mark.parametrize("chunk", (1, 5, 7, 30, 1 << 14))
    @pytest.mark.parametrize("burn, slots, L", [
        (3, 8, 7),  # 5 slots after burn-in: no batch
        (3, 10, 7),  # one batch
        (4, 19, 7),  # two batches and a remainder of 1
        (10, 110, 7),  # 14 batches and a remainder of 2
    ])
    def test_batch_pass(self, monkeypatch, chunk, burn, slots, L):
        monkeypatch.setattr(sim, "_CHUNK", chunk)
        rng = np.random.default_rng([chunk, slots])
        values = rng.random(4) * 10
        key = rng.integers(0, 4, slots).astype(np.int8)
        q_path = rng.integers(0, 6, slots).astype(np.int8)
        chunks = sim._batch_chunks(burn, slots, L)
        assert [c.start for c in chunks] == list(range(burn, slots, chunks[0].stop - burn))
        assert all((c.stop - c.start) % L == 0 for c in chunks[:-1])
        power_sum, power_means, q_means = sim._batch_pass(
            lambda k, out: values.take(k, out=out), key, q_path, chunks, L
        )
        n_batch = (slots - burn) // L
        power = values[key[burn:]]
        assert repr(power_sum) == repr(float(np.add.accumulate(power)[-1]))
        for got, x in ((power_means, power), (q_means, q_path[burn:])):
            want = x[: n_batch * L].reshape(n_batch, L).mean(axis=1)
            assert got.shape == (n_batch,) and repr(got.tolist()) == repr(want.tolist())
