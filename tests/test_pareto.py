import dataclasses
import json
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpsched import model, mrp, pareto, policies
from dpsched.cli import main, write_cloud
from dpsched.errors import InvalidPolicy, PowerNotIncreasingPerBit, SingularChain
from dpsched.model import validate_params
from dpsched.mrp import DelayPowerPoint, evaluate, score_maps
from dpsched.pareto import (
    COLLINEAR_TOL,
    POINT_TOL,
    ParetoCurve,
    _perp_distance,
    algorithm1,
    brute_force_frontier,
    lower_convex_hull,
    scored_blocks,
)
from dpsched.policies import enumerate_deterministic, is_threshold, policy_from_actions
from dpsched.verify import curves_match

from conftest import EDGE_FAMILIES, edge_params, raised_threshold_reference, random_params

LADDER = dict(alpha=0.5, A=3, M=5, power=[0, 1, 4, 9, 16, 25])


def drop_collinear_reference(points):
    """The restart loop `pareto._drop_collinear` replaced, kept verbatim."""
    out = list(points)
    # prune interior points lying on the chord of their neighbors
    changed = True
    while changed and len(out) > 2:
        changed = False
        for i in range(1, len(out) - 1):
            if _perp_distance(out[i - 1], out[i], out[i + 1]) <= COLLINEAR_TOL:
                del out[i]
                changed = True
                break
    return out


def threshold_point_reference(params, tp, cache):
    """`pareto._threshold_point` of the one-at-a-time walk, kept verbatim
    but for its cache, now a dict of reward points keyed by the policy
    bytes."""
    policy = model.threshold_to_policy(params, tp)
    try:
        base = cache.get(policy.key())
        if base is None:
            base = cache[policy.key()] = evaluate(params, policy)
    except SingularChain as exc:
        raise SingularChain(
            f"singular chain for thresholds {tp.thresholds}: {exc}"
        ) from exc
    return DelayPowerPoint(
        power=base.power, delay=base.delay, policy=policy, thresholds=tp.thresholds
    )


def walk_reference(params):
    """`algorithm1` as it scored one raised vector at a time through
    `mrp.evaluate` and a cache of reward points keyed by the policy bytes,
    kept verbatim (with the reference collinear prune), except that it
    raises each threshold in turn (`raised_threshold_reference`) instead of
    calling `neighbors_increase_threshold`, and takes the thresholds of its
    start from `initial_actions`."""
    cache = {}
    tp0 = model.ThresholdPolicy(
        model._last_state_at_most(policies.initial_actions(params), params.M))
    cur_pt = threshold_point_reference(params, tp0, cache)
    walk = [cur_pt]
    current = {tp0.thresholds: tp0}
    slope_tol = 1e-9
    while True:
        p_p, d_p = cur_pt.power, cur_pt.delay
        candidates = {}
        pending = list(current.values())
        while pending:
            tp = pending.pop()
            for nb in raised_threshold_reference(params, tp.thresholds):
                if nb.thresholds in current or nb.thresholds in candidates:
                    continue
                pt = threshold_point_reference(params, nb, cache)
                if abs(pt.power - p_p) <= POINT_TOL and abs(pt.delay - d_p) <= POINT_TOL:
                    current[nb.thresholds] = nb
                    pending.append(nb)
                    continue
                candidates[nb.thresholds] = (pt, nb)
        accepted = [
            (pt, nb)
            for (pt, nb) in candidates.values()
            if pt.delay >= d_p - slope_tol and pt.power < p_p - 1e-12
        ]
        if not accepted:
            break
        slopes = [(max(pt.delay - d_p, 0.0) / (p_p - pt.power), pt, nb) for pt, nb in accepted]
        s_min = min(s for s, _, _ in slopes)
        tied = [(pt, nb) for (s, pt, nb) in slopes if s <= s_min + slope_tol]
        cur_pt, _ = min(tied, key=lambda t: (t[0].power, t[1].thresholds))
        walk.append(cur_pt)
        current = {nb.thresholds: nb for (_, nb) in tied}
    return ParetoCurve(vertices=tuple(drop_collinear_reference(walk)))


def cloud_reference(params):
    """The point cloud as `dpsched pareto` built it, one `DelayPowerPoint`
    with its `Policy` per nonsingular chain (`pareto.deterministic_cloud`),
    and wrote it, each row's map and threshold flag taken from its policy
    (`pareto.cloud_to_csv` and the CLI's .dat lines), kept verbatim but
    for the skipped-singular warning and the singular count.  Returns the
    texts of pareto_cloud.csv and pareto_cloud.dat."""
    points = []
    for acts in enumerate_deterministic(params):
        _, kept, power, delay = score_maps(params, acts)
        points += (
            DelayPowerPoint(p, d, policy_from_actions(params, a))
            for p, d, a in zip(power.tolist(), delay.tolist(), acts[kept])
        )
    lines = ["power,delay,actions,is_threshold"]
    for pt in points:
        acts = ""
        thr = ""
        if pt.policy is not None:
            amap = pt.policy.action_map()
            acts = " ".join(str(a) for a in amap)
            thr = "1" if is_threshold(params, pt.policy) is not None else "0"
        lines.append(f"{pt.power:.17g},{pt.delay:.17g},{acts},{thr}")
    csv = "\n".join(lines) + "\n"
    dat = "".join(f"{p.power:.17g} {p.delay:.17g}\n" for p in points)
    return csv, dat


def curve_repr(curve):
    """repr of every vertex's (power, delay, thresholds, policy bytes): equal
    reprs mean bit-identical curves."""
    return repr([(v.power, v.delay, v.thresholds, v.policy.f.tobytes())
                 for v in curve.vertices])


def pt(power, delay):
    return DelayPowerPoint(power=power, delay=delay, policy=None, thresholds=None)


class TestLowerConvexHull:
    def test_hand_geometry(self):
        # (0.75, 0.4) lies strictly below the chord (1,0)-(0.5,1), so all
        # three points are hull vertices
        curve = lower_convex_hull([pt(1.0, 0.0), pt(0.5, 1.0), pt(0.75, 0.4)])
        got = [(v.power, v.delay) for v in curve.vertices]
        assert got == [(1.0, 0.0), (0.75, 0.4), (0.5, 1.0)]

    def test_interior_point_dropped(self):
        # (0.75, 0.6) lies above the chord and is dominated
        curve = lower_convex_hull([pt(1.0, 0.0), pt(0.5, 1.0), pt(0.75, 0.6)])
        got = [(v.power, v.delay) for v in curve.vertices]
        assert got == [(1.0, 0.0), (0.5, 1.0)]

    def test_collinear_point_merged(self):
        curve = lower_convex_hull([pt(1.0, 0.0), pt(0.5, 1.0), pt(0.75, 0.5)])
        got = [(v.power, v.delay) for v in curve.vertices]
        assert got == [(1.0, 0.0), (0.5, 1.0)]

    def test_dominated_high_power_points_cut(self):
        # nothing beyond the minimum-delay point belongs to the frontier
        curve = lower_convex_hull(
            [pt(1.0, 0.0), pt(2.0, 0.5), pt(0.5, 1.0), pt(3.0, 0.0)]
        )
        got = [(v.power, v.delay) for v in curve.vertices]
        assert got == [(1.0, 0.0), (0.5, 1.0)]

    def test_duplicates_and_single_point(self):
        curve = lower_convex_hull([pt(1.0, 0.5)] * 3)
        assert [(v.power, v.delay) for v in curve.vertices] == [(1.0, 0.5)]

    def test_equal_power_keeps_least_delay(self):
        curve = lower_convex_hull([pt(1.0, 0.7), pt(1.0, 0.1), pt(0.5, 1.0)])
        assert curve.vertices[0].delay == 0.1

    def test_no_points(self):
        with pytest.raises(ValueError, match="need at least one point"):
            lower_convex_hull([])


class TestDropCollinear:
    @staticmethod
    def assert_same_objects(points):
        got = [points[i] for i in pareto._drop_collinear(points)]
        want = drop_collinear_reference(points)
        assert len(got) == len(want)
        assert all(a is b for a, b in zip(got, want))

    def test_random_lists(self, rng):
        for _ in range(300):
            n = int(rng.integers(0, 12))
            self.assert_same_objects([pt(*xy) for xy in rng.uniform(0, 1, (n, 2))])

    def test_collinear_runs(self, rng):
        # runs of points on one line, within and beyond COLLINEAR_TOL of it,
        # with exact duplicates, joined at random corners
        for _ in range(1000):
            points = []
            for _ in range(int(rng.integers(1, 5))):
                x0, y0, dx, dy = rng.uniform(-1, 1, 4)
                for t in np.sort(rng.uniform(0, 1, int(rng.integers(1, 7)))):
                    off = rng.choice([0.0, 0.0, 0.5, 2.0]) * COLLINEAR_TOL
                    points.append(pt(x0 + t * dx, y0 + t * dy + off))
                    if rng.random() < 0.1:
                        points.append(points[-1])
            self.assert_same_objects(points)

    def test_all_collinear_keeps_the_ends(self):
        points = [pt(1.0 - 0.1 * i, 0.2 * i) for i in range(8)]
        assert pareto._drop_collinear(points) == [0, 7]
        first, last = lower_convex_hull(points).vertices
        assert first is points[0] and last is points[-1]


@st.composite
def reward_clouds(draw):
    """A synthetic reward cloud, in enumeration order, with the ties brute
    force meets: exact duplicates, near-duplicates within POINT_TOL in
    either coordinate, and near-collinear triples within COLLINEAR_TOL."""
    coord = st.floats(0.0, 10.0)
    unit = st.floats(-1.0, 1.0)
    cloud = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=12))
    for _ in range(draw(st.integers(0, 16))):
        kind = draw(st.sampled_from(["duplicate", "near", "collinear"]))
        a = draw(st.sampled_from(cloud))
        if kind == "duplicate":
            cloud.append(a)
        elif kind == "near":
            cloud.append((a[0] + draw(unit) * POINT_TOL, a[1] + draw(unit) * POINT_TOL))
        else:
            c = draw(st.sampled_from(cloud))
            t = draw(st.floats(0.0, 1.0))
            cloud.append((a[0] + t * (c[0] - a[0]),
                          a[1] + t * (c[1] - a[1]) + draw(unit) * COLLINEAR_TOL))
    return draw(st.permutations(cloud))


@given(cloud=reward_clouds(), data=st.data())
@settings(max_examples=400, deadline=None)
def test_block_merge_matches_one_hull(cloud, data):
    """Brute force's block merge (`pareto._merge_staircase`, one block at a
    time, then one hull of what it kept) returns the same vertices, each
    the same representative point, as one `lower_convex_hull` call over the
    whole cloud."""
    points = [pt(p, d) for p, d in cloud]
    power, delay = (np.array(c) for c in zip(*cloud))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(cloud)), max_size=6)))
    staircase = (np.empty(0), np.empty(0), np.empty(0, dtype=np.intp))
    for block in np.split(np.arange(len(cloud)), cuts):
        staircase = pareto._merge_staircase(staircase, (power[block], delay[block], block))
    merged = lower_convex_hull([points[i] for i in staircase[2]]).vertices
    whole = lower_convex_hull(points).vertices
    assert len(merged) == len(whole)
    assert all(a is b for a, b in zip(merged, whole))


class TestCurveInvariants:
    @pytest.mark.parametrize("points, message", [
        ([(1.0, 0.0), (1.0, 1.0)], "power not strictly decreasing: 1.0 -> 1.0"),
        ([(2.0, 1.0), (1.0, 0.0)], "delay decreasing: 1.0 -> 0.0"),
        # a delay drop within POINT_TOL over a short power step
        ([(1.0, 1.0), (1.0 - 1e-3, 1.0 - 5e-13)], "negative segment slope -5.0"),
        ([(3.0, 0.0), (2.0, 2.0), (1.0, 3.0)], "slopes not increasing: 2.0 -> 1.0"),
    ])
    def test_validate_names_the_broken_invariant(self, points, message):
        with pytest.raises(ValueError, match=message):
            ParetoCurve(vertices=tuple(pt(p, d) for p, d in points)).validate()

    def test_reference_curve(self, params_vi):
        curve = algorithm1(params_vi)
        curve.validate()
        got = [(round(v.power, 6), round(v.delay, 6)) for v in curve.vertices]
        assert got == [
            (1.6, 0.0),
            (1.12, 0.5),
            (0.968421, 0.921053),
            (0.898462, 1.269231),
            (0.860664, 1.552133),
            (0.838496, 1.778195),
        ]

    def test_interpolation(self, params_vi):
        curve = algorithm1(params_vi)
        assert curve.interpolate(1.6) == pytest.approx(0.0, abs=1e-12)
        # midpoint of the first segment
        assert curve.interpolate(1.36) == pytest.approx(0.25, abs=1e-12)
        # budgets above the max-power vertex saturate at the minimum delay
        assert curve.interpolate(5.0) == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(ValueError):
            curve.interpolate(0.1)

    def test_interpolation_of_a_nan_budget_raises(self, params_vi):
        # +inf is a budget above every vertex; NaN is no budget at all
        curve = algorithm1(params_vi)
        assert curve.interpolate(float("inf")) == curve.vertices[0].delay
        with pytest.raises(ValueError, match="below the feasible minimum"):
            curve.interpolate(float("nan"))

    def test_serialization(self, params_vi):
        curve = algorithm1(params_vi)
        csv = curve.to_csv()
        assert csv.splitlines()[0] == "power,delay,thresholds"
        assert len(csv.splitlines()) == len(curve.vertices) + 1
        doc = json.loads(curve.to_json())
        assert len(doc["vertices"]) == len(curve.vertices)
        assert len(doc["segments"]) == len(curve.vertices) - 1
        assert doc["vertices"][0]["thresholds"] == [0, 1, 7, 7]

    def test_walk_builds_vertex_policies_from_their_maps(self, monkeypatch):
        # the walk carries action maps, from its start on: no
        # ThresholdPolicy is built or mapped; thresholds are derived for the
        # tied candidates of ties of two or more and the returned vertices;
        # the vertex policies are built from the vertex maps, and no stack
        # of one-hot matrices is
        built, mapped, derived, stacks = [], [], [], []
        original_init = model.ThresholdPolicy.__post_init__
        original_map = model.threshold_action_map
        original_last = model._last_state_at_most
        original_matrix = model._action_matrix

        def counting_init(tp):
            built.append(tp)
            original_init(tp)

        def counting_map(params, tp):
            mapped.append(tp)
            return original_map(params, tp)

        def counting_last(acts, M):
            derived.append(sys._getframe(1).f_code.co_name)  # the caller
            return original_last(acts, M)

        def counting_matrix(params, acts):
            if np.ndim(acts) > 1:
                stacks.append(acts)
            return original_matrix(params, acts)

        def no_threshold_to_policy(params, tp):
            raise AssertionError("threshold_to_policy called")

        params = validate_params(0.5, 3, 5, 19, [0, 1, 4, 9, 16, 25])  # ladder K=22
        monkeypatch.setattr(model.ThresholdPolicy, "__post_init__", counting_init)
        monkeypatch.setattr(model, "threshold_action_map", counting_map)
        assert not hasattr(pareto, "threshold_action_map")
        for mod in (model, pareto):
            monkeypatch.setattr(mod, "_last_state_at_most", counting_last)
        for mod in (model, policies):
            monkeypatch.setattr(mod, "_action_matrix", counting_matrix)
            monkeypatch.setattr(mod, "threshold_to_policy", no_threshold_to_policy)
        curve = algorithm1(params)
        monkeypatch.undo()
        assert len(curve.vertices) == 28
        assert built == []
        assert mapped == []
        assert stacks == []
        ties = derived.count("<lambda>")  # the tie-break key
        assert ties == 4
        assert len(derived) == len(curve.vertices) + ties == 32
        for v in curve.vertices:
            want = model.threshold_to_policy(params, model.ThresholdPolicy(v.thresholds))
            assert v.policy.f.tobytes() == want.f.tobytes()
            assert not v.policy.f.flags.writeable
            assert model.Policy(params, v.policy.f) == v.policy

    def test_vertex_maps_checked_against_the_feasibility_mask(self, params_vi):
        maps = np.array([[0, 1, 2, 2, 2, 3, 3, 3], [0, 1, 2, 2, 2, 3, 3, 2]])
        assert [p.action_map() for p in pareto._vertex_policies(params_vi, maps)] == \
            maps.tolist()
        # states 6 and 7 must send at least k - Q = 1 and 2 bits: the first
        # pair outside the mask is named as `Policy` names it
        maps[1, 6:] = [0, 1]
        message = r"f\[6\]\[0\] = 1.0 violates"
        with pytest.raises(InvalidPolicy, match=message):
            pareto._vertex_policies(params_vi, maps)
        with pytest.raises(InvalidPolicy, match=message):
            model.Policy(params_vi, model._action_matrix(params_vi, maps[1]))

    @pytest.mark.parametrize("stage, message", [
        ("pivot", "pivot below"),
        ("checks", "stationary solve has mass"),
    ])
    def test_singular_chain_names_first_failing_vector_of_level(
        self, monkeypatch, stage, message
    ):
        # every chain of the first stack of several but its first fails, at
        # the pivot test or at the checks after the solve: the error names
        # the first failing vector in the level's order, and its stage
        original = pareto.score_maps
        stacked = []

        def failing(params, acts):
            lu, kept, power, delay = original(params, acts)
            if len(acts) > 1:
                stacked.append(acts)
                if stage == "pivot":
                    lu = dataclasses.replace(lu, chains=lu.chains[:1])
                return lu, kept[:1], power[:1], delay[:1]
            return lu, kept, power, delay

        params = validate_params(0.5, 3, 5, 19, [0, 1, 4, 9, 16, 25])  # ladder K=22
        monkeypatch.setattr(pareto, "score_maps", failing)
        with pytest.raises(SingularChain, match=message) as err:
            algorithm1(params)
        assert len(stacked) == 1
        want = model._last_state_at_most(stacked[0][1], params.M)
        assert f"singular chain for thresholds {want}:" in str(err.value)


class TestStopReason:
    """`ParetoCurve.stop_reason`: the walk stops for want of candidates
    (exhausted) or because its last step refused a candidate only for the
    power step floor (power_resolution)."""

    @pytest.mark.parametrize("Q, reason", [
        (5, "exhausted"), (19, "exhausted"), (40, "exhausted"), (80, "exhausted"),
        (200, "power_resolution"), (400, "power_resolution"),
    ])
    def test_ladder(self, Q, reason):
        assert algorithm1(validate_params(Q=Q, **LADDER)).stop_reason == reason

    @pytest.mark.parametrize("alpha", [0.4, 0.01, 0.9])
    def test_reference_instance(self, alpha):
        params = validate_params(alpha, 2, 3, 5, [0, 1, 4, 9])
        assert algorithm1(params).stop_reason == "exhausted"

    def test_brute_force_curve_has_none(self, params_vi):
        assert brute_force_frontier(params_vi).stop_reason is None

    def test_not_serialized(self, params_vi):
        curve = algorithm1(params_vi)
        bare = dataclasses.replace(curve, stop_reason=None)
        assert curve.to_csv() == bare.to_csv()
        assert curve.to_json() == bare.to_json()


class TestWalkAgainstReference:
    """The stacked walk against the one-at-a-time walk, bit for bit."""

    @pytest.mark.parametrize("Q", [19, 200])
    def test_ladder(self, Q):
        params = validate_params(Q=Q, **LADDER)
        assert curve_repr(algorithm1(params)) == curve_repr(walk_reference(params))

    @pytest.mark.parametrize("Q", [5, 6])
    def test_reference_instance(self, Q):
        params = validate_params(0.4, 2, 3, Q, [0, 1, 4, 9])
        assert curve_repr(algorithm1(params)) == curve_repr(walk_reference(params))


def walk_outcome(walk, params):
    try:
        return curve_repr(walk(params))
    except SingularChain:
        return SingularChain


@given(
    family=st.sampled_from(EDGE_FAMILIES),
    alpha=st.floats(0.05, 0.95),
    eps=st.floats(1e-4, 0.02),
    A=st.integers(1, 3),
    extra_m=st.integers(0, 2),
    Q=st.integers(0, 6),
)
@settings(max_examples=40, deadline=None)
def test_walk_edge_instances_match_reference(family, alpha, eps, A, extra_m, Q):
    """alpha near 0 and 1 (alpha = 1 included), Q = 0, M = A and A = 1: the
    same curve, bit for bit, as the one-at-a-time walk, or SingularChain
    from both."""
    params = edge_params(family, alpha, eps, A, extra_m, Q)
    assert walk_outcome(algorithm1, params) == walk_outcome(walk_reference, params)


class TestFrontierEquivalence:
    def test_reference_instance(self, params_vi):
        walk = algorithm1(params_vi)
        brute = brute_force_frontier(params_vi)
        assert curves_match(walk, brute) <= 1e-9
        assert brute.skipped_singular == 539

    def test_random_instances(self, rng):
        for _ in range(3):
            params = random_params(rng)
            walk = algorithm1(params)
            brute = brute_force_frontier(params)
            assert curves_match(walk, brute) <= 1e-9, params

    def test_weakly_convex_tables(self):
        # power tables with a tied increment: convex, so accepted, but not
        # strictly; random_params draws only strictly convex tables.  The
        # increments are multiples of 1/8, so the table is exact and the
        # ties survive validate_params taking the increments back from it.
        rng = np.random.default_rng(20261021)
        drawn = 0
        while drawn < 20:
            A = int(rng.integers(1, 4))
            M = A + int(rng.integers(0, 3))
            Q = int(rng.integers(1, 6))
            alpha = float(rng.uniform(0.15, 0.9))
            if M < 2:
                continue
            inc = np.sort(rng.integers(4, 25, M)) / 8
            tie = int(rng.integers(0, M - 1))
            inc[tie + 1] = inc[tie]
            try:
                params = validate_params(alpha, A, M, Q, [0.0, *np.cumsum(inc)])
            except PowerNotIncreasingPerBit:
                continue  # a tie in the first increment
            drawn += 1
            assert curves_match(algorithm1(params), brute_force_frontier(params)) <= 1e-9, params

    def test_ties_written_in_decimal(self):
        # tables whose tied increments are written in decimal, as a user
        # types them: entries of tenths, a tie that exact comparison of the
        # increments would reject, accepted within model.CONVEX_TOL
        rng = np.random.default_rng(20261022)
        drawn = 0
        while drawn < 8:
            A = int(rng.integers(1, 4))
            M = A + int(rng.integers(0, 3))
            Q = int(rng.integers(3, 6))
            alpha = float(rng.uniform(0.15, 0.9))
            if M < 3:
                continue
            tenths = np.sort(rng.integers(3, 30, M))
            tie = int(rng.integers(1, M - 1))
            tenths[tie + 1] = tenths[tie]
            if tenths[0] == tenths[1]:
                continue  # a tie in the first increment: per-bit cost not rising
            power = [float(f"{c / 10:.1f}") for c in np.cumsum([0, *tenths])]
            steps = np.diff(power)
            if not steps[tie] > steps[tie + 1]:
                continue  # this tie rounds exactly
            params = validate_params(alpha, A, M, Q, power)
            drawn += 1
            assert curves_match(algorithm1(params), brute_force_frontier(params)) <= 1e-9, params

    def test_q_zero_single_vertex(self):
        params = validate_params(0.5, 2, 2, 0, [0, 1, 3])
        walk = algorithm1(params)
        brute = brute_force_frontier(params)
        assert len(walk.vertices) == 1
        assert curves_match(walk, brute) <= 1e-12


    @pytest.mark.parametrize("alpha", [0.4, 0.01])
    def test_brute_force_is_the_hull_of_the_cloud(self, alpha):
        # bit for bit: power, delay and policy bytes of every vertex, against
        # one hull of the whole cloud of the scored stream
        params = validate_params(alpha, 2, 3, 5, [0, 1, 4, 9])
        blocks = list(scored_blocks(params))
        power, delay, maps = (np.concatenate(c) for c in list(zip(*blocks))[:3])
        points = [DelayPowerPoint(p, d, policy_from_actions(params, a))
                  for p, d, a in zip(power.tolist(), delay.tolist(), maps)]
        brute = brute_force_frontier(params)
        assert brute.skipped_singular == sum(b[3] for b in blocks)
        assert curve_repr(brute) == curve_repr(lower_convex_hull(points))

    def test_brute_force_memory_is_bounded_by_block_and_staircase(self):
        # 43,200 policies at ladder K=8 against 7,200 at K=7: the peak is
        # one block's scoring plus the staircase, not the cloud
        def peak(K):
            params = validate_params(Q=K - 3, **LADDER)
            brute_force_frontier(params)  # fills the per-shape caches
            tracemalloc.start()
            try:
                brute_force_frontier(params)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8) <= 1.5 * peak(7)


def block_bytes(block):
    power, delay, maps, singular = block
    return power.tobytes(), delay.tobytes(), maps.tobytes(), singular


def whole_block_scores(params):
    """Per block of `enumerate_deterministic` as `pareto` sees it, the
    scores of one `score_maps` call on the whole block, laid out as
    `scored_blocks` yields them, as bytes."""
    out = []
    for acts in pareto.enumerate_deterministic(params):
        _, kept, power, delay = score_maps(params, acts)
        out.append(block_bytes((power, delay, acts[kept], len(acts) - kept.size)))
    return out


def count_factored(monkeypatch):
    """A list that gets the count of chains of every `mrp.lu_factor` call."""
    factored = []
    original = mrp.lu_factor

    def spy(band, lower, upper, sizes):
        factored.append(len(sizes))
        return original(band, lower, upper, sizes)

    monkeypatch.setattr(mrp, "lu_factor", spy)
    return factored


class TestRunsOfOneChain:
    """`scored_blocks` factors only the first map of each run of maps with
    one closed-prefix chain, and yields the scores of `score_maps` on the
    whole block."""

    @given(
        family=st.sampled_from(EDGE_FAMILIES),
        alpha=st.floats(0.05, 0.95),
        eps=st.floats(1e-4, 0.02),
        A=st.integers(1, 3),
        extra_m=st.integers(0, 2),
        Q=st.integers(0, 4),
    )
    @settings(max_examples=30, deadline=None)
    def test_edge_instances_match_whole_blocks(self, family, alpha, eps, A, extra_m, Q):
        params = edge_params(family, alpha, eps, A, extra_m, Q)
        got = [block_bytes(b) for b in scored_blocks(params)]
        assert got == whole_block_scores(params)

    def test_repeats_apart_match_whole_blocks(self, params_vi, monkeypatch):
        # shuffled rows put the maps of a chain apart: fewer runs share a
        # factorization, and every block still scores as a whole
        rng = np.random.default_rng(5)
        blocks = [acts[rng.permutation(len(acts))] for acts in enumerate_deterministic(params_vi)]
        monkeypatch.setattr(pareto, "enumerate_deterministic", lambda params, cap=None: iter(blocks))
        factored = count_factored(monkeypatch)
        got = [block_bytes(b) for b in scored_blocks(params_vi)]
        assert 1073 < sum(factored) < 2304
        assert got == whole_block_scores(params_vi)

    @pytest.mark.parametrize("Q, policies, chains", [(5, 2304, 1073), (6, 9216, 4246)])
    def test_chains_factored(self, Q, policies, chains, monkeypatch):
        params = validate_params(0.4, 2, 3, Q, [0, 1, 4, 9])
        factored = count_factored(monkeypatch)
        blocks = list(scored_blocks(params))
        assert sum(len(b[2]) + b[3] for b in blocks) == policies
        assert sum(factored) == chains
        assert [block_bytes(b) for b in blocks] == whole_block_scores(params)


class TestCloud:
    def test_cloud_size_and_csv(self, params_vi, tmp_path):
        blocks = list(scored_blocks(params_vi))
        kept = sum(len(b[2]) for b in blocks)
        assert kept + sum(b[3] for b in blocks) == 2304
        write_cloud(params_vi, tmp_path, 2304)
        lines = (tmp_path / "pareto_cloud.csv").read_text().splitlines()
        assert lines[0] == "power,delay,actions,is_threshold"
        assert len(lines) == kept + 1
        flags = {line.rsplit(",", 1)[1] for line in lines[1:]}
        assert flags == {"0", "1"}
        assert len((tmp_path / "pareto_cloud.dat").read_text().splitlines()) == kept

    @pytest.mark.parametrize("alpha, A, M, Q, power", [
        (0.4, 2, 3, 5, [0, 1, 4, 9]),
        (0.01, 2, 3, 5, [0, 1, 4, 9]),
        (0.5, 3, 5, 5, LADDER["power"]),
    ], ids=["reference", "alpha=0.01", "ladder K=8"])
    def test_cli_cloud_files_match_reference(self, alpha, A, M, Q, power, tmp_path):
        flags = ["--alpha", str(alpha), "--A", str(A), "--M", str(M), "--Q", str(Q),
                 "--power", ",".join(map(str, power))]
        assert main(["pareto", *flags, "--out-dir", str(tmp_path)]) == 0
        csv, dat = cloud_reference(validate_params(alpha, A, M, Q, power))
        assert (tmp_path / "pareto_cloud.csv").read_bytes() == csv.encode()
        assert (tmp_path / "pareto_cloud.dat").read_bytes() == dat.encode()

    @pytest.mark.parametrize("params", [
        validate_params(0.4, 2, 3, 5, [0, 1, 4, 9]),
        validate_params(Q=5, **LADDER),
    ], ids=["reference", "ladder K=8"])
    def test_cloud_files_match_the_row_loop(self, params, tmp_path):
        # byte for byte the files of one f-string per row over the stream
        csv = ["power,delay,actions,is_threshold\n"]
        dat = []
        for power, delay, maps, _ in scored_blocks(params):
            flags = policies.is_threshold_map(maps).tolist()
            for p, d, acts, thr in zip(power.tolist(), delay.tolist(), maps.tolist(), flags):
                csv.append(f"{p:.17g},{d:.17g},{' '.join(map(str, acts))},{int(thr)}\n")
                dat.append(f"{p:.17g} {d:.17g}\n")
        write_cloud(params, tmp_path)
        assert (tmp_path / "pareto_cloud.csv").read_bytes() == "".join(csv).encode()
        assert (tmp_path / "pareto_cloud.dat").read_bytes() == "".join(dat).encode()

    def test_cloud_memory_is_bounded_by_block(self, tmp_path):
        # 43,200 policies at ladder K=8 against 7,200 at K=7: the peak is
        # one block's scoring and rows, not the cloud
        def peak(K):
            params = validate_params(Q=K - 3, **LADDER)
            write_cloud(params, tmp_path)  # fills the per-shape caches
            tracemalloc.start()
            try:
                write_cloud(params, tmp_path)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8) <= 1.5 * peak(7)
