import json
from collections import Counter

import numpy as np
import pytest

from dpsched import model, policies
from dpsched.model import validate_params
from dpsched.mrp import DelayPowerPoint
from dpsched.pareto import (
    ParetoCurve,
    algorithm1,
    brute_force_frontier,
    cloud_to_csv,
    deterministic_cloud,
    lower_convex_hull,
)
from dpsched.verify import curves_match

from conftest import random_params


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


class TestCurveInvariants:
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

    def test_serialization(self, params_vi):
        curve = algorithm1(params_vi)
        csv = curve.to_csv()
        assert csv.splitlines()[0] == "power,delay,thresholds"
        assert len(csv.splitlines()) == len(curve.vertices) + 1
        doc = json.loads(curve.to_json())
        assert len(doc["vertices"]) == len(curve.vertices)
        assert len(doc["segments"]) == len(curve.vertices) - 1
        assert doc["vertices"][0]["thresholds"] == [0, 1, 7, 7]

    def test_walk_maps_raised_vectors_only_in_neighbor_generation(self, monkeypatch):
        # the walk builds each raised vector's policy from the action map
        # neighbor generation made, instead of mapping the vector again
        outside = Counter()
        original = model.threshold_action_map

        def counting(params, tp):
            outside[tp.thresholds] += 1
            return original(params, tp)

        params = validate_params(0.5, 3, 5, 19, [0, 1, 4, 9, 16, 25])  # ladder K=22
        start = policies.initial_threshold_policy(params).thresholds
        monkeypatch.setattr(model, "threshold_action_map", counting)
        assert len(algorithm1(params).vertices) == 28
        # only the starting vector: its raw form once to complete it, and
        # the completed vector once for its policy
        assert outside[start] == 1
        assert sum(outside.values()) == 2


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

    def test_q_zero_single_vertex(self):
        params = validate_params(0.5, 2, 2, 0, [0, 1, 3])
        walk = algorithm1(params)
        brute = brute_force_frontier(params)
        assert len(walk.vertices) == 1
        assert curves_match(walk, brute) <= 1e-12


class TestCloud:
    def test_cloud_size_and_csv(self, params_vi):
        points, skipped = deterministic_cloud(params_vi)
        assert len(points) + skipped == 2304
        csv = cloud_to_csv(params_vi, points)
        lines = csv.splitlines()
        assert lines[0] == "power,delay,actions,is_threshold"
        assert len(lines) == len(points) + 1
        flags = {line.rsplit(",", 1)[1] for line in lines[1:]}
        assert flags == {"0", "1"}
