"""Velocity-profile mining, matching and behavior sampling."""

import functools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (approach_point, four_way_intersection, straight_map,
                     straight_source_traj, tracklets_doc, turning_source_traj)

from trafficforge import behavior, geometry, road_graph, scene_ingest
from trafficforge.behavior import (build_profile_pool, distance_before_turn,
                                   feature_for_behavior, match_profile,
                                   sample_behaviors)
from trafficforge.config import SimConfig
from trafficforge.errors import MissingProfileError
from trafficforge.geometry import wrap_angle


def test_distance_before_turn_straight():
    traj = straight_source_traj(10.0, duration=5.0)
    # no onset: the full arc length (50 m) comes back
    assert distance_before_turn(traj) == pytest.approx(50.0, abs=0.2)


def test_distance_before_turn_after_approach():
    traj = turning_source_traj(8.0, 8.0, approach_dist=20.0, radius=10.0)
    assert distance_before_turn(traj) == pytest.approx(20.0, abs=1.5)


def test_distance_before_turn_immediate():
    traj = turning_source_traj(5.0, 5.0, approach_dist=0.5, radius=8.0)
    assert distance_before_turn(traj) < 2.0


def _distance_before_turn_reference(traj, rate_threshold, sustain):
    """The nested-loop onset search that the run scan replaced."""
    traj = np.asarray(traj, dtype=float)
    t = traj[:, 0]
    pts = traj[:, 1:]
    seg = np.diff(pts, axis=0)
    seg_len = np.linalg.norm(seg, axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg_len)])
    headings = np.arctan2(seg[:, 1], seg[:, 0])
    for i in range(1, len(headings)):
        if seg_len[i] < 1e-9:
            headings[i] = headings[i - 1]
    n_rate = len(headings) - 1
    onset = None
    for i in range(n_rate):
        t_start = t[i + 1]
        j = i
        while j < n_rate:
            dt_j = t[j + 2] - t[j + 1]
            if dt_j <= 0:
                break
            rate = wrap_angle(headings[j + 1] - headings[j]) / dt_j
            if abs(rate) <= rate_threshold:
                break
            if t[j + 2] - t_start >= sustain:
                onset = i
                break
            j += 1
        if onset is not None:
            break
    if onset is None:
        return float(arc[-1])
    return float(arc[onset + 1])


@st.composite
def _timed_tracks(draw):
    """(t, x, y) rows with repeated or reversed times and standstills.

    Steps of 0.25 s and 0.5 s are exact in binary, so a run can last
    exactly ``sustain``.
    """
    n = draw(st.integers(3, 25))
    dts = draw(st.lists(st.sampled_from([0.25, 0.5, 0.1, 0.0, -0.25]),
                        min_size=n - 1, max_size=n - 1))
    turns = draw(st.lists(st.one_of(st.just(0.0), st.floats(-0.6, 0.6)),
                          min_size=n - 1, max_size=n - 1))
    steps = draw(st.lists(st.sampled_from([0.0, 0.5, 1.5]),
                          min_size=n - 1, max_size=n - 1))
    psi = np.cumsum(turns)
    xy = np.zeros((n, 2))
    xy[1:] = np.cumsum(np.column_stack([steps * np.cos(psi),
                                        steps * np.sin(psi)]), axis=0)
    t = np.concatenate([[0.0], np.cumsum(dts)])
    return np.column_stack([t, xy])


def _track(times, turns, step=1.0):
    psi = np.cumsum(turns)
    xy = np.zeros((len(times), 2))
    xy[1:] = np.cumsum(step * np.column_stack([np.cos(psi), np.sin(psi)]),
                       axis=0)
    return np.column_stack([times, xy])


# only the first rate sample turns in _FIRST, only the last in _LAST
_FIRST = _track([0.0, 0.5, 1.0, 1.5, 2.0], [0.0, 0.5, 0.0, 0.0])
_LAST = _track([0.0, 0.5, 1.0, 1.5, 2.0], [0.0, 0.0, 0.0, 0.5])


@settings(max_examples=400, deadline=None)
@given(_timed_tracks(), st.floats(0.05, 0.3),
       st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                 st.floats(0.0, 1.0)))
def test_distance_before_turn_matches_nested_loop(traj, threshold, sustain):
    assert distance_before_turn(traj, threshold, sustain) \
        == _distance_before_turn_reference(traj, threshold, sustain)


@pytest.mark.parametrize("traj, sustain, onset", [
    (_FIRST, 0.0, 0), (_FIRST, 0.5, 0), (_FIRST, 0.75, None),
    (_LAST, 0.0, 2), (_LAST, 0.5, 2), (_LAST, 0.75, None)])
def test_distance_before_turn_onset_at_first_and_last_rate(traj, sustain,
                                                           onset):
    arc = np.concatenate([[0.0], np.cumsum(np.linalg.norm(
        np.diff(traj[:, 1:], axis=0), axis=1))])
    want = arc[-1] if onset is None else arc[onset + 1]
    assert distance_before_turn(traj, 0.1, sustain) == want


def test_build_pool_constant_straight():
    traj = straight_source_traj(10.0, duration=7.0)
    pool = build_profile_pool([traj], 0.1)
    assert len(pool) == 1
    p = pool.profiles[0]
    assert p.maneuver == "straight"
    np.testing.assert_allclose(p.samples, 10.0, atol=1e-6)
    assert p.feature == pytest.approx(10.0, abs=1e-6)


def test_build_pool_turn_feature_matches_construction():
    traj = turning_source_traj(10.0, 4.0, approach_dist=30.0, radius=9.0,
                               direction="left")
    pool = build_profile_pool([traj], 0.1)
    p = pool.profiles[0]
    assert p.maneuver == "left"
    assert p.feature == pytest.approx(30.0, abs=2.0)


def test_build_pool_skips_bad_input():
    good = straight_source_traj(8.0)
    too_short = np.array([[0.0, 0.0, 0.0], [0.1, 1.0, 0.0]])
    pool = build_profile_pool([good, too_short], 0.1)
    assert len(pool) == 1
    assert pool.skipped == [(1, "too-short")]


def test_pool_from_json_has_no_skipped_trajectories():
    good = straight_source_traj(8.0)
    pool = build_profile_pool([good, good[:2]], 0.1)
    assert pool.skipped == [(1, "too-short")]
    doc = json.loads(pool.to_json())
    assert behavior.ProfilePool.from_json(doc).skipped == []


def test_empty_pool_errors_at_sampling():
    pool = build_profile_pool([], 0.1)
    assert len(pool) == 0
    with pytest.raises(MissingProfileError):
        match_profile(pool, "straight", 10.0, rng_seed=0)


def test_match_profile_exact_noise_free(profile_pool):
    src = profile_pool.profiles[profile_pool.by_label["straight"][0]]
    got = match_profile(profile_pool, "straight", src.feature, 0,
                        noise_std=0.0)
    np.testing.assert_array_equal(got.samples, src.samples)


def test_match_profile_nearest_neighbor():
    mk = lambda f: behavior.VelocityProfile(np.full(10, f), f, "straight")
    pool = behavior.ProfilePool([mk(10.0), mk(15.0)], 0.1)
    got = match_profile(pool, "straight", 12.0, 0, noise_std=0.0)
    assert got.feature == 10.0  # distance 2 < 3


def test_match_profile_linear_scan_oracle(profile_pool, rng):
    for _ in range(100):
        label = rng.choice(["left", "right", "straight"])
        q = float(rng.uniform(0, 80))
        got = match_profile(profile_pool, label, q, 0, noise_std=0.0)
        dists = [(abs(profile_pool.profiles[i].feature - q), i)
                 for i in profile_pool.by_label[label]]
        best = min(dists)[1]
        assert got.feature == profile_pool.profiles[best].feature


def test_match_profile_noise_clamped_and_seeded(profile_pool):
    a = match_profile(profile_pool, "left", 20.0, rng_seed=5)
    b = match_profile(profile_pool, "left", 20.0, rng_seed=5)
    c = match_profile(profile_pool, "left", 20.0, rng_seed=6)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)
    assert (a.samples >= 0).all()
    assert (c.samples >= 0).all()


def _intersection_scene(dist=35.0, speed=8.0):
    g = road_graph.build_graph(four_way_intersection())
    x, y, psi = approach_point(0, dist)
    doc = tracklets_doc("b1", [(1, x, y, psi, speed)])
    sid, tracks = scene_ingest.load_tracklets(doc)
    return g, scene_ingest.instantiate_agents(g, tracks, 0.0, sid)


def test_feature_straight_is_initial_speed(profile_pool):
    g, scene = _intersection_scene(speed=8.0)
    agent = scene.agents[0]
    routes = road_graph.enumerate_routes(g, agent.lane)
    straight = next(r for r in routes if r.maneuver == "straight")
    assert feature_for_behavior(agent, straight) == pytest.approx(8.0)


def test_feature_turn_distance_to_junction(profile_pool):
    g, scene = _intersection_scene(dist=35.0)
    agent = scene.agents[0]
    routes = road_graph.enumerate_routes(g, agent.lane)
    left = next(r for r in routes if r.maneuver == "left")
    # the arc starts right at the junction entrance, 35 m ahead
    assert feature_for_behavior(agent, left) == pytest.approx(35.0, abs=2.5)


def test_feature_turn_onset_at_start(profile_pool):
    g, scene = _intersection_scene(dist=1.0)
    agent = scene.agents[0]
    routes = road_graph.enumerate_routes(g, agent.lane)
    left = next(r for r in routes if r.maneuver == "left")
    assert feature_for_behavior(agent, left) <= 3.0


def _curvature_onset_reference(route, threshold, sustain_arc, arc_step=0.5):
    """The loop that found a route's turn onset before the run scan."""
    pts = geometry.resample_polyline(route.polyline, arc_step)
    headings = geometry.segment_headings(pts)
    run_start = None
    for i in range(len(headings) - 1):
        curv = abs(wrap_angle(headings[i + 1] - headings[i])) / arc_step
        if curv > threshold:
            if run_start is None:
                run_start = i
            if (i - run_start + 1) * arc_step >= sustain_arc:
                return float((run_start + 1) * arc_step)
        else:
            run_start = None
    return float(route.total_length)


@functools.lru_cache(maxsize=None)
def _four_way_graph(junction, half_lane):
    return road_graph.build_graph(
        four_way_intersection(junction=junction, half_lane=half_lane))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([6.0, 8.0, 10.0, 13.0, 16.0]),
       st.sampled_from([1.5, 1.75, 2.0]),
       st.sampled_from([0, 90, 180, 270]), st.floats(0.5, 40.0),
       st.floats(0.02, 0.3),
       st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.5]),
                 st.floats(0.0, 3.0)))
def test_feature_matches_curvature_loop(junction, half_lane, deg, dist,
                                        threshold, sustain):
    g = _four_way_graph(junction, half_lane)
    x, y, _ = approach_point(deg, dist, junction=junction,
                             half_lane=half_lane)
    lane = road_graph.project_to_lane(g, np.array([x, y]))
    with mock.patch.object(behavior, "TURN_CURVATURE_THRESHOLD", threshold), \
            mock.patch.object(behavior, "TURN_CURVATURE_SUSTAIN", sustain):
        for route in road_graph.enumerate_routes(g, lane):
            if route.maneuver != "straight":
                assert feature_for_behavior(None, route) \
                    == _curvature_onset_reference(route, threshold, sustain)


def test_sample_behaviors_covers_labels(profile_pool):
    g, scene = _intersection_scene()
    variants = sample_behaviors(scene, profile_pool, rng_seed=9,
                                config=SimConfig(max_variants=3))
    assert len(variants) == 3
    labels = {v[1].label for v in variants}
    assert labels == {"left", "right", "straight"}


def test_sample_behaviors_forced_single_route(profile_pool):
    g = road_graph.build_graph(straight_map(400.0))
    doc = tracklets_doc("f1", [(1, 10.0, 0.0, 0.0, 9.0)])
    sid, tracks = scene_ingest.load_tracklets(doc)
    scene = scene_ingest.instantiate_agents(g, tracks, 0.0, sid)
    variants = sample_behaviors(scene, profile_pool, rng_seed=4,
                                config=SimConfig(max_variants=3))
    # one admissible behavior: duplicates collapse to a single variant set
    assert len(variants) == 1
    assert all(v[1].label == "straight" for v in variants)


def test_sample_behaviors_deterministic(profile_pool):
    g, scene = _intersection_scene()
    a = sample_behaviors(scene, profile_pool, 11, SimConfig(max_variants=3))
    b = sample_behaviors(scene, profile_pool, 11, SimConfig(max_variants=3))
    assert len(a) == len(b)
    for va, vb in zip(a, b):
        assert va.keys() == vb.keys()
        for aid in va:
            assert va[aid].label == vb[aid].label
            if va[aid].route is not None:
                assert va[aid].route.edge_ids == vb[aid].route.edge_ids
                np.testing.assert_array_equal(va[aid].profile.samples,
                                              vb[aid].profile.samples)


def test_sample_behaviors_never_exceeds_max(profile_pool):
    g, scene = _intersection_scene()
    for mv in (1, 2, 3, 5):
        variants = sample_behaviors(scene, profile_pool, rng_seed=2,
                                    config=SimConfig(max_variants=mv))
        assert 1 <= len(variants) <= mv


def test_assignment_label_matches_route_geometry(profile_pool):
    g, scene = _intersection_scene()
    for variant in sample_behaviors(scene, profile_pool, 21,
                                    SimConfig(max_variants=3)):
        for asg in variant.values():
            if asg.route is not None:
                assert asg.label == road_graph.classify_maneuver(
                    asg.route.polyline)


def test_static_assignment_for_routeless_agent(profile_pool):
    # agent sitting at the very end of a dead-end lane has no route
    g = road_graph.build_graph(straight_map(50.0))
    doc = tracklets_doc("s1", [(1, 50.0, 0.0, 0.0, 0.0)], n_poses=1)
    sid, tracks = scene_ingest.load_tracklets(doc)
    scene = scene_ingest.instantiate_agents(g, tracks, 0.0, sid)
    variants = sample_behaviors(scene, profile_pool, 3,
                                SimConfig(max_variants=3))
    assert variants[0][1].route is None
    assert variants[0][1].label == "static"


def test_pool_json_roundtrip(profile_pool):
    doc = json.loads(profile_pool.to_json())
    back = behavior.ProfilePool.from_json(doc)
    assert len(back) == len(profile_pool)
    for p, q in zip(profile_pool.profiles, back.profiles):
        assert p.maneuver == q.maneuver
        assert p.feature == pytest.approx(q.feature)
        np.testing.assert_allclose(p.samples, q.samples)
