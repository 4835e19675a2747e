"""Velocity-profile mining, matching and behavior sampling."""

import numpy as np
import pytest

from helpers import (approach_point, four_way_intersection, straight_map,
                     straight_source_traj, tracklets_doc, turning_source_traj)

from trafficforge import behavior, road_graph, scene_ingest
from trafficforge.behavior import (build_profile_pool, distance_before_turn,
                                   feature_for_behavior, match_profile,
                                   sample_behaviors)
from trafficforge.errors import MissingProfileError


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
    mk = lambda f: behavior.VelocityProfile(0.1, np.full(10, f), f, "straight")
    pool = behavior.ProfilePool([mk(10.0), mk(15.0)])
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


def test_sample_behaviors_covers_labels(profile_pool):
    g, scene = _intersection_scene()
    variants = sample_behaviors(scene, g, profile_pool, rng_seed=9,
                                max_variants=3)
    assert len(variants) == 3
    labels = {v[1].label for v in variants}
    assert labels == {"left", "right", "straight"}


def test_sample_behaviors_forced_single_route(profile_pool):
    g = road_graph.build_graph(straight_map(400.0))
    doc = tracklets_doc("f1", [(1, 10.0, 0.0, 0.0, 9.0)])
    sid, tracks = scene_ingest.load_tracklets(doc)
    scene = scene_ingest.instantiate_agents(g, tracks, 0.0, sid)
    variants = sample_behaviors(scene, g, profile_pool, rng_seed=4,
                                max_variants=3)
    # one admissible behavior: duplicates collapse to a single variant set
    assert len(variants) == 1
    assert all(v[1].label == "straight" for v in variants)


def test_sample_behaviors_deterministic(profile_pool):
    g, scene = _intersection_scene()
    a = sample_behaviors(scene, g, profile_pool, rng_seed=11, max_variants=3)
    b = sample_behaviors(scene, g, profile_pool, rng_seed=11, max_variants=3)
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
        variants = sample_behaviors(scene, g, profile_pool, rng_seed=2,
                                    max_variants=mv)
        assert 1 <= len(variants) <= mv


def test_assignment_label_matches_route_geometry(profile_pool):
    g, scene = _intersection_scene()
    for variant in sample_behaviors(scene, g, profile_pool, 21, 3):
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
    variants = sample_behaviors(scene, g, profile_pool, 3, 3)
    assert variants[0][1].route is None
    assert variants[0][1].label == "static"


def test_pool_json_roundtrip(profile_pool):
    doc = profile_pool.to_json()
    back = behavior.ProfilePool.from_json(doc)
    assert len(back) == len(profile_pool)
    for p, q in zip(profile_pool.profiles, back.profiles):
        assert p.maneuver == q.maneuver
        assert p.feature == pytest.approx(q.feature)
        np.testing.assert_allclose(p.samples, q.samples)
