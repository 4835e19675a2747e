"""Tracklet interpolation and scene instantiation."""

import math

import numpy as np
import pytest

from helpers import straight_map

from trafficforge import road_graph, scene_ingest
from trafficforge.errors import EmptySceneError
from trafficforge.scene_ingest import (Tracklet, TrackletPose,
                                       instantiate_agents, interpolate_pose,
                                       load_tracklets)


def _tracklet(aid, rows):
    poses = [TrackletPose(t, np.array([x, y], float), h, s)
             for t, x, y, h, s in rows]
    return Tracklet(aid, poses)


def test_interpolate_exact_sample():
    tr = _tracklet(1, [(0.0, 0.0, 0.0, 0.0, 5.0), (1.0, 10.0, 0.0, 0.0, 5.0)])
    p = interpolate_pose(tr, 1.0)
    np.testing.assert_allclose(p.position, [10.0, 0.0])
    assert p.speed == 5.0


def test_interpolate_midpoint():
    tr = _tracklet(1, [(0.0, 0.0, 0.0, 0.0, 4.0), (1.0, 10.0, 0.0, 0.0, 6.0)])
    p = interpolate_pose(tr, 0.5)
    np.testing.assert_allclose(p.position, [5.0, 0.0])
    assert p.speed == pytest.approx(5.0)


def test_interpolate_heading_shortest_arc():
    tr = _tracklet(1, [(0.0, 0.0, 0.0, math.radians(170.0), None),
                       (1.0, 1.0, 0.0, math.radians(-170.0), None)])
    p = interpolate_pose(tr, 0.5)
    assert abs(p.heading) == pytest.approx(math.pi, abs=1e-12)


def test_interpolate_bounds():
    tr = _tracklet(1, [(0.0, 0.0, 0.0, None, None),
                       (1.0, 1.0, 0.0, None, None)])
    with pytest.raises(ValueError):
        interpolate_pose(tr, 2.0)
    with pytest.raises(ValueError):
        interpolate_pose(tr, -0.5)


def test_tracklet_segment_clamps_to_first_and_last_pair():
    tr = _tracklet(1, [(t, 2.0 * t, 0.0, None, None)
                       for t in (0.0, 1.0, 1.0, 2.0, 3.0)])
    got = [tr.segment(t) for t in (-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0)]
    assert got == [0, 0, 0, 2, 2, 3, 3, 3]
    # the last pose's time falls in the last pair, so the finite
    # differences there read poses 3 and 4
    assert scene_ingest._finite_difference_heading(tr, 3.0) == 0.0
    assert scene_ingest._finite_difference_speed(tr, 3.0) == 2.0
    assert _tracklet(1, [(0.0, 0.0, 0.0, None, None)]).segment(4.0) == 0


@pytest.fixture
def straight_graph():
    return road_graph.build_graph(straight_map(200.0))


def test_instantiate_on_lane(straight_graph):
    tr = _tracklet(1, [(0.0, 20.0, 0.0, 0.0, 10.0),
                       (1.0, 30.0, 0.0, 0.0, 10.0)])
    scene = instantiate_agents(straight_graph, [tr], 0.0)
    a = scene.agents[0]
    assert a.state.v == 10.0
    assert a.state.psi == pytest.approx(0.0)  # lane heading, not tracklet
    assert abs(a.lane.lateral_offset) < 1e-9
    assert not scene.dropped


def test_instantiate_off_map_dropped(straight_graph):
    on = _tracklet(1, [(0.0, 20.0, 0.0, 0.0, 10.0)])
    off = _tracklet(2, [(0.0, 20.0, 30.0, 0.0, 10.0)])
    scene = instantiate_agents(straight_graph, [on, off], 0.0)
    assert [a.agent_id for a in scene.agents] == [1]
    assert [(d.agent_id, d.reason) for d in scene.dropped] == [(2, "off-map")]


def test_instantiate_speed_fallback(straight_graph):
    tr = _tracklet(1, [(0.0, 20.0, 0.0, None, None),
                       (0.5, 25.0, 0.0, None, None)])
    scene = instantiate_agents(straight_graph, [tr], 0.0)
    assert scene.agents[0].state.v == pytest.approx(10.0)


def test_spawn_gap_drops_higher_id(straight_graph):
    a = _tracklet(1, [(0.0, 20.0, 0.0, 0.0, 10.0)])
    b = _tracklet(2, [(0.0, 21.0, 0.0, 0.0, 10.0)])  # 1 m apart, bumpers overlap
    scene = instantiate_agents(straight_graph, [a, b], 0.0)
    assert [x.agent_id for x in scene.agents] == [1]
    assert [(d.agent_id, d.reason) for d in scene.dropped] == [(2, "spawn-gap")]


def test_retained_plus_dropped_is_total(straight_graph, rng):
    tracklets = []
    for aid in range(12):
        x = float(rng.uniform(-30, 230))
        y = float(rng.uniform(-20, 20))
        tracklets.append(_tracklet(aid, [(0.0, x, y, 0.0, 5.0)]))
    try:
        scene = instantiate_agents(straight_graph, tracklets, 0.0)
    except EmptySceneError:
        return
    assert len(scene.agents) + len(scene.dropped) == 12
    for a in scene.agents:
        assert abs(a.lane.lateral_offset) <= 10.0
        assert a.state.v >= 0


def test_empty_scene_errors(straight_graph):
    with pytest.raises(EmptySceneError):
        instantiate_agents(straight_graph, [], 0.0)
    far = _tracklet(1, [(0.0, 0.0, 500.0, None, None)])
    with pytest.raises(EmptySceneError):
        instantiate_agents(straight_graph, [far], 0.0)


def test_instantiation_deterministic(straight_graph):
    doc = {"scene_id": "d1", "tracks": [
        {"agent_id": 3, "poses": [{"t": 0.0, "x": 11.0, "y": 0.4,
                                   "heading": 0.02, "speed": 7.5}]},
        {"agent_id": 1, "poses": [{"t": 0.0, "x": 50.0, "y": -0.2,
                                   "speed": 9.0}]},
    ]}
    sid, tracks = load_tracklets(doc)
    s1 = instantiate_agents(straight_graph, tracks, 0.0, sid)
    s2 = instantiate_agents(straight_graph, tracks, 0.0, sid)
    assert _placement(s1) == _placement(s2)


def _placement(scene):
    """Every field instantiation sets: lanes, states, sizes and drops."""
    return ([(a.agent_id, a.lane, a.state.position.tolist(), a.state.v,
              a.state.psi, a.geometry) for a in scene.agents],
            scene.dropped)


def test_heading_hint_selects_direction():
    g = road_graph.build_graph(straight_map(200.0, lanes=2, oneway=False))
    east = _tracklet(1, [(0.0, 100.0, 0.0, 0.0, 8.0)])
    west = _tracklet(2, [(0.0, 100.0, 0.0, math.pi, 8.0)])
    scene = instantiate_agents(g, [east, west], 0.0)
    by_id = {a.agent_id: a for a in scene.agents}
    assert abs(by_id[1].state.psi) < 1e-9
    assert abs(abs(by_id[2].state.psi) - math.pi) < 1e-9
