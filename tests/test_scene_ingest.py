"""Tracklet interpolation and scene instantiation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import GRAPH_ARGS, SPAWN_GAP, straight_map

from trafficforge import road_graph, scene_ingest
from trafficforge.controller import VehicleGeometry
from trafficforge.errors import EmptySceneError
from trafficforge.geometry import central_speed
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
    positions = [p.position for p in tr.poses]
    assert central_speed(tr.times, positions, tr.segment(3.0)) == 2.0
    assert _tracklet(1, [(0.0, 0.0, 0.0, None, None)]).segment(4.0) == 0


@pytest.fixture
def straight_graph():
    return road_graph.build_graph(straight_map(200.0), **GRAPH_ARGS)


def test_instantiate_on_lane(straight_graph):
    tr = _tracklet(1, [(0.0, 20.0, 0.0, 0.0, 10.0),
                       (1.0, 30.0, 0.0, 0.0, 10.0)])
    scene = instantiate_agents(straight_graph, [tr], 0.0, "scene", SPAWN_GAP)
    a = scene.agents[0]
    assert a.state.v == 10.0
    assert a.state.psi == pytest.approx(0.0)  # lane heading, not tracklet
    assert abs(a.lane.lateral_offset) < 1e-9
    assert not scene.dropped


def test_instantiate_off_map_dropped(straight_graph):
    on = _tracklet(1, [(0.0, 20.0, 0.0, 0.0, 10.0)])
    off = _tracklet(2, [(0.0, 20.0, 30.0, 0.0, 10.0)])
    scene = instantiate_agents(straight_graph, [on, off], 0.0, "scene",
                               SPAWN_GAP)
    assert [a.agent_id for a in scene.agents] == [1]
    assert [(d.agent_id, d.reason) for d in scene.dropped] == [(2, "off-map")]


def test_instantiate_speed_fallback(straight_graph):
    tr = _tracklet(1, [(0.0, 20.0, 0.0, None, None),
                       (0.5, 25.0, 0.0, None, None)])
    scene = instantiate_agents(straight_graph, [tr], 0.0, "scene", SPAWN_GAP)
    assert scene.agents[0].state.v == pytest.approx(10.0)


def test_spawn_gap_drops_higher_id(straight_graph):
    a = _tracklet(1, [(0.0, 20.0, 0.0, 0.0, 10.0)])
    b = _tracklet(2, [(0.0, 21.0, 0.0, 0.0, 10.0)])  # 1 m apart, bumpers overlap
    scene = instantiate_agents(straight_graph, [a, b], 0.0, "scene", SPAWN_GAP)
    assert [x.agent_id for x in scene.agents] == [1]
    assert [(d.agent_id, d.reason) for d in scene.dropped] == [(2, "spawn-gap")]


def _thin_oracle(agents, min_spawn_gap):
    """Spawn-gap thinning as first written: per edge, re-sort by arc and
    drop the higher id of the first adjacent pair closer than
    ``min_spawn_gap``, until no such pair is left. Returns the kept ids
    in the order of ``agents`` and the dropped (id, reason) in order."""
    by_edge = {}
    for a in agents:
        by_edge.setdefault(a.lane.edge_id, []).append(a)
    removed = set()
    dropped = []
    for eid, group in sorted(by_edge.items()):
        while True:
            group.sort(key=lambda a: (a.lane.arc_s, a.agent_id))
            loser = None
            for a, b in zip(group, group[1:]):
                gap = abs(b.lane.arc_s - a.lane.arc_s) \
                    - (a.geometry.L + b.geometry.L) / 2.0
                if gap < min_spawn_gap:
                    loser = a if a.agent_id > b.agent_id else b
                    break
            if loser is None:
                break
            group.remove(loser)
            removed.add(loser.agent_id)
            dropped.append((loser.agent_id, "spawn-gap"))
    return [a.agent_id for a in agents if a.agent_id not in removed], dropped


@st.composite
def _spawn_rows(draw):
    """(agent_id, y, x, length) rows on a two-lane road, ids distinct; x
    on a 0.5 m lattice, so arcs repeat and gaps fall on round values."""
    cells = draw(st.lists(st.tuples(st.sampled_from([-1.75, 1.75]),
                                    st.integers(20, 80).map(lambda k: k / 2),
                                    st.sampled_from([3.0, 4.5, 10.0])),
                          min_size=1, max_size=9))
    ids = draw(st.permutations(range(1, len(cells) + 1)))
    return [(aid, *cell) for aid, cell in zip(ids, cells)]


@settings(max_examples=400, deadline=None)
@given(_spawn_rows(),
       st.one_of(st.sampled_from([0.0, 2.0, 5.0]),
                 st.tuples(st.integers(0, 8), st.integers(0, 8))))
# equal arcs: the lower id stays, whichever comes first
@example([(2, -1.75, 20.0, 4.5), (1, -1.75, 20.0, 4.5),
          (3, 1.75, 20.0, 4.5)], 2.0)
# a gap exactly at min_spawn_gap is kept
@example([(2, -1.75, 20.0, 4.5), (1, -1.75, 26.5, 4.5)], 2.0)
# a chain: each drop of the kept top exposes the next conflict
@example([(3, -1.75, 10.0, 4.5), (2, -1.75, 16.6, 4.5),
          (1, -1.75, 17.0, 10.0)], 2.0)
def test_spawn_gap_walk_matches_restarting_oracle(rows, gap):
    graph = road_graph.build_graph(straight_map(100.0, lanes=2), **GRAPH_ARGS)
    tracklets = [Tracklet(aid, [TrackletPose(0.0, np.array([x, y]), 0.0,
                                             5.0)], VehicleGeometry(L=length))
                 for aid, y, x, length in rows]
    placed = instantiate_agents(graph, tracklets, 0.0,
                                "scene", min_spawn_gap=-math.inf).agents
    if isinstance(gap, tuple):
        # a gap some pair of agents has exactly
        a, b = (placed[k % len(placed)] for k in gap)
        gap = abs(b.lane.arc_s - a.lane.arc_s) \
            - (a.geometry.L + b.geometry.L) / 2.0
    scene = instantiate_agents(graph, tracklets, 0.0, "scene", gap)
    kept, dropped = _thin_oracle(placed, gap)
    assert [a.agent_id for a in scene.agents] == kept
    assert [(d.agent_id, d.reason) for d in scene.dropped] == dropped


def test_retained_plus_dropped_is_total(straight_graph, rng):
    tracklets = []
    for aid in range(12):
        x = float(rng.uniform(-30, 230))
        y = float(rng.uniform(-20, 20))
        tracklets.append(_tracklet(aid, [(0.0, x, y, 0.0, 5.0)]))
    try:
        scene = instantiate_agents(straight_graph, tracklets, 0.0, "scene",
                                   SPAWN_GAP)
    except EmptySceneError:
        return
    assert len(scene.agents) + len(scene.dropped) == 12
    for a in scene.agents:
        assert abs(a.lane.lateral_offset) <= 10.0
        assert a.state.v >= 0


def test_empty_scene_errors(straight_graph):
    with pytest.raises(EmptySceneError):
        instantiate_agents(straight_graph, [], 0.0, "scene", SPAWN_GAP)
    far = _tracklet(1, [(0.0, 0.0, 500.0, None, None)])
    with pytest.raises(EmptySceneError):
        instantiate_agents(straight_graph, [far], 0.0, "scene", SPAWN_GAP)


def test_instantiation_deterministic(straight_graph):
    doc = {"scene_id": "d1", "tracks": [
        {"agent_id": 3, "poses": [{"t": 0.0, "x": 11.0, "y": 0.4,
                                   "heading": 0.02, "speed": 7.5}]},
        {"agent_id": 1, "poses": [{"t": 0.0, "x": 50.0, "y": -0.2,
                                   "speed": 9.0}]},
    ]}
    sid, tracks = load_tracklets(doc)
    s1 = instantiate_agents(straight_graph, tracks, 0.0, sid, SPAWN_GAP)
    s2 = instantiate_agents(straight_graph, tracks, 0.0, sid, SPAWN_GAP)
    assert _placement(s1) == _placement(s2)


def _placement(scene):
    """Every field instantiation sets: lanes, states, sizes and drops."""
    return ([(a.agent_id, a.lane, a.state.position, a.state.v,
              a.state.psi, a.geometry) for a in scene.agents],
            scene.dropped)


def test_heading_hint_selects_direction():
    g = road_graph.build_graph(straight_map(200.0, lanes=2, oneway=False),
                               **GRAPH_ARGS)
    east = _tracklet(1, [(0.0, 100.0, 0.0, 0.0, 8.0)])
    west = _tracklet(2, [(0.0, 100.0, 0.0, math.pi, 8.0)])
    scene = instantiate_agents(g, [east, west], 0.0, "scene", SPAWN_GAP)
    by_id = {a.agent_id: a for a in scene.agents}
    assert abs(by_id[1].state.psi) < 1e-9
    assert abs(abs(by_id[2].state.psi) - math.pi) < 1e-9
