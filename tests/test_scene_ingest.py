"""Tracklet interpolation and scene instantiation."""

import math
from bisect import bisect_right
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import GRAPH_ARGS, SPAWN_GAP, straight_map

from trafficforge import road_graph, scene_ingest
from trafficforge.controller import VehicleGeometry
from trafficforge.errors import EmptySceneError
from trafficforge.geometry import central_speed, wrap_angle
from trafficforge.scene_ingest import (Tracklet, instantiate_agents,
                                       interpolate_pose, load_tracklets)


def _tracklet(aid, rows, **fields):
    t, x, y, h, s = zip(*rows)
    return Tracklet(aid, list(t), np.column_stack([x, y]).astype(float),
                    list(h), list(s), **fields)


def test_interpolate_exact_sample():
    tr = _tracklet(1, [(0.0, 0.0, 0.0, 0.0, 5.0), (1.0, 10.0, 0.0, 0.0, 5.0)])
    position, _, speed = interpolate_pose(tr, 1.0)
    np.testing.assert_allclose(position, [10.0, 0.0])
    assert speed == 5.0


def test_interpolate_midpoint():
    tr = _tracklet(1, [(0.0, 0.0, 0.0, 0.0, 4.0), (1.0, 10.0, 0.0, 0.0, 6.0)])
    position, _, speed = interpolate_pose(tr, 0.5)
    np.testing.assert_allclose(position, [5.0, 0.0])
    assert speed == pytest.approx(5.0)


def test_interpolate_heading_shortest_arc():
    tr = _tracklet(1, [(0.0, 0.0, 0.0, math.radians(170.0), None),
                       (1.0, 1.0, 0.0, math.radians(-170.0), None)])
    _, heading, _ = interpolate_pose(tr, 0.5)
    assert abs(heading) == pytest.approx(math.pi, abs=1e-12)


def test_interpolate_bounds():
    tr = _tracklet(1, [(0.0, 0.0, 0.0, None, None),
                       (1.0, 1.0, 0.0, None, None)])
    with pytest.raises(ValueError):
        interpolate_pose(tr, 2.0)
    with pytest.raises(ValueError):
        interpolate_pose(tr, -0.5)


_Pose = namedtuple("_Pose", "t position heading speed")


def _interpolate_per_pose(poses, t):
    """Interpolation over one object per pose, each with its own
    position array: the reference for :func:`interpolate_pose`."""
    if not poses[0].t - 1e-9 <= t <= poses[-1].t + 1e-9:
        raise ValueError(
            f"t={t} outside tracklet range [{poses[0].t}, {poses[-1].t}]")
    i = min(max(bisect_right([p.t for p in poses], t) - 1, 0),
            max(len(poses) - 2, 0))
    p0 = poses[i]
    if len(poses) == 1 or t <= p0.t:
        return _Pose(t, p0.position.copy(), p0.heading, p0.speed)
    p1 = poses[i + 1]
    w = (t - p0.t) / (p1.t - p0.t) if p1.t > p0.t else 0.0
    pos = p0.position + w * (p1.position - p0.position)
    heading = None
    if p0.heading is not None and p1.heading is not None:
        heading = wrap_angle(p0.heading
                             + w * wrap_angle(p1.heading - p0.heading))
    speed = None
    if p0.speed is not None and p1.speed is not None:
        speed = p0.speed + w * (p1.speed - p0.speed)
    return _Pose(t, pos, heading, speed)


@st.composite
def _rows_and_time(draw):
    """1 to 6 (t, x, y, heading, speed) rows, times sorted and often
    repeated, headings and speeds sometimes None; and a time at a pose,
    within the range, or at most 1e-9 s (or 1e-6 s) outside it."""
    n = draw(st.integers(1, 6))
    ts = sorted(draw(st.lists(st.sampled_from([0.0, 0.1, 2.5])
                              | st.floats(-50.0, 50.0),
                              min_size=n, max_size=n)))
    coord = st.floats(-1e3, 1e3)
    rows = [(t, draw(coord), draw(coord),
             draw(st.none() | st.floats(-10.0, 10.0)),
             draw(st.none() | st.floats(0.0, 100.0))) for t in ts]
    t = draw(st.sampled_from(ts) | st.floats(ts[0], ts[-1])
             | st.sampled_from([1e-9, 1e-6]).flatmap(
                 lambda d: st.sampled_from([ts[0] - d, ts[-1] + d])))
    return rows, t


def _bits(x):
    return None if x is None else np.float64(x).tobytes()


@settings(max_examples=500, deadline=None)
@given(_rows_and_time())
@example(([(0.0, 0.0, 0.0, None, None)], 1e-9))
@example(([(1.0, 1.0, 2.0, 3.0, 4.0), (1.0, 5.0, 6.0, -3.0, None)], 1.0))
def test_interpolate_columns_match_per_pose_oracle(rows_and_time):
    rows, t = rows_and_time
    poses = [_Pose(tk, np.array([x, y], float), h, s)
             for tk, x, y, h, s in rows]
    try:
        want = _interpolate_per_pose(poses, t)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            interpolate_pose(_tracklet(1, rows), t)
        assert str(got.value) == str(exc)
        return
    position, heading, speed = interpolate_pose(_tracklet(1, rows), t)
    assert position.dtype == np.float64 and position.shape == (2,)
    assert position.tobytes() == want.position.tobytes()
    assert _bits(heading) == _bits(want.heading)
    assert _bits(speed) == _bits(want.speed)


def test_track_without_poses_is_dropped_at_ingest(straight_graph):
    """``"poses": []`` holds no time: ingest drops the track as
    ``no-pose-at-t0``, and a scene of such tracks is empty."""
    doc = {"tracks": [{"agent_id": 1, "poses": []},
                      {"agent_id": 2, "poses": [{"t": 0.0, "x": 50.0,
                                                 "y": 0.0, "speed": 9.0}]}]}
    sid, tracks = load_tracklets(doc)
    assert not tracks[0].covers(0.0) and tracks[0].xy.shape == (0, 2)
    with pytest.raises(ValueError, match=r"outside tracklet range \[\]"):
        interpolate_pose(tracks[0], 0.0)
    scene = instantiate_agents(straight_graph, tracks, 0.0, sid, SPAWN_GAP)
    assert [a.agent_id for a in scene.agents] == [2]
    assert [(d.agent_id, d.reason) for d in scene.dropped] \
        == [(1, "no-pose-at-t0")]
    with pytest.raises(EmptySceneError, match="every agent was dropped"):
        instantiate_agents(straight_graph, tracks[:1], 0.0, sid, SPAWN_GAP)


def test_tracklet_segment_clamps_to_first_and_last_pair():
    tr = _tracklet(1, [(t, 2.0 * t, 0.0, None, None)
                       for t in (0.0, 1.0, 1.0, 2.0, 3.0)])
    got = [tr.segment(t) for t in (-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0)]
    assert got == [0, 0, 0, 2, 2, 3, 3, 3]
    # the last pose's time falls in the last pair, so the finite
    # differences there read poses 3 and 4
    assert scene_ingest._finite_difference_heading(tr, 3.0) == 0.0
    assert central_speed(tr.t, tr.xy, tr.segment(3.0)) == 2.0
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
    tracklets = [_tracklet(aid, [(0.0, x, y, 0.0, 5.0)],
                           geometry=VehicleGeometry(L=length))
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
