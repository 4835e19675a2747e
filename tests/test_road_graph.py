"""Graph construction, projection, routing and maneuver classification."""

import hashlib
import math
import pickle
import types

import numpy as np
import pytest

from helpers import (approach_point, four_way_intersection, ring_map,
                     straight_map)

from trafficforge import behavior, geometry, road_graph
from trafficforge.errors import (MapFormatError, OffMapError,
                               ZeroLengthRouteError)
from trafficforge.road_graph import (build_graph, classify_maneuver,
                                     enumerate_routes, project_to_lane)


def test_single_oneway_lane():
    g = build_graph(straight_map(100.0))
    assert len(g.nodes) == 2
    assert len(g.edges) == 1
    assert g.edges[0].length == pytest.approx(100.0)


def test_bidirectional_two_lane_offsets():
    g = build_graph(straight_map(100.0, lanes=2, oneway=False, lane_width=3.5))
    assert len(g.edges) == 2
    fwd, bwd = g.edges[0], g.edges[1]
    # forward keeps the drawn direction on the right-hand side
    np.testing.assert_allclose(fwd.polyline[0], [0.0, -1.75])
    np.testing.assert_allclose(fwd.polyline[-1], [100.0, -1.75])
    np.testing.assert_allclose(bwd.polyline[0], [100.0, 1.75])
    np.testing.assert_allclose(bwd.polyline[-1], [0.0, 1.75])


def _merge_oracle(endpoints, tol):
    """Brute-force endpoint clustering (union-find)."""
    parent = list(range(len(endpoints)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(endpoints)):
        for j in range(i + 1, len(endpoints)):
            if np.linalg.norm(np.subtract(endpoints[i], endpoints[j])) <= tol:
                parent[find(i)] = find(j)
    return len({find(i) for i in range(len(endpoints))})


def test_t_junction_merging():
    spec = {"centerlines": [
        {"id": 0, "points": [[0, 0], [50, 0]], "lanes": 1, "oneway": True},
        {"id": 1, "points": [[50, 0], [100, 0]], "lanes": 1, "oneway": True},
        {"id": 2, "points": [[50, 0], [50, 60]], "lanes": 1, "oneway": True},
    ]}
    g = build_graph(spec)
    endpoints = []
    for cl in spec["centerlines"]:
        endpoints.append(cl["points"][0])
        endpoints.append(cl["points"][-1])
    assert len(g.nodes) == _merge_oracle(endpoints, 0.5) == 4
    assert len(g.edges) == 3
    junction = g.edges[0].to_node
    assert set(g.outgoing(junction)) == {1, 2}
    incoming = [e.id for e in g.edges.values() if e.to_node == junction]
    assert incoming == [0]


def test_degenerate_centerline_rejected():
    spec = {"centerlines": [{"id": 7, "points": [[0, 0], [0, 0], [10, 0]],
                             "lanes": 1, "oneway": True}]}
    with pytest.raises(MapFormatError) as exc:
        build_graph(spec)
    assert exc.value.centerline_id == 7


def test_edge_length_matches_arc_length(intersection_graph):
    for e in intersection_graph.edges.values():
        arc = float(np.linalg.norm(np.diff(e.polyline, axis=0), axis=1).sum())
        assert e.length == pytest.approx(arc, rel=1e-9)
        assert e.lane_width > 0


def test_project_on_centerline():
    g = build_graph(straight_map(100.0))
    c = project_to_lane(g, (30.0, 0.0))
    assert c.lateral_offset == pytest.approx(0.0, abs=1e-12)
    assert c.arc_s == pytest.approx(30.0)


def test_project_left_offset_sign():
    g = build_graph(straight_map(100.0))
    c = project_to_lane(g, (30.0, 2.0))
    assert c.lateral_offset == pytest.approx(2.0)
    c = project_to_lane(g, (30.0, -1.5))
    assert c.lateral_offset == pytest.approx(-1.5)


def test_project_heading_tiebreak():
    g = build_graph(straight_map(100.0, lanes=2, oneway=False))
    east = project_to_lane(g, (50.0, 0.0), heading_hint=0.0)
    west = project_to_lane(g, (50.0, 0.0), heading_hint=math.pi)
    assert abs(east.lane_heading) < 1e-9
    assert abs(abs(west.lane_heading) - math.pi) < 1e-9
    # without a hint the lower edge id wins
    assert project_to_lane(g, (50.0, 0.0)).edge_id == 0


def test_project_off_map():
    g = build_graph(straight_map(100.0))
    with pytest.raises(OffMapError) as exc:
        project_to_lane(g, (50.0, 30.0))
    # the perpendicular distance to the lane, not to a sample point on it
    assert exc.value.distance == 30.0


def test_project_sample_roundtrip(intersection_graph, rng):
    for _ in range(100):
        eid = int(rng.choice(sorted(intersection_graph.edges)))
        edge = intersection_graph.edges[eid]
        s = float(rng.uniform(0, edge.length))
        p, h = edge.point_at(s)
        lateral = float(rng.uniform(-1.2, 1.2))
        normal = np.array([-math.sin(h), math.cos(h)])
        q = p + lateral * normal
        coord = project_to_lane(intersection_graph, q)
        foot, _ = intersection_graph.edges[coord.edge_id].point_at(coord.arc_s)
        assert np.linalg.norm(q - foot) == pytest.approx(
            abs(coord.lateral_offset), abs=1e-6)


def _dfs_oracle(graph, start_eid, start_arc, horizon):
    """Independent recursive exhaustive DFS over the adjacency."""
    results = []

    def rec(path, dist, node):
        succ = graph.outgoing(node)
        if dist >= horizon or not succ:
            results.append(list(path))
            return
        for eid in succ:
            e = graph.edges[eid]
            rec(path + [eid], dist + e.length, e.to_node)

    first = graph.edges[start_eid]
    remaining = first.length - start_arc
    if remaining > 1e-9:
        rec([start_eid], remaining, first.to_node)
    else:
        for eid in graph.outgoing(first.to_node):
            e = graph.edges[eid]
            rec([eid], e.length, e.to_node)
    return results


def test_enumerate_single_chain():
    spec = {"centerlines": [
        {"id": 0, "points": [[0, 0], [40, 0]], "lanes": 1, "oneway": True},
        {"id": 1, "points": [[40, 0], [70, 0]], "lanes": 1, "oneway": True},
    ]}
    g = build_graph(spec)
    start = project_to_lane(g, (5.0, 0.0))
    routes = enumerate_routes(g, start, horizon_dist=500.0)
    assert len(routes) == 1
    assert routes[0].edge_ids == [0, 1]


def test_enumerate_three_branches(intersection_graph):
    start = project_to_lane(intersection_graph, (-50.0, -1.75),
                            heading_hint=0.0)
    routes = enumerate_routes(intersection_graph, start)
    assert len(routes) == 3
    assert sorted(r.maneuver for r in routes) == ["left", "right", "straight"]


def test_enumerate_matches_dfs_oracle(intersection_graph):
    # two-level branching: 80 m arms mean the horizon crosses the junction
    start = project_to_lane(intersection_graph, (-60.0, -1.75),
                            heading_hint=0.0)
    for horizon in (50.0, 120.0, 200.0, 400.0):
        routes = enumerate_routes(intersection_graph, start,
                                  horizon_dist=horizon, max_routes=64)
        oracle = _dfs_oracle(intersection_graph, start.edge_id,
                             start.arc_s, horizon)
        assert [list(r.edge_ids) for r in routes] == oracle


def test_enumerate_two_level_branching():
    # a synthetic 2-then-2 branching tree: 4 leaves
    spec = {"centerlines": [
        {"id": 0, "points": [[0, 0], [20, 0]], "lanes": 1, "oneway": True},
        {"id": 1, "points": [[20, 0], [40, 10]], "lanes": 1, "oneway": True},
        {"id": 2, "points": [[20, 0], [40, -10]], "lanes": 1, "oneway": True},
        {"id": 3, "points": [[40, 10], [60, 20]], "lanes": 1, "oneway": True},
        {"id": 4, "points": [[40, 10], [60, 0]], "lanes": 1, "oneway": True},
        {"id": 5, "points": [[40, -10], [60, 0]], "lanes": 1, "oneway": True},
        {"id": 6, "points": [[40, -10], [60, -20]], "lanes": 1, "oneway": True},
    ]}
    g = build_graph(spec)
    start = project_to_lane(g, (1.0, 0.0))
    routes = enumerate_routes(g, start, horizon_dist=500.0)
    assert len(routes) == 4
    assert [list(r.edge_ids) for r in routes] == _dfs_oracle(g, 0, 1.0, 500.0)


def test_enumerate_max_routes_cap():
    g = build_graph(four_way_intersection())
    start = project_to_lane(g, (-50.0, -1.75), heading_hint=0.0)
    routes = enumerate_routes(g, start, horizon_dist=1000.0, max_routes=2)
    assert len(routes) == 2


def test_route_s_of_revisited_edge():
    # the loop route starts 20 m into edge 0 and comes back onto all of it
    g = build_graph(ring_map(50.0))
    start = road_graph.LaneCoordinate(0, 20.0, 0.0, 0.0)
    route = enumerate_routes(g, start, horizon_dist=230.0)[0]
    assert route.edge_ids == [0, 1, 2, 3, 0]
    assert route.route_s_of(0, 30.0) == 10.0     # first visit
    assert route.route_s_of(0, 10.0) == 190.0    # behind the start: second
    assert route.route_s_of(2, 5.0) == 85.0
    assert route.route_s_of(7, 5.0) is None
    for arc in np.linspace(0.0, 50.0, 41):
        ref = next((s0 + (arc - a0) for e, s0, a0 in route.edge_spans
                    if e == 0 and arc >= a0 - 1e-9), None)
        assert route.route_s_of(0, float(arc)) == ref


def test_route_maneuver_matches_classify(intersection_graph):
    for deg in (0, 90, 180, 270):
        x, y, _ = approach_point(deg, 30.0)
        start = project_to_lane(intersection_graph, (x, y))
        for route in enumerate_routes(intersection_graph, start):
            assert route.maneuver == classify_maneuver(route.polyline)
            assert route.cumulative_heading_change == \
                geometry.polyline_tables(route.polyline)[2]


def test_classify_collinear():
    assert classify_maneuver([[0, 0], [10, 0], [20, 0]]) == "straight"


def test_classify_quarter_circle_left():
    ang = np.linspace(-math.pi / 2, 0.0, 30)
    pts = np.column_stack([20 * np.cos(ang), 20 + 20 * np.sin(ang)])
    assert classify_maneuver(pts) == "left"


def test_classify_minus_40_degrees():
    # two straight segments meeting at -40 degrees of heading change
    pts = [[0, 0], [10, 0],
           [10 + 10 * math.cos(math.radians(-40)),
            10 * math.sin(math.radians(-40))]]
    assert classify_maneuver(pts) == "right"
    # and +20 degrees stays straight under the 30 degree default
    pts = [[0, 0], [10, 0],
           [10 + 10 * math.cos(math.radians(20)),
            10 * math.sin(math.radians(20))]]
    assert classify_maneuver(pts) == "straight"


def test_classify_rigid_motion_invariance(rng):
    base = np.column_stack([np.linspace(0, 40, 25),
                            np.sin(np.linspace(0, 2.5, 25)) * 8])
    label = classify_maneuver(base)
    for _ in range(20):
        a = float(rng.uniform(-math.pi, math.pi))
        R = np.array([[math.cos(a), -math.sin(a)],
                      [math.sin(a), math.cos(a)]])
        moved = base @ R.T + rng.uniform(-100, 100, size=2)
        assert classify_maneuver(moved) == label


def test_sample_centerline():
    g = build_graph(straight_map(100.0))
    start = project_to_lane(g, (0.0, 0.0))
    route = enumerate_routes(g, start, horizon_dist=500.0)[0]
    p, h = route.point_at(0.0)
    np.testing.assert_allclose(p, [0.0, 0.0], atol=1e-12)
    p, h = route.point_at(37.5)
    np.testing.assert_allclose(p, [37.5, 0.0], atol=1e-12)
    assert h == pytest.approx(0.0)
    with pytest.raises(ValueError):
        route.point_at(101.0)
    with pytest.raises(ValueError):
        route.point_at(-1.0)


def test_sample_centerline_vertex_tie_rule():
    spec = {"centerlines": [{"id": 0, "points": [[0, 0], [10, 0], [10, 10]],
                             "lanes": 1, "oneway": True}]}
    g = build_graph(spec)
    start = project_to_lane(g, (0.0, 0.0))
    route = enumerate_routes(g, start, horizon_dist=500.0)[0]
    p, h = route.point_at(10.0)  # interior vertex
    np.testing.assert_allclose(p, [10.0, 0.0], atol=1e-12)
    assert h == pytest.approx(math.pi / 2)  # heading of the following segment


def test_u_turn_flag(intersection_graph):
    start = project_to_lane(intersection_graph, (-50.0, -1.75),
                            heading_hint=0.0)
    routes = enumerate_routes(intersection_graph, start)
    assert all(abs(r.cumulative_heading_change) <= math.radians(150)
               for r in routes)


def test_segment_table_distances_match_project_point(rng):
    g = build_graph(four_way_intersection())
    table = g.lane_index
    q = rng.uniform(-100.0, 100.0, size=(40, 2))
    out = table.distances(q)
    assert out.shape == (len(q), len(g.edges))
    assert table.edge_ids.tolist() == sorted(g.edges)
    for col, eid in enumerate(table.edge_ids):
        edge = g.edges[eid]
        assert out[:, col].tolist() == [
            geometry.project_point(edge.table, p)[1] for p in q]
    assert (table.half_width == [g.edges[e].lane_width / 2.0
                                 for e in table.edge_ids]).all()


def test_route_heading_at_matches_point_at(rng):
    g = build_graph(four_way_intersection())
    routes = []
    for deg in (0, 90):
        x, y, psi = approach_point(deg, 12.5)
        routes += enumerate_routes(g, project_to_lane(g, (x, y), psi))
    ring = build_graph(ring_map())
    routes += enumerate_routes(ring, project_to_lane(ring, (20.0, 0.5)),
                               horizon_dist=120.0)
    assert {r.maneuver for r in routes} == {"left", "right", "straight"}
    edges = g.edges.values()
    for path, heading_at in [((r.polyline, r.cum), r.heading_at)
                             for r in routes] + \
            [((e.polyline, e.cum), e.table.heading_at) for e in edges]:
        total = float(path[1][-1])
        s_values = path[1].tolist() + [0.0, total, -3.0, total + 3.0,
                                       *rng.uniform(0.0, total, 50)]
        for s in s_values:
            want = geometry.point_at(*path, min(max(s, 0.0), total))[1]
            assert heading_at(s) == want


def test_route_geometry_is_built_on_first_use():
    g = build_graph(four_way_intersection())
    x, y, psi = approach_point(0, 12.5)
    routes = enumerate_routes(g, project_to_lane(g, (x, y), psi))
    assert all("_tables" not in vars(r) for r in routes)
    # the edge spans are there without the geometry
    assert routes[0].route_s_of(routes[0].edge_ids[1], 0.0) is not None
    assert "_tables" not in vars(routes[0])
    assert routes[0].total_length > 0.0
    assert "_tables" in vars(routes[0]) and "table" not in vars(routes[0])


def test_route_without_drivable_length_raises_on_geometry_use():
    # 5e-9 m short of the end of a lane at x = 1e8, where a coordinate
    # step is 1.5e-8 m: the route's start and end points coincide
    g = build_graph({"centerlines": [{"id": 0, "points": [[1e8, 0.0],
                                                          [1e8 + 10.0, 0.0]]}]})
    start = road_graph.LaneCoordinate(0, 10.0 - 5e-9, 0.0, 0.0)
    (route,) = enumerate_routes(g, start)
    for read in (lambda r: r.maneuver, lambda r: r.total_length,
                 lambda r: r.project_near((1e8 + 10.0, 0.0), 0.0)):
        with pytest.raises(ZeroLengthRouteError,
                           match="route has no drivable length"):
            read(route)
    agent = types.SimpleNamespace(agent_id=1, lane=start)
    with pytest.raises(ZeroLengthRouteError,
                       match="route has no drivable length"):
        behavior.sample_behaviors(
            types.SimpleNamespace(agents=[agent], graph=g),
            behavior.ProfilePool([]), 0)


def test_graph_pickles_without_its_index():
    g = build_graph(ring_map())
    pts = np.array([[10.0, 1.0], [25.0, -3.0], [50.0, 30.0], [25.0, 25.0]])
    want = road_graph.within_lanes(g, pts, 0.5)
    back = pickle.loads(pickle.dumps(g))
    assert "lane_index" not in vars(back)
    assert road_graph.within_lanes(back, pts, 0.5).tolist() == want.tolist()
    assert want.tolist() == [True, False, True, False]


# a curved 3-lane bidirectional road feeding a 2-lane one-way road, and a
# single-lane bidirectional road whose reversed twin edges tie exactly
_MULTI_LANE = {"centerlines": [
    {"id": 0, "points": [[0.0, 0.0], [60.0, 0.0], [100.0, 30.0]],
     "lanes": 3, "oneway": False, "lane_width": 3.5},
    {"id": 1, "points": [[100.0, 30.0], [100.0, 90.0]], "lanes": 2,
     "oneway": True, "lane_width": 3.0},
    {"id": 2, "points": [[-20.0, -10.0], [-20.0, -60.0]], "lanes": 1,
     "oneway": False}]}


def _snap_digest():
    """SHA-256 of every snap and verdict over a fixed set of queries:
    points near lanes, far off the map and at node positions, with no
    heading hint, the source lane's heading and a random one, at snap
    limits 1, 3 and 10 m."""
    rng = np.random.default_rng(9)
    h = hashlib.sha256()
    for doc in (four_way_intersection(), ring_map(), _MULTI_LANE):
        g = build_graph(doc)
        pts, lane_h = [], []
        for node in g.nodes.values():
            pts.append(node.position)
            lane_h.append(0.0)
        for edge in g.edges.values():
            for s in rng.uniform(0.0, edge.length, 12):
                p, psi = edge.point_at(s)
                off = rng.normal(0.0, 2.5)
                pts.append(p + off * np.array([-math.sin(psi), math.cos(psi)]))
                lane_h.append(psi)
        allp = np.vstack([e.polyline for e in g.edges.values()])
        lo, hi = allp.min(axis=0) - 25.0, allp.max(axis=0) + 25.0
        for p in rng.uniform(lo, hi, size=(60, 2)):
            pts.append(p)
            lane_h.append(float(rng.uniform(-math.pi, math.pi)))
        pts = np.array(pts)
        hints = rng.uniform(-math.pi, math.pi, len(pts))
        for limit in (1.0, 3.0, 10.0):
            for p, psi, other in zip(pts, lane_h, hints):
                for hint in (None, psi, float(other)):
                    try:
                        c = project_to_lane(g, p, hint, limit)
                        line = (f"{c.edge_id} {float(c.arc_s).hex()} "
                                f"{float(c.lateral_offset).hex()} "
                                f"{float(c.lane_heading).hex()}")
                    except OffMapError as err:
                        line = f"off {float(err.distance).hex()}"
                    h.update(line.encode() + b"\n")
            for margin in (0.0, 0.5, 9.0):
                ok = road_graph.within_lanes(g, pts, margin, limit)
                h.update(np.packbits(ok).tobytes())
    return h.hexdigest()


def test_snap_digest_pinned():
    # re-pinned when OffMapError began to carry the nearest-lane distance
    # instead of the nearest seed's: of the hashed lines only 1,227 "off"
    # lines changed, every snap and every within_lanes mask stayed the same
    assert _snap_digest() == \
        "7360fe531f4626113298483c1c07df48b0637aed391cfe58a5aa15fd44d0b928"
