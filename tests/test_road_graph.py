"""Graph construction, projection, routing and maneuver classification."""

import hashlib
import math
import pickle
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (GRAPH_ARGS, ROUTE_ARGS, approach_point,
                     four_way_intersection, ring_map, straight_map)

from trafficforge import behavior, geometry, metrics, road_graph
from trafficforge.config import SimConfig, default
from trafficforge.errors import (MapFormatError, OffMapError,
                               ZeroLengthRouteError)
from trafficforge.road_graph import (build_graph, classify_maneuver,
                                     enumerate_routes, project_to_lane)


def test_single_oneway_lane():
    g = build_graph(straight_map(100.0), **GRAPH_ARGS)
    assert len(g.nodes) == 2
    assert len(g.edges) == 1
    assert g.edges[0].length == pytest.approx(100.0)


def test_bidirectional_two_lane_offsets():
    g = build_graph(straight_map(100.0, lanes=2, oneway=False, lane_width=3.5),
                    **GRAPH_ARGS)
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
    g = build_graph(spec, **GRAPH_ARGS)
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
        build_graph(spec, **GRAPH_ARGS)
    assert exc.value.centerline_id == 7


def _three_pass_build_graph(lane_spec, join_tolerance, default_lane_width,
                            straight_threshold, max_snap_distance):
    """The former build: lane prototypes, then edges, then neighbours
    regrouped by ``(id, direction)``, then a sorted adjacency."""
    centerlines = lane_spec.get("centerlines", [])
    if not centerlines:
        raise MapFormatError("map has no centerlines")

    protos = []
    for cl in centerlines:
        cid = cl.get("id")
        pts = np.asarray(cl["points"], dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
            raise MapFormatError(f"centerline {cid}: needs >=2 2D points", cid)
        if np.any(geometry.segment_lengths(pts) <= 1e-9):
            raise MapFormatError(
                f"centerline {cid}: duplicate consecutive points", cid)
        lanes = int(cl.get("lanes", 1))
        if lanes < 1:
            raise MapFormatError(f"centerline {cid}: lane count < 1", cid)
        oneway = bool(cl.get("oneway", True))
        width = float(cl.get("lane_width", default_lane_width))
        if width <= 0:
            raise MapFormatError(f"centerline {cid}: lane_width <= 0", cid)

        offsets = [(i + 0.5 - lanes / 2.0) * width for i in range(lanes)]
        if oneway:
            directed = [(off, True) for off in offsets]
        elif lanes == 1:
            directed = [(0.0, True), (0.0, False)]
        else:
            n_fwd = (lanes + 1) // 2
            directed = [(off, i < n_fwd) for i, off in enumerate(offsets)]
        for off, forward in directed:
            poly = geometry.offset_polyline(pts, off) if off != 0.0 else pts.copy()
            if not forward:
                poly = poly[::-1].copy()
            travel_off = off if forward else -off
            protos.append((poly, width, oneway, cid, travel_off, forward))

    nodes = []
    edges = {}

    def node_for(pos):
        best, best_d = None, None
        for n in nodes:
            d = float(np.linalg.norm(n.position - pos))
            if d <= join_tolerance and (best is None or d < best_d):
                best, best_d = n, d
        if best is not None:
            return best.id
        nodes.append(road_graph.LaneNode(len(nodes), pos.copy()))
        return nodes[-1].id

    for eid, (poly, width, oneway, _, _, _) in enumerate(protos):
        n_from = node_for(poly[0])
        n_to = node_for(poly[-1])
        edges[eid] = road_graph.LaneEdge(eid, n_from, n_to, poly, width,
                                         oneway)

    by_source = {}
    for eid, (_, _, _, cid, travel_off, forward) in enumerate(protos):
        by_source.setdefault((cid, forward), []).append((travel_off, eid))
    for group in by_source.values():
        group.sort()
        for k in range(len(group) - 1):
            right_eid, left_eid = group[k][1], group[k + 1][1]
            edges[right_eid].left_neighbor = left_eid
            edges[left_eid].right_neighbor = right_eid

    adjacency = {}
    for eid in sorted(edges):
        adjacency.setdefault(edges[eid].from_node, []).append(eid)
    adjacency = {nid: tuple(sorted(eids)) for nid, eids in adjacency.items()}

    return road_graph.RoadGraph({n.id: n for n in nodes}, edges, adjacency,
                                straight_threshold, max_snap_distance)


@st.composite
def _map_specs(draw):
    """A map of one to five centerlines with unique ids, one-way and
    two-way, one to four lanes, each field present or left to its
    default. A centerline may start or end on an earlier one's endpoint,
    exactly or a little off it, so endpoint joins and their ties occur."""
    coord = st.floats(-60.0, 60.0)
    ends = []

    def shared_end():
        x, y = draw(st.sampled_from(ends))
        return x + draw(st.sampled_from([0.0, 0.3, 0.6])), y

    centerlines = []
    for cid in range(draw(st.integers(1, 5))):
        pts = [shared_end() if ends and draw(st.booleans())
               else (draw(coord), draw(coord))]
        for _ in range(draw(st.integers(1, 3))):
            ang = draw(st.floats(-math.pi, math.pi))
            step = draw(st.floats(1.0, 40.0))
            pts.append((pts[-1][0] + step * math.cos(ang),
                        pts[-1][1] + step * math.sin(ang)))
        if ends and draw(st.booleans()):
            end = shared_end()
            if math.dist(end, pts[-1]) >= 1.0:
                pts.append(end)
        ends += [pts[0], pts[-1]]
        entry = {"id": cid, "points": pts}
        if draw(st.booleans()):
            entry["lanes"] = draw(st.integers(1, 4))
        if draw(st.booleans()):
            entry["oneway"] = draw(st.booleans())
        if draw(st.booleans()):
            entry["lane_width"] = draw(st.sampled_from([2.5, 3.5, 4.25]))
        centerlines.append(entry)
    return {"centerlines": centerlines}


def _graph_facts(g):
    return ({i: (n.id, n.position.tobytes()) for i, n in g.nodes.items()},
            [(i, e.id, e.from_node, e.to_node, e.polyline.tobytes(),
              e.lane_width, e.one_way, e.left_neighbor, e.right_neighbor)
             for i, e in g.edges.items()],
            list(g.adjacency.items()), g.straight_threshold,
            g.max_snap_distance)


@settings(max_examples=300, deadline=None)
@given(_map_specs())
@example(straight_map(100.0, lanes=4, oneway=False))
@example(four_way_intersection())
@example(ring_map())
def test_one_pass_build_matches_three_pass_oracle(spec):
    assert _graph_facts(build_graph(spec, **GRAPH_ARGS)) \
        == _graph_facts(_three_pass_build_graph(spec, **GRAPH_ARGS))


@st.composite
def _join_specs(draw):
    """A join tolerance and a map of one-lane centerlines whose ends lie on
    a grid of a quarter or a fifth of the tolerance, some nudged by one
    ulp: ends at the tolerance from a node (four quarters, or a 3-4-5
    triangle of fifths), just inside or beyond it, and at equal distances
    from two nodes. A zero or subnormal-scale tolerance joins ends whose
    squared distance underflows."""
    tol = draw(st.sampled_from([0.0, 1e-160, 0.1, 0.3, 0.5, 1.0, 2.5]))
    unit = tol / draw(st.sampled_from([4, 5])) if tol else 0.1
    ox, oy = draw(st.sampled_from([(0.0, 0.0), (17.3, -4.1),
                                   (-250.125, 999.7)]))
    step = st.integers(-8, 8)

    def coord(origin, k):
        v = origin + k * unit
        nudge = draw(st.sampled_from([None, None, math.inf, -math.inf]))
        return v if nudge is None else math.nextafter(v, nudge)

    centerlines = []
    for cid in range(draw(st.integers(2, 8))):
        i, j = draw(step), draw(step)
        start = [coord(ox, i), coord(oy, j)]
        if unit > 1e-3 and draw(st.booleans()):
            k, m = draw(step.filter(lambda k: k != i)), draw(step)
            end = [coord(ox, k), coord(oy, m)]
        else:
            end = [start[0] + 30.0, start[1] - 20.0]
        centerlines.append({"id": cid, "points": [start, end],
                            "oneway": draw(st.booleans())})
    return {"centerlines": centerlines}, tol


# at a 0.5 m tolerance: entry 1 starts 0.5 m from node 0, entry 2 0.75 m
# from it (node 3), and entry 3 0.375 m from both nodes 0 and 3
_AT_TOLERANCE = {"centerlines": [
    {"id": 0, "points": [[0.0, 0.0], [0.0, -40.0]]},
    {"id": 1, "points": [[0.5, 0.0], [40.0, 0.0]]},
    {"id": 2, "points": [[0.75, 0.0], [0.75, -40.0]]},
    {"id": 3, "points": [[0.375, 0.0], [0.375, 40.0]]},
]}


def test_endpoint_joins_at_the_tolerance_and_on_ties():
    g = build_graph(_AT_TOLERANCE, **dict(GRAPH_ARGS, join_tolerance=0.5))
    assert [(e.from_node, e.to_node) for e in g.edges.values()] \
        == [(0, 1), (0, 2), (3, 4), (0, 5)]


@settings(max_examples=300, deadline=None)
@given(_join_specs())
@example((_AT_TOLERANCE, 0.5))
@example(({"centerlines": [{"id": 0, "points": [[0.0, 0.0], [30.0, -20.0]]},
                           {"id": 1, "points": [[0.0, 5e-324], [9.0, 9.0]]}]},
          0.0))
@example((four_way_intersection(), default("road.join_tolerance")))
def test_endpoint_joins_match_the_full_scan(case):
    # the three-pass oracle joins an end by measuring every node
    spec, tol = case
    args = dict(GRAPH_ARGS, join_tolerance=tol)
    assert _graph_facts(build_graph(spec, **args)) \
        == _graph_facts(_three_pass_build_graph(spec, **args))


def test_edge_length_matches_arc_length(intersection_graph):
    for e in intersection_graph.edges.values():
        arc = float(np.linalg.norm(np.diff(e.polyline, axis=0), axis=1).sum())
        assert e.length == pytest.approx(arc, rel=1e-9)
        assert e.lane_width > 0


def test_project_on_centerline():
    g = build_graph(straight_map(100.0), **GRAPH_ARGS)
    c = project_to_lane(g, (30.0, 0.0))
    assert c.lateral_offset == pytest.approx(0.0, abs=1e-12)
    assert c.arc_s == pytest.approx(30.0)


def test_project_left_offset_sign():
    g = build_graph(straight_map(100.0), **GRAPH_ARGS)
    c = project_to_lane(g, (30.0, 2.0))
    assert c.lateral_offset == pytest.approx(2.0)
    c = project_to_lane(g, (30.0, -1.5))
    assert c.lateral_offset == pytest.approx(-1.5)


def test_project_heading_tiebreak():
    g = build_graph(straight_map(100.0, lanes=2, oneway=False), **GRAPH_ARGS)
    east = project_to_lane(g, (50.0, 0.0), heading_hint=0.0)
    west = project_to_lane(g, (50.0, 0.0), heading_hint=math.pi)
    assert abs(east.lane_heading) < 1e-9
    assert abs(abs(west.lane_heading) - math.pi) < 1e-9
    # without a hint the lower edge id wins
    assert project_to_lane(g, (50.0, 0.0)).edge_id == 0


def test_project_off_map():
    g = build_graph(straight_map(100.0), **GRAPH_ARGS)
    with pytest.raises(OffMapError) as exc:
        project_to_lane(g, (50.0, 30.0))
    # the perpendicular distance to the lane, not to a sample point on it
    assert exc.value.distance == 30.0


def test_project_sample_roundtrip(intersection_graph, rng):
    for _ in range(100):
        eid = int(rng.choice(sorted(intersection_graph.edges)))
        edge = intersection_graph.edges[eid]
        s = float(rng.uniform(0, edge.length))
        p, h = geometry.point_at(edge.polyline, edge.cum, s)
        lateral = float(rng.uniform(-1.2, 1.2))
        normal = np.array([-math.sin(h), math.cos(h)])
        q = p + lateral * normal
        coord = project_to_lane(intersection_graph, q)
        edge = intersection_graph.edges[coord.edge_id]
        foot, _ = geometry.point_at(edge.polyline, edge.cum, coord.arc_s)
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
    g = build_graph(spec, **GRAPH_ARGS)
    start = project_to_lane(g, (5.0, 0.0))
    routes = enumerate_routes(g, start, **dict(ROUTE_ARGS, horizon_dist=500.0))
    assert len(routes) == 1
    assert routes[0].edge_ids == [0, 1]


def test_enumerate_three_branches(intersection_graph):
    start = project_to_lane(intersection_graph, (-50.0, -1.75),
                            heading_hint=0.0)
    routes = enumerate_routes(intersection_graph, start, **ROUTE_ARGS)
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
    g = build_graph(spec, **GRAPH_ARGS)
    start = project_to_lane(g, (1.0, 0.0))
    routes = enumerate_routes(g, start, **dict(ROUTE_ARGS, horizon_dist=500.0))
    assert len(routes) == 4
    assert [list(r.edge_ids) for r in routes] == _dfs_oracle(g, 0, 1.0, 500.0)


def test_enumerate_max_routes_cap():
    g = build_graph(four_way_intersection(), **GRAPH_ARGS)
    start = project_to_lane(g, (-50.0, -1.75), heading_hint=0.0)
    routes = enumerate_routes(g, start, horizon_dist=1000.0, max_routes=2)
    assert len(routes) == 2


def test_route_s_of_revisited_edge():
    # the loop route starts 20 m into edge 0 and comes back onto all of it
    g = build_graph(ring_map(50.0), **GRAPH_ARGS)
    start = road_graph.LaneCoordinate(0, 20.0, 0.0, 0.0)
    route = enumerate_routes(g, start,
                             **dict(ROUTE_ARGS, horizon_dist=230.0))[0]
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
        for route in enumerate_routes(intersection_graph, start, **ROUTE_ARGS):
            assert route.maneuver == classify_maneuver(
                route.polyline, intersection_graph.straight_threshold)
            assert route.cumulative_heading_change == \
                geometry.polyline_tables(route.polyline)[2]


_STRAIGHT = GRAPH_ARGS["straight_threshold"]


def test_classify_collinear():
    assert classify_maneuver([[0, 0], [10, 0], [20, 0]], _STRAIGHT) \
        == "straight"


def test_classify_quarter_circle_left():
    ang = np.linspace(-math.pi / 2, 0.0, 30)
    pts = np.column_stack([20 * np.cos(ang), 20 + 20 * np.sin(ang)])
    assert classify_maneuver(pts, _STRAIGHT) == "left"


def test_classify_minus_40_degrees():
    # two straight segments meeting at -40 degrees of heading change
    pts = [[0, 0], [10, 0],
           [10 + 10 * math.cos(math.radians(-40)),
            10 * math.sin(math.radians(-40))]]
    assert classify_maneuver(pts, _STRAIGHT) == "right"
    # and +20 degrees stays straight under the 30 degree default
    pts = [[0, 0], [10, 0],
           [10 + 10 * math.cos(math.radians(20)),
            10 * math.sin(math.radians(20))]]
    assert classify_maneuver(pts, _STRAIGHT) == "straight"


def test_classify_rigid_motion_invariance(rng):
    base = np.column_stack([np.linspace(0, 40, 25),
                            np.sin(np.linspace(0, 2.5, 25)) * 8])
    label = classify_maneuver(base, _STRAIGHT)
    for _ in range(20):
        a = float(rng.uniform(-math.pi, math.pi))
        R = np.array([[math.cos(a), -math.sin(a)],
                      [math.sin(a), math.cos(a)]])
        moved = base @ R.T + rng.uniform(-100, 100, size=2)
        assert classify_maneuver(moved, _STRAIGHT) == label


def test_sample_centerline():
    g = build_graph(straight_map(100.0), **GRAPH_ARGS)
    start = project_to_lane(g, (0.0, 0.0))
    route = enumerate_routes(g, start,
                             **dict(ROUTE_ARGS, horizon_dist=500.0))[0]
    path = route.polyline, route.cum
    p, h = geometry.point_at(*path, 0.0)
    np.testing.assert_allclose(p, [0.0, 0.0], atol=1e-12)
    p, h = geometry.point_at(*path, 37.5)
    np.testing.assert_allclose(p, [37.5, 0.0], atol=1e-12)
    assert h == pytest.approx(0.0)
    with pytest.raises(ValueError):
        geometry.point_at(*path, 101.0)
    with pytest.raises(ValueError):
        geometry.point_at(*path, -1.0)


def test_sample_centerline_vertex_tie_rule():
    spec = {"centerlines": [{"id": 0, "points": [[0, 0], [10, 0], [10, 10]],
                             "lanes": 1, "oneway": True}]}
    g = build_graph(spec, **GRAPH_ARGS)
    start = project_to_lane(g, (0.0, 0.0))
    route = enumerate_routes(g, start,
                             **dict(ROUTE_ARGS, horizon_dist=500.0))[0]
    # an interior vertex
    p, h = geometry.point_at(route.polyline, route.cum, 10.0)
    np.testing.assert_allclose(p, [10.0, 0.0], atol=1e-12)
    assert h == pytest.approx(math.pi / 2)  # heading of the following segment


def test_u_turn_flag(intersection_graph):
    start = project_to_lane(intersection_graph, (-50.0, -1.75),
                            heading_hint=0.0)
    routes = enumerate_routes(intersection_graph, start, **ROUTE_ARGS)
    assert all(abs(r.cumulative_heading_change) <= math.radians(150)
               for r in routes)


def test_route_heading_at_matches_point_at(rng):
    g = build_graph(four_way_intersection(), **GRAPH_ARGS)
    routes = []
    for deg in (0, 90):
        x, y, psi = approach_point(deg, 12.5)
        routes += enumerate_routes(g, project_to_lane(g, (x, y), psi),
                                   **ROUTE_ARGS)
    ring = build_graph(ring_map(), **GRAPH_ARGS)
    routes += enumerate_routes(ring, project_to_lane(ring, (20.0, 0.5)),
                               **dict(ROUTE_ARGS, horizon_dist=120.0))
    assert {r.maneuver for r in routes} == {"left", "right", "straight"}
    for line in [*routes, *g.edges.values()]:
        path, heading_at = (line.polyline, line.cum), line.table.heading_at
        total = float(path[1][-1])
        s_values = path[1].tolist() + [0.0, total, -3.0, total + 3.0,
                                       *rng.uniform(0.0, total, 50)]
        for s in s_values:
            want = geometry.point_at(*path, min(max(s, 0.0), total))[1]
            assert heading_at(s) == want


def test_route_geometry_is_built_on_first_use():
    g = build_graph(four_way_intersection(), **GRAPH_ARGS)
    x, y, psi = approach_point(0, 12.5)
    routes = enumerate_routes(g, project_to_lane(g, (x, y), psi), **ROUTE_ARGS)
    assert all("_tables" not in vars(r) for r in routes)
    # the edge spans are there without the geometry
    assert routes[0].route_s_of(routes[0].edge_ids[1], 0.0) is not None
    assert "_tables" not in vars(routes[0])
    assert routes[0].total_length > 0.0
    assert "_tables" in vars(routes[0]) and "table" not in vars(routes[0])


def test_route_without_drivable_length_raises_on_geometry_use():
    # 1.02e-9 m short of the end of a diagonal lane near the map bound,
    # where a coordinate step is 1.2e-10 m: the start rounds to 6 steps
    # from the end in x and in y, 9.9e-10 m, so the route's start and end
    # points are one point to the 1e-9 m dedupe tolerance
    g = build_graph({"centerlines": [{"id": 0, "points": [
        [999980.0, 999980.0], [999990.0, 999990.0]]}]}, **GRAPH_ARGS)
    start = road_graph.LaneCoordinate(0, g.edges[0].length - 1.02e-9, 0.0,
                                      0.0)
    (route,) = enumerate_routes(g, start, **ROUTE_ARGS)
    for read in (lambda r: r.maneuver, lambda r: r.total_length,
                 lambda r: r.project_near((999990.0, 999990.0), 0.0)):
        with pytest.raises(ZeroLengthRouteError,
                           match="route has no drivable length"):
            read(route)
    agent = types.SimpleNamespace(agent_id=1, lane=start)
    with pytest.raises(ZeroLengthRouteError,
                       match="route has no drivable length"):
        behavior.sample_behaviors(
            types.SimpleNamespace(agents=[agent], graph=g),
            behavior.ProfilePool([], 0.1), 0, SimConfig())


def test_graph_pickles_without_its_index():
    g = build_graph(ring_map(), **GRAPH_ARGS)
    pts = np.array([[10.0, 1.0], [25.0, -3.0], [50.0, 30.0], [25.0, 25.0]])
    want = road_graph.within_lanes(g, pts, 0.5)
    back = pickle.loads(pickle.dumps(g))
    assert "lane_index" not in vars(back)
    assert road_graph.within_lanes(back, pts, 0.5).tolist() == want.tolist()
    assert want.tolist() == [True, False, True, False]


def test_pickled_graph_leaves_out_every_segment_table():
    # the lane index stacks each edge's cached table: both are rebuilt on
    # use, so a used graph pickles as small as a fresh one, and projects
    # as the original does, bit for bit
    g = build_graph(four_way_intersection(), **GRAPH_ARGS)
    fresh = len(pickle.dumps(g))
    pts = [approach_point(deg, dist) for deg in (0, 90, 180, 270)
           for dist in (3.0, 25.0)]
    want = [road_graph.project_to_lane(g, (x, y), psi) for x, y, psi in pts]
    assert all("table" in vars(e) for e in g.edges.values())
    blob = pickle.dumps(g)
    assert len(blob) == fresh
    back = pickle.loads(blob)
    got = [road_graph.project_to_lane(back, (x, y), psi) for x, y, psi in pts]

    def bits(c):
        return (c.edge_id, c.arc_s.hex(), c.lateral_offset.hex(),
                c.lane_heading.hex())
    assert [bits(c) for c in got] == [bits(c) for c in want]


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
        # the points; one graph per limit snaps them
        g = build_graph(doc, **GRAPH_ARGS)
        pts, lane_h = [], []
        for node in g.nodes.values():
            pts.append(node.position)
            lane_h.append(0.0)
        for edge in g.edges.values():
            for s in rng.uniform(0.0, edge.length, 12):
                p, psi = geometry.point_at(edge.polyline, edge.cum, s)
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
            g = build_graph(doc, **dict(GRAPH_ARGS, max_snap_distance=limit))
            for p, psi, other in zip(pts, lane_h, hints):
                for hint in (None, psi, float(other)):
                    try:
                        c = project_to_lane(g, p, hint)
                        line = (f"{c.edge_id} {float(c.arc_s).hex()} "
                                f"{float(c.lateral_offset).hex()} "
                                f"{float(c.lane_heading).hex()}")
                    except OffMapError as err:
                        line = f"off {float(err.distance).hex()}"
                    h.update(line.encode() + b"\n")
            for margin in (0.0, 0.5, 9.0):
                ok = road_graph.within_lanes(g, pts, margin)
                h.update(np.packbits(ok).tobytes())
    return h.hexdigest()


def test_snap_digest_pinned():
    # re-pinned when OffMapError began to carry the nearest-lane distance
    # instead of the nearest seed's: of the hashed lines only 1,227 "off"
    # lines changed, every snap and every within_lanes mask stayed the same
    assert _snap_digest() == \
        "7360fe531f4626113298483c1c07df48b0637aed391cfe58a5aa15fd44d0b928"


def test_within_lanes_peak_memory_is_bounded():
    # 71 points on a curved 3-lane road of 70 segments per lane: one
    # (points, segments) float64 temporary would be 119 KB
    pts = [[10.0 * i, 20.0 * math.sin(2.0 * math.pi * i / 80.0)]
           for i in range(71)]
    g = build_graph({"centerlines": [{"id": 0, "points": pts, "lanes": 3,
                                      "lane_width": 3.5}]}, **GRAPH_ARGS)
    assert len(g.lane_index.seg_edge) == 210
    q = np.array(pts)
    tracemalloc.start()
    try:
        assert road_graph.within_lanes(g, q, 0.5).all()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def _lane_walks(graph, n, length, rng):
    """``n`` trajectories of ``length`` points 1.2 m apart on lane
    centerlines, each from a random point of a random edge, taking a
    random outgoing edge at each node and stopping at a dead end."""
    eids = sorted(graph.edges)
    trajs = []
    for _ in range(n):
        edge = graph.edges[eids[rng.integers(len(eids))]]
        s = rng.uniform(0.0, edge.length)
        pts = []
        for _ in range(length):
            s += 1.2
            while s > edge.length:
                nxt = graph.outgoing(edge.to_node)
                if not nxt:
                    s = edge.length
                    break
                s -= edge.length
                edge = graph.edges[nxt[rng.integers(len(nxt))]]
            pts.append(geometry.point_at(edge.polyline, edge.cum, s)[0])
        trajs.append(metrics.Trajectory2D(0.1, np.array(pts)))
    return trajs


def test_validity_ratio_peak_memory_does_not_grow_with_trajectories():
    # 200 trajectories of 71 points at the four-way junction, about 5.5
    # segments a point: all points in one within_lanes call would peak at
    # about 8 MB here, blocks of _VALIDITY_BLOCK points at about 0.26 MB
    g = build_graph(four_way_intersection(), **GRAPH_ARGS)
    trajs = _lane_walks(g, 200, 71, np.random.default_rng(5))
    assert metrics.validity_ratio(trajs, g) == 1.0
    for n in (20, 200):
        tracemalloc.start()
        try:
            metrics.validity_ratio(trajs[:n], g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 384 * 1024


def _dense_within_lanes(graph, pts, margin):
    """The all-edges rule: every point against every segment, within the
    graph's snap limit."""
    index = graph.lane_index
    qx, qy = pts.T[..., None]
    e2 = geometry.segment_dist2(qx, qy, *index.columns)
    starts = np.searchsorted(index.seg_edge, np.arange(len(index.edge_ids)))
    dist = np.sqrt(np.minimum.reduceat(e2, starts, axis=1))
    dmin = dist.min(axis=1)
    winner = np.argmax(dist <= (dmin + 1e-6)[:, None], axis=1)
    lateral = dist[np.arange(len(pts)), winner]
    return (dmin <= graph.max_snap_distance) \
        & (lateral <= index.half_width[winner] + margin)


@st.composite
def _multi_lane_maps(draw):
    """A random map of one to three centerlines with one to three lanes
    each."""
    centerlines = []
    for cid in range(draw(st.integers(1, 3))):
        pts = [(draw(st.floats(-60.0, 60.0)), draw(st.floats(-60.0, 60.0)))]
        for _ in range(draw(st.integers(1, 4))):
            ang = draw(st.floats(-math.pi, math.pi))
            step = draw(st.floats(1.0, 40.0))
            pts.append((pts[-1][0] + step * math.cos(ang),
                        pts[-1][1] + step * math.sin(ang)))
        centerlines.append({"id": cid, "points": pts,
                            "lanes": draw(st.integers(1, 3)),
                            "oneway": draw(st.booleans()),
                            "lane_width": draw(st.sampled_from(
                                [2.5, 3.0, 3.5, 4.25]))})
    return {"centerlines": centerlines}


@st.composite
def _multi_lane_cases(draw):
    """(graph, margin, points) on a :func:`_multi_lane_maps` map, with a
    drawn snap limit. The points sit sideways of a lane at random
    offsets, at the validity reach and one float either side of it, at
    the reach plus the tie tolerance, at the lane's own limit, on nodes,
    and beyond the grid's extent."""
    doc = draw(_multi_lane_maps())
    margin = draw(st.sampled_from([0.0, 0.5, 9.0]))
    snap = draw(st.sampled_from([1.0, 3.0, 10.0]))
    graph = build_graph(doc, **dict(GRAPH_ARGS, max_snap_distance=snap))
    reach = min(snap, graph.lane_index.max_half_width + margin)
    edges = sorted(graph.edges)
    pts = [n.position for n in graph.nodes.values()]
    for _ in range(draw(st.integers(1, 40))):
        edge = graph.edges[draw(st.sampled_from(edges))]
        p, psi = geometry.point_at(
            edge.polyline, edge.cum, draw(st.floats(0.0, edge.length)))
        limit = edge.lane_width / 2.0 + margin
        off = draw(st.one_of(
            st.floats(-reach - 2.0, reach + 2.0),
            st.sampled_from([
                reach, np.nextafter(reach, np.inf), np.nextafter(reach, 0.0),
                reach + 1e-6, np.nextafter(reach + 1e-6, np.inf),
                limit, np.nextafter(limit, np.inf)])))
        sign = draw(st.sampled_from([-1.0, 1.0]))
        pts.append(p + sign * off * np.array([-math.sin(psi), math.cos(psi)]))
    allp = np.vstack([e.polyline for e in graph.edges.values()])
    lo, hi = allp.min(axis=0), allp.max(axis=0)
    for _ in range(draw(st.integers(0, 6))):
        far = draw(st.sampled_from([reach + 1e-3, 30.0, 1e4]))
        corner = draw(st.sampled_from([lo - far, hi + far,
                                       np.array([lo[0] - far, hi[1]]),
                                       np.array([hi[0] + far, lo[1]])]))
        pts.append(corner)
    return graph, margin, np.array(pts)


# From (50, 0), lane 1 lies at the snap limit of 1 m and lane 0, narrower
# and with the lower id, 5e-7 m farther: a tie past the reach. A cell
# boundary falls between the point and lane 0's box grown by the reach
# alone, so only the tie tolerance lists lane 0 in the point's cell.
_TIE_PAST_REACH = (build_graph({"centerlines": [
    {"id": 0, "points": [[0.0, 1.0000005], [100.0, 1.0000005]],
     "lane_width": 2.0},
    {"id": 1, "points": [[0.0, -1.0], [100.0, -1.0]]}]},
    **dict(GRAPH_ARGS, max_snap_distance=1.0)), 0.0, np.array([[50.0, 0.0]]))


@settings(max_examples=300, deadline=None)
@given(_multi_lane_cases())
@example(_TIE_PAST_REACH)
def test_grid_within_lanes_matches_all_edges_rule(case):
    graph, margin, pts = case
    got = road_graph.within_lanes(graph, pts, margin)
    assert got.tolist() == _dense_within_lanes(graph, pts, margin).tolist()


@settings(max_examples=200, deadline=None)
@given(_multi_lane_cases())
@example(_TIE_PAST_REACH)
def test_nearest_matches_project_point(case):
    graph, margin, pts = case
    snap = graph.max_snap_distance
    index = graph.lane_index
    assert index.edge_ids.tolist() == sorted(graph.edges)
    assert index.half_width.tolist() == [graph.edges[e].lane_width / 2.0
                                         for e in index.edge_ids]
    want = np.array([[geometry.project_point(graph.edges[e].table, p)[1]
                      for e in index.edge_ids] for p in pts])
    for reach in (snap, min(snap, index.max_half_width + margin)):
        point, edge, dist, dmin = index.nearest(pts, reach)
        assert (np.diff(point * len(index.edge_ids) + edge) > 0).all()
        for i, row in enumerate(want):
            if row.min() > reach:
                assert dmin[i] > reach
                continue
            assert dmin[i] == row.min()
            near = (point == i) & (dist <= dmin[i] + 1e-6)
            tied = (row <= row.min() + 1e-6).nonzero()[0]
            assert edge[near].tolist() == tied.tolist()
            assert dist[near].tolist() == row[tied].tolist()
    # past the snap limit, the error carries the distance to the nearest edge
    for p, row in zip(pts, want):
        try:
            project_to_lane(graph, p)
        except OffMapError as err:
            assert err.distance == row.min() > snap
        else:
            assert row.min() <= snap


_AXES = [(1, 0), (0, 1), (-1, 0), (0, -1)]


@st.composite
def _snap_cases(draw):
    """(graph, reach, points) for the grid snap of :func:`lane_coordinate`.

    Maps: random centerlines of one to three lanes (parallel lanes), the
    four-way junction, or single lanes along the axes with whole-number
    vertices, where points on a corner's inner bisector lie exactly as
    far from both of its segments (a tie). Points: sideways of a lane
    within and beyond the reach, on vertices (shared ones included), on
    the grid's cell borders, and outside the grid. A reach as long as
    the map's diagonal makes a one-cell grid.
    """
    kind = draw(st.sampled_from(["random", "four_way", "axes"]))
    ties = []
    if kind == "four_way":
        doc = four_way_intersection()
    elif kind == "axes":
        centerlines = []
        for cid in range(draw(st.integers(1, 3))):
            pts = [(draw(st.integers(-40, 40)), draw(st.integers(-40, 40)))]
            for _ in range(draw(st.integers(1, 5))):
                ux, uy = draw(st.sampled_from(_AXES))
                step = draw(st.integers(1, 20))
                pts.append((pts[-1][0] + step * ux, pts[-1][1] + step * uy))
            centerlines.append({"id": cid, "points": pts})
            for a, b, c in zip(pts, pts[1:], pts[2:]):
                ua = np.subtract(a, b) / math.dist(a, b)
                uc = np.subtract(c, b) / math.dist(c, b)
                ties.append(b + draw(st.integers(1, 4)) * (ua + uc))
        doc = {"centerlines": centerlines}
    else:
        doc = draw(_multi_lane_maps())
    # the snap limit is the reach: a graph built with it
    allp = np.vstack([e.polyline
                      for e in build_graph(doc, **GRAPH_ARGS).edges.values()])
    lo, hi = allp.min(axis=0), allp.max(axis=0)
    reach = draw(st.sampled_from([1.0, 3.0, 10.0,
                                  math.dist(lo, hi) + 1.0, math.inf]))
    graph = build_graph(doc, **dict(GRAPH_ARGS, max_snap_distance=reach))
    grid = graph.lane_index.grid(reach)
    pts = [n.position for n in graph.nodes.values()] + ties
    edges = sorted(graph.edges)
    for _ in range(draw(st.integers(1, 30))):
        edge = graph.edges[draw(st.sampled_from(edges))]
        if draw(st.booleans()):
            pts.append(edge.polyline[draw(st.integers(0, len(edge.polyline)
                                                      - 1))])
            continue
        p, psi = geometry.point_at(
            edge.polyline, edge.cum, draw(st.floats(0.0, edge.length)))
        off = draw(st.floats(-15.0, 15.0))
        p = p + off * np.array([-math.sin(psi), math.cos(psi)])
        if draw(st.booleans()) and math.isfinite(grid.cell):
            # onto the nearest cell border in x, y or both
            k = np.round((p - grid.origin) / grid.cell)
            snap_to = draw(st.sampled_from([(0,), (1,), (0, 1)]))
            for axis in snap_to:
                p[axis] = grid.origin[axis] + k[axis] * grid.cell
        pts.append(p)
    for _ in range(draw(st.integers(0, 4))):
        far = draw(st.sampled_from([1e-3, 30.0, 1e4]))
        pts.append(draw(st.sampled_from([lo - far, hi + far,
                                         np.array([lo[0] - far, hi[1]])])))
    return graph, reach, np.array(pts, dtype=np.float64)


def _hex(*values):
    return [float(v).hex() for v in values]


@settings(max_examples=150, deadline=None)
@given(_snap_cases())
def test_grid_lane_coordinate_matches_whole_edge(case):
    graph, reach, pts = case
    grid = graph.lane_index.grid(reach)
    project = geometry.project_point
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs.get("rows"))
        return project(*args, **kwargs)

    for q in pts:
        # the scalar cell lookup is the vectorised one's
        assert grid.rows_near(*q.tolist(), 0, len(grid.segs)) == \
            grid.pairs(q[None])[1].tolist()
        for eid in sorted(graph.edges):
            table = graph.edges[eid].table
            s, dist, lateral = project(table, q)
            # the first segment with the smallest segment_dist2, alone
            e2 = geometry.segment_dist2(q[0], q[1], *map(np.asarray, (
                table.ax, table.ay, table.dx, table.dy, table.seg2)))
            first = project(table, q, rows=[int(np.argmin(e2))])
            assert _hex(*first) == _hex(s, dist, lateral)
            calls.clear()
            geometry.project_point = spy
            try:
                got = road_graph.lane_coordinate(graph, eid, q)
            finally:
                geometry.project_point = project
            assert got.edge_id == eid
            assert _hex(got.arc_s, got.lateral_offset, got.lane_heading) == \
                _hex(s, lateral, table.heading_at(s))
            if dist <= reach:   # the cell answered, with no second pass
                assert len(calls) == 1 and calls[0] is not None


@pytest.mark.parametrize("margin,snap", [
    (-5.0, 10.0), (0.5, 0.0), (math.inf, math.inf), (0.5, math.inf),
    (1e300, 1e300), (150.0, 1e3), (math.nan, 10.0), (0.5, math.nan)])
def test_grid_within_lanes_extreme_limits(margin, snap):
    g = build_graph(_MULTI_LANE, **dict(GRAPH_ARGS, max_snap_distance=snap))
    rng = np.random.default_rng(3)
    pts = np.vstack([rng.uniform(-80.0, 160.0, size=(200, 2)),
                     [[1e9, -1e9], [30.0, -1.75]],
                     [n.position for n in g.nodes.values()]])
    assert road_graph.within_lanes(g, pts, margin).tolist() \
        == _dense_within_lanes(g, pts, margin).tolist()


def test_segment_grid_is_built_once_per_reach():
    g = build_graph(ring_map(), **GRAPH_ARGS)
    pts = np.array([[10.0, 1.0], [25.0, -3.0], [50.0, 30.0], [25.0, 25.0]])
    index = g.lane_index
    assert vars(index)["_grids"] == {}
    road_graph.within_lanes(g, pts, 0.5)
    ((reach, grid),) = index._grids.items()
    assert reach == min(default("road.max_snap_distance"), 1.75 + 0.5)
    road_graph.within_lanes(g, pts[::-1], 0.5)
    assert list(index._grids.items()) == [(reach, grid)]
    road_graph.within_lanes(g, pts, 0.0)
    assert list(index._grids) == [reach, 1.75]
    assert index._grids[reach] is grid
    back = pickle.loads(pickle.dumps(g))
    assert "lane_index" not in vars(back)
    assert road_graph.within_lanes(back, pts, 0.5).tolist() \
        == [True, False, True, False]
    assert list(back.lane_index._grids) == [reach]
    assert back.lane_index._grids[reach] is not grid
