"""Directed lane-centerline graph: construction, projection, routing.

Nodes are lane endpoints, edges are directed lane-center polylines. Input
maps follow the JSON schema
``{"centerlines": [{"id", "points", "lanes", "oneway", "lane_width"?}]}``.
Bidirectional centerlines are split into per-lane directed edges, offset
from the source centerline; endpoints closer than the join tolerance are
merged into shared nodes.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from trafficforge import geometry
from trafficforge.config import default
from trafficforge.errors import (MapFormatError, OffMapError,
                                 ZeroLengthRouteError)
from trafficforge.geometry import wrap_angle

MAX_SNAP_DISTANCE = default("road.max_snap_distance")
STRAIGHT_THRESHOLD = math.radians(default("road.straight_threshold_deg"))
HORIZON_DIST = default("road.horizon_dist")
MAX_ROUTES = default("road.max_routes")
_TIE_EPS = 1e-6
PROJECT_BACK = 5.0   # m a route projection looks behind its hint


@dataclass
class LaneNode:
    id: int
    position: np.ndarray


class LaneEdge:
    """One directed lane with its centerline polyline and arc-length table."""

    def __init__(self, edge_id, from_node, to_node, polyline, lane_width,
                 one_way, centerline_id):
        self.id = edge_id
        self.from_node = from_node
        self.to_node = to_node
        self.polyline = np.asarray(polyline, dtype=np.float64)
        self.cum = geometry.cumulative_lengths(self.polyline)
        self.length = float(self.cum[-1])
        self.lane_width = lane_width
        self.one_way = one_way
        self.centerline_id = centerline_id
        self.left_neighbor = None   # edge id of the same-direction lane to the left
        self.right_neighbor = None

    @cached_property
    def table(self):
        return geometry.SegmentTable(self.polyline, self.cum)

    def point_at(self, s):
        return geometry.point_at(self.polyline, self.cum, s)


@dataclass
class LaneCoordinate:
    """Position expressed on a lane: arc length, signed offset, lane heading."""

    edge_id: int
    arc_s: float
    lateral_offset: float
    lane_heading: float


class RoadGraph:
    def __init__(self, nodes, edges, adjacency, straight_threshold):
        self.nodes = nodes
        self.edges = edges
        self.adjacency = adjacency
        # heading change (radians) from which a route is a turn
        self.straight_threshold = straight_threshold

    def outgoing(self, node_id):
        return self.adjacency.get(node_id, ())

    @cached_property
    def lane_index(self):
        return _LaneIndex([self.edges[eid] for eid in sorted(self.edges)])

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("lane_index", None)
        return state


class _LaneIndex:
    """Every edge's segments in flat tables, edges in id order.

    ``a``, ``d`` and ``seg2`` are the start points, directions and
    squared lengths (zeros replaced by 1) that
    :func:`geometry.project_point` computes for a whole edge; the
    segments of the ``k``-th edge, id ``edge_ids[k]``, are rows
    ``offsets[k]:offsets[k + 1]``.
    """

    def __init__(self, edges):
        self.edge_ids = np.asarray([e.id for e in edges])
        self.a = np.vstack([e.polyline[:-1] for e in edges])
        self.d = np.vstack([e.polyline[1:] - e.polyline[:-1] for e in edges])
        self.seg2 = np.einsum("ij,ij->i", self.d, self.d)
        self.seg2[self.seg2 == 0.0] = 1.0
        self.offsets = np.zeros(len(edges) + 1, dtype=np.intp)
        np.cumsum([len(e.polyline) - 1 for e in edges], out=self.offsets[1:])
        self.half_width = np.asarray([e.lane_width for e in edges]) / 2.0

    def distances(self, q):
        """(P, E) distances from the (P, 2) points ``q`` to every edge,
        in table order: O(P x segments), with no spatial index."""
        return geometry.polyline_distances(q, self.a, self.d, self.seg2,
                                           self.offsets[:-1])


class Route:
    """An ordered edge path with its concatenated centerline geometry.

    The edge spans are set up front; the geometry (``polyline``, ``cum``,
    ``total_length``, ``maneuver``, the segment ``table``) is built on
    first use, so a route that is only searched for leaders never builds
    it. A route with no drivable length raises ``ZeroLengthRouteError``
    then.
    """

    def __init__(self, graph, edge_ids, start, first_edge_partial):
        self.edge_ids = list(edge_ids)
        self.start = start
        self._graph = graph
        self.edge_spans = []  # (edge_id, route_s_start, arc_on_edge_at_start)
        # edge_id -> [(route_s_start, arc_on_edge_at_start)] in route order
        self.spans_by_edge = {}
        s_acc = 0.0
        for k, eid in enumerate(self.edge_ids):
            arc0 = start.arc_s if (k == 0 and first_edge_partial) else 0.0
            self.edge_spans.append((eid, s_acc, arc0))
            self.spans_by_edge.setdefault(eid, []).append((s_acc, arc0))
            s_acc += graph.edges[eid].length - arc0

    @cached_property
    def _tables(self):
        pieces = []
        for eid, _, arc0 in self.edge_spans:
            edge = self._graph.edges[eid]
            pts = _slice_from(edge.polyline, edge.cum, arc0)
            pieces.append(pts if not pieces else pts[1:])
        poly, cum, dpsi = geometry.polyline_tables(np.vstack(pieces))
        if len(poly) < 2:
            raise ZeroLengthRouteError("route has no drivable length")
        return poly, cum, dpsi

    @property
    def polyline(self):
        return self._tables[0]

    @property
    def cum(self):
        return self._tables[1]

    @property
    def cumulative_heading_change(self):
        return self._tables[2]

    @cached_property
    def total_length(self):
        return float(self.cum[-1])

    @cached_property
    def maneuver(self):
        return _maneuver_of(self.cumulative_heading_change,
                            self._graph.straight_threshold)

    @cached_property
    def table(self):
        return geometry.SegmentTable(self.polyline, self.cum)

    def point_at(self, s):
        return geometry.point_at(self.polyline, self.cum, s)

    def heading_at(self, s):
        return self.table.heading_at(s)

    def project_near(self, point, s_hint, fwd=10.0):
        """Projection onto the window from ``PROJECT_BACK`` m behind
        ``s_hint`` to ``fwd`` m ahead; returns (s, dist, lateral)."""
        tab = self.table
        lo_s = max(s_hint - PROJECT_BACK, 0.0)
        hi_s = min(s_hint + fwd, self.total_length)
        lo = max(bisect_right(tab.cum, lo_s) - 1, 0)
        hi = min(bisect_left(tab.cum, hi_s) + 1, len(tab.seg2))
        if hi <= lo:
            hi = lo + 1
        return geometry.project_point(tab, point, lo, hi)

    def edge_at(self, s):
        """(edge_id, arc_on_edge) of the route arc position ``s``.

        The inverse of :meth:`route_s_of`: the last span starting at or
        before ``s`` (within 1e-9) answers, the first span's start below.
        """
        for eid, s_start, arc0 in reversed(self.edge_spans):
            if s >= s_start - 1e-9:
                return eid, arc0 + (s - s_start)
        eid, _, arc0 = self.edge_spans[0]
        return eid, arc0

    def route_s_of(self, edge_id, arc_on_edge):
        """Arc position along the route of a point on one of its edges.

        A route that visits the edge more than once answers with its
        first visit that reaches ``arc_on_edge``.
        """
        for s_start, arc0 in self.spans_by_edge.get(edge_id, ()):
            if arc_on_edge >= arc0 - 1e-9:
                return s_start + (arc_on_edge - arc0)
        return None


def _slice_from(pts, cum, s):
    """Sub-polyline from arc length ``s`` to the end."""
    if s <= 1e-12:
        return pts
    p, _ = geometry.point_at(pts, cum, s)
    i = bisect_right(cum, s)
    return np.vstack([p[None, :], pts[i:]]) if i < len(pts) else p[None, :].repeat(2, 0)


def classify_maneuver(route_polyline, straight_threshold=STRAIGHT_THRESHOLD):
    """Label a path left/right/straight by its cumulative heading change.

    Counterclockwise (positive) change at or above the threshold is a left
    turn, the mirror case a right turn, anything smaller straight; the
    change comes from :func:`geometry.polyline_tables`, as for routes.
    """
    _, _, dpsi = geometry.polyline_tables(geometry.as_polyline(route_polyline))
    return _maneuver_of(dpsi, straight_threshold)


def _maneuver_of(dpsi, straight_threshold):
    if dpsi >= straight_threshold:
        return "left"
    if dpsi <= -straight_threshold:
        return "right"
    return "straight"


def build_graph(lane_spec, join_tolerance=default("road.join_tolerance"),
                default_lane_width=default("road.default_lane_width"),
                straight_threshold=STRAIGHT_THRESHOLD):
    """Build the directed lane graph from a parsed map description.

    Every centerline contributes one directed edge per lane. One-way
    centerlines keep their drawn direction for all lanes; bidirectional
    ones give the right-hand slots (negative lateral offset) the drawn
    direction and the remaining slots the reverse. Slot offsets are
    ``(slot + 0.5 - lanes/2) * lane_width``. The graph's routes are
    labelled turns from a heading change of ``straight_threshold``
    radians (:attr:`Route.maneuver`).
    """
    centerlines = lane_spec.get("centerlines", [])
    if not centerlines:
        raise MapFormatError("map has no centerlines")

    protos = []  # (polyline, lane_width, one_way, centerline_id, travel_offset)
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
            # lateral offset expressed in the travel frame (+left)
            travel_off = off if forward else -off
            protos.append((poly, width, oneway, cid, travel_off, forward))

    nodes = []
    edges = {}

    def node_for(pos):
        best, best_d = None, None
        for n in nodes:  # id order, so exact ties keep the lowest id
            d = float(np.linalg.norm(n.position - pos))
            if d <= join_tolerance and (best is None or d < best_d):
                best, best_d = n, d
        if best is not None:
            return best.id
        nodes.append(LaneNode(len(nodes), pos.copy()))
        return nodes[-1].id

    for eid, (poly, width, oneway, cid, _, _) in enumerate(protos):
        n_from = node_for(poly[0])
        n_to = node_for(poly[-1])
        edges[eid] = LaneEdge(eid, n_from, n_to, poly, width, oneway, cid)

    # same-direction neighbor links for lane changes, per source centerline
    by_source = {}
    for eid, (_, _, _, cid, travel_off, forward) in enumerate(protos):
        by_source.setdefault((cid, forward), []).append((travel_off, eid))
    for group in by_source.values():
        group.sort()  # right to left in the travel frame
        for k in range(len(group) - 1):
            right_eid, left_eid = group[k][1], group[k + 1][1]
            edges[right_eid].left_neighbor = left_eid
            edges[left_eid].right_neighbor = right_eid

    adjacency = {}
    for eid in sorted(edges):
        adjacency.setdefault(edges[eid].from_node, []).append(eid)
    adjacency = {nid: tuple(sorted(eids)) for nid, eids in adjacency.items()}

    return RoadGraph({n.id: n for n in nodes}, edges, adjacency,
                     straight_threshold)


def project_to_lane(graph, point, heading_hint=None,
                    max_snap_distance=MAX_SNAP_DISTANCE):
    """Snap a point to the nearest lane edge.

    Ties (equal perpendicular distance within 1e-6 m) are broken by the
    smaller heading difference to ``heading_hint`` when given, else by the
    lower edge id. Raises :class:`OffMapError` past ``max_snap_distance``.
    """
    q = np.asarray(point, dtype=np.float64)
    if not np.all(np.isfinite(q)):
        raise ValueError("query point must be finite")
    index = graph.lane_index
    dist = index.distances(q[None, :])[0]
    dmin = float(dist.min())
    if dmin > max_snap_distance:
        raise OffMapError(dmin, max_snap_distance)
    ties = index.edge_ids[dist <= dmin + _TIE_EPS].tolist()
    if heading_hint is None:
        return lane_coordinate(graph.edges[ties[0]], q)
    return min((lane_coordinate(graph.edges[eid], q) for eid in ties),
               key=lambda c: (abs(wrap_angle(c.lane_heading - heading_hint)),
                              c.edge_id))


def lane_coordinate(edge, q):
    """The :class:`LaneCoordinate` of point ``q`` projected onto ``edge``."""
    s, _, lateral = geometry.project_point(edge.table, q)
    return LaneCoordinate(edge.id, s, lateral, edge.table.heading_at(s))


def within_lanes(graph, points, margin,
                 max_snap_distance=MAX_SNAP_DISTANCE):
    """Which of the (P, 2) ``points`` lie on the lane they snap to.

    A point is within its lane when :func:`project_to_lane` without a
    heading hint snaps it within ``max_snap_distance``, and the absolute
    lateral offset to the edge it picks is at most half that edge's lane
    width plus ``margin``. One :meth:`_LaneIndex.distances` table
    serves the whole batch.
    """
    q = np.asarray(points, dtype=np.float64)
    if not np.all(np.isfinite(q)):
        raise ValueError("query points must be finite")
    index = graph.lane_index
    dist = index.distances(q)
    dmin = dist.min(axis=1)
    winner = np.argmax(dist <= (dmin + _TIE_EPS)[:, None], axis=1)
    lateral = dist[np.arange(len(q)), winner]
    return (dmin <= max_snap_distance) \
        & (lateral <= index.half_width[winner] + margin)


def enumerate_routes(graph, start, horizon_dist=HORIZON_DIST,
                     max_routes=MAX_ROUTES):
    """Depth-first route enumeration from a lane coordinate.

    A route ends once its drivable length reaches ``horizon_dist`` or a
    dead-end node. Output order is lexicographic by edge-id sequence and
    at most ``max_routes`` routes are returned.
    """
    if horizon_dist <= 0:
        raise ValueError("horizon_dist must be positive")
    first = graph.edges[start.edge_id]
    remaining0 = first.length - start.arc_s

    routes = []
    if remaining0 > 1e-9:
        stack = [((start.edge_id,), remaining0, first.to_node)]
        partial_first = True
    else:
        stack = [((eid,), graph.edges[eid].length, graph.edges[eid].to_node)
                 for eid in reversed(graph.outgoing(first.to_node))]
        partial_first = False

    while stack and len(routes) < max_routes:
        path, dist, node = stack.pop()
        succ = graph.outgoing(node)
        if dist >= horizon_dist or not succ:
            routes.append(Route(graph, path, start, partial_first))
            continue
        for eid in reversed(succ):
            edge = graph.edges[eid]
            stack.append((path + (eid,), dist + edge.length, edge.to_node))
    return routes

