"""Directed lane-centerline graph: construction, projection, routing.

Nodes are lane endpoints, edges are directed lane-center polylines. Input
maps follow the JSON schema
``{"centerlines": [{"id"?, "points", "lanes"?, "oneway"?, "lane_width"?}]}``.
:func:`build_graph` walks the entries once: it checks each entry (a
``MapFormatError`` names the bad one by its ``id``, or its position when
it has none), splits it into per-lane directed edges offset from its
centerline and links that entry's same-direction lanes as lane-change
neighbours. Endpoints closer than the join tolerance are merged into
shared nodes. Every map rule lives there, so a graph's polylines are
finite and its edges well formed for every consumer.
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
from trafficforge.util import integer, number, numbers

STRAIGHT_THRESHOLD = math.radians(default("road.straight_threshold_deg"))
MAX_COORD = 1_000_000   # m; every lane of a map lies this close to 0
MAX_LANES = 100         # per map entry
HORIZON_DIST = default("road.horizon_dist")
MAX_ROUTES = default("road.max_routes")
_TIE_EPS = 1e-6
_GRID_CELLS = 1 << 14   # cells of a _SegmentGrid before its cells widen
_GRID_SLACK = 1e-9      # its rounding slack, relative to coordinates
PROJECT_BACK = 5.0   # m a route projection looks behind its hint
PROJECT_AHEAD = 10.0  # m it looks ahead (simulate adds a step's travel)


@dataclass
class LaneNode:
    id: int
    position: np.ndarray


class LaneEdge:
    """One directed lane with its centerline polyline and arc-length table."""

    def __init__(self, edge_id, from_node, to_node, polyline, lane_width,
                 one_way):
        self.id = edge_id
        self.from_node = from_node
        self.to_node = to_node
        self.polyline = np.asarray(polyline, dtype=np.float64)
        self.cum = geometry.cumulative_lengths(self.polyline)
        self.length = float(self.cum[-1])
        self.lane_width = lane_width
        self.one_way = one_way
        self.left_neighbor = None   # edge id of the same-direction lane to the left
        self.right_neighbor = None

    @cached_property
    def table(self):
        return geometry.SegmentTable(self.polyline, self.cum)

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("table", None)
        return state


@dataclass
class LaneCoordinate:
    """Position expressed on a lane: arc length, signed offset, lane heading."""

    edge_id: int
    arc_s: float
    lateral_offset: float
    lane_heading: float


class RoadGraph:
    def __init__(self, nodes, edges, adjacency, straight_threshold,
                 max_snap_distance):
        self.nodes = nodes
        self.edges = edges
        self.adjacency = adjacency
        # heading change (radians) from which a route is a turn
        self.straight_threshold = straight_threshold
        # m; every lane snap on this graph reaches this far, no farther
        self.max_snap_distance = max_snap_distance

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
    """Every edge's segments in one flat table, edges in id order.

    ``columns`` holds, per segment row and contiguous,
    :func:`geometry.segment_dist2`'s arguments: the start points ``ax``,
    ``ay``, the directions ``dx``, ``dy`` and the squared lengths
    ``seg2`` (zeros replaced by 1): each edge's own
    :class:`geometry.SegmentTable`, stacked. The rows of the ``k``-th
    edge, id ``edge_ids[k]``, are consecutive, and ``seg_edge`` holds
    each row's ``k``, and ``first_row`` each edge id's first row.
    ``grid(reach)`` builds a :class:`_SegmentGrid` on first use and
    keeps it, one per reach.
    """

    def __init__(self, edges):
        self.edge_ids = np.asarray([e.id for e in edges])
        tables = [e.table for e in edges]
        self.columns = [np.concatenate([getattr(t, c) for t in tables])
                        for c in ("ax", "ay", "dx", "dy", "seg2")]
        n_segs = [len(t.seg2) for t in tables]
        self.seg_edge = np.repeat(np.arange(len(edges)), n_segs)
        self.first_row = dict(zip(self.edge_ids.tolist(),
                                  np.cumsum([0] + n_segs[:-1]).tolist()))
        self.half_width = np.asarray([e.lane_width for e in edges]) / 2.0
        self.max_half_width = float(self.half_width.max())
        self._grids = {}

    def grid(self, reach):
        grid = self._grids.get(reach)
        if grid is None:
            ax, ay, dx, dy, _ = self.columns
            grid = self._grids[reach] = _SegmentGrid(
                np.column_stack([ax, ay]), np.column_stack([dx, dy]), reach)
        return grid

    def nearest(self, q, reach):
        """The edges near each of the (P, 2) points ``q``: one entry per
        (point, edge) pair with a segment in the point's cell of
        ``grid(reach)``, by point, then edge. Returns the entries'
        ``point`` (row in ``q``), ``edge`` (index in ``edge_ids``) and
        ``dist`` (smallest distance to the edge's segments there), and
        each point's smallest ``dist``, ``dmin`` (inf for none).

        The cell holds the near segments of every edge within ``reach``
        plus the tie tolerance, so such an edge's ``dist`` is, bit for
        bit, :func:`geometry.project_point`'s distance to the whole edge;
        any other ``dist`` exceeds that bound. So ``dmin`` is exact where
        it is at most ``reach``.
        """
        dmin = np.full(len(q), np.inf)
        if not reach >= 0.0:   # negative or NaN: no edge is within reach
            none = np.zeros(0, dtype=np.intp)
            return none, none, np.zeros(0), dmin
        point, seg = self.grid(reach).pairs(q)
        qx, qy = q.T
        e2 = geometry.segment_dist2(qx[point], qy[point],
                                    *(c[seg] for c in self.columns))
        # one group per (point, edge), edges ascending within each point
        edge = self.seg_edge[seg]
        group = _run_starts(point * len(self.edge_ids) + edge)
        dist = np.sqrt(np.minimum.reduceat(e2, group))
        point, edge = point[group], edge[group]
        first = _run_starts(point)
        dmin[point[first]] = np.minimum.reduceat(dist, first)
        return point, edge, dist, dmin


class _SegmentGrid:
    """A uniform grid over a segment table: every segment within
    ``reach`` of a point is listed in the point's cell.

    Each cell lists, in ascending row order, the segments whose bounding
    box, grown by ``reach``, the tie tolerance and a rounding slack
    relative to the map's coordinates, overlaps it. Cells are at least
    that grown reach wide, and wider where more than ``_GRID_CELLS``
    would be needed. The ``counts[c]`` segments of cell ``c`` start at
    ``segs[starts[c]]``. A reach as long as the map's diagonal puts every
    segment in one cell.
    """

    def __init__(self, a, d, reach):
        lo = np.minimum(a, a + d)
        hi = np.maximum(a, a + d)
        scale = max(float(np.abs(lo).max()), float(np.abs(hi).max()))
        grow = reach + _TIE_EPS + _GRID_SLACK * (1.0 + reach + scale)
        if grow < math.dist(lo.min(axis=0), hi.max(axis=0)):
            lo -= grow
            hi += grow
            self.origin = lo.min(axis=0)
            sx, sy = (hi.max(axis=0) - self.origin).tolist()
            self.cell = max(grow, math.sqrt(sx * sy / _GRID_CELLS),
                            max(sx, sy) / _GRID_CELLS)
            first = np.floor((lo - self.origin) / self.cell).astype(np.int32)
            last = np.floor((hi - self.origin) / self.cell).astype(np.int32)
            self.shape = (int(last[:, 0].max()) + 1, int(last[:, 1].max()) + 1)
        else:   # every segment is within reach of the whole map: one cell
            self.origin, self.cell, self.shape = np.zeros(2), math.inf, (1, 1)
            first = last = np.zeros(a.shape, dtype=np.int32)
        # one (cell, segment) entry per cell a grown box covers, in
        # segment order; a stable sort by cell keeps segments ascending.
        # The cells are computed in place in one int32 array: the build's
        # peak memory is a few copies of it.
        wide = last - first + 1
        count = wide[:, 0] * wide[:, 1]
        seg = np.repeat(np.arange(len(a), dtype=np.int32), count)
        cell = np.arange(len(seg), dtype=np.int32)   # k-th cell of its box
        cell -= np.repeat((np.cumsum(count) - count).astype(np.int32), count)
        col = cell % wide[seg, 1]
        cell //= wide[seg, 1]
        cell += first[seg, 0]
        cell *= self.shape[1]
        cell += first[seg, 1]
        cell += col
        del col
        self.segs = seg[np.argsort(cell, kind="stable")]
        del seg
        self.counts = np.zeros(self.shape[0] * self.shape[1], dtype=np.int32)
        np.add.at(self.counts, cell, 1)
        self.starts = np.cumsum(self.counts, dtype=np.int32) - self.counts
        self.top = np.array(self.shape, dtype=np.float64) - 1.0
        self.stride = np.array([self.shape[1], 1.0])
        # for rows_near: the bounds as floats, and the rows it gave
        self._bounds = (*self.origin.tolist(), *self.top.tolist())
        self._near = {}

    def pairs(self, q):
        """(point, segment) row pairs of the (P, 2) points ``q``: each
        point with every segment of its cell, by point then segment. A
        point outside the grid takes the nearest border cell's."""
        ij = np.floor((q - self.origin) / self.cell)
        np.clip(ij, 0.0, self.top, out=ij)
        cell = (ij @ self.stride).astype(np.intp)
        lo, n = self.starts[cell], self.counts[cell]
        point = np.repeat(np.arange(len(q)), n)
        k = np.arange(len(point))
        k += np.repeat(lo - (np.cumsum(n) - n), n)
        return point, self.segs[k]

    def rows_near(self, x, y, first, stop):
        """The rows ``first..stop-1`` listed in the cell of the finite
        point ``(x, y)``, ascending, as a list of offsets from ``first``.

        The cell is :meth:`pairs`' cell, from the same float operations
        on scalars; clipping before the floor gives the floor's clip,
        since the grid's bounds are whole numbers, and never floors an
        infinite quotient. Each (cell, ``first``, ``stop``) is looked up
        once.
        """
        ox, oy, ti, tj = self._bounds
        i = (x - ox) / self.cell
        j = (y - oy) / self.cell
        c = int(0.0 if i < 0.0 else ti if i > ti else i) * self.shape[1] \
            + int(0.0 if j < 0.0 else tj if j > tj else j)
        key = c, first, stop
        rows = self._near.get(key)
        if rows is None:
            lo = self.starts[c]
            cell = self.segs[lo:lo + self.counts[c]]
            rows = self._near[key] = \
                (cell[(cell >= first) & (cell < stop)] - first).tolist()
        return rows


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

    def project_near(self, point, s_hint, fwd=PROJECT_AHEAD):
        """Projection onto the window from ``PROJECT_BACK`` m behind
        ``s_hint`` to ``fwd`` m ahead; returns (s, dist, lateral)."""
        tab = self.table
        lo_s = max(s_hint - PROJECT_BACK, 0.0)
        hi_s = min(s_hint + fwd, self.total_length)
        lo = max(bisect_right(tab.cum, lo_s) - 1, 0)
        hi = min(bisect_left(tab.cum, hi_s) + 1, len(tab.seg2))
        if hi <= lo:
            hi = lo + 1
        return geometry.project_point(tab, point, range(lo, hi))

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


def _centerline(cl, k, default_lane_width):
    """The ``(points, lanes, oneway, lane_width)`` of the ``k``-th map
    entry ``cl``, absent fields at their defaults. A MapFormatError names
    the entry by its ``id``, or by ``k`` when it has none, unless the
    points are at least two ``[x, y]`` number pairs with no two
    consecutive ones equal, ``lanes`` is an integer from 1 to
    ``MAX_LANES``, ``oneway`` a bool, ``lane_width`` a finite number > 0,
    and the points and the band of ``lanes x lane_width`` around them lie
    within ``MAX_COORD`` m of the origin."""
    cid = cl.get("id") if isinstance(cl, dict) else None
    name = f"centerline {cid}" if cid is not None \
        else f"centerline at index {k}"

    def bad(what):
        return MapFormatError(f"{name}: {what}", cid)

    if not isinstance(cl, dict):
        raise bad(f"expected an object, got {cl!r}")
    if "points" not in cl:
        raise bad("missing 'points'")
    lanes, oneway = cl.get("lanes", 1), cl.get("oneway", True)
    try:
        pts = numbers(cl["points"], "points", 2, -MAX_COORD, MAX_COORD)
        integer(lanes, "lanes")
        width = number(cl.get("lane_width", default_lane_width),
                       "lane_width", 0, strict=True)
    except (TypeError, ValueError) as exc:
        raise bad(exc) from None
    if pts.shape[1] != 2 or len(pts) < 2:
        raise bad("'points' must be a list of >= 2 [x, y] number pairs")
    if np.any(geometry.segment_lengths(pts) <= 1e-9):
        raise bad("duplicate consecutive points")
    if not 1 <= lanes <= MAX_LANES:
        raise bad(f"'lanes' must be >= 1 and <= {MAX_LANES}, got {lanes}")
    # offset_polyline's miter moves a lane point by at most twice its
    # offset, which is below lanes x lane_width / 2
    if np.abs(pts).max() + lanes * width > MAX_COORD:
        raise bad(f"'points' and the band of 'lanes' x 'lane_width' "
                  f"({lanes} x {width} m) around them must lie within "
                  f"{MAX_COORD} m of the origin")
    if type(oneway) is not bool:
        raise bad(f"'oneway' must be true or false, got {oneway!r}")
    return pts, lanes, oneway, width


def build_graph(lane_spec, join_tolerance=default("road.join_tolerance"),
                default_lane_width=default("road.default_lane_width"),
                straight_threshold=STRAIGHT_THRESHOLD,
                max_snap_distance=default("road.max_snap_distance")):
    """Build the directed lane graph from a parsed map description.

    Every centerline contributes one directed edge per lane. One-way
    centerlines keep their drawn direction for all lanes; bidirectional
    ones give the right-hand slots (negative lateral offset) the drawn
    direction and the remaining slots the reverse. Slot offsets are
    ``(slot + 0.5 - lanes/2) * lane_width``. A lane's neighbours are the
    same-direction lanes of its own centerline. The graph's routes are
    labelled turns from a heading change of ``straight_threshold``
    radians (:attr:`Route.maneuver`), and every lane snap on the graph
    reaches ``max_snap_distance`` m.
    """
    centerlines = lane_spec.get("centerlines") \
        if isinstance(lane_spec, dict) else None
    if not (isinstance(centerlines, list) and centerlines):
        raise MapFormatError("map must be an object with a non-empty "
                             "'centerlines' list")

    nodes = []
    node_xy = []     # each node's (x, y) as Python floats
    edges = {}
    adjacency = {}
    # a node farther than this along x or y is farther than join_tolerance:
    # the margins cover the norm's rounding and the underflow of its squares
    reach = max(join_tolerance * (1.0 + 1e-9), 1e-150)

    def node_for(pos):
        px, py = pos.tolist()
        best, best_d = None, None
        # id order, so exact ties keep the lowest id
        for n, (x, y) in zip(nodes, node_xy):
            if abs(x - px) > reach or abs(y - py) > reach:
                continue
            d = float(np.linalg.norm(n.position - pos))
            if d <= join_tolerance and (best is None or d < best_d):
                best, best_d = n, d
        if best is not None:
            return best.id
        nodes.append(LaneNode(len(nodes), pos.copy()))
        node_xy.append((px, py))
        return nodes[-1].id

    for k, cl in enumerate(centerlines):
        pts, lanes, oneway, width = _centerline(cl, k, default_lane_width)
        offsets = [(i + 0.5 - lanes / 2.0) * width for i in range(lanes)]
        if oneway:
            directed = [(off, True) for off in offsets]
        elif lanes == 1:
            directed = [(0.0, True), (0.0, False)]
        else:
            n_fwd = (lanes + 1) // 2
            directed = [(off, i < n_fwd) for i, off in enumerate(offsets)]
        by_direction = {True: [], False: []}
        for off, forward in directed:
            poly = geometry.offset_polyline(pts, off) if off != 0.0 else pts.copy()
            if not forward:
                poly = poly[::-1].copy()
            eid = len(edges)
            edges[eid] = LaneEdge(eid, node_for(poly[0]), node_for(poly[-1]),
                                  poly, width, oneway)
            adjacency.setdefault(edges[eid].from_node, []).append(eid)
            by_direction[forward].append(eid)
        # right to left in the travel frame: the drawn direction's lanes in
        # slot order, the reverse direction's against it
        for group in (by_direction[True], by_direction[False][::-1]):
            for right_eid, left_eid in zip(group, group[1:]):
                edges[right_eid].left_neighbor = left_eid
                edges[left_eid].right_neighbor = right_eid

    return RoadGraph({n.id: n for n in nodes}, edges,
                     {nid: tuple(eids) for nid, eids in adjacency.items()},
                     straight_threshold, max_snap_distance)


def project_to_lane(graph, point, heading_hint=None):
    """Snap a point to the nearest lane edge.

    Ties (equal perpendicular distance within 1e-6 m) are broken by the
    smaller heading difference to ``heading_hint`` when given, else by the
    lower edge id. Past ``graph.max_snap_distance`` it raises
    :class:`OffMapError` with the distance to the nearest edge.
    """
    q = np.asarray(point, dtype=np.float64)
    if not np.all(np.isfinite(q)):
        raise ValueError("query point must be finite")
    index = graph.lane_index
    limit = graph.max_snap_distance
    _, edge, dist, (dmin,) = index.nearest(q[None, :], limit)
    if not dmin <= limit:
        e2 = geometry.segment_dist2(q[0], q[1], *index.columns)
        raise OffMapError(math.sqrt(e2.min()), limit)
    ties = index.edge_ids[edge[dist <= dmin + _TIE_EPS]].tolist()
    if heading_hint is None:
        return lane_coordinate(graph, ties[0], q)
    return min((lane_coordinate(graph, eid, q) for eid in ties),
               key=lambda c: (abs(wrap_angle(c.lane_heading - heading_hint)),
                              c.edge_id))


def lane_coordinate(graph, edge_id, q):
    """The :class:`LaneCoordinate` of point ``q`` projected onto the edge
    ``edge_id``.

    The edge's rows in ``q``'s cell of the grid of ``reach``, the
    graph's snap limit, answer when the nearest of them lies within
    ``reach``: the cell lists every segment within ``reach`` of ``q``
    plus the tie tolerance, so the first strictly nearest of those rows,
    in ascending order, is the whole edge's, bit for bit. Otherwise (no
    row of the edge in the cell, the nearest beyond ``reach``, or ``q``
    not finite) every segment of the edge is measured.
    """
    table = graph.edges[edge_id].table
    q = float(q[0]), float(q[1])
    if math.isfinite(q[0]) and math.isfinite(q[1]):
        index = graph.lane_index
        reach = graph.max_snap_distance
        first = index.first_row[edge_id]
        rows = index.grid(reach).rows_near(*q, first,
                                           first + len(table.seg2))
        if rows:
            s, dist, lateral = geometry.project_point(table, q, rows=rows)
            if dist <= reach:
                return LaneCoordinate(edge_id, s, lateral,
                                      table.heading_at(s))
    s, _, lateral = geometry.project_point(table, q)
    return LaneCoordinate(edge_id, s, lateral, table.heading_at(s))


def within_lanes(graph, points, margin):
    """Which of the (P, 2) ``points`` lie on the lane they snap to.

    A point is within its lane when :func:`project_to_lane` without a
    heading hint snaps it within ``graph.max_snap_distance``, and the
    absolute lateral offset to the edge it picks is at most half that
    edge's lane width plus ``margin``. Each point's verdict depends on
    that point alone, so the points of several trajectories can share
    one call (:func:`metrics.validity_ratio` passes them in blocks).

    Only a point whose nearest edge lies within ``reach``, the smaller of
    the snap limit and the widest half lane plus ``margin``, can pass,
    and :meth:`_LaneIndex.nearest` finds such a point's nearest edge and
    every edge tied with it from the segments near the point alone: the
    same verdicts as measuring every edge, in O(points x nearby
    segments).
    """
    q = np.asarray(points, dtype=np.float64)
    if not np.all(np.isfinite(q)):
        raise ValueError("query points must be finite")
    index = graph.lane_index
    limit = graph.max_snap_distance
    reach = min(limit, index.max_half_width + margin)
    point, edge, dist, dmin = index.nearest(q, reach)
    tied = (dist <= (dmin + _TIE_EPS)[point]).nonzero()[0]
    winner = tied[_run_starts(point[tied])]
    point = point[winner]
    ok = np.zeros(len(q), dtype=bool)
    ok[point] = (dmin[point] <= limit) \
        & (dist[winner] <= index.half_width[edge[winner]] + margin)
    return ok


def _run_starts(keys):
    """Indices where a run of equal values in the 1-D ``keys`` begins."""
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return new.nonzero()[0]


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

