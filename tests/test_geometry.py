"""Polyline tables and projection against their reference implementations."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trafficforge import geometry, road_graph
from trafficforge.geometry import wrap_angle

TOL = geometry.DEDUPE_TOL


def _dedupe_ref(pts, tol=TOL):
    keep = [0]
    for i in range(1, len(pts)):
        if np.linalg.norm(pts[i] - pts[keep[-1]]) > tol:
            keep.append(i)
    return pts[keep]


def _heading_change_ref(pts):
    h = geometry.segment_headings(pts)
    if len(h) < 2:
        return 0.0
    return float(sum(wrap_angle(h[i + 1] - h[i]) for i in range(len(h) - 1)))


def _project_point_ref(pts, cum, q, lo=0, hi=None):
    """The whole-array numpy projection that the scalar loop replaced."""
    if hi is None:
        hi = len(pts) - 1
    a = pts[lo:hi]
    b = pts[lo + 1:hi + 1]
    d = b - a
    seg2 = np.einsum("ij,ij->i", d, d)
    seg2[seg2 == 0.0] = 1.0
    t = np.clip(np.einsum("ij,ij->i", q - a, d) / seg2, 0.0, 1.0)
    foot = a + t[:, None] * d
    diff = q - foot
    dist2 = np.einsum("ij,ij->i", diff, diff)
    k = int(np.argmin(dist2))
    s = float(cum[lo + k] + t[k] * np.sqrt(seg2[k]))
    cross = d[k, 0] * (q[1] - a[k, 1]) - d[k, 1] * (q[0] - a[k, 0])
    dist = float(np.sqrt(dist2[k]))
    lateral = dist if cross > 0.0 else -dist
    return s, dist, lateral


def _cum_ref(pts):
    cum = np.empty(len(pts))
    cum[0] = 0.0
    np.cumsum(geometry.segment_lengths(pts), out=cum[1:])
    return cum


# headings on both sides of +-pi, so consecutive turns wrap
_HEADINGS = st.one_of(
    st.floats(-math.pi, math.pi),
    st.sampled_from([math.pi, -math.pi, math.pi - 1e-12, -math.pi + 1e-12,
                     3.1, -3.1, 0.0]))
# steps: ordinary segments, near-duplicates within tol, gaps in (tol, 2 tol]
_STEPS = st.one_of(
    st.tuples(st.just("seg"), _HEADINGS, st.floats(0.01, 50.0)),
    st.tuples(st.just("dup"), _HEADINGS, st.floats(0.0, 0.9 * TOL)),
    st.tuples(st.just("gap"), _HEADINGS, st.floats(1.01 * TOL, 2.0 * TOL)))


@st.composite
def polylines(draw):
    x, y = draw(st.floats(-200.0, 200.0)), draw(st.floats(-200.0, 200.0))
    pts = [(x, y)]
    for _, heading, length in draw(st.lists(_STEPS, min_size=1,
                                            max_size=30)):
        x += length * math.cos(heading)
        y += length * math.sin(heading)
        pts.append((x, y))
    return np.array(pts)


@settings(max_examples=200, deadline=None)
@given(polylines())
def test_dedupe_points_matches_loop(pts):
    out = geometry.dedupe_points(pts)
    ref = _dedupe_ref(pts)
    assert out.shape == ref.shape
    assert np.array_equal(out, ref)


@settings(max_examples=200, deadline=None)
@given(polylines())
def test_heading_change_matches_loop(pts):
    # the deduped polyline's turn, 0.0 when fewer than two segments remain
    _, _, dpsi = geometry.polyline_tables(pts)
    assert dpsi == _heading_change_ref(_dedupe_ref(pts))


@settings(max_examples=200, deadline=None)
@given(polylines())
def test_polyline_tables_match_separate_passes(pts):
    poly, cum, dpsi = geometry.polyline_tables(pts)
    ref = _dedupe_ref(pts)
    assert np.array_equal(poly, ref)
    if len(ref) >= 2:
        assert np.array_equal(cum, _cum_ref(ref))
        assert dpsi == _heading_change_ref(ref)


def _classify_ref(pts, threshold):
    """The maneuver labeller before it read ``polyline_tables``."""
    pts = _dedupe_ref(pts)
    if len(pts) < 2:
        return "straight"
    dpsi = _heading_change_ref(pts)
    if dpsi >= threshold:
        return "left"
    return "right" if dpsi <= -threshold else "straight"


@settings(max_examples=300, deadline=None)
@given(polylines(), st.sampled_from([1e-12, math.radians(1.0),
                                     math.radians(30.0),
                                     math.radians(179.0)]))
def test_classify_maneuver_matches_reference(pts, threshold):
    assert road_graph.classify_maneuver(pts, threshold) == \
        _classify_ref(pts, threshold)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(
    st.floats(-4 * math.pi, 4 * math.pi),
    st.sampled_from([math.pi, -math.pi, 2 * math.pi, -2 * math.pi,
                     3 * math.pi, 0.0, -0.0, 1e6, -1e6])),
    min_size=1, max_size=20))
def test_wrap_angles_matches_scalar(thetas):
    out = geometry._wrap_angles(np.array(thetas))
    assert out.tolist() == [wrap_angle(t) for t in thetas]


@settings(max_examples=200, deadline=None)
@given(st.lists(polylines(), min_size=1, max_size=5),
       st.lists(st.tuples(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0)),
                min_size=1, max_size=20),
       st.data())
def test_segment_dist2_matches_project_point(polys, points, data):
    # polylines may hold zero-length segments; the points include vertices
    q = np.array(points + [tuple(data.draw(st.sampled_from(list(p))))
                           for p in polys])
    qx, qy = q.T[..., None]
    for p in polys:
        d = p[1:] - p[:-1]
        seg2 = np.einsum("ij,ij->i", d, d)
        seg2[seg2 == 0.0] = 1.0
        e2 = geometry.segment_dist2(qx, qy, *p[:-1].T, *d.T, seg2)
        table = geometry.SegmentTable(p, geometry.cumulative_lengths(p))
        assert np.sqrt(e2.min(axis=1)).tolist() == [
            geometry.project_point(table, x)[1] for x in q]


@st.composite
def projection_cases(draw):
    """A polyline, a segment window lo..hi and a query point.

    Polylines may retrace themselves, so whole segments coincide; query
    points include vertices (distance 0 on both segments that meet
    there, an exact tie) and points 400 m away.
    """
    pts = draw(polylines())
    if draw(st.booleans()):
        pts = np.vstack([pts, pts[-2::-1]])
    n = len(pts) - 1
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo + 1, n))
    kind = draw(st.sampled_from(["free", "vertex", "far"]))
    if kind == "free":
        q = (draw(st.floats(-300.0, 300.0)), draw(st.floats(-300.0, 300.0)))
    else:
        x, y = pts[draw(st.integers(0, n))]
        if kind == "far":
            heading = draw(_HEADINGS)
            x, y = x + 400.0 * math.cos(heading), y + 400.0 * math.sin(heading)
        q = (x, y)
    return pts, lo, hi, np.array(q, dtype=np.float64)


@settings(max_examples=500, deadline=None)
@given(projection_cases())
def test_project_point_matches_numpy_reference(case):
    pts, lo, hi, q = case
    cum = geometry.cumulative_lengths(pts)
    table = geometry.SegmentTable(pts, cum)
    assert geometry.project_point(table, q, range(lo, hi)) == \
        _project_point_ref(pts, cum, q, lo, hi)
    assert geometry.project_point(table, q) == _project_point_ref(pts, cum, q)


def _project_point_scalar_ref(table, q):
    """The scalar loop over every segment, with no segment skipped."""
    qx, qy = float(q[0]), float(q[1])
    ax, ay, dx, dy, seg2 = table.ax, table.ay, table.dx, table.dy, table.seg2
    best = None
    for i in range(len(seg2)):
        x, y, ux, uy = ax[i], ay[i], dx[i], dy[i]
        t = ((qx - x) * ux + (qy - y) * uy) / seg2[i]
        if t < 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
        ex = qx - (x + t * ux)
        ey = qy - (y + t * uy)
        e2 = ex * ex + ey * ey
        if best is None or e2 < best:
            best, k, tk = e2, i, t
    s = table.cum[k] + tk * math.sqrt(seg2[k])
    cross = dx[k] * (qy - ay[k]) - dy[k] * (qx - ax[k])
    dist = math.sqrt(best)
    return s, dist, (dist if cross > 0.0 else -dist)


@st.composite
def pruning_cases(draw):
    """A polyline and a query point for the whole-table projection.

    Polylines zig-zag, follow a circle (a query at its center is nearly
    equidistant from every segment), form a tee, or are drawn as in
    :func:`polylines`; they may retrace themselves and repeat vertices
    (zero-length segments). Query points lie anywhere, on vertices, on
    segment midpoints, within 1e-9 m of a vertex, or 400 m away.

    In a tee the last segment ends on the first one's midpoint, square
    to it, and the query lies on its line beyond that end: both segments
    are at the same distance, and the last one's lower bound equals the
    first one's upper bound, up to rounding.
    """
    shape = draw(st.sampled_from(["zigzag", "circle", "tee", "free"]))
    if shape == "tee":
        h = draw(_HEADINGS)
        u, w = np.array([math.cos(h), math.sin(h)]), \
            np.array([-math.sin(h), math.cos(h)])
        b = np.array([draw(st.floats(-200.0, 200.0)),
                      draw(st.floats(-200.0, 200.0))])
        half, length, r = (draw(st.floats(0.5, 30.0)) for _ in range(3))
        pts = np.array([b - half * u, b + half * u, b - length * w, b])
        return pts, b + r * w
    if shape == "free":
        pts = draw(polylines())
    else:
        x, y = draw(st.floats(-200.0, 200.0)), draw(st.floats(-200.0, 200.0))
        n = draw(st.integers(2, 60))
        if shape == "zigzag":
            heading, turn = draw(_HEADINGS), draw(st.floats(0.05, 3.1))
            length = draw(st.floats(0.5, 20.0))
            pts = [(x, y)]
            for i in range(n):
                h = heading + (turn if i % 2 else -turn)
                x, y = x + length * math.cos(h), y + length * math.sin(h)
                pts.append((x, y))
        else:
            r = draw(st.floats(1.0, 100.0))
            a = np.linspace(0.0, draw(st.floats(0.5, 2.0 * math.pi)), n + 1)
            pts = np.column_stack([x + r * np.cos(a), y + r * np.sin(a)])
        pts = np.array(pts, dtype=np.float64)
    repeats = draw(st.lists(st.integers(0, len(pts) - 1), max_size=4))
    if repeats:
        pts = np.insert(pts, repeats, pts[repeats], axis=0)
    if draw(st.booleans()):
        pts = np.vstack([pts, pts[-2::-1]])
    n = len(pts) - 1
    kind = draw(st.sampled_from(["free", "vertex", "mid", "near", "far",
                                 "center"]))
    i = draw(st.integers(0, n - 1))
    if kind == "free":
        q = (draw(st.floats(-300.0, 300.0)), draw(st.floats(-300.0, 300.0)))
    elif kind == "vertex":
        q = pts[i]
    elif kind == "mid":
        q = pts[i] + 0.5 * (pts[i + 1] - pts[i])
    elif kind == "near":
        q = pts[i] + draw(st.sampled_from([1e-9, -1e-9, 5e-10]))
    elif kind == "far":
        h = draw(_HEADINGS)
        q = pts[i] + 400.0 * np.array([math.cos(h), math.sin(h)])
    else:
        q = pts.mean(axis=0) if shape != "circle" else (x, y)
    return pts, np.array(q, dtype=np.float64)


@settings(max_examples=800, deadline=None)
@given(pruning_cases())
# a tee whose last segment, the nearest by rounding, is skipped when the
# bound test has no margin
@example((np.array([[-14.502322998734412, 48.16558593577285],
                    [-6.988462485411718, 51.991290595360354],
                    [1.721037055390866, 25.593794799289814],
                    [-10.745392742073065, 50.078438265566604]]),
          np.array([-13.73732561779894, 55.954732515591814])))
def test_whole_table_projection_matches_unpruned_loop(case):
    # bit for bit: the skipped segments change neither the winner nor
    # the float operations that give (s, dist, lateral)
    pts, q = case
    table = geometry.SegmentTable(pts, geometry.cumulative_lengths(pts))
    got = geometry.project_point(table, q)
    ref = _project_point_scalar_ref(table, q)
    assert [v.hex() for v in got] == [v.hex() for v in ref]


def test_project_point_ties_go_to_the_lower_segment():
    # a lane that doubles back: the turning point (10, 0) is the nearest
    # point of both segments, with the query left of the first and right
    # of the second
    pts = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 0.0]])
    cum = geometry.cumulative_lengths(pts)
    table = geometry.SegmentTable(pts, cum)
    q = np.array([12.0, 3.0])
    d = math.sqrt(13.0)
    assert geometry.project_point(table, q) == (10.0, d, d)
    assert geometry.project_point(table, q, [1]) == (10.0, d, -d)
    assert geometry.project_point(table, q) == _project_point_ref(pts, cum, q)


@settings(max_examples=200, deadline=None)
@given(polylines())
def test_segment_table_headings_match_point_at(pts):
    # point_at takes np.arctan2 of one segment at a time; the table of
    # the whole array at once
    cum = geometry.cumulative_lengths(pts)
    table = geometry.SegmentTable(pts, cum)
    assert table.cum == cum.tolist()
    assert table.heading == [float(np.arctan2(d[1], d[0]))
                             for d in pts[1:] - pts[:-1]]


def test_central_speed_clamps_at_both_ends():
    t = [0.0, 1.0, 3.0]
    pts = np.array([[0.0, 0.0], [3.0, 4.0], [3.0, 10.0]])
    # first and last samples difference their one neighbor
    assert geometry.central_speed(t, pts, 0) == 5.0
    assert geometry.central_speed(t, pts, 2) == 3.0
    assert geometry.central_speed(t, pts, 1) == math.sqrt(109.0) / 3.0
    assert geometry.central_speed(t[:1], pts[:1], 0) == 0.0


def test_central_speed_is_0_where_time_does_not_advance():
    t = [1.0, 1.0]
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert geometry.central_speed(t, pts, 0) == 0.0
    assert geometry.central_speed(t, pts, 1) == 0.0
