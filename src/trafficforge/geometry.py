"""Planar polyline geometry: arc length, interpolation, projection, offsets.

All polylines are (N, 2) float64 arrays in meters. Headings are radians in
(-pi, pi], counterclockwise positive, 0 along +x.
"""

import math
from bisect import bisect_right

import numpy as np

_TWO_PI = 2.0 * math.pi
DEDUPE_TOL = 1e-9   # m, consecutive points closer than this are one point


def as_polyline(points):
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError("polyline needs shape (N>=2, 2)")
    return pts


def segment_lengths(pts):
    return np.linalg.norm(np.diff(pts, axis=0), axis=1)


def cumulative_lengths(pts):
    """Arc length at every vertex; cum[0] = 0, cum[-1] = total length."""
    return _running_total(segment_lengths(pts))


def _running_total(seg):
    cum = np.empty(len(seg) + 1)
    cum[0] = 0.0
    np.cumsum(seg, out=cum[1:])
    return cum


def segment_headings(pts):
    d = np.diff(pts, axis=0)
    return np.arctan2(d[:, 1], d[:, 0])


def point_at(pts, cum, s):
    """Point and heading at arc length ``s``.

    At an interior vertex the heading of the *following* segment is
    returned; at the very end, the last segment's.
    """
    if s < -1e-9 or s > cum[-1] + 1e-9:
        raise ValueError(f"arc length {s} outside [0, {cum[-1]}]")
    s = min(max(s, 0.0), float(cum[-1]))
    i = int(np.searchsorted(cum, s, side="right")) - 1
    i = min(max(i, 0), len(pts) - 2)
    seg = cum[i + 1] - cum[i]
    t = 0.0 if seg <= 0.0 else (s - cum[i]) / seg
    p = pts[i] + t * (pts[i + 1] - pts[i])
    d = pts[i + 1] - pts[i]
    return p, float(np.arctan2(d[1], d[0]))


class SegmentTable:
    """The segments of one polyline as Python float lists, built once.

    ``cum`` is the arc length at every vertex; per segment, ``ax``/``ay``
    are the start points, ``dx``/``dy`` the directions, ``seg2`` the
    squared lengths (zeros replaced by 1) and ``heading`` the
    ``np.arctan2`` headings, the values :func:`point_at` returns.
    Per-step queries touch a handful of segments, where a scalar loop
    beats numpy's per-call overhead. The one builder of segment columns:
    a lane graph's index stacks its edges' tables.
    """

    __slots__ = ("cum", "ax", "ay", "dx", "dy", "seg2", "heading")

    def __init__(self, pts, cum):
        a = pts[:-1]
        d = pts[1:] - a
        dx, dy = d[:, 0], d[:, 1]
        seg2 = dx * dx + dy * dy
        seg2[seg2 == 0.0] = 1.0
        self.cum = cum.tolist()
        self.ax, self.ay = a[:, 0].tolist(), a[:, 1].tolist()
        self.dx, self.dy = dx.tolist(), dy.tolist()
        self.seg2 = seg2.tolist()
        self.heading = np.arctan2(dy, dx).tolist()

    def heading_at(self, s):
        """:func:`point_at`'s heading at ``s``, clamped to the polyline."""
        cum = self.cum
        s = min(max(s, 0.0), cum[-1])
        i = bisect_right(cum, s) - 1
        return self.heading[min(max(i, 0), len(self.heading) - 1)]


def project_point(table, q, rows=None):
    """Project ``q`` onto the polyline of ``table``: the ascending
    segment indices ``rows``, or every segment when None.

    Returns (s, distance, signed_lateral) where the lateral offset is
    positive when ``q`` lies left of the local travel direction. The
    foot on each segment is clamped to it; the first segment with the
    strictly smallest squared distance wins.
    """
    qx, qy = float(q[0]), float(q[1])
    if rows is None:
        rows = range(len(table.seg2))
    ax, ay, dx, dy, seg2 = table.ax, table.ay, table.dx, table.dy, table.seg2
    best = None
    for i in rows:
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


def segment_dist2(qx, qy, ax, ay, dx, dy, seg2):
    """Squared distance from the points ``(qx, qy)`` to the segments that
    start at ``(ax, ay)`` with directions ``(dx, dy)`` and squared lengths
    ``seg2`` (zeros replaced by 1), elementwise with numpy broadcasting:
    :func:`project_point`'s float operations in its order, so each value
    is bit for bit the ``e2`` it computes for that point and segment."""
    t = np.clip(((qx - ax) * dx + (qy - ay) * dy) / seg2, 0.0, 1.0)
    ex = qx - (ax + t * dx)
    ey = qy - (ay + t * dy)
    return ex * ex + ey * ey


def central_speed(t, pts, i):
    """Speed at sample ``i`` of the points ``pts`` timed ``t``:
    ``|pts[hi] - pts[lo]| / (t[hi] - t[lo])``, ``lo`` and ``hi`` the
    neighbours ``i - 1`` and ``i + 1`` clamped to the ends; 0.0 where
    time does not advance."""
    lo, hi = max(i - 1, 0), min(i + 1, len(t) - 1)
    dt = t[hi] - t[lo]
    return float(np.linalg.norm(pts[hi] - pts[lo]) / dt) if dt > 0 else 0.0


def resample_polyline(pts, step):
    """Evenly spaced points every ``step`` meters (endpoints included)."""
    cum = cumulative_lengths(pts)
    total = float(cum[-1])
    n = max(int(np.ceil(total / step)), 1)
    s_values = np.linspace(0.0, total, n + 1)
    out = np.empty((n + 1, 2))
    out[:, 0] = np.interp(s_values, cum, pts[:, 0])
    out[:, 1] = np.interp(s_values, cum, pts[:, 1])
    return out


def wrap_angle(theta):
    """Wrap an angle to the interval (-pi, pi]."""
    t = math.fmod(theta + math.pi, _TWO_PI)
    if t <= 0.0:
        t += _TWO_PI
    return t - math.pi


def _wrap_angles(theta):
    """Elementwise :func:`wrap_angle`, bit for bit."""
    t = np.fmod(theta + np.pi, _TWO_PI)
    t[t <= 0.0] += _TWO_PI
    return t - np.pi


def _total_turn(d):
    """Sum of the wrapped turns between the segment vectors ``d``.

    The turns are added left to right (``cumsum``, not the pairwise
    ``np.sum``), so the result is the same float as a scalar loop's.
    """
    if len(d) < 2:
        return 0.0
    h = np.arctan2(d[:, 1], d[:, 0])
    return float(_wrap_angles(h[1:] - h[:-1]).cumsum()[-1])


def polyline_tables(pts):
    """(deduped points, arc-length table, total heading change) of ``pts``.

    Bit for bit what :func:`dedupe_points` and :func:`cumulative_lengths`
    return, and the turn of the deduped points (0.0 below two segments).
    One difference pass serves when every consecutive gap clears
    ``2 * DEDUPE_TOL``, a margin for any rounding difference between the
    vectorized and :func:`dedupe_points`' scalar norm.
    """
    d = pts[1:] - pts[:-1]
    seg = np.linalg.norm(d, axis=1)
    if not (seg > 2.0 * DEDUPE_TOL).all():
        pts = dedupe_points(pts)
        d = pts[1:] - pts[:-1]
        seg = np.linalg.norm(d, axis=1)
    return pts, _running_total(seg), _total_turn(d)


def offset_polyline(pts, offset):
    """Parallel offset; positive moves left of the travel direction.

    Vertex normals are averaged between adjacent segments with the miter
    length capped at 2x to keep sharp corners bounded.
    """
    d = np.diff(pts, axis=0)
    lens = np.linalg.norm(d, axis=1)
    lens[lens == 0.0] = 1.0
    n = np.column_stack([-d[:, 1], d[:, 0]]) / lens[:, None]
    vertex_n = np.empty_like(pts)
    vertex_n[0] = n[0]
    vertex_n[-1] = n[-1]
    if len(pts) > 2:
        avg = n[:-1] + n[1:]
        norm = np.linalg.norm(avg, axis=1)
        norm[norm < 1e-12] = 1.0
        avg = avg / norm[:, None]
        # miter scale: 1 / cos(theta/2), capped
        cos_half = np.clip(np.einsum("ij,ij->i", avg, n[:-1]), 0.5, 1.0)
        vertex_n[1:-1] = avg / cos_half[:, None]
    return pts + offset * vertex_n


def dedupe_points(pts):
    """Drop consecutive duplicates (within ``DEDUPE_TOL``) from points."""
    keep = [0]
    for i in range(1, len(pts)):
        if np.linalg.norm(pts[i] - pts[keep[-1]]) > DEDUPE_TOL:
            keep.append(i)
    return pts[keep]
