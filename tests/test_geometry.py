"""Vectorized polyline tables against their scalar-loop references."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from trafficforge import geometry
from trafficforge.geometry import wrap_angle

TOL = 1e-9


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
    out = geometry.dedupe_points(pts, TOL)
    ref = _dedupe_ref(pts)
    assert out.shape == ref.shape
    assert np.array_equal(out, ref)


@settings(max_examples=200, deadline=None)
@given(polylines())
def test_heading_change_matches_loop(pts):
    assert geometry.cumulative_heading_change(pts) == _heading_change_ref(pts)


@settings(max_examples=200, deadline=None)
@given(polylines())
def test_polyline_tables_match_separate_passes(pts):
    poly, cum, dpsi = geometry.polyline_tables(pts, TOL)
    ref = _dedupe_ref(pts)
    assert np.array_equal(poly, ref)
    if len(ref) >= 2:
        assert np.array_equal(cum, _cum_ref(ref))
        assert dpsi == _heading_change_ref(ref)


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
def test_polyline_distances_match_project_point(polys, points, data):
    # the table's points include polyline vertices and zero-length segments
    q = np.array(points + [tuple(data.draw(st.sampled_from(list(p))))
                           for p in polys])
    d = np.vstack([p[1:] - p[:-1] for p in polys])
    seg2 = np.einsum("ij,ij->i", d, d)
    seg2[seg2 == 0.0] = 1.0
    starts = np.cumsum([0] + [len(p) - 1 for p in polys[:-1]])
    out = geometry.polyline_distances(
        q, np.vstack([p[:-1] for p in polys]), d, seg2, starts)
    assert out.shape == (len(q), len(polys))
    for k, p in enumerate(polys):
        cum = geometry.cumulative_lengths(p)
        assert out[:, k].tolist() == [geometry.project_point(p, cum, x)[1]
                                      for x in q]
