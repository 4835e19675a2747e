"""Displacement, likelihood, validity, diversity and realism metrics."""

import functools
import math
from unittest import mock

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import wasserstein_distance

from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import four_way_intersection, ring_map, straight_map

from trafficforge import geometry, metrics, road_graph
from trafficforge.config import default
from trafficforge.errors import InsufficientDataError, OffMapError
from trafficforge.metrics import (PredictionSet, Trajectory2D, ade,
                                  diversity_report, fde, min_over_samples,
                                  nll, normalize_trajectory, pca_kde_realism,
                                  validity_ratio, xdd_wasserstein,
                                  y_wasserstein)


def _traj(points, dt=0.1):
    return Trajectory2D(dt, np.asarray(points, float))


def _random_pair(rng, n=21):
    gt = np.cumsum(rng.normal(size=(n, 2)), axis=0)
    pred = gt + rng.normal(scale=0.5, size=(n, 2))
    return _traj(pred), _traj(gt)


def test_ade_identical_and_offset():
    gt = _traj(np.column_stack([np.arange(11.0), np.zeros(11)]))
    assert ade(gt, gt, 10) == 0.0
    off = _traj(gt.points + np.array([1.0, 0.0]))
    assert ade(off, gt, 10) == pytest.approx(1.0)


def test_fde_offset_final_only():
    gt = _traj(np.column_stack([np.arange(11.0), np.zeros(11)]))
    pts = gt.points.copy()
    pts[-1] += [0.0, 2.0]
    assert fde(_traj(pts), gt, 10) == pytest.approx(2.0)
    assert ade(_traj(pts), gt, 10) == pytest.approx(0.2)


def test_ade_fde_brute_force_oracle(rng):
    for _ in range(200):
        pred, gt = _random_pair(rng)
        h = int(rng.integers(1, 20))
        d = np.linalg.norm(pred.points - gt.points, axis=1)
        assert ade(pred, gt, h) == pytest.approx(d[1:h + 1].mean(), abs=1e-12)
        assert fde(pred, gt, h) == pytest.approx(d[h], abs=1e-12)


def test_ade_bounds_error():
    pred, gt = _random_pair(np.random.default_rng(0))
    with pytest.raises(ValueError):
        ade(pred, gt, 21)
    with pytest.raises(ValueError):
        ade(pred, gt, 0)


def test_ade_rigid_motion_invariance(rng):
    pred, gt = _random_pair(rng)
    a = float(rng.uniform(0, 2 * math.pi))
    R = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    t = rng.uniform(-50, 50, size=2)
    pred2, gt2 = _traj(pred.points @ R.T + t), _traj(gt.points @ R.T + t)
    assert ade(pred2, gt2, 20) == pytest.approx(ade(pred, gt, 20), abs=1e-9)
    assert fde(pred2, gt2, 20) == pytest.approx(fde(pred, gt, 20), abs=1e-9)


def test_min_over_samples():
    gt = _traj(np.column_stack([np.arange(11.0), np.zeros(11)]))
    offs = [0.4, 0.1, 0.7]
    ps = PredictionSet(1, gt, [_traj(gt.points + [0.0, o]) for o in offs])
    assert min_over_samples(ps, "ade", 10) == pytest.approx(0.1)
    sample_incl_gt = PredictionSet(1, gt, [gt, _traj(gt.points + [1.0, 0.0])])
    assert min_over_samples(sample_incl_gt, "ade", 10) == 0.0


def test_min_over_samples_oracle(rng):
    gt = _traj(np.cumsum(rng.normal(size=(21, 2)), axis=0))
    samples = [_traj(gt.points + rng.normal(scale=0.5, size=(21, 2)))
               for _ in range(5)]
    ps = PredictionSet(1, gt, samples)
    assert min_over_samples(ps, "ade", 20) \
        == pytest.approx(min(ade(s, gt, 20) for s in samples), abs=1e-15)


def test_nll_collapsed_samples_analytic_floor():
    gt = _traj(np.column_stack([np.arange(6.0), np.zeros(6)]))
    n = 5
    ps = PredictionSet(1, gt, [gt] * n)
    got = nll(ps, 5)
    # identical samples: covariance is the regularizer alone, the density
    # peaks at 1 / (2*pi*sqrt(det(reg * scott^2 * I)))
    kernel_var = metrics.KDE_COV_REG * n ** (-1.0 / 3.0)
    want = math.log(2 * math.pi * kernel_var)
    assert got == pytest.approx(want, abs=1e-9)


def test_nll_monotone_in_distance():
    gt = _traj(np.column_stack([np.arange(6.0), np.zeros(6)]))
    rng = np.random.default_rng(1)
    base = [_traj(gt.points + rng.normal(scale=0.3, size=gt.points.shape))
            for _ in range(6)]
    prev = None
    for shift in (0.0, 2.0, 5.0, 10.0):
        ps = PredictionSet(1, gt,
                           [_traj(s.points + [0.0, shift]) for s in base])
        val = nll(ps, 5)
        if prev is not None:
            assert val > prev
        prev = val


def test_nll_translation_invariance(rng):
    gt = _traj(np.cumsum(rng.normal(size=(8, 2)), axis=0))
    samples = [_traj(gt.points + rng.normal(scale=0.4, size=(8, 2)))
               for _ in range(5)]
    ps = PredictionSet(1, gt, samples)
    t = np.array([123.0, -45.0])
    ps2 = PredictionSet(1, _traj(gt.points + t),
                        [_traj(s.points + t) for s in samples])
    assert nll(ps2, 7) == pytest.approx(nll(ps, 7), abs=1e-9)


def _nll_pin_sets():
    rng = np.random.default_rng(2024)
    sets = []
    for k in range(12):
        n_steps = int(rng.integers(3, 12))
        n = int(rng.integers(2, 30))
        gt = np.cumsum(rng.normal(size=(n_steps, 2)), axis=0)
        if k % 4 == 0:      # collapsed: every sample is the ground truth
            samples = [gt.copy() for _ in range(n)]
        elif k % 4 == 1:    # collinear: samples spread along x only
            samples = [gt + [rng.normal(scale=0.5), 0.0] for _ in range(n)]
        else:
            samples = [gt + rng.normal(scale=0.6, size=gt.shape)
                       for _ in range(n)]
        sets.append((PredictionSet(k, _traj(gt), [_traj(s) for s in samples]),
                     n_steps - 1))
    return sets


def test_nll_pinned():
    # exact floats, so a rewrite of the KDE must keep the float operations
    # and their order
    got = [nll(ps, h).hex() for ps, h in _nll_pin_sets()]
    assert got == [
        "-0x1.0bdf90cf2658cp+3", "-0x1.ccb7fe0dd1b75p+1",
        "0x1.03d9e24cafd58p+0", "0x1.fa0925b423693p-1",
        "-0x1.0ce3d37433864p+3", "-0x1.72574c3ba39eep+1",
        "0x1.42a03d21e99d5p+0", "0x1.33b9301951a84p+0",
        "-0x1.0b53803292181p+3", "-0x1.b2af39150b74ap+1",
        "0x1.257db01d390cap+0", "0x1.fc39948ace62bp-1"]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_kde_matches_summed_normal_densities(d, n):
    from scipy.stats import multivariate_normal
    rng = np.random.default_rng(100 * d + n)
    samples = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0, size=d)
    centered = samples - samples.mean(axis=0)
    cov = centered.T @ centered / (n - 1) if n > 1 else np.zeros((d, d))
    scott = n ** (-1.0 / (d + 4))
    kernel_cov = (cov + metrics.KDE_COV_REG * np.eye(d)) * scott ** 2
    # within a few kernel widths of a sample, where no density underflows
    queries = samples[rng.integers(n, size=6)] \
        + 2.0 * rng.normal(size=(6, d)) @ np.linalg.cholesky(kernel_cov).T
    want = [math.log(sum(multivariate_normal(s, kernel_cov).pdf(q)
                         for s in samples) / n) for q in queries]
    got = metrics._gauss_kde_logpdf(samples, queries)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


@st.composite
def logsumexp_inputs(draw):
    """Finite 1-D vectors: single elements, repeated maxima, and spreads
    up to 1e3, past where exp underflows to 0."""
    spread = draw(st.sampled_from([1e-6, 1.0, 30.0, 745.0, 1e3]))
    n = draw(st.integers(1, 40))
    vals = draw(st.lists(st.floats(-spread, spread), min_size=n, max_size=n))
    a = np.asarray(vals) + draw(st.floats(-1e3, 1e3))
    if n > 1 and draw(st.booleans()):
        a[draw(st.lists(st.integers(0, n - 1), min_size=2))] = a.max()
    return a


@settings(max_examples=1000, deadline=None)
@given(logsumexp_inputs())
@example(np.array([-1e3]))
@example(np.array([5.0, 5.0, 5.0]))
@example(np.array([0.0, -800.0]))
@example(np.array([1e3, -1e3]))
@example(np.array([-745.5, -745.5, -1e3]))
def test_logsumexp_matches_scipy_bit_for_bit(a):
    assert metrics._logsumexp(a).hex() == logsumexp(a).hex()


@pytest.mark.parametrize("n", [1, 2, 7, 8, 31, 64])
def test_diversity_medians_match_np_median(rng, n):
    trajs = [_traj(np.cumsum(rng.normal(size=(12, 2)) + [1.0, 0.0], axis=0))
             for _ in range(n)]
    rep = diversity_report(trajs)
    assert rep.y_median.hex() == float(np.median(rep.y_values)).hex()
    assert rep.xdd_median.hex() == float(np.median(rep.xdd_values)).hex()


def test_nll_needs_two_samples():
    gt = _traj(np.zeros((5, 2)) + np.arange(5)[:, None])
    with pytest.raises(InsufficientDataError):
        nll(PredictionSet(1, gt, [gt]), 4)


def test_validity_ratio_graph_mode():
    g = road_graph.build_graph(straight_map(100.0))
    on = _traj(np.column_stack([np.linspace(5, 60, 12), np.full(12, 0.5)]))
    off = _traj(np.column_stack([np.linspace(5, 60, 12), np.full(12, 15.0)]))
    assert validity_ratio([on, on, on], g) == 1.0
    assert validity_ratio([off, off], g) == 0.0
    assert validity_ratio([on, on, on, off, off, off], g) == 0.5


def _snap_ref(graph, point, heading_hint=None):
    """Brute-force reference for project_to_lane: a scalar projection
    onto every edge. Returns the LaneCoordinate or raises OffMapError
    with the nearest-lane distance past the graph's snap limit."""
    limit = graph.max_snap_distance
    q = np.asarray(point, dtype=np.float64)
    hits = []
    for eid in sorted(graph.edges):
        edge = graph.edges[eid]
        s, dist, lateral = geometry.project_point(edge.table, q)
        heading = geometry.point_at(edge.polyline, edge.cum, s)[1]
        hits.append((dist, eid, road_graph.LaneCoordinate(eid, s, lateral,
                                                          heading)))
    dmin = min(h[0] for h in hits)
    if dmin > limit:
        raise OffMapError(dmin, limit)
    ties = [h for h in hits if h[0] <= dmin + 1e-6]
    if heading_hint is None:
        return ties[0][2]
    return min(ties, key=lambda h: (abs(geometry.wrap_angle(
        h[2].lane_heading - heading_hint)), h[1]))[2]


def _on_graph(graph, point, margin):
    """Per-point reference for graph validity: one brute-force snap."""
    try:
        coord = _snap_ref(graph, point)
    except OffMapError:
        return False
    half = graph.edges[coord.edge_id].lane_width / 2.0
    return abs(coord.lateral_offset) <= half + margin


def _mixed_width_four_way():
    doc = four_way_intersection()
    for i, cl in enumerate(doc["centerlines"]):
        cl["lane_width"] = (2.5, 3.0, 3.5, 4.0, 4.5)[i % 5]
    return doc


# two lanes of widths 2 and 4 whose polylines meet 1e-9 m apart: a point
# past both ends is 1e-9 m nearer the wider one, a tie within 1e-6 m that
# goes to the lower id, the narrower lane
_NEAR_TIE = {"centerlines": [
    {"id": 0, "points": [[0.0, 0.0], [10.0, 0.0]], "lane_width": 2.0},
    {"id": 1, "points": [[10.0 + 1e-9, 0.0], [20.0, 10.0]],
     "lane_width": 4.0}]}
# reversed twin edges that tie exactly; edges of five lane widths; a loop
# whose trajectories revisit its edges; a near tie
_MAPS = {
    "bidirectional": straight_map(128.0, oneway=False),
    "four-way": _mixed_width_four_way(),
    "ring": ring_map(),
    "near-tie": _NEAR_TIE,
}


@functools.lru_cache(maxsize=64)
def _graph(name, snap=default("road.max_snap_distance")):
    """The graph of ``_MAPS[name]`` with the snap limit ``snap``."""
    return road_graph.build_graph(_MAPS[name], max_snap_distance=snap)


_GRAPHS = {name: _graph(name) for name in _MAPS}
def _offsets(snap):
    """Lateral offsets: on the lane, about the validity limit, past the
    snap limit ``snap`` in either off-map test, and exactly at or next to
    the validity limit."""
    return st.one_of(
        st.floats(-3.0, 3.0),
        st.tuples(st.floats(snap - 0.5, snap + 1.5),
                  st.sampled_from([-1.0, 1.0])).map(lambda t: t[0] * t[1]),
        st.sampled_from(["limit", "above", "below"]))


def _walk(draw, graph, margin, steps):
    """Points along a walk on successive edges of ``graph`` from a drawn
    start, one per (step length, lateral offset) of ``steps``; an offset
    "limit", "above" or "below" is the validity limit with ``margin``,
    one float past it or one short of it."""
    eid = draw(st.sampled_from(sorted(graph.edges)))
    s = draw(st.floats(0.0, graph.edges[eid].length))
    pts = []
    for step, off in steps:
        edge = graph.edges[eid]
        s += step
        while s > edge.length:
            nxt = graph.outgoing(edge.to_node)
            if not nxt:
                s = edge.length
                break
            s -= edge.length
            eid = draw(st.sampled_from(nxt))
            edge = graph.edges[eid]
        p, heading = geometry.point_at(edge.polyline, edge.cum, s)
        if isinstance(off, str):
            limit = edge.lane_width / 2.0 + margin
            off = {"limit": limit, "above": np.nextafter(limit, np.inf),
                   "below": np.nextafter(limit, 0.0)}[off]
        pts.append(p + off * np.array([-math.sin(heading), math.cos(heading)]))
    return np.array(pts)


@st.composite
def graph_trajectories(draw):
    """(graph, margin, points): a walk along successive edges, offset
    sideways, on a graph with a drawn snap limit. A 9 m margin puts the
    validity limit past the default snap limit, and so do the smaller
    snap limits."""
    name = draw(st.sampled_from(sorted(_MAPS)))
    margin = draw(st.sampled_from([0.5, 9.0]))
    snap = draw(st.sampled_from([0.01, 1.0, 2.0, 10.0]))
    graph = _graph(name, snap)
    steps = draw(st.lists(st.tuples(st.floats(0.0, 6.0), _offsets(snap)),
                          min_size=2, max_size=120))
    return graph, margin, _walk(draw, graph, margin, steps)


@settings(max_examples=300, deadline=None)
@given(graph_trajectories())
def test_graph_validity_matches_per_point_reference(case):
    graph, margin, pts = case
    ref = [_on_graph(graph, p, margin) for p in pts]
    assert road_graph.within_lanes(graph, pts, margin).tolist() == ref
    with mock.patch.object(metrics, "VALIDITY_MARGIN", margin):
        assert validity_ratio([_traj(pts)], graph) == float(all(ref))


@st.composite
def trajectory_sets(draw):
    """(graph, margin, block, trajectories): one to six walks of 2 to 40
    points on their lanes' centerlines, each with at most one point
    offset as in :func:`_offsets` (on or off the road), on a graph with
    a drawn snap limit, and a ``_VALIDITY_BLOCK`` from 1 point to more
    than all of them."""
    name = draw(st.sampled_from(sorted(_MAPS)))
    margin = draw(st.sampled_from([0.5, 9.0]))
    snap = draw(st.sampled_from([0.01, 1.0, 2.0, 10.0]))
    graph = _graph(name, snap)
    trajs = []
    for n in draw(st.lists(st.integers(2, 40), min_size=1, max_size=6)):
        steps = [(draw(st.floats(0.0, 6.0)), 0.0) for _ in range(n)]
        if draw(st.booleans()):   # often at an end, where blocks split
            at = draw(st.sampled_from([0, n - 1]) | st.integers(0, n - 1))
            steps[at] = (0.0, draw(_offsets(snap)))
        trajs.append(_traj(_walk(draw, graph, margin, steps)))
    total = sum(len(t.points) for t in trajs)
    return graph, margin, draw(st.integers(1, total + 1)), trajs


# blocks of 5 points: the first two trajectories share one, the third
# has one of its own, and the fourth is longer than a whole block; the
# second and the fourth leave the road
_LONG_AFTER_SHORT = (
    _GRAPHS["bidirectional"], 0.5, 5,
    [_traj([[x, y] for x in (10.0, 12.0)]) for y in (0.0, 30.0, 0.0)]
    + [_traj([[20.0 + x, 0.0 if x != 6 else 30.0] for x in range(7)])])


@settings(max_examples=300, deadline=None)
@given(trajectory_sets())
@example(_LONG_AFTER_SHORT)
def test_blocked_validity_matches_per_trajectory_calls(case):
    # every prefix of the list: each trajectory's verdict shows, and a
    # block boundary falls everywhere some block size puts one
    graph, margin, block, trajs = case
    ref = [bool(road_graph.within_lanes(graph, t.points, margin).all())
           for t in trajs]
    with mock.patch.object(metrics, "_VALIDITY_BLOCK", block), \
            mock.patch.object(metrics, "VALIDITY_MARGIN", margin):
        for k in range(1, len(trajs) + 1):
            assert validity_ratio(trajs[:k], graph) == sum(ref[:k]) / k


def test_validity_calls_hold_at_most_one_block():
    # 300, 10 and 300 points on the road: 610 points in slices of 256,
    # 256 and 98, each trajectory's verdict folded back across them
    graph = _GRAPHS["bidirectional"]
    trajs = [_traj([[0.1 + 0.4 * k, 0.0] for k in range(n)])
             for n in (300, 10, 300)]
    trajs[1] = _traj([[5.0, 30.0]] * 10)   # off the road
    sizes = []
    within = road_graph.within_lanes

    def recording(graph, points, *args):
        sizes.append(len(points))
        return within(graph, points, *args)

    with mock.patch.object(road_graph, "within_lanes", recording):
        assert validity_ratio(trajs, graph) == 2 / 3
    assert sizes == [256, 256, 98]


def test_graph_validity_limits():
    graph = _GRAPHS["bidirectional"]
    x = np.arange(1.0, 128.0)
    for y, margin, want in [
            (2.25, 0.5, True), (-2.25, 0.5, True),
            (np.nextafter(2.25, 3.0), 0.5, False),
            (9.5, 9.0, True),
            (10.5, 9.0, False),    # a seed within 11 m, but 10.5 m away
            (11.5, 9.0, False)]:   # no seed within 11 m
        pts = np.column_stack([x, np.full_like(x, y)])
        got = road_graph.within_lanes(graph, pts, margin).tolist()
        assert got == [_on_graph(graph, p, margin) for p in pts]
        assert got == [want] * len(x)
    graph = _GRAPHS["near-tie"]
    pts = np.array([[11.0, -1.5], [10.5, -1.5], [10.5, -1.4]])
    got = road_graph.within_lanes(graph, pts, 0.5).tolist()
    assert got == [_on_graph(graph, p, 0.5) for p in pts]
    assert got == [False, False, True]


def _snap_outcome(snap, *args):
    """The snap's LaneCoordinate fields or OffMapError distance, as bits."""
    try:
        c = snap(*args)
    except OffMapError as err:
        return ("off", float(err.distance).hex())
    return (c.edge_id, float(c.arc_s).hex(), float(c.lateral_offset).hex(),
            float(c.lane_heading).hex())


@st.composite
def snap_queries(draw):
    """(graph, point, heading hint or None): points about a lane, far off
    it, and at node positions, on a graph with a drawn snap limit."""
    name = draw(st.sampled_from(sorted(_MAPS)))
    graph = _GRAPHS[name]
    edge = graph.edges[draw(st.sampled_from(sorted(graph.edges)))]
    p, heading = geometry.point_at(
        edge.polyline, edge.cum, draw(st.floats(0.0, edge.length)))
    off = draw(st.one_of(st.floats(-3.0, 3.0), st.floats(-15.0, 15.0),
                         st.just(0.0)))
    p = p + off * np.array([-math.sin(heading), math.cos(heading)])
    if draw(st.booleans()):
        p = graph.nodes[draw(st.sampled_from(sorted(graph.nodes)))].position
    # a hint square to the reversed twins leaves them tied on heading too
    hint = draw(st.one_of(st.none(), st.floats(-math.pi, math.pi),
                          st.sampled_from([heading, heading + math.pi,
                                           heading + math.pi / 2])))
    return _graph(name, draw(st.floats(0.01, 10.0))), p, hint


@settings(max_examples=500, deadline=None)
@given(snap_queries())
def test_project_to_lane_matches_brute_force_reference(case):
    assert _snap_outcome(road_graph.project_to_lane, *case) \
        == _snap_outcome(_snap_ref, *case)


def test_trajectory_rejects_non_finite_points():
    # every point is off the road, so no early exit hides the bad one
    g = road_graph.build_graph(straight_map(100.0))
    for bad in (np.nan, np.inf, -np.inf):
        for i in (0, 5, 11):
            pts = np.column_stack([np.linspace(5, 60, 12), np.full(12, 15.0)])
            pts[i, i % 2] = bad
            with pytest.raises(ValueError, match="finite"):
                validity_ratio([_traj(pts)], g)


def test_normalize_defining_properties(rng):
    for _ in range(50):
        pts = np.cumsum(rng.normal(size=(15, 2)), axis=0)
        if np.linalg.norm(pts[-1] - pts[0]) < 1e-6:
            continue
        norm = normalize_trajectory(_traj(pts))
        np.testing.assert_allclose(norm.points[0], [0.0, 0.0], atol=1e-12)
        assert norm.points[-1][1] == pytest.approx(0.0, abs=1e-9)
        assert norm.points[-1][0] > 0
        # idempotent
        again = normalize_trajectory(norm)
        np.testing.assert_allclose(again.points, norm.points, atol=1e-9)


def test_normalize_quarter_turn_chord():
    ang = np.linspace(-math.pi / 2, 0.0, 40)
    pts = np.column_stack([10 * np.cos(ang), 10 + 10 * np.sin(ang)])
    norm = normalize_trajectory(_traj(pts))
    chord = np.linalg.norm(pts[-1] - pts[0])
    np.testing.assert_allclose(norm.points[-1], [chord, 0.0], atol=1e-9)


def test_normalize_degenerate():
    pts = np.zeros((5, 2))
    with pytest.raises(ValueError):
        normalize_trajectory(_traj(pts))


def test_y_wasserstein_values():
    straight = _traj(np.column_stack([np.arange(5.0), np.zeros(5)]))
    assert y_wasserstein(straight) == 0.0
    tri = _traj(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]]))
    assert y_wasserstein(tri) == pytest.approx(1.0 / 3.0)
    doubled = _traj(tri.points * np.array([1.0, 2.0]))
    assert y_wasserstein(doubled) == pytest.approx(2.0 / 3.0)


def test_y_wasserstein_matches_scipy(rng):
    for _ in range(100):
        y = rng.normal(scale=3.0, size=17)
        pts = np.column_stack([np.arange(17.0), y])
        got = y_wasserstein(_traj(pts))
        want = wasserstein_distance(y, [0.0])
        assert got == pytest.approx(want, abs=1e-9)


def test_xdd_constant_velocity_zero():
    pts = np.column_stack([np.arange(20.0) * 0.8, np.zeros(20)])
    assert xdd_wasserstein(_traj(pts)) == pytest.approx(0.0, abs=1e-9)


def test_xdd_quadratic_recovers_acceleration():
    for c in (0.7, -1.3, 3.0):
        t = np.arange(30) * 0.1
        pts = np.column_stack([0.5 * c * t * t, np.zeros(30)])
        assert xdd_wasserstein(_traj(pts)) == pytest.approx(abs(c), rel=1e-9)


def test_xdd_matches_difference_oracle(rng):
    for _ in range(100):
        n = int(rng.integers(5, 40))
        dt = float(rng.uniform(0.05, 0.5))
        x = np.cumsum(rng.normal(size=n))
        pts = np.column_stack([x, rng.normal(size=n)])
        got = xdd_wasserstein(_traj(pts, dt))
        # independent oracle: convolution second difference + one-sided ends
        interior = np.convolve(x, [1.0, -2.0, 1.0], mode="valid") / dt ** 2
        full = np.concatenate([[interior[0]], interior, [interior[-1]]])
        assert got == pytest.approx(np.abs(full).mean(), abs=1e-9)


def test_diversity_report_aggregation(rng):
    trajs = []
    for _ in range(9):
        pts = np.cumsum(rng.normal(size=(12, 2)) + [1.0, 0.0], axis=0)
        trajs.append(_traj(pts))
    rep = diversity_report(trajs)
    ys = np.sort(rep.y_values)
    assert rep.y_median == pytest.approx(ys[len(ys) // 2])
    assert rep.y_mean == pytest.approx(ys.mean())
    assert rep.y_values.min() >= 0 and rep.xdd_values.min() >= 0
    # even count: median is the average of the middle two
    rep2 = diversity_report(trajs[:8])
    ys2 = np.sort(rep2.y_values)
    assert rep2.y_median == pytest.approx((ys2[3] + ys2[4]) / 2.0)


def test_diversity_straight_set_is_zero():
    trajs = [_traj(np.column_stack([np.arange(15.0) * v, np.zeros(15)]))
             for v in (0.5, 1.0, 1.5)]
    rep = diversity_report(trajs)
    assert rep.y_mean == pytest.approx(0.0, abs=1e-12)
    assert rep.xdd_mean == pytest.approx(0.0, abs=1e-9)


def test_diversity_counts_degenerate():
    good = _traj(np.column_stack([np.arange(5.0), np.zeros(5)]))
    stuck = _traj(np.zeros((5, 2)))
    rep = diversity_report([good, stuck])
    assert rep.n_degenerate == 1
    assert len(rep.y_values) == 1


def _wiggle_set(rng, n, shift=0.0):
    out = []
    for _ in range(n):
        t = np.arange(36) * 0.2
        x = 8.0 * t + rng.normal(scale=0.8, size=36).cumsum() * 0.2
        y = rng.normal(scale=0.5, size=36).cumsum() * 0.2 + shift
        out.append(_traj(np.column_stack([x, y]), dt=0.2))
    return out


def test_pca_kde_same_distribution_close(rng):
    real = _wiggle_set(rng, 400)
    sim = _wiggle_set(rng, 400)
    ll_real, ll_sim = pca_kde_realism(real, sim, n_eval=500, rng_seed=3)
    assert abs(ll_real - ll_sim) < 0.3


def test_pca_kde_shifted_distribution_separates(rng):
    real = _wiggle_set(rng, 300)
    shifted = _wiggle_set(rng, 300, shift=60.0)
    ll_real, ll_sim = pca_kde_realism(real, shifted, n_eval=500, rng_seed=3)
    assert ll_sim < ll_real - 5.0


def test_pca_kde_insufficient_data():
    with pytest.raises(InsufficientDataError):
        pca_kde_realism([], [], n_eval=10, rng_seed=0)


def test_pca_kde_degenerate_real_set_is_regularised():
    # identical trajectories collapse under PCA; the KDE's covariance
    # regulariser still gives a finite density
    t = _traj(np.column_stack([np.arange(6.0), np.zeros(6)]))
    ll_real, ll_sim = pca_kde_realism([t] * 4, [t] * 3, n_eval=5)
    assert math.isfinite(ll_real) and ll_real == ll_sim
