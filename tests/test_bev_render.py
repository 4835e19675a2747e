"""Context/state rasterization and the binary grid-sample format."""

import errno
import hashlib
import math
import os
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (assert_grid_sample, four_way_intersection, ring_map,
                     straight_map, tracklets_doc)

from trafficforge import bev_render, road_graph, scene_ingest
from trafficforge.behavior import BehaviorAssignment, VelocityProfile
from trafficforge.bev_render import (GridSpec, export_sequence,
                                     rasterize_states, read_grid_sample,
                                     render_context)
from trafficforge.config import SimConfig
from trafficforge.sim_engine import simulate_scene


def _min_dist2_to_polyline(points, poly):
    """Squared distance from many points to one polyline (vectorized)."""
    best = np.full(len(points), np.inf)
    for i in range(len(poly) - 1):
        a, b = poly[i], poly[i + 1]
        d = b - a
        seg2 = float(d @ d)
        if seg2 <= 0.0:
            diff = points - a
            best = np.minimum(best, np.einsum("ij,ij->i", diff, diff))
            continue
        t = np.clip(((points - a) @ d) / seg2, 0.0, 1.0)
        foot = a + t[:, None] * d[None, :]
        diff = points - foot
        best = np.minimum(best, np.einsum("ij,ij->i", diff, diff))
    return best


def _reference_classes(graph, spec):
    """Every cell against every segment of every edge: the full-grid pass."""
    classes = np.full((spec.H, spec.W), bev_render.UNKNOWN, dtype=np.uint8)
    xs, ys = spec.cell_centers()
    cx, cy = np.meshgrid(xs, ys)
    centers = np.stack([cx.ravel(), cy.ravel()], axis=1)
    road_mask = np.zeros(spec.H * spec.W, dtype=bool)
    lane_mask = np.zeros(spec.H * spec.W, dtype=bool)
    for eid in sorted(graph.edges):
        edge = graph.edges[eid]
        d2 = _min_dist2_to_polyline(centers, edge.polyline)
        half_w = edge.lane_width / 2.0
        road_mask |= d2 <= half_w * half_w
        half_px = spec.resolution / 2.0
        lane_mask |= d2 <= half_px * half_px
    classes.ravel()[road_mask] = bev_render.ROAD
    classes.ravel()[lane_mask] = bev_render.LANE
    return classes


def _arc_points(cx, cy, radius, a0, sweep, n):
    ang = a0 + sweep * np.linspace(0.0, 1.0, n)
    return np.column_stack([cx + radius * np.cos(ang),
                            cy + radius * np.sin(ang)])


_coord = st.floats(-40.0, 40.0)
_lane_width = st.sampled_from([0.2, 0.4, 1.0, 2.5, 3.5, 5.0])

# a straight piece, a curved arc, or a raw polyline that may repeat a point
_polyline = st.one_of(
    st.tuples(_coord, _coord, _coord, _coord).filter(
        lambda p: math.hypot(p[2] - p[0], p[3] - p[1]) > 0.5).map(
        lambda p: np.array([[p[0], p[1]], [p[2], p[3]]])),
    st.builds(_arc_points, _coord, _coord, st.floats(2.0, 30.0),
              st.floats(-math.pi, math.pi),
              st.floats(0.3, 2 * math.pi).flatmap(
                  lambda s: st.sampled_from([s, -s])),
              st.integers(3, 30)),
    st.lists(st.tuples(_coord, _coord), min_size=2, max_size=6).map(
        lambda pts: np.array(pts + pts[-1:], dtype=float)),
)

_raw_graph = st.lists(st.tuples(_polyline, _lane_width),
                      min_size=1, max_size=4).map(
    lambda edges: road_graph.RoadGraph({}, {
        i: road_graph.LaneEdge(i, 0, 0, poly, w, True)
        for i, (poly, w) in enumerate(edges)}, {}, 0.5, 10.0))

_MAPS = [four_way_intersection(), ring_map(30.0),
         straight_map(60.0, lanes=3, oneway=False, lane_width=3.5),
         straight_map(60.0, lanes=2, oneway=False, lane_width=0.3),
         {"centerlines": [{"id": 0, "lanes": 2, "oneway": True,
                           "lane_width": 0.4,
                           "points": _arc_points(0.0, 0.0, 12.0, 0.0,
                                                 math.pi, 16).tolist()}]}]
_map_graph = st.sampled_from(range(len(_MAPS))).map(
    lambda i: road_graph.build_graph(_MAPS[i]))

# dimensions down to one cell, centers from on the map to far off it; or
# centered on a centerline point of the maps, as render centers a grid on
# an agent on its lane, with integer or half-integer coordinates along
# the line, so that cell centers lie exactly at a threshold from it
_on_centerline = st.tuples(
    st.integers(-80, 80).map(lambda k: k / 2.0),
    st.sampled_from([0.0, 1.75, -1.75, 30.0])).flatmap(
    lambda c: st.sampled_from([c, c[::-1]]))
_grid = st.one_of(
    st.builds(
        GridSpec.centered_on,
        st.tuples(st.one_of(_coord, st.floats(-400.0, 400.0)),
                  st.one_of(_coord, st.floats(-400.0, 400.0))),
        st.integers(1, 48), st.integers(1, 48),
        st.one_of(st.sampled_from([0.25, 0.5, 1.0, 2.0]),
                  st.floats(0.25, 2.0))),
    st.builds(GridSpec.centered_on, _on_centerline, st.integers(1, 48),
              st.integers(1, 48), st.sampled_from([0.5, 1.0, 2.0])))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_map_graph, _raw_graph), _grid)
def test_context_matches_full_grid_reference(graph, spec):
    ctx = render_context(graph, spec)
    assert ctx.classes.dtype == np.uint8
    assert np.array_equal(ctx.classes, _reference_classes(graph, spec))


@pytest.mark.parametrize("size, res, digest", [
    (256, 0.5,
     "1f74f07c33739b16cec13b8ff965aaf5ec04102c39f1c454e96a8b4df5df8645"),
    (128, 1.0,
     "e94c6ab6887be2039ab1d04b800a411d126bf2e5858e2d4cbfddde445b4f2bf1"),
])
def test_four_way_context_digest_pinned(size, res, digest):
    g = road_graph.build_graph(four_way_intersection())
    spec = GridSpec.centered_on((0.0, 0.0), size, size, res)
    classes = render_context(g, spec).classes
    assert classes.dtype == np.uint8 and classes.shape == (size, size)
    assert hashlib.sha256(classes.tobytes()).hexdigest() == digest


# a raster-workload grid: 128x128 at 1 m, centered on a point of the west
# approach lane's centerline, so rows of cell centers lie exactly half a
# pixel from the lanes along the x axis
_APPROACH_SPEC = GridSpec.centered_on((-30.0, -1.75), 128, 128, 1.0)


def test_approach_context_digest_pinned():
    g = road_graph.build_graph(four_way_intersection())
    classes = render_context(g, _APPROACH_SPEC).classes
    assert hashlib.sha256(classes.tobytes()).hexdigest() == (
        "fdaeb77f52315b1d380c65f27c399bc1352cc63601e0a722d3bdf267c2d62ebb")


_BAD_GRIDS = [
    ((4, 4, float("nan")), "resolution"),
    ((4, 4, float("inf")), "resolution"),
    ((4, 4, 0.0), "resolution"),
    ((4, 4, -1.0), "resolution"),
    ((4.5, 4, 1.0), "grid H"),
    ((True, 4, 1.0), "grid H"),
    ((4, 0, 1.0), "grid W"),
    ((4, -2, 1.0), "grid W"),
    ((4, 4, 1.0, (float("nan"), 0.0)), "origin"),
    ((4, 4, 1.0, (0.0, float("-inf"))), "origin"),
]


@pytest.mark.parametrize("args, field", _BAD_GRIDS)
def test_grid_spec_rejects(args, field):
    with pytest.raises(ValueError, match=field):
        GridSpec(*args)


def test_grid_spec_rejects_non_finite_center():
    with pytest.raises(ValueError, match="origin"):
        GridSpec.centered_on((float("nan"), 0.0), 4, 4, 1.0)


@pytest.mark.parametrize("H, W, res, ox, oy, field", [
    (4, 4, float("nan"), 0.0, 0.0, "resolution"),
    (4, 4, float("inf"), 0.0, 0.0, "resolution"),
    (4, 4, 0.0, 0.0, 0.0, "resolution"),
    (0, 4, 1.0, 0.0, 0.0, "grid H"),
    (4, 4, 1.0, float("nan"), 0.0, "origin"),
    (4, 4, 1.0, 0.0, float("-inf"), "origin"),
])
def test_read_rejects_a_header_grid_spec_rejects(tmp_path, H, W, res, ox,
                                                 oy, field):
    header = bev_render._HEADER.pack(bev_render._MAGIC, bev_render._VERSION,
                                     H, W, res, 0, 1, ox, oy, 0, 3)
    path = tmp_path / "bad.bevg"
    path.write_bytes(header.ljust(64, b"\x00") + bytes(3 * H * W * 4))
    with pytest.raises(ValueError, match=field) as exc:
        read_grid_sample(str(path))
    assert str(exc.value).startswith(f"{path}: ")


def test_grid_no_lane_reaches_all_unknown():
    g = road_graph.build_graph(straight_map(100.0, lane_width=3.5))
    spec = GridSpec(32, 32, 1.0, (0.0, 500.0))
    ctx = render_context(g, spec)
    assert (ctx.classes == bev_render.UNKNOWN).all()
    assert (ctx.planes.sum(axis=0) == 1).all()


def test_context_band_area_oracle():
    g = road_graph.build_graph(straight_map(100.0, lane_width=3.5))
    res = 0.5
    # generic origin: the centerline is not equidistant between cell centers
    spec = GridSpec(40, 200, res, (0.0, -10.25))
    ctx = render_context(g, spec)
    road_cols = (ctx.classes != bev_render.UNKNOWN).sum(axis=0)
    # the lane spans the x range of the whole grid: every column sees a band
    expected_rows = 3.5 / res
    assert np.all(np.abs(road_cols - expected_rows) <= 1)
    lane_rows = (ctx.classes == bev_render.LANE).sum(axis=0)
    assert np.all(lane_rows == 1)  # one-pixel lane line
    assert (ctx.planes.sum(axis=0) == 1).all()


def test_context_one_hot_random_maps(rng):
    for _ in range(10):
        n = int(rng.integers(1, 4))
        cls = []
        for i in range(n):
            p0 = rng.uniform(-20, 20, size=2)
            p1 = p0 + rng.uniform(-30, 30, size=2)
            if np.linalg.norm(p1 - p0) < 1.0:
                p1 = p0 + [10.0, 0.0]
            cls.append({"id": i, "points": [list(p0), list(p1)],
                        "lanes": int(rng.integers(1, 3)), "oneway": True})
        g = road_graph.build_graph({"centerlines": cls})
        spec = GridSpec(48, 48, 1.0, (-24.0, -24.0))
        ctx = render_context(g, spec)
        assert (ctx.planes.sum(axis=0) == 1).all()


def _tiny_log(positions, labels=None):
    """Minimal stand-in log with agents at fixed positions."""
    class _Ag:
        def __init__(self, aid, xy, label):
            self.agent_id = aid
            self.label = label
            self.t = np.array([0.0])
            self.x = np.array([xy[0]])
            self.y = np.array([xy[1]])

    class _Log:
        scene_id = "t"
        variant_index = 0
        agents = [_Ag(i + 1, xy, (labels or {}).get(i + 1, "straight"))
                  for i, xy in enumerate(positions)]

    return _Log()


def test_cell_index_arithmetic():
    spec = GridSpec(64, 64, 0.5, (0.0, 0.0))
    maps = rasterize_states(_tiny_log([(10.3, 4.7)]), 0, spec)
    rows, cols = np.nonzero(maps.mask)
    assert (rows[0], cols[0]) == (9, 20)  # floor(4.7/0.5), floor(10.3/0.5)


def test_agent_at_start_zero_state():
    spec = GridSpec(32, 32, 1.0, (0.0, 0.0))
    maps = rasterize_states(_tiny_log([(5.5, 5.5)]), 0, spec)
    r, c = np.nonzero(maps.mask)
    assert maps.state[r[0], c[0], 0] == 0.0
    assert maps.state[r[0], c[0], 1] == 0.0
    assert maps.ids[r[0], c[0]] == 2  # agent_id 1, stored shifted by one


def test_out_of_grid_agents_omitted():
    spec = GridSpec(16, 16, 1.0, (0.0, 0.0))
    maps = rasterize_states(_tiny_log([(5.0, 5.0), (-3.0, 5.0)]), 0, spec)
    assert maps.mask.sum() == 1


def test_cell_collision_lower_id_wins():
    spec = GridSpec(16, 16, 1.0, (0.0, 0.0))
    maps = rasterize_states(_tiny_log([(5.2, 5.2), (5.7, 5.7)]), 0, spec)
    assert maps.mask.sum() == 1
    assert maps.collisions == 1
    r, c = np.nonzero(maps.mask)
    assert maps.ids[r[0], c[0]] == 1 + 1


def test_label_one_hot_channels():
    spec = GridSpec(16, 16, 1.0, (0.0, 0.0))
    maps = rasterize_states(
        _tiny_log([(2.5, 2.5), (8.5, 8.5)], labels={1: "left", 2: "right"}),
        0, spec)
    assert maps.labels[..., 1].sum() == 1  # left
    assert maps.labels[..., 2].sum() == 1  # right
    assert (maps.labels.sum(axis=2)[maps.mask == 1] == 1).all()


def _simulated_log():
    g = road_graph.build_graph(straight_map(300.0))
    doc = tracklets_doc("bev", [(1, 5.0, 0.0, 0.0, 10.0),
                                (2, 40.0, 0.0, 0.0, 9.0)])
    sid, tracks = scene_ingest.load_tracklets(doc)
    scene = scene_ingest.instantiate_agents(g, tracks, 0.0, sid)
    asg = {a.agent_id: BehaviorAssignment(
        a.agent_id,
        road_graph.enumerate_routes(g, a.lane, horizon_dist=400.0)[0],
        "straight",
        VelocityProfile(np.full(100, 9.0), 9.0, "straight"))
        for a in scene.agents}
    return g, simulate_scene(scene, asg, SimConfig(master_seed=9))


def test_mask_count_matches_active_agents():
    g, log = _simulated_log()
    spec = GridSpec.centered_on((40.0, 0.0), 256, 256, 0.5)
    for t in (0, 10, 35, 70):
        maps = rasterize_states(log, t, spec)
        active = sum(1 for ag in log.agents
                     if t < len(ag.t) and spec.cells(ag.x[t:t + 1],
                                                     ag.y[t:t + 1])[0] >= 0)
        assert maps.mask.sum() + maps.collisions == active


def test_state_recovers_relative_displacement():
    g, log = _simulated_log()
    spec = GridSpec.centered_on((40.0, 0.0), 256, 256, 0.5)
    t = 30
    maps = rasterize_states(log, t, spec)
    for ag in log.agents:
        (cell,) = spec.cells(ag.x[t:t + 1], ag.y[t:t + 1])
        r, c = divmod(int(cell), spec.W)
        if cell < 0 or maps.ids[r, c] != ag.agent_id + 1:
            continue
        dx = ag.x[t] - ag.x[0]
        dy = ag.y[t] - ag.y[0]
        assert abs(maps.state[r, c, 0] - dx) < 1e-5
        assert abs(maps.state[r, c, 1] - dy) < 1e-5


def test_grid_sample_roundtrip(tmp_path):
    g, log = _simulated_log()
    spec = GridSpec.centered_on((40.0, 0.0), 64, 64, 1.0)
    ctx = render_context(g, spec)
    (path,) = export_sequence(log, ctx, t_obs=20, stride=100000,
                              out_dir=str(tmp_path))
    back = read_grid_sample(path)
    assert_grid_sample(back, log, ctx, 20)
    assert back.t_obs == 20
    assert back.spec == spec


def test_export_sequence_counts(tmp_path):
    g, log = _simulated_log()
    spec = GridSpec.centered_on((40.0, 0.0), 32, 32, 1.0)
    ctx = render_context(g, spec)
    # 71-step log, huge stride: exactly one sample
    paths = export_sequence(log, ctx, t_obs=20, stride=100000,
                            out_dir=str(tmp_path))
    assert len(paths) == 1
    # stride 25: offsets 0, 25, 50 all leave at least t_obs + 1 steps
    paths = export_sequence(log, ctx, t_obs=20, stride=25,
                            out_dir=str(tmp_path))
    assert len(paths) == 3


def test_four_way_context_classes():
    g = road_graph.build_graph(four_way_intersection())
    spec = GridSpec.centered_on((0.0, 0.0), 128, 128, 1.0)
    ctx = render_context(g, spec)
    counts = {c: int((ctx.classes == c).sum())
              for c in (bev_render.ROAD, bev_render.LANE, bev_render.UNKNOWN)}
    assert counts[bev_render.ROAD] > 0
    assert counts[bev_render.LANE] > 0
    assert counts[bev_render.UNKNOWN] > 0
    assert sum(counts.values()) == 128 * 128


def _export_log():
    """Seven agents listed out of id order on a 30-step log: a pair that
    shares cells (ids 2 and 3), agents entering and leaving the grid, one
    exiting after 12 steps and one after a single step, positions exactly
    on cell and grid borders, and a label outside ``LABEL_CLASSES``."""
    rng = np.random.default_rng(12)
    k = np.arange(30)

    def agent(aid, label, x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return SimpleNamespace(agent_id=aid, label=label,
                               t=0.1 * np.arange(len(x)), x=x, y=y)

    ring = 2.0 * k / 29.0 * math.pi
    return SimpleNamespace(scene_id="pin", variant_index=3, agents=[
        agent(7, "straight", -12.0 + 0.75 * k, np.full(30, -1.75)),
        agent(3, "right", 3.0 * np.cos(ring) + 0.1, 2.0 * np.sin(ring) + 0.1),
        agent(2, "left", 3.0 * np.cos(ring), 2.0 * np.sin(ring)),
        agent(5, "u-turn", np.linspace(4.0, 9.0, 12),
              np.linspace(-5.0, 7.0, 12)),
        agent(9, "straight", -10.0 + 0.5 * k,
              np.where(k % 2 == 0, -6.0, 6.0 - 0.5 * (k % 3))),
        agent(0, "left", np.cumsum(rng.normal(0.0, 1.5, 30)),
              np.cumsum(rng.normal(0.0, 1.0, 30)) - 6.0000001),
        agent(4, "right", [10.0], [-6.0]),
    ])


def test_export_sequence_bytes_pinned(tmp_path):
    log = _export_log()
    spec = GridSpec.centered_on((0.0, 0.0), 24, 40, 0.5)  # H != W
    ctx = render_context(road_graph.build_graph(four_way_intersection()),
                         spec)
    paths = export_sequence(log, ctx, t_obs=5, stride=7,
                            out_dir=str(tmp_path))
    assert [p[-10:] for p in paths] == [f"o{o:04d}.bevg"
                                        for o in (0, 7, 14, 21)]
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(f"{path[len(str(tmp_path)):]}\0".encode())
            h.update(hashlib.sha256(fh.read()).digest())
    assert h.hexdigest() == \
        "1beafb21ea59ce3ff4511e84c02f24d1b76a3a7fde804794a62edf298ce44626"

    collisions = outside = 0
    for offset, path in zip((0, 7, 14, 21), paths):
        back = read_grid_sample(path)
        assert_grid_sample(back, log, ctx, 5, offset)
        assert back.variant == 3
        for k in range(len(back.frames)):
            maps = rasterize_states(log, offset + k, spec)
            active = sum(offset + k < len(ag.t) for ag in log.agents)
            collisions += maps.collisions
            outside += active - int(maps.mask.sum()) - maps.collisions
    # the log reaches the collision rule and the off-grid rule
    assert collisions > 0 and outside > 0


def _fill(table, planes, t):
    """Write step ``t`` of ``table`` into the zeroed float32 (7, H*W) frame
    ``planes`` mark field by mark field; returns the cells it set."""
    if not 0 <= t < table.n_steps:
        return table.cell[:0]
    lo, hi = table.offsets[t], table.offsets[t + 1]
    cells = table.cell[lo:hi]
    planes[0, cells] = table.dx[lo:hi]
    planes[1, cells] = table.dy[lo:hi]
    planes[2, cells] = 1.0
    planes[table.label_plane[lo:hi], cells] = 1.0
    planes.view(np.int32)[-1, cells] = table.ids[lo:hi]
    return cells


def _dense_write(table, path, context, t_obs, t_start, variant):
    """The reference writer: every word of every frame, in file order."""
    spec = context.spec
    steps = range(t_start, table.n_steps)
    header = bev_render._HEADER.pack(
        bev_render._MAGIC, bev_render._VERSION, spec.H, spec.W,
        spec.resolution, len(steps), t_obs, spec.origin[0], spec.origin[1],
        variant, len(bev_render.LABEL_CLASSES))
    planes = np.zeros((bev_render._FRAME_PLANES, spec.H * spec.W),
                      dtype=np.float32)
    with open(path, "wb") as fh:
        fh.write(header.ljust(64, b"\x00"))
        fh.write(memoryview(context.planes))
        for t in steps:
            cells = _fill(table, planes, t)
            fh.write(memoryview(planes))
            planes[:, cells] = 0.0


# planes smaller than, equal to and larger than a 4 KB block
_SHAPES = [(8, 8), (32, 32), (24, 40), (128, 128)]


@st.composite
def _oracle_case(draw):
    """A grid of ``_SHAPES`` and a log on it whose agents exit at their
    own steps (none at all for some), wander off the grid and back, may
    share a cell with a twin of higher id, and may carry a label outside
    ``LABEL_CLASSES``; plus a window start up to the log's end."""
    H, W = draw(st.sampled_from(_SHAPES))
    ids = draw(st.lists(st.integers(0, 60), min_size=1, max_size=5,
                        unique=True))
    agents = []
    for aid in ids:
        n = draw(st.integers(0, 12))
        cols = draw(st.lists(st.integers(-2, W + 1), min_size=n, max_size=n))
        rows = draw(st.lists(st.integers(-2, H + 1), min_size=n, max_size=n))
        label = draw(st.sampled_from(["straight", "left", "right", "u-turn"]))
        x, y = np.array(cols, dtype=float) + 0.5, np.array(rows, dtype=float)
        agents.append(SimpleNamespace(agent_id=aid, label=label,
                                      t=0.1 * np.arange(n), x=x, y=y + 0.5))
        if draw(st.booleans()):  # a twin a quarter cell away, same cell
            agents.append(SimpleNamespace(agent_id=aid + 100, label="left",
                                          t=0.1 * np.arange(n), x=x + 0.25,
                                          y=y + 0.25))
    log = SimpleNamespace(scene_id="o", variant_index=1, agents=agents)
    n_steps = max(len(ag.t) for ag in agents)
    return GridSpec(H, W, 1.0, (0.0, 0.0)), log, \
        draw(st.integers(0, n_steps))


@settings(max_examples=150, deadline=None)
@given(_oracle_case(), st.integers(1, 6))
def test_sparse_write_matches_dense_reference(case, t_obs):
    spec, log, t_start = case
    ctx = bev_render.ContextMap(
        spec, np.full((spec.H, spec.W), bev_render.UNKNOWN, dtype=np.uint8))
    table = bev_render._CellTable(log, spec)
    with tempfile.TemporaryDirectory() as tmp:
        sparse, dense = os.path.join(tmp, "s.bevg"), os.path.join(tmp, "d")
        bev_render.write_grid_sample(table, sparse, ctx, t_obs, t_start, 1)
        _dense_write(table, dense, ctx, t_obs, t_start, 1)
        with open(sparse, "rb") as a, open(dense, "rb") as b:
            assert a.read() == b.read()


def _export_table():
    spec = GridSpec.centered_on((0.0, 0.0), 24, 40, 0.5)
    ctx = render_context(road_graph.build_graph(four_way_intersection()),
                         spec)
    return bev_render._CellTable(_export_log(), spec), ctx


def test_read_rejects_a_file_of_the_wrong_length(tmp_path):
    table, ctx = _export_table()
    path = str(tmp_path / "s.bevg")
    bev_render.write_grid_sample(table, path, ctx, 5, 20, 3)
    size = os.path.getsize(path)
    assert size == 64 + (3 + 7 * 10) * 24 * 40 * 4
    read_grid_sample(path)
    for length in (size - 1, size + 4):
        with open(path, "r+b") as fh:
            fh.truncate(length)
        with pytest.raises(ValueError) as exc:
            read_grid_sample(path)
        assert str(exc.value) == (f"{path}: the header needs {size} "
                                  f"bytes, the file holds {length}")
    with open(path, "r+b") as fh:
        fh.truncate(63)
    with pytest.raises(ValueError, match="holds 63 bytes, less than a header"):
        read_grid_sample(path)


def test_interrupted_write_is_detectable(tmp_path, monkeypatch):
    table, ctx = _export_table()
    real_pwrite, calls, cut = os.pwrite, [], -1  # -1: no cut

    def pwrite(fd, data, offset):
        if len(calls) == cut:
            raise OSError(errno.ENOSPC, "No space left on device")
        calls.append(offset)
        return real_pwrite(fd, data, offset)

    monkeypatch.setattr(bev_render.os, "pwrite", pwrite)
    whole = str(tmp_path / "whole.bevg")
    bev_render.write_grid_sample(table, whole, ctx, 5, 0, 3)
    n_calls, size = len(calls), os.path.getsize(whole)
    assert len(read_grid_sample(whole).frames) == 30
    for cut in (0, 1, n_calls // 2, n_calls - 1):
        calls.clear()
        path = str(tmp_path / f"cut{cut}.bevg")
        with pytest.raises(OSError):
            bev_render.write_grid_sample(table, path, ctx, 5, 0, 3)
        assert os.path.getsize(path) < size
        with pytest.raises(ValueError, match="the header needs"):
            read_grid_sample(path)
