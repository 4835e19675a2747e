"""Top-view rasterization of scenes and simulation logs into grid tensors.

Cell convention: index = floor((p - origin) / resolution), column from x,
row from y (row index grows with y). The context map is one-hot over
{road, lane, unknown}; per-timestep agent maps hold each agent's
displacement relative to its own start, an occupancy mask, a maneuver
label one-hot and an id plane.

File format (little-endian): 64-byte header
    magic "BEVG" | u32 version | u32 H | u32 W | f64 resolution |
    u32 T | u32 t_obs | f64 origin_x | f64 origin_y | u32 variant |
    u32 n_label_classes | padding to 64 bytes
followed by the context planes (3 x f32[H,W]) and, per timestep,
state (2 x f32), mask (1 x f32), label (3 x f32) and id (1 x i32) planes.
The id plane stores agent_id + 1 so 0 always means empty.
"""

import functools
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from trafficforge.config import default

ROAD, LANE, UNKNOWN = 0, 1, 2
LABEL_CLASSES = ("straight", "left", "right")
_MAGIC = b"BEVG"
_VERSION = 1
_HEADER = struct.Struct("<4sIIIdIIddII")  # 56 bytes, padded to 64
_FRAME_PLANES = 4 + len(LABEL_CLASSES)    # state x2, mask, labels, id


@dataclass(frozen=True)
class GridSpec:
    H: int = default("grid.H")
    W: int = default("grid.W")
    resolution: float = default("grid.resolution")
    origin: tuple = (0.0, 0.0)

    def __post_init__(self):
        if self.H <= 0 or self.W <= 0 or self.resolution <= 0:
            raise ValueError("grid needs positive H, W and resolution")
        object.__setattr__(self, "origin",
                           (float(self.origin[0]), float(self.origin[1])))

    def cell_of(self, point):
        col = int(np.floor((point[0] - self.origin[0]) / self.resolution))
        row = int(np.floor((point[1] - self.origin[1]) / self.resolution))
        return row, col

    def contains(self, row, col):
        return 0 <= row < self.H and 0 <= col < self.W

    def cells(self, x, y):
        """Flat index ``row * W + col`` of the cell holding each point of
        the arrays ``x``, ``y`` (the rule of :meth:`cell_of`), -1 for a
        point off the grid."""
        cols = np.floor((x - self.origin[0]) / self.resolution)
        rows = np.floor((y - self.origin[1]) / self.resolution)
        inside = (rows >= 0) & (rows < self.H) & (cols >= 0) & (cols < self.W)
        out = np.full(len(x), -1, dtype=np.int64)
        out[inside] = rows[inside] * self.W + cols[inside]
        return out

    def cell_centers(self):
        xs = self.origin[0] + (np.arange(self.W) + 0.5) * self.resolution
        ys = self.origin[1] + (np.arange(self.H) + 0.5) * self.resolution
        return xs, ys

    @classmethod
    def centered_on(cls, center, H, W, resolution):
        ox = float(center[0]) - W * resolution / 2.0
        oy = float(center[1]) - H * resolution / 2.0
        return cls(H, W, resolution, (ox, oy))


class ContextMap:
    """One-hot {road, lane, unknown} raster."""

    def __init__(self, spec, classes):
        self.spec = spec
        self.classes = classes  # (H, W) uint8 of class indices

    @property
    def onehot(self):
        out = np.zeros((self.spec.H, self.spec.W, 3), dtype=np.uint8)
        rows, cols = np.indices(self.classes.shape)
        out[rows, cols, self.classes] = 1
        return out

    @functools.cached_property
    def planes(self):
        """The one-hot as the file's float32 (3, H, W) context planes,
        encoded once per map."""
        return np.ascontiguousarray(self.onehot.transpose(2, 0, 1),
                                    dtype=np.float32)


@dataclass
class AgentMaps:
    state: np.ndarray    # (H, W, 2) float32, displacement since own start
    mask: np.ndarray     # (H, W) uint8
    ids: np.ndarray      # (H, W) int32, agent_id + 1, 0 = empty
    labels: np.ndarray   # (H, W, 3) uint8 one-hot
    collisions: int = 0


@dataclass
class GridSample:
    """A .bevg file as :func:`read_grid_sample` returns it."""

    context: ContextMap
    frames: list          # AgentMaps for t = 0..T-1
    t_obs: int
    variant: int

    @property
    def spec(self):
        return self.context.spec


def render_context(graph, spec):
    """Rasterize the lane graph into the one-hot context map.

    A cell is road when its center lies within half a lane width of any
    centerline, lane when within half a pixel of one (lane wins), else
    unknown. Pure cell-center point tests keep the result deterministic.

    Each segment is tested only against the block of cells whose centers
    lie in its bounding box grown by ``max(lane_width, resolution) / 2``,
    plus one cell of slack on every side. A cell outside that block is
    farther from the segment than either threshold, so the segment cannot
    set its road or lane bit; skipping it leaves the classes bit-identical
    to testing every cell against every segment.
    """
    road = np.zeros((spec.H, spec.W), dtype=bool)
    lane = np.zeros((spec.H, spec.W), dtype=bool)
    xs, ys = spec.cell_centers()
    centers = np.empty((spec.H, spec.W, 2))
    centers[..., 0] = xs
    centers[..., 1] = ys[:, None]
    half_px = spec.resolution / 2.0
    for eid in sorted(graph.edges):
        edge = graph.edges[eid]
        half_w = edge.lane_width / 2.0
        reach = max(half_w, half_px)
        poly = edge.polyline
        for a, b in zip(poly[:-1], poly[1:]):
            rows = _cell_span(min(a[1], b[1]) - reach, max(a[1], b[1]) + reach,
                              spec.origin[1], spec.resolution, spec.H)
            cols = _cell_span(min(a[0], b[0]) - reach, max(a[0], b[0]) + reach,
                              spec.origin[0], spec.resolution, spec.W)
            if rows.start >= rows.stop or cols.start >= cols.stop:
                continue
            block = centers[rows, cols]
            d2 = _dist2_to_segment(block.reshape(-1, 2), a, b)
            d2 = d2.reshape(block.shape[:2])
            road[rows, cols] |= d2 <= half_w * half_w
            lane[rows, cols] |= d2 <= half_px * half_px
    classes = np.full((spec.H, spec.W), UNKNOWN, dtype=np.uint8)
    classes[road] = ROAD
    classes[lane] = LANE
    return ContextMap(spec, classes)


def _cell_span(lo, hi, origin, resolution, n):
    """Cells along one axis whose centers may lie in [lo, hi].

    Covers every such cell with at least one cell to spare on each side,
    so rounding in the floor cannot drop one; clipped to the grid.
    """
    first = math.floor((lo - origin) / resolution) - 1
    last = math.floor((hi - origin) / resolution) + 1
    return slice(max(first, 0), min(last + 1, n))


def _dist2_to_segment(points, a, b):
    """Squared distance from many points to the segment ``a``-``b``."""
    d = b - a
    seg2 = float(d @ d)
    if seg2 <= 0.0:
        diff = points - a
        return np.einsum("ij,ij->i", diff, diff)
    t = np.clip(((points - a) @ d) / seg2, 0.0, 1.0)
    foot = a + t[:, None] * d[None, :]
    diff = points - foot
    return np.einsum("ij,ij->i", diff, diff)


class _CellTable:
    """Where each agent of a log sits on ``spec``, at every step: the one
    home of the cell, collision and label rules.

    An agent marks the cell containing its position, while it has not
    exited (step ``t`` < its number of steps), with its displacement since
    its own start, its id plus one and its label one-hot (a label outside
    ``LABEL_CLASSES`` counts as the first class). Agents off the grid mark
    nothing. When two agents fall into one cell the lower id keeps it and
    the clash is counted as a collision.

    The table keeps the kept marks of all steps in step order, ids
    ascending within a step: step ``t`` owns ``[offsets[t], offsets[t+1])``.
    """

    def __init__(self, log, spec):
        self.spec = spec
        agents = sorted(log.agents, key=lambda a: a.agent_id)
        self.n_steps = max((len(ag.t) for ag in agents), default=0)
        n_steps, hw = self.n_steps, spec.H * spec.W
        cells = np.full((n_steps, len(agents)), -1, dtype=np.int64)
        dx = np.zeros((n_steps, len(agents)), dtype=np.float32)
        dy = np.zeros((n_steps, len(agents)), dtype=np.float32)
        for i, ag in enumerate(agents):
            k = len(ag.t)
            if k == 0:
                continue
            x = np.asarray(ag.x[:k], dtype=np.float64)
            y = np.asarray(ag.y[:k], dtype=np.float64)
            cells[:k, i] = spec.cells(x, y)
            dx[:k, i] = (x - x[0]).astype(np.float32)
            dy[:k, i] = (y - y[0]).astype(np.float32)
        step, agent = np.nonzero(cells >= 0)
        # the first mark of a (step, cell) pair comes from the lowest id
        _, first = np.unique(step * hw + cells[step, agent],
                             return_index=True)
        first.sort()
        kept_step, kept = step[first], agent[first]
        counts = np.bincount(kept_step, minlength=n_steps)
        self.offsets = np.r_[0, np.cumsum(counts)].tolist()
        self.collisions = (np.bincount(step, minlength=n_steps)
                           - counts).tolist()
        self.cell = cells[kept_step, kept]
        self.dx, self.dy = dx[kept_step, kept], dy[kept_step, kept]
        label = np.array([LABEL_CLASSES.index(ag.label)
                          if ag.label in LABEL_CLASSES else 0
                          for ag in agents], dtype=np.int64)
        self.label_plane = 3 + label[kept]
        self.ids = np.array([ag.agent_id + 1 for ag in agents],
                            dtype=np.int32)[kept]

    def fill(self, planes, t):
        """Write step ``t`` into the zeroed float32 (7, H*W) frame
        ``planes``; returns the cells it set. A step outside the log sets
        none."""
        if not 0 <= t < self.n_steps:
            return self.cell[:0]
        lo, hi = self.offsets[t], self.offsets[t + 1]
        cells = self.cell[lo:hi]
        planes[0, cells] = self.dx[lo:hi]
        planes[1, cells] = self.dy[lo:hi]
        planes[2, cells] = 1.0
        planes[self.label_plane[lo:hi], cells] = 1.0
        planes.view(np.int32)[-1, cells] = self.ids[lo:hi]
        return cells

    def maps(self, t):
        planes = np.zeros((_FRAME_PLANES, self.spec.H * self.spec.W),
                          dtype=np.float32)
        self.fill(planes, t)
        collisions = self.collisions[t] if 0 <= t < self.n_steps else 0
        return _maps_from_planes(planes, self.spec.H, self.spec.W,
                                 collisions)


def _maps_from_planes(planes, H, W, collisions=0):
    """AgentMaps of one frame's float32 (4 + n_labels, H*W) planes."""
    return AgentMaps(
        planes[0:2].reshape(2, H, W).transpose(1, 2, 0).copy(),
        planes[2].reshape(H, W).astype(np.uint8),
        planes[-1].view(np.int32).reshape(H, W).copy(),
        planes[3:-1].reshape(-1, H, W).transpose(1, 2, 0).astype(np.uint8),
        collisions)


def rasterize_states(log, t, spec):
    """Agent maps at step ``t`` of a SimLog, by the rules of
    :class:`_CellTable`."""
    return _CellTable(log, spec).maps(t)


def export_sequence(log, context, t_obs, stride, out_dir):
    """Write one .bevg grid sample of ``log`` on ``context`` and its grid
    per stride offset; returns the paths.

    Window ``i`` covers steps [i*stride, n_steps); windows shorter than
    t_obs + 1 steps are not emitted.
    """
    if t_obs < 1:
        raise ValueError("t_obs must be >= 1")
    table = _CellTable(log, context.spec)
    paths = []
    for offset in range(0, table.n_steps - t_obs, stride):
        name = f"{log.scene_id}_v{log.variant_index}_o{offset:04d}.bevg"
        path = os.path.join(out_dir, name)
        write_grid_sample(table, path, context, t_obs, offset,
                          log.variant_index)
        paths.append(path)
    return paths


def write_grid_sample(table, path, context, t_obs, t_start, variant):
    """Write steps [t_start, end) of the cell ``table``, built on
    ``context.spec``, and ``context`` to ``path``, frame by frame through
    one reused planes buffer."""
    spec = context.spec
    steps = range(t_start, table.n_steps)
    header = _HEADER.pack(_MAGIC, _VERSION, spec.H, spec.W, spec.resolution,
                          len(steps), t_obs, spec.origin[0], spec.origin[1],
                          variant, len(LABEL_CLASSES))
    planes = np.zeros((_FRAME_PLANES, spec.H * spec.W), dtype=np.float32)
    with open(path, "wb") as fh:
        fh.write(header.ljust(64, b"\x00"))
        fh.write(memoryview(context.planes))
        for t in steps:
            cells = table.fill(planes, t)
            fh.write(memoryview(planes))
            planes[:, cells] = 0.0


def read_grid_sample(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    magic, version, H, W, res, T, t_obs, ox, oy, variant, n_cls = \
        _HEADER.unpack(raw[:_HEADER.size])
    if magic != _MAGIC or version != _VERSION:
        raise ValueError(f"{path}: not a grid-sample file")
    spec = GridSpec(H, W, res, (ox, oy))
    hw, n = H * W, 4 + n_cls
    ctx = np.frombuffer(raw, np.float32, 3 * hw, 64).reshape(3, H, W)
    context = ContextMap(spec, np.argmax(ctx, axis=0).astype(np.uint8))
    planes = np.frombuffer(raw, np.float32, T * n * hw, 64 + ctx.nbytes)
    frames = [_maps_from_planes(f, H, W) for f in planes.reshape(T, n, hw)]
    return GridSample(context, frames, t_obs, variant)
