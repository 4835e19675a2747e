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

import math
import struct
from dataclasses import dataclass

import numpy as np

from trafficforge.config import default

ROAD, LANE, UNKNOWN = 0, 1, 2
LABEL_CLASSES = ("straight", "left", "right")
_MAGIC = b"BEVG"
_VERSION = 1
_HEADER = struct.Struct("<4sIIIdIIddII")  # 56 bytes, padded to 64


@dataclass
class GridSpec:
    H: int = default("grid.H")
    W: int = default("grid.W")
    resolution: float = default("grid.resolution")
    origin: tuple = (0.0, 0.0)

    def __post_init__(self):
        if self.H <= 0 or self.W <= 0 or self.resolution <= 0:
            raise ValueError("grid needs positive H, W and resolution")
        self.origin = (float(self.origin[0]), float(self.origin[1]))

    def cell_of(self, point):
        col = int(np.floor((point[0] - self.origin[0]) / self.resolution))
        row = int(np.floor((point[1] - self.origin[1]) / self.resolution))
        return row, col

    def contains(self, row, col):
        return 0 <= row < self.H and 0 <= col < self.W

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

    def on_road(self, points):
        """Per point of ``points`` (P, 2): does it land on a road or lane
        cell? Off-raster points do not. Cells are found as in
        :meth:`GridSpec.cell_of`."""
        spec = self.spec
        cols = np.floor((points[:, 0] - spec.origin[0]) / spec.resolution)
        rows = np.floor((points[:, 1] - spec.origin[1]) / spec.resolution)
        inside = (rows >= 0) & (rows < spec.H) & (cols >= 0) & (cols < spec.W)
        out = np.zeros(len(points), dtype=bool)
        out[inside] = self.classes[rows[inside].astype(np.intp),
                                   cols[inside].astype(np.intp)] != UNKNOWN
        return out


@dataclass
class AgentMaps:
    state: np.ndarray    # (H, W, 2) float32, displacement since own start
    mask: np.ndarray     # (H, W) uint8
    ids: np.ndarray      # (H, W) int32, agent_id + 1, 0 = empty
    labels: np.ndarray   # (H, W, 3) uint8 one-hot
    collisions: int = 0


@dataclass
class GridSample:
    spec: GridSpec
    context: ContextMap
    frames: list          # AgentMaps for t = 0..T-1
    t_obs: int
    scene_id: str
    variant: int

    def equals(self, other):
        if (self.t_obs != other.t_obs or len(self.frames) != len(other.frames)
                or self.spec != other.spec):
            return False
        if not np.array_equal(self.context.classes, other.context.classes):
            return False
        for a, b in zip(self.frames, other.frames):
            if not (np.array_equal(a.state, b.state)
                    and np.array_equal(a.mask, b.mask)
                    and np.array_equal(a.ids, b.ids)
                    and np.array_equal(a.labels, b.labels)):
                return False
        return True


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


def rasterize_states(log, t, spec):
    """Agent maps at step ``t`` of a SimLog.

    Each in-grid active agent marks the cell containing its position with
    its displacement since its own start, its id and its label one-hot.
    When two agents fall into one cell the lower id wins and the clash is
    counted in ``collisions``.
    """
    state = np.zeros((spec.H, spec.W, 2), dtype=np.float32)
    mask = np.zeros((spec.H, spec.W), dtype=np.uint8)
    ids = np.zeros((spec.H, spec.W), dtype=np.int32)
    labels = np.zeros((spec.H, spec.W, 3), dtype=np.uint8)
    collisions = 0
    for ag in sorted(log.agents, key=lambda a: a.agent_id):
        if t >= len(ag.t):
            continue  # exited before t
        pos = (float(ag.x[t]), float(ag.y[t]))
        row, col = spec.cell_of(pos)
        if not spec.contains(row, col):
            continue
        if mask[row, col]:
            collisions += 1
            continue  # lower id already owns the cell
        mask[row, col] = 1
        ids[row, col] = ag.agent_id + 1
        state[row, col, 0] = pos[0] - float(ag.x[0])
        state[row, col, 1] = pos[1] - float(ag.y[0])
        cls = LABEL_CLASSES.index(ag.label) if ag.label in LABEL_CLASSES else 0
        labels[row, col, cls] = 1
    return AgentMaps(state, mask, ids, labels, collisions)


def build_grid_sample(log, spec, t_obs, t_start=0, t_end=None):
    """GridSample covering log steps [t_start, t_end)."""
    n_steps = max(len(ag.t) for ag in log.agents)
    if t_end is None:
        t_end = n_steps
    if not 0 < t_obs < t_end - t_start:
        raise ValueError("t_obs must lie strictly inside the window")
    frames = [rasterize_states(log, t, spec) for t in range(t_start, t_end)]
    return GridSample(spec, None, frames, t_obs, log.scene_id,
                      log.variant_index)


def export_sequence(log, context, spec, t_obs, stride, out_dir):
    """Write one GridSample file per stride offset; returns the paths.

    Window ``i`` covers steps [i*stride, n_steps); windows shorter than
    t_obs + 1 steps are not emitted.
    """
    import os
    n_steps = max(len(ag.t) for ag in log.agents)
    paths = []
    offset = 0
    while n_steps - offset >= t_obs + 1:
        sample = build_grid_sample(log, spec, t_obs, offset, n_steps)
        sample.context = context
        name = f"{log.scene_id}_v{log.variant_index}_o{offset:04d}.bevg"
        path = os.path.join(out_dir, name)
        write_grid_sample(sample, path)
        paths.append(path)
        offset += stride
    return paths


def write_grid_sample(sample, path):
    spec = sample.spec
    header = _HEADER.pack(_MAGIC, _VERSION, spec.H, spec.W, spec.resolution,
                          len(sample.frames), sample.t_obs,
                          spec.origin[0], spec.origin[1],
                          sample.variant, len(LABEL_CLASSES))
    with open(path, "wb") as fh:
        fh.write(header.ljust(64, b"\x00"))
        fh.write(np.ascontiguousarray(
            sample.context.onehot.transpose(2, 0, 1), dtype=np.float32).tobytes())
        for frame in sample.frames:
            fh.write(np.ascontiguousarray(
                frame.state.transpose(2, 0, 1), dtype=np.float32).tobytes())
            fh.write(frame.mask.astype(np.float32).tobytes())
            fh.write(np.ascontiguousarray(
                frame.labels.transpose(2, 0, 1), dtype=np.float32).tobytes())
            fh.write(frame.ids.astype(np.int32).tobytes())


def read_grid_sample(path, scene_id=""):
    with open(path, "rb") as fh:
        raw = fh.read()
    magic, version, H, W, res, T, t_obs, ox, oy, variant, n_cls = \
        _HEADER.unpack(raw[:_HEADER.size])
    if magic != _MAGIC or version != _VERSION:
        raise ValueError(f"{path}: not a grid-sample file")
    spec = GridSpec(H, W, res, (ox, oy))
    off = 64
    hw = H * W

    def planes(n, dtype):
        nonlocal off
        arr = np.frombuffer(raw, dtype=dtype, count=n * hw, offset=off)
        off += arr.nbytes
        return arr.reshape(n, H, W)

    ctx = planes(3, np.float32).transpose(1, 2, 0)
    classes = np.argmax(ctx, axis=2).astype(np.uint8)
    context = ContextMap(spec, classes)
    frames = []
    for _ in range(T):
        state = planes(2, np.float32).transpose(1, 2, 0)
        mask = planes(1, np.float32)[0].astype(np.uint8)
        labels = planes(n_cls, np.float32).transpose(1, 2, 0).astype(np.uint8)
        ids = planes(1, np.int32)[0]
        frames.append(AgentMaps(state.copy(), mask, ids.copy(), labels))
    return GridSample(spec, context, frames, t_obs, scene_id, variant)
