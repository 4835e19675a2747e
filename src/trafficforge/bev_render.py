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
import numbers
import os
import struct
from dataclasses import dataclass

import numpy as np

from trafficforge import geometry

ROAD, LANE, UNKNOWN = 0, 1, 2
LABEL_CLASSES = ("straight", "left", "right")
_MAGIC = b"BEVG"
_VERSION = 1
_HEADER = struct.Struct("<4sIIIdIIddII")  # 56 bytes, padded to 64
_FRAME_PLANES = 4 + len(LABEL_CLASSES)    # state x2, mask, labels, id
_PAIR_CHUNK = 4096   # (cell, segment) pairs a pass: 32 KB temporaries


@dataclass(frozen=True)
class GridSpec:
    H: int
    W: int
    resolution: float
    origin: tuple = (0.0, 0.0)

    def __post_init__(self):
        for name in ("H", "W"):
            n = getattr(self, name)
            if (isinstance(n, bool) or not isinstance(n, numbers.Integral)
                    or n < 1):
                raise ValueError(f"grid {name}: expected an integer >= 1, "
                                 f"got {n!r}")
        if not (math.isfinite(self.resolution) and self.resolution > 0):
            raise ValueError(f"grid resolution: expected a finite number "
                             f"> 0, got {self.resolution!r}")
        origin = (float(self.origin[0]), float(self.origin[1]))
        if not all(map(math.isfinite, origin)):
            raise ValueError(f"grid origin: expected finite coordinates, "
                             f"got {origin!r}")
        object.__setattr__(self, "origin", origin)

    def cells(self, x, y):
        """Flat index ``row * W + col`` of the cell holding each point of
        the arrays ``x``, ``y``, -1 for a point off the grid. A point's
        column is ``floor((x - origin[0]) / resolution)`` and its row
        ``floor((y - origin[1]) / resolution)``; it is on the grid when
        ``0 <= row < H`` and ``0 <= col < W``."""
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

    @functools.cached_property
    def planes(self):
        """The classes one-hot as the file's float32 (3, H, W) context
        planes, encoded once per map."""
        return (self.classes == np.arange(3)[:, None, None]).astype(
            np.float32)


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
    unknown; a center exactly at either distance is inside. Pure
    cell-center point tests keep the result deterministic.

    Each segment is tested only against the block of cells whose centers
    lie in its bounding box grown by ``max(lane_width, resolution) / 2``,
    plus one cell of slack on every side (:func:`_cell_spans`). A cell
    outside that block is farther from the segment than either threshold,
    so the segment cannot set its road or lane bit; skipping it leaves
    the classes bit-identical to testing every cell against every segment.

    The segments are the rows of ``graph.lane_index``, built once per
    graph; their (cell, segment) pairs of all blocks are classified in
    chunks of ``_PAIR_CHUNK`` by :func:`geometry.segment_dist2`, the
    squared distance that :func:`geometry.project_point` and
    :func:`road_graph.within_lanes` compute too.
    """
    W = spec.W
    road = np.zeros(spec.H * W, dtype=bool)
    lane = np.zeros(spec.H * W, dtype=bool)
    xs, ys = spec.cell_centers()
    index = graph.lane_index
    ax, ay, dx, dy, seg2 = index.columns
    bx, by = ax + dx, ay + dy   # end points up to rounding: slack covers it
    half_w = index.half_width[index.seg_edge]
    half_px = spec.resolution / 2.0
    reach = np.maximum(half_w, half_px)
    r0, r1 = _cell_spans(np.minimum(ay, by) - reach,
                         np.maximum(ay, by) + reach,
                         spec.origin[1], spec.resolution, spec.H)
    c0, c1 = _cell_spans(np.minimum(ax, bx) - reach,
                         np.maximum(ax, bx) + reach,
                         spec.origin[0], spec.resolution, W)
    n_cols = c1 - c0
    n_pairs = (r1 - r0) * n_cols
    stop = np.cumsum(n_pairs)
    first = stop - n_pairs
    road2, lane2 = half_w * half_w, half_px * half_px
    total = int(n_pairs.sum())
    for lo in range(0, total, _PAIR_CHUNK):
        hi = min(lo + _PAIR_CHUNK, total)
        # the segments whose pairs overlap [lo, hi), each repeated once
        # for each of its pairs there
        s0, s1 = np.searchsorted(stop, [lo, hi - 1], side="right").tolist()
        overlap = (np.minimum(stop[s0:s1 + 1], hi)
                   - np.maximum(first[s0:s1 + 1], lo))
        s = np.repeat(np.arange(s0, s1 + 1), overlap)
        row, col = np.divmod(np.arange(lo, hi) - first[s], n_cols[s])
        row += r0[s]
        col += c0[s]
        d2 = geometry.segment_dist2(xs[col], ys[row], ax[s], ay[s], dx[s],
                                    dy[s], seg2[s])
        cell = row * W + col
        road[cell[d2 <= road2[s]]] = True
        lane[cell[d2 <= lane2]] = True
    classes = np.full(spec.H * W, UNKNOWN, dtype=np.uint8)
    classes[road] = ROAD
    classes[lane] = LANE
    return ContextMap(spec, classes.reshape(spec.H, W))


def _cell_spans(lo, hi, origin, resolution, n):
    """Per entry of the arrays ``lo``, ``hi``: the cells ``[start, stop)``
    along one axis whose centers may lie in ``[lo, hi]``.

    Covers every such cell with at least one cell to spare on each side,
    so rounding in the floor cannot drop one; clipped to ``[0, n]``, so
    an empty span has ``start == stop``.
    """
    first = np.floor((lo - origin) / resolution) - 1.0
    last = np.floor((hi - origin) / resolution) + 1.0
    start = np.clip(first, 0, n).astype(np.intp)
    return start, np.maximum(np.clip(last + 1.0, 0, n).astype(np.intp),
                             start)


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
        self.step, kept = step[first], agent[first]
        counts = np.bincount(self.step, minlength=n_steps)
        self.offsets = np.r_[0, np.cumsum(counts)].tolist()
        self.collisions = (np.bincount(step, minlength=n_steps)
                           - counts).tolist()
        self.cell = cells[self.step, kept]
        self.dx, self.dy = dx[self.step, kept], dy[self.step, kept]
        label = np.array([LABEL_CLASSES.index(ag.label)
                          if ag.label in LABEL_CLASSES else 0
                          for ag in agents], dtype=np.int64)
        self.label_plane = 3 + label[kept]
        self.ids = np.array([ag.agent_id + 1 for ag in agents],
                            dtype=np.int32)[kept]

    def words(self, t_start):
        """The words that the marks of steps ``t >= t_start`` set in the
        frames ``t - t_start`` of zeroed float32 (frames, 7, H*W) planes,
        as ascending flat indices and their float32 values: each kept
        mark's state x and y, mask, own label and id (its int32 bits)."""
        hw = self.spec.H * self.spec.W
        lo = self.offsets[min(max(t_start, 0), self.n_steps)]
        base = (self.step[lo:] - t_start) * (_FRAME_PLANES * hw) \
            + self.cell[lo:]
        one = np.ones(len(base), dtype=np.float32)
        words = np.concatenate([base, base + hw, base + 2 * hw,
                                base + self.label_plane[lo:] * hw,
                                base + (_FRAME_PLANES - 1) * hw])
        values = np.concatenate([self.dx[lo:], self.dy[lo:], one, one,
                                 self.ids[lo:].view(np.float32)])
        # the words are unique, so any sort kind gives this order; the
        # stable one is the kernel np.unique above already runs, and a
        # second kernel's code pages would add to the peak RSS
        order = np.argsort(words, kind="stable")
        return words[order], values[order]

    def maps(self, t):
        planes = np.zeros((_FRAME_PLANES, self.spec.H * self.spec.W),
                          dtype=np.float32)
        words, values = self.words(t)
        first = words < planes.size
        planes.reshape(-1)[words[first]] = values[first]
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
    ``context.spec``, and ``context`` to ``path``.

    The header and context planes are written first. Each frame's marked
    words are then set in one reused planes buffer, and only the runs of
    the frame that hold them (:func:`_frame_runs`) are written, each at
    its place in the file. The file is sized last: the unwritten gaps
    are holes that read back as zeros, and a write cut short leaves a
    file shorter than its header says."""
    spec = context.spec
    steps = range(t_start, table.n_steps)
    header = _HEADER.pack(_MAGIC, _VERSION, spec.H, spec.W, spec.resolution,
                          len(steps), t_obs, spec.origin[0], spec.origin[1],
                          variant, len(LABEL_CLASSES))
    planes = np.zeros(_FRAME_PLANES * spec.H * spec.W, dtype=np.float32)
    start = 64 + context.planes.nbytes
    with open(path, "wb") as fh:
        fh.write(header.ljust(64, b"\x00"))
        fh.write(memoryview(context.planes))
        fh.flush()
        fd = fh.fileno()
        words, values = table.words(t_start)
        frames = [0] + np.cumsum(np.bincount(
            words // planes.size, minlength=len(steps))).tolist()
        runs = _frame_runs(words, planes.size, start,
                           os.fstat(fd).st_blksize, len(steps))
        marked = words % planes.size
        buf = memoryview(planes).cast("B")
        for k, (a, b) in enumerate(zip(frames[:-1], frames[1:])):
            planes[marked[a:b]] = values[a:b]
            at = start + k * planes.nbytes
            for lo, hi in runs[k]:
                _pwrite_all(fd, buf[lo:hi], at + lo)
            planes[marked[a:b]] = 0.0
        os.ftruncate(fd, start + len(steps) * planes.nbytes)


def _frame_runs(words, frame_words, start, block, n_frames):
    """Per frame, the ``(lo, hi)`` byte ranges within it that cover the
    ascending flat ``words`` of frames stored from file offset ``start``
    on. A run ends at a frame boundary, and before a zero gap that holds
    a whole aligned ``block`` of the file: a shorter gap could not be a
    hole, so it is written."""
    at = start + 4 * words
    frame = words // frame_words
    new_run = np.ones(len(words), dtype=bool)
    new_run[1:] = ((at[1:] // block > (at[:-1] + 3 + block) // block)
                   | (frame[1:] != frame[:-1]))
    last = np.ones(len(words), dtype=bool)
    last[:-1] = new_run[1:]
    runs = [[] for _ in range(n_frames)]
    for k, first, end in zip(frame[new_run].tolist(),
                             words[new_run].tolist(), words[last].tolist()):
        lo = 4 * (first - k * frame_words)
        runs[k].append((lo, lo + 4 * (end - first + 1)))
    return runs


def _pwrite_all(fd, data, offset):
    """``os.pwrite`` all of ``data`` at ``offset``, resuming a short
    write."""
    while data:
        n = os.pwrite(fd, data, offset)
        data, offset = data[n:], offset + n


def read_grid_sample(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 64:
        raise ValueError(f"{path}: the file holds {len(raw)} bytes, less "
                         "than a header")
    magic, version, H, W, res, T, t_obs, ox, oy, variant, n_cls = \
        _HEADER.unpack(raw[:_HEADER.size])
    if magic != _MAGIC or version != _VERSION:
        raise ValueError(f"{path}: not a grid-sample file")
    hw, n = H * W, 4 + n_cls
    size = 64 + (3 + n * T) * hw * 4
    if len(raw) != size:
        raise ValueError(f"{path}: the header needs {size} bytes, the file "
                         f"holds {len(raw)}")
    try:
        spec = GridSpec(H, W, res, (ox, oy))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    ctx = np.frombuffer(raw, np.float32, 3 * hw, 64).reshape(3, H, W)
    context = ContextMap(spec, np.argmax(ctx, axis=0).astype(np.uint8))
    planes = np.frombuffer(raw, np.float32, T * n * hw, 64 + ctx.nbytes)
    frames = [_maps_from_planes(f, H, W) for f in planes.reshape(T, n, hw)]
    return GridSample(context, frames, t_obs, variant)
