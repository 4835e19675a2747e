"""Scene reconstruction from recorded tracklets.

Each tracklet is interpolated to the requested start time, snapped onto
the lane graph, and turned into an initial vehicle state. Agents that miss
the map or spawn on top of another agent are dropped with a report entry.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from trafficforge import road_graph
from trafficforge.controller import VehicleGeometry, VehicleState
from trafficforge.errors import ConfigError, EmptySceneError, OffMapError
from trafficforge.geometry import central_speed, wrap_angle
from trafficforge.util import integer, number

MAX_SPEED = 1000               # m/s; IDM's squared terms stay finite
MIN_SIZE = 0.01                # m; v / length must stay finite
MAX_AGENT_ID = 2 ** 31 - 2     # .bevg id planes hold agent_id + 1 as int32
MAX_SCENE_ID = 60   # characters of UTF-8, within a file name's 255 bytes


@dataclass
class Tracklet:
    """One agent's poses as columns: sorted times ``t``, an (n, 2) float
    array ``xy``, and ``heading`` and ``speed`` (None where a pose has
    none)."""
    agent_id: int
    t: list
    xy: np.ndarray
    heading: list
    speed: list
    geometry: VehicleGeometry = field(default_factory=VehicleGeometry)

    def covers(self, t):
        """Whether the poses' times hold ``t``, to within 1e-9 s; a
        track without poses holds none."""
        return bool(self.t) and self.t[0] - 1e-9 <= t <= self.t[-1] + 1e-9

    def segment(self, t):
        """Index ``i`` of the pose pair ``i, i + 1`` whose times hold
        ``t``, clamped to the first and last pair (0 for a single pose)."""
        return min(max(bisect_right(self.t, t) - 1, 0),
                   max(len(self.t) - 2, 0))


@dataclass
class AgentInit:
    agent_id: int
    lane: road_graph.LaneCoordinate
    state: VehicleState
    geometry: VehicleGeometry
    tracklet: Optional[Tracklet] = None  # kept for ego-replay mode


@dataclass
class DropReport:
    agent_id: int
    reason: str


@dataclass
class Scene:
    graph: road_graph.RoadGraph
    agents: list
    scene_id: str
    dropped: list = field(default_factory=list)
    t0: float = 0.0   # s; the tracklets' time at which the scene starts


def load_tracklets(doc, source="tracklets"):
    """Parse the tracklet JSON schema into (scene_id, [Tracklet]); a
    malformed document, or one that gives two tracks one ``agent_id``,
    raises :class:`ConfigError` naming ``source``."""
    where = source
    try:
        tracks = []
        track_of = {}   # agent_id -> index of the track that has it
        for i, tr in enumerate(doc["tracks"]):
            where = f"{source}: track {i}"
            agent_id = integer(tr["agent_id"], "agent_id", 0, MAX_AGENT_ID)
            if agent_id in track_of:
                raise ValueError(f"agent_id {agent_id} is already track "
                                 f"{track_of[agent_id]}'s")
            track_of[agent_id] = i
            poses = tr["poses"]
            if not isinstance(poses, list):
                raise TypeError(f"'poses' must be a list, got "
                                f"{type(poses).__name__}")
            rows = []   # (t, x, y, heading, speed) of each pose
            lim = road_graph.MAX_COORD
            for k, p in enumerate(poses):
                where = f"{source}: track {i}: pose {k}"
                if not isinstance(p, dict):
                    raise TypeError(f"expected an object, got {p!r}")
                heading, speed = p.get("heading"), p.get("speed")
                rows.append((
                    number(p["t"], "t"), number(p["x"], "x", -lim, lim),
                    number(p["y"], "y", -lim, lim),
                    None if heading is None else number(heading, "heading"),
                    None if speed is None
                    else number(speed, "speed", 0, MAX_SPEED)))
            where = f"{source}: track {i}"
            for k in range(1, len(rows)):
                (t0, x0, y0, _, _), (t1, x1, y1, _, _) = rows[k - 1], rows[k]
                if t1 < t0:
                    raise ValueError(f"times not sorted at pose {k} (t {t1})")
                # ingest and pool mining derive speeds from the poses
                if math.hypot(x1 - x0, y1 - y0) > MAX_SPEED * (t1 - t0):
                    raise ValueError(f"'x', 'y' and 't' of pose {k} imply "
                                     f"more than {MAX_SPEED} m/s since pose "
                                     f"{k - 1}")
            t, x, y, h, v = zip(*rows) if rows else [()] * 5
            geom = VehicleGeometry(
                L=number(tr.get("length", VehicleGeometry.L), "length",
                         MIN_SIZE),
                width=number(tr.get("width", VehicleGeometry.width),
                             "width", MIN_SIZE))
            tracks.append(Tracklet(agent_id, list(t), np.column_stack([x, y]),
                                   list(h), list(v), geom))
        where = source
        scene_id = check_scene_id(doc.get("scene_id", "scene"))
    except KeyError as exc:
        raise ConfigError([f"{where}: missing key {exc}"]) from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError([f"{where}: {exc}"]) from exc
    return scene_id, tracks


def check_scene_id(scene_id):
    """``scene_id`` unchanged; a ValueError unless it is 1 to
    ``MAX_SCENE_ID`` printable characters, none of them /, \\ or ',':
    it names a scene's log and grid files and fills a CSV field."""
    if type(scene_id) is not str or not scene_id.isprintable() \
            or not 0 < len(scene_id) <= MAX_SCENE_ID \
            or any(c in scene_id for c in "/\\,"):
        raise ValueError(f"'scene_id' must be 1 to {MAX_SCENE_ID} printable "
                         f"characters, none of them /, \\ or ',', got "
                         f"{scene_id!r}")
    return scene_id


def interpolate_pose(tracklet, t):
    """``(position, heading, speed)`` at time ``t``: linear position and
    speed, shortest-arc heading; None where a pose of the pair has none."""
    ts, xy, h, v = tracklet.t, tracklet.xy, tracklet.heading, tracklet.speed
    if not tracklet.covers(t):
        raise ValueError(f"t={t} outside tracklet range "
                         f"{[ts[0], ts[-1]] if ts else []}")
    i = tracklet.segment(t)
    if len(ts) == 1 or t <= ts[i]:
        return xy[i].copy(), h[i], v[i]
    w = (t - ts[i]) / (ts[i + 1] - ts[i]) if ts[i + 1] > ts[i] else 0.0
    pos = xy[i] + w * (xy[i + 1] - xy[i])
    heading = None
    if h[i] is not None and h[i + 1] is not None:
        heading = wrap_angle(h[i] + w * wrap_angle(h[i + 1] - h[i]))
    speed = None
    if v[i] is not None and v[i + 1] is not None:
        speed = v[i] + w * (v[i + 1] - v[i])
    return pos, heading, speed


def _finite_difference_heading(tracklet, t):
    if len(tracklet.t) < 2:
        return None
    i = tracklet.segment(t)
    d = tracklet.xy[i + 1] - tracklet.xy[i]
    if np.linalg.norm(d) < 1e-9:
        return None
    return float(np.arctan2(d[1], d[0]))


def instantiate_agents(graph, tracklets, t0, scene_id, min_spawn_gap):
    """Project tracklets at ``t0`` onto the graph and build a Scene.

    The initial heading comes from the lane, not the recorded pose; the
    recorded heading only breaks projection ties. Agents closer than
    ``min_spawn_gap`` bumper-to-bumper on one edge are thinned, keeping
    the lower agent id.
    """
    if not tracklets:
        raise EmptySceneError("no tracklets given")

    agents = []
    dropped = []
    for tr in sorted(tracklets, key=lambda t: t.agent_id):
        try:
            position, heading, speed = interpolate_pose(tr, t0)
        except ValueError:
            dropped.append(DropReport(tr.agent_id, "no-pose-at-t0"))
            continue
        hint = heading if heading is not None \
            else _finite_difference_heading(tr, t0)
        try:
            lane = road_graph.project_to_lane(graph, position,
                                              heading_hint=hint)
        except OffMapError:
            dropped.append(DropReport(tr.agent_id, "off-map"))
            continue
        if speed is None:
            speed = central_speed(tr.t, tr.xy, tr.segment(t0))
        state = VehicleState(position=tuple(position.tolist()),
                             v=speed, psi=lane.lane_heading, a=0.0, phi=0.0)
        agents.append(AgentInit(tr.agent_id, lane, state, tr.geometry, tr))

    # spawn-gap thinning: one arc-ordered walk per edge with a stack of kept
    # agents; of a pair closer than min_spawn_gap the higher id drops
    agents.sort(key=lambda a: (a.lane.arc_s, a.agent_id))
    by_edge = {}
    for a in agents:
        by_edge.setdefault(a.lane.edge_id, []).append(a)
    agents = []
    for eid in sorted(by_edge):
        kept = []
        for b in by_edge[eid]:
            while kept and b.lane.arc_s - kept[-1].lane.arc_s \
                    - (kept[-1].geometry.L + b.geometry.L) / 2.0 \
                    < min_spawn_gap:
                if kept[-1].agent_id <= b.agent_id:
                    dropped.append(DropReport(b.agent_id, "spawn-gap"))
                    break
                dropped.append(DropReport(kept.pop().agent_id, "spawn-gap"))
            else:
                kept.append(b)
        agents += kept
    agents.sort(key=lambda a: a.agent_id)
    if not agents:
        raise EmptySceneError(f"scene {scene_id}: every agent was dropped")
    return Scene(graph, agents, scene_id, dropped, t0)
