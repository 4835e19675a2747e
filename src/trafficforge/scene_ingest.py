"""Scene reconstruction from recorded tracklets.

Each tracklet is interpolated to the requested start time, snapped onto
the lane graph, and turned into an initial vehicle state. Agents that miss
the map or spawn on top of another agent are dropped with a report entry.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
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
class TrackletPose:
    t: float
    position: np.ndarray
    heading: Optional[float] = None
    speed: Optional[float] = None


@dataclass
class Tracklet:
    agent_id: int
    poses: list
    geometry: VehicleGeometry = field(default_factory=VehicleGeometry)

    @cached_property
    def times(self):
        return [p.t for p in self.poses]

    def covers(self, t):
        """Whether the poses' times hold ``t``, to within 1e-9 s."""
        return self.poses[0].t - 1e-9 <= t <= self.poses[-1].t + 1e-9

    def segment(self, t):
        """Index ``i`` of the pose pair ``i, i + 1`` whose times hold
        ``t``, clamped to the first and last pair (0 for a single pose)."""
        return min(max(bisect_right(self.times, t) - 1, 0),
                   max(len(self.poses) - 2, 0))


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
            rows = []   # (t, x, y, heading, speed) of each pose
            lim = road_graph.MAX_COORD
            for k, p in enumerate(tr["poses"]):
                where = f"{source}: track {i}: pose {k}"
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
            poses = [TrackletPose(t, np.array([x, y]), heading, speed)
                     for t, x, y, heading, speed in rows]
            geom = VehicleGeometry(
                L=number(tr.get("length", VehicleGeometry.L), "length",
                         MIN_SIZE),
                width=number(tr.get("width", VehicleGeometry.width),
                             "width", MIN_SIZE))
            tracks.append(Tracklet(agent_id, poses, geom))
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
    """Pose at time ``t``: linear position/speed, shortest-arc heading."""
    poses = tracklet.poses
    if not tracklet.covers(t):
        raise ValueError(
            f"t={t} outside tracklet range [{poses[0].t}, {poses[-1].t}]")
    i = tracklet.segment(t)
    p0 = poses[i]
    if len(poses) == 1 or t <= p0.t:
        return TrackletPose(t, p0.position.copy(), p0.heading, p0.speed)
    p1 = poses[i + 1]
    w = (t - p0.t) / (p1.t - p0.t) if p1.t > p0.t else 0.0
    pos = p0.position + w * (p1.position - p0.position)
    heading = None
    if p0.heading is not None and p1.heading is not None:
        heading = wrap_angle(p0.heading + w * wrap_angle(p1.heading - p0.heading))
    speed = None
    if p0.speed is not None and p1.speed is not None:
        speed = p0.speed + w * (p1.speed - p0.speed)
    return TrackletPose(t, pos, heading, speed)


def _finite_difference_heading(tracklet, t):
    poses = tracklet.poses
    if len(poses) < 2:
        return None
    i = tracklet.segment(t)
    d = poses[i + 1].position - poses[i].position
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
            pose = interpolate_pose(tr, t0)
        except ValueError:
            dropped.append(DropReport(tr.agent_id, "no-pose-at-t0"))
            continue
        hint = pose.heading if pose.heading is not None \
            else _finite_difference_heading(tr, t0)
        try:
            lane = road_graph.project_to_lane(graph, pose.position,
                                              heading_hint=hint)
        except OffMapError:
            dropped.append(DropReport(tr.agent_id, "off-map"))
            continue
        speed = pose.speed if pose.speed is not None \
            else central_speed(tr.times, [p.position for p in tr.poses],
                               tr.segment(t0))
        state = VehicleState(position=tuple(pose.position.tolist()),
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
