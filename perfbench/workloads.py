"""Seeded input generators for the pipeline benchmark workloads.

Each workload writes a map, a directory of scene tracklet files and a set
of profile-pool source tracklets, all derived from one integer seed. The
seed only jitters positions, speeds and source profiles; the number of
scenes, agents and map pieces is fixed per workload, so every seed asks
for the same amount of work.
"""

import json
import math
import os

import numpy as np

DT = 0.1
N_POSES = 11            # 1 s of constant-velocity history per agent
VEHICLE = (4.5, 1.8)    # length, width of every benchmark vehicle

# four-way junction geometry: arm length, junction half-size, half lane
ARM, JUNCTION, HALF_LANE = 80.0, 10.0, 1.75


def _rot(deg):
    a = math.radians(deg)
    return np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])


def _arc(center, radius, a0, a1, n=24):
    ang = np.linspace(a0, a1, n)
    return np.column_stack([center[0] + radius * np.cos(ang),
                            center[1] + radius * np.sin(ang)])


def four_way_map():
    """Single-lane four-arm junction with 24-point turn connector arcs.

    Every piece is a one-way centerline; endpoint merging wires the graph.
    The eastbound pieces are rotated to the four compass directions.
    """
    j, h = JUNCTION, HALF_LANE
    base = {
        "in": np.array([[-ARM - j, -h], [-j, -h]]),
        "out": np.array([[j, -h], [ARM + j, -h]]),
        "straight": np.array([[-j, -h], [j, -h]]),
        "right": _arc((-j, -j), j - h, math.pi / 2, 0.0),
        "left": _arc((-j, j), j + h, -math.pi / 2, 0.0),
    }
    centerlines = []
    for deg in (0, 90, 180, 270):
        R = _rot(deg)
        for kind in ("in", "out", "straight", "right", "left"):
            pts = base[kind] @ R.T
            centerlines.append({"id": len(centerlines),
                                "points": [[float(x), float(y)]
                                           for x, y in pts],
                                "lanes": 1, "oneway": True,
                                "lane_width": 2 * h})
    return {"centerlines": centerlines}


def _approach(deg, dist):
    """Point and heading on the inbound lane of the ``deg`` arm."""
    p = np.array([-JUNCTION - dist, -HALF_LANE]) @ _rot(deg).T
    return float(p[0]), float(p[1]), math.radians(deg)


HIGHWAY_LENGTH = 700.0
HIGHWAY_SPACING = 10.0
HIGHWAY_LANES = 3
HIGHWAY_LANE_WIDTH = 3.5


def _highway_center(x):
    """Gentle S-curve (at most ~9 degrees of heading) along +x."""
    return 20.0 * math.sin(2.0 * math.pi * x / 800.0)


def highway_map():
    n = int(HIGHWAY_LENGTH / HIGHWAY_SPACING)
    pts = [[i * HIGHWAY_SPACING, _highway_center(i * HIGHWAY_SPACING)]
           for i in range(n + 1)]
    return {"centerlines": [{"id": 0, "points": pts,
                             "lanes": HIGHWAY_LANES, "oneway": True,
                             "lane_width": HIGHWAY_LANE_WIDTH}]}


def _highway_pose(x, lane):
    """Point and heading in lane ``lane`` (0 = rightmost) at abscissa x."""
    y = _highway_center(x)
    slope = (_highway_center(x + 0.01) - _highway_center(x - 0.01)) / 0.02
    psi = math.atan(slope)
    off = (lane + 0.5 - HIGHWAY_LANES / 2.0) * HIGHWAY_LANE_WIDTH
    return x - off * math.sin(psi), y + off * math.cos(psi), psi


def _track(aid, x, y, psi, v):
    poses = [{"t": round(k * DT, 3),
              "x": x + v * math.cos(psi) * k * DT,
              "y": y + v * math.sin(psi) * k * DT,
              "heading": psi, "speed": v}
             for k in range(N_POSES)]
    return {"agent_id": aid, "length": VEHICLE[0], "width": VEHICLE[1],
            "poses": poses}


def junction_scene(rng, scene_id):
    """20 agents queued 5 per inbound arm of the four-way junction."""
    tracks = []
    for arm, deg in enumerate((0, 90, 180, 270)):
        dist = float(rng.uniform(4.0, 8.0))
        for k in range(5):
            v = float(rng.uniform(6.0, 10.0))
            x, y, psi = _approach(deg, dist)
            tracks.append(_track(arm * 5 + k + 1, x, y, psi, v))
            dist += float(rng.uniform(10.5, 13.0))
    return {"scene_id": scene_id, "tracks": tracks}


def raster_scene(rng, scene_id):
    """Two agents on two different inbound arms, three maneuvers each."""
    arms = rng.permutation(4)[:2]
    tracks = []
    for aid, arm in enumerate(arms, 1):
        x, y, psi = _approach(90 * int(arm), float(rng.uniform(15.0, 40.0)))
        tracks.append(_track(aid, x, y, psi, float(rng.uniform(7.0, 10.0))))
    return {"scene_id": scene_id, "tracks": tracks}


# per-lane speed bands (m/s): a slow right lane, faster lanes to its left
HIGHWAY_SPEEDS = ((11.0, 14.0), (19.0, 23.0), (25.0, 29.0))
HIGHWAY_PER_LANE = 12


def highway_scene(rng, scene_id):
    """36 agents, 12 per lane, spread over the first 300 m of the road."""
    tracks = []
    for lane in range(HIGHWAY_LANES):
        lo, hi = HIGHWAY_SPEEDS[lane]
        x = float(rng.uniform(5.0, 15.0))
        for k in range(HIGHWAY_PER_LANE):
            px, py, psi = _highway_pose(x, lane)
            aid = lane * HIGHWAY_PER_LANE + k + 1
            tracks.append(_track(aid, px, py, psi, float(rng.uniform(lo, hi))))
            x += float(rng.uniform(20.0, 28.0))
    return {"scene_id": scene_id, "tracks": tracks}


def _straight_source(speed, duration=8.0):
    t = np.arange(0.0, duration + DT / 2, DT)
    return np.column_stack([t, speed * t, np.zeros_like(t)])


def _turn_source(approach_speed, turn_speed, approach_dist, direction,
                 radius=9.0):
    """Approach with a linear slowdown, a 90 degree arc, then speed-up."""
    rows = [(0.0, 0.0, 0.0)]
    t, x, y, psi, v, dist = 0.0, 0.0, 0.0, 0.0, approach_speed, 0.0
    while dist < approach_dist:
        frac = dist / approach_dist
        v = approach_speed + (turn_speed - approach_speed) * max(
            0.0, (frac - 0.5) * 2.0)
        t += DT
        x += v * DT
        dist += v * DT
        rows.append((t, x, y))
    sign = 1.0 if direction == "left" else -1.0
    turned = 0.0
    while turned < math.pi / 2:
        omega = sign * turn_speed / radius
        psi += omega * DT
        turned += abs(omega) * DT
        x += turn_speed * math.cos(psi) * DT
        y += turn_speed * math.sin(psi) * DT
        t += DT
        rows.append((t, x, y))
    for _ in range(20):
        v = min(v + 1.0 * DT, approach_speed)
        x += v * math.cos(psi) * DT
        y += v * math.sin(psi) * DT
        t += DT
        rows.append((t, x, y))
    return np.asarray(rows)


def pool_sources(rng, straight_speeds):
    """Profile-pool source tracklets: straight drives and left/right turns."""
    trajs = [_straight_source(float(rng.uniform(*straight_speeds)))
             for _ in range(16)]
    for direction in ("left", "right"):
        for _ in range(8):
            trajs.append(_turn_source(
                float(rng.uniform(7.0, 13.0)), float(rng.uniform(3.5, 6.0)),
                float(rng.uniform(15.0, 70.0)), direction))
    tracks = [{"agent_id": i + 1,
               "poses": [{"t": round(float(t), 3), "x": float(x),
                          "y": float(y)} for t, x, y in traj]}
              for i, traj in enumerate(trajs)]
    return {"scene_id": "pool", "tracks": tracks}


# name -> (map builder, scene builder, scenes, grid spec, straight speeds)
WORKLOADS = {
    "junction": (four_way_map, junction_scene, 3,
                 {"H": 32, "W": 32, "res": 1.0}, (4.0, 15.0)),
    "highway": (highway_map, highway_scene, 2,
                {"H": 32, "W": 32, "res": 1.0}, (8.0, 32.0)),
    "raster": (four_way_map, raster_scene, 3,
               {"H": 128, "W": 128, "res": 1.0}, (4.0, 15.0)),
}


def write_inputs(name, seed, out_dir):
    """Write the workload's inputs for ``seed`` under ``out_dir``.

    Returns a dict with the paths, the grid spec for ``render`` and the
    (length, width) of every vehicle keyed by (scene_id, agent_id).
    """
    make_map, make_scene, n_scenes, grid, speeds = WORKLOADS[name]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    tracklet_dir = os.path.join(out_dir, "tracklets")
    os.makedirs(tracklet_dir, exist_ok=True)
    paths = {"map": os.path.join(out_dir, "map.json"),
             "tracklets": tracklet_dir,
             "pool_src": os.path.join(out_dir, "pool_src.json")}
    with open(paths["map"], "w") as fh:
        json.dump(make_map(), fh)
    with open(paths["pool_src"], "w") as fh:
        json.dump(pool_sources(rng, speeds), fh)
    sizes = {}
    for i in range(n_scenes):
        doc = make_scene(rng, f"{name[0]}{i:03d}")
        with open(os.path.join(tracklet_dir, doc["scene_id"] + ".json"),
                  "w") as fh:
            json.dump(doc, fh)
        for tr in doc["tracks"]:
            sizes[(doc["scene_id"], tr["agent_id"])] = (tr["length"],
                                                         tr["width"])
    return {"paths": paths, "grid": grid, "sizes": sizes}
