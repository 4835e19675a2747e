"""Synthetic maps, tracklets and velocity-profile sources shared by tests."""

import io
import math

import numpy as np


def straight_map(length=300.0, lanes=1, oneway=True, lane_width=3.5):
    return {"centerlines": [{"id": 0,
                             "points": [[0.0, 0.0], [float(length), 0.0]],
                             "lanes": lanes, "oneway": oneway,
                             "lane_width": lane_width}]}


def ring_map(side=50.0):
    """One-way square loop of four single-lane sides, edges 0..3 in order."""
    corners = [[0.0, 0.0], [side, 0.0], [side, side], [0.0, side]]
    return {"centerlines": [{"id": i, "points": [corners[i],
                                                 corners[(i + 1) % 4]],
                             "lanes": 1, "oneway": True}
                            for i in range(4)]}


def _rot(deg):
    a = math.radians(deg)
    return np.array([[math.cos(a), -math.sin(a)],
                     [math.sin(a), math.cos(a)]])


def _arc(center, radius, a0, a1, n=24):
    ang = np.linspace(a0, a1, n)
    return np.column_stack([center[0] + radius * np.cos(ang),
                            center[1] + radius * np.sin(ang)])


def four_way_intersection(arm=80.0, junction=10.0, half_lane=1.75):
    """Four-arm junction with per-arm in/out lanes and turn connectors.

    Every piece is a one-way single-lane centerline, so endpoint merging
    wires the graph. The base (eastbound) geometry is rotated to the four
    compass directions.
    """
    j, h = junction, half_lane
    base = {
        "in": np.array([[-arm - j, -h], [-j, -h]]),
        "out": np.array([[j, -h], [arm + j, -h]]),
        "straight": np.array([[-j, -h], [j, -h]]),
        "right": _arc((-j, -j), j - h, math.pi / 2, 0.0),
        "left": _arc((-j, j), j + h, -math.pi / 2, 0.0),
    }
    centerlines = []
    cid = 0
    for deg in (0, 90, 180, 270):
        R = _rot(deg)
        for kind in ("in", "out", "straight", "right", "left"):
            pts = base[kind] @ R.T
            centerlines.append({"id": cid,
                                "points": [[float(x), float(y)] for x, y in pts],
                                "lanes": 1, "oneway": True,
                                "lane_width": 2 * h})
            cid += 1
    return {"centerlines": centerlines}


def approach_point(deg, dist_to_junction, arm=80.0, junction=10.0,
                   half_lane=1.75):
    """Point and heading on the inbound lane of the ``deg`` arm."""
    R = _rot(deg)
    p = np.array([-junction - dist_to_junction, -half_lane]) @ R.T
    heading = math.radians(deg)
    return float(p[0]), float(p[1]), heading


def tracklets_doc(scene_id, agents, dt=0.1, n_poses=11):
    """Tracklet document: constant-velocity poses from (id, x, y, psi, v)."""
    tracks = []
    for aid, x, y, psi, v in agents:
        poses = [{"t": round(k * dt, 3),
                  "x": x + v * math.cos(psi) * k * dt,
                  "y": y + v * math.sin(psi) * k * dt,
                  "heading": psi, "speed": v}
                 for k in range(n_poses)]
        tracks.append({"agent_id": aid, "length": 4.5, "width": 1.8,
                       "poses": poses})
    return {"scene_id": scene_id, "tracks": tracks}


def straight_source_traj(speed, duration=8.0, dt=0.1, heading=0.0):
    """(t, x, y) rows for a constant-speed straight drive."""
    t = np.arange(0.0, duration + dt / 2, dt)
    return np.column_stack([t,
                            speed * t * math.cos(heading),
                            speed * t * math.sin(heading)])


def turning_source_traj(approach_speed, turn_speed, approach_dist,
                        radius=9.0, direction="left", dt=0.1):
    """(t, x, y) rows: approach with a linear slowdown, then a 90 deg arc.

    The slowdown starts halfway down the approach so the turn is taken at
    ``turn_speed``; after the arc the vehicle accelerates gently again.
    """
    rows = [(0.0, 0.0, 0.0)]
    t, x, y, psi, v = 0.0, 0.0, 0.0, 0.0, approach_speed
    dist = 0.0
    while dist < approach_dist:
        frac = dist / approach_dist
        v = approach_speed + (turn_speed - approach_speed) * max(
            0.0, (frac - 0.5) * 2.0)
        t += dt
        x += v * dt
        dist += v * dt
        rows.append((t, x, y))
    sign = 1.0 if direction == "left" else -1.0
    turned = 0.0
    while turned < math.pi / 2:
        omega = sign * turn_speed / radius
        psi += omega * dt
        turned += abs(omega) * dt
        x += turn_speed * math.cos(psi) * dt
        y += turn_speed * math.sin(psi) * dt
        t += dt
        rows.append((t, x, y))
    for _ in range(20):
        v = min(v + 1.0 * dt, approach_speed)
        x += v * math.cos(psi) * dt
        y += v * math.sin(psi) * dt
        t += dt
        rows.append((t, x, y))
    return np.asarray(rows)


def synthetic_profile_sources(rng, n_straight=12, n_left=8, n_right=8):
    """A mixed batch of (t, x, y) source trajectories for pool building."""
    out = []
    for _ in range(n_straight):
        out.append(straight_source_traj(float(rng.uniform(4.0, 15.0))))
    for _ in range(n_left):
        out.append(turning_source_traj(
            float(rng.uniform(7.0, 13.0)), float(rng.uniform(3.5, 6.0)),
            float(rng.uniform(15.0, 70.0)), direction="left"))
    for _ in range(n_right):
        out.append(turning_source_traj(
            float(rng.uniform(7.0, 13.0)), float(rng.uniform(3.5, 6.0)),
            float(rng.uniform(15.0, 70.0)), direction="right"))
    return out


def profile_sources_doc(seed=0):
    """A tracklet document of :func:`synthetic_profile_sources`: straight
    drives and left and right turns, to mine a profile pool from with
    ``profile-pool``."""
    sources = synthetic_profile_sources(np.random.default_rng(seed))
    return {"scene_id": "sources", "tracks": [
        {"agent_id": i, "poses": [{"t": t, "x": x, "y": y}
                                  for t, x, y in src.tolist()]}
        for i, src in enumerate(sources)]}


def build_test_pool(seed=0, dt=0.1):
    from trafficforge import behavior
    rng = np.random.default_rng(seed)
    return behavior.build_profile_pool(synthetic_profile_sources(rng), dt)


def assert_grid_sample(sample, log, context, t_obs, t_start=0):
    """``sample``, read back from a .bevg file, holds ``context`` and its
    grid, ``t_obs``, the log's variant and, frame by frame, steps
    ``t_start``.. of ``log`` as ``rasterize_states`` makes them."""
    from trafficforge.bev_render import rasterize_states
    assert sample.spec == context.spec
    assert np.array_equal(sample.context.classes, context.classes)
    assert sample.t_obs == t_obs and sample.variant == log.variant_index
    n_steps = max(len(ag.t) for ag in log.agents)
    assert len(sample.frames) == n_steps - t_start
    for k, frame in enumerate(sample.frames):
        maps = rasterize_states(log, t_start + k, context.spec)
        for name in ("state", "mask", "ids", "labels"):
            assert np.array_equal(getattr(maps, name), getattr(frame, name))


def csv_text(log):
    """The CSV that ``log.write_csv`` writes, as a string."""
    buf = io.StringIO()
    log.write_csv(buf)
    return buf.getvalue()
