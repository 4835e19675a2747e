"""Per-scene multi-agent simulation loop.

Every step freezes the previous state, computes leader gaps, car-following
accelerations, lane-change decisions and controller commands for every
agent from that frozen snapshot, then integrates all agents
simultaneously. The synchronous update allows scene-level parallelism
with byte-identical output, and makes results independent of agent order
with one exception: each agent's desired speed ``idm.v0`` is set just
before its own decision, so when MOBIL evaluates a follower later in the
step's agent order, it reads that follower's previous ``v0`` (at step 0,
the 1.0 its parameters were sampled with).
"""

import dataclasses
import io
import math
import warnings
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

import numpy as np

from trafficforge import behavior as behavior_mod
from trafficforge import dynamics, road_graph
from trafficforge.config import default
from trafficforge.controller import (longitudinal_command, steer_to_lane,
                                     step_kinematics)
from trafficforge.errors import ConfigError, OffMapError, TrafficForgeError
from trafficforge.scene_ingest import interpolate_pose
from trafficforge.util import derive_seed, digest, map_tasks

V0_FLOOR = 0.1          # reference speed floor for the free-flow term
EXIT_EPS = 1e-6
MOBIL_EVAL_MAX_OFFSET = 0.5   # only consider lane changes near the centerline


@dataclass
class AgentLog:
    agent_id: int
    label: str
    route_edges: list
    idm: dict
    epsilon: float
    exit_step: Optional[int]
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    v: np.ndarray
    psi: np.ndarray
    a: np.ndarray
    phi: np.ndarray
    x_lat: np.ndarray
    lane_changes: list


_CSV_VALUES = ("t", "x", "y", "v", "psi", "a", "phi")
_CSV_HEADER = ("scene_id", "variant", "agent_id") + _CSV_VALUES + ("label",)
# the numeric columns as read in one np.loadtxt pass
_CSV_DTYPE = np.dtype([("variant", "i8"), ("agent_id", "i8")]
                      + [(c, "f8") for c in _CSV_VALUES])
# numpy's text parser strips these around a number; int() and float() do not
_NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


@dataclass
class SimLog:
    scene_id: str
    variant_index: int
    dt: float
    master_seed: int
    config_digest: str
    agents: list

    def write_csv(self, fh):
        fh.write(",".join(_CSV_HEADER) + "\n")
        for ag in self.agents:
            head = f"{self.scene_id},{self.variant_index},{ag.agent_id},"
            tail = f",{ag.label}\n"
            fh.write("".join(
                f"{head}{t:.3f},{x!r},{y!r},{v!r},{psi!r},{a!r},{phi!r}{tail}"
                for t, x, y, v, psi, a, phi in zip(
                    ag.t.tolist(), ag.x.tolist(), ag.y.tolist(),
                    ag.v.tolist(), ag.psi.tolist(), ag.a.tolist(),
                    ag.phi.tolist())))

    def to_csv(self):
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()

    def sidecar(self):
        return {
            "scene_id": self.scene_id,
            "variant": self.variant_index,
            "dt": self.dt,
            "master_seed": self.master_seed,
            "config_digest": self.config_digest,
            "agents": [
                {
                    "agent_id": ag.agent_id,
                    "label": ag.label,
                    "route_edges": [int(e) for e in ag.route_edges],
                    "idm": ag.idm,
                    "epsilon": ag.epsilon,
                    "exit_step": ag.exit_step,
                    "lane_changes": [
                        {"step": s, "from_edge": int(a), "to_edge": int(b)}
                        for s, a, b in ag.lane_changes
                    ],
                }
                for ag in self.agents
            ],
        }


class _AgentRun:
    """Mutable per-agent bookkeeping inside one scene simulation.

    An agent drives its ``route``. Without one it is the replayed ego
    (``replay``, given no assignment) or parked.
    """

    def __init__(self, init, assignment, idm, ctrl):
        self.agent_id = init.agent_id
        self.geom = init.geometry
        self.state = init.state.copy()
        self.lane = init.lane
        self.tracklet = init.tracklet
        self.route = assignment.route if assignment else None
        self.route_edges = ([] if self.route is None
                            else list(self.route.edge_ids))
        self.label = assignment.label if assignment else "replay"
        self.profile = assignment.profile if assignment else None
        self.replay = assignment is None
        self.idm = idm
        self.ctrl = ctrl
        self.s = 0.0
        self.x_lat = init.lane.lateral_offset
        self.exit_step = None
        self.lane_changes = []
        self.rows = []       # (x, y, v, psi, a, phi, x_lat)
        if self.route is None and not self.replay:
            self.state.v = 0.0

    @property
    def exited(self):
        return self.exit_step is not None

    def log_state(self):
        st = self.state
        self.rows.append((st.position[0], st.position[1], st.v, st.psi,
                          st.a, st.phi, self.x_lat))

    def coords(self):
        """(edge_id, arc_on_edge, v, length) for the interaction snapshot."""
        if self.route is not None:
            eid, arc = self.route.edge_at(self.s)
            return (eid, arc, self.state.v, self.geom.L)
        return (self.lane.edge_id, self.lane.arc_s, self.state.v, self.geom.L)


def simulate_scene(scene, assignment, config, variant_index=0):
    """Run one behavior variant of a scene and return its SimLog."""
    agent_ids = {a.agent_id for a in scene.agents}
    unknown = set(assignment) - agent_ids
    if unknown:
        raise ConfigError([f"assignment references unknown agents {sorted(unknown)}"])

    ego_id = min(agent_ids) if agent_ids else None
    runs = []
    for init in scene.agents:
        aid = init.agent_id
        replay = (config.ego_mode == "replay" and aid == ego_id
                  and init.tracklet is not None)
        if not replay and aid not in assignment:
            raise ConfigError([f"agent {aid} has no behavior assignment"])
        asg = assignment.get(aid)
        seed_parts = (config.master_seed, scene.scene_id, variant_index, aid)
        idm = dynamics.sample_idm_params(derive_seed(*seed_parts, "idm"),
                                         v0=1.0, **config.idm_ranges)
        eps_rng = np.random.default_rng(derive_seed(*seed_parts, "eps"))
        ctrl = dataclasses.replace(
            config.controller,
            epsilon=float(eps_rng.normal(0.0, config.epsilon_std)))
        runs.append(_AgentRun(init, None if replay else asg, idm, ctrl))

    graph = scene.graph
    dt = config.dt
    n_steps = config.n_steps
    cfg_digest = digest(config.to_dict())
    # MOBIL toward the right lane, then the left one with the bias mirrored
    mobil_sides = (config.mobil, dataclasses.replace(
        config.mobil, da_bias=-config.mobil.da_bias))

    for run in runs:
        if run.route is not None:
            s, _, lat = run.route.project_near(run.state.position, 0.0)
            run.s, run.x_lat = s, lat
        run.log_state()

    for k in range(n_steps):
        active = [r for r in runs if not r.exited]
        # refresh route projections and detect exits on the frozen state
        still = []
        for run in active:
            if run.route is not None:
                fwd = run.state.v * dt + 10.0
                s, _, lat = run.route.project_near(run.state.position,
                                                   run.s, fwd)
                run.s, run.x_lat = s, lat
                if s >= run.route.total_length - EXIT_EPS:
                    run.exit_step = k
                    continue
            elif run.replay:
                run.x_lat = 0.0
                try:
                    run.lane = road_graph.project_to_lane(
                        graph, run.state.position,
                        max_snap_distance=scene.max_snap_distance)
                except OffMapError:
                    run.exit_step = k
                    continue
            still.append(run)
        active = still
        snapshot = dynamics.Snapshot({r.agent_id: r.coords() for r in active})
        by_id = {r.agent_id: r for r in active}
        # (agent_id, v0) -> IDM acceleration in this step's snapshot
        base_accels = {}

        # decisions from the frozen snapshot
        commands = {}
        retargets = {}
        for run in active:
            if run.route is None:
                continue
            v = run.state.v
            v_ref = run.profile.value_at(k) if run.profile is not None else 0.0
            run.idm.v0 = max(v_ref, V0_FLOOR)
            a_idm = _snapshot_accel(run, snapshot, config, base_accels)
            if config.lane_change_enabled and abs(run.x_lat) <= MOBIL_EVAL_MAX_OFFSET:
                target = _consider_lane_change(graph, run, snapshot, by_id,
                                               a_idm, config, mobil_sides,
                                               base_accels)
                if target is not None:
                    retargets[run.agent_id] = target

            ctrl = run.ctrl
            look = max(v * ctrl.lookahead_time, ctrl.lookahead_min)
            psi_future = run.route.heading_at(min(run.s + look,
                                                  run.route.total_length))
            phi = steer_to_lane(run.x_lat, ctrl.epsilon, psi_future,
                                run.state.psi, v, ctrl.kp_lateral,
                                ctrl.kp_heading, ctrl.v_eps,
                                ctrl.psi_req_max, run.geom.L, ctrl.phi_max)
            a_cmd = longitudinal_command(v, v_ref, ctrl.kp_speed, a_idm,
                                         ctrl.a_max_decel, run.idm.a)
            commands[run.agent_id] = (a_cmd, phi)

        # apply all updates simultaneously
        for run in active:
            if run.route is not None:
                a_cmd, phi = commands[run.agent_id]
                run.state = step_kinematics(run.state, a_cmd, phi,
                                            run.geom, dt)
            elif run.replay:
                _replay_step(run, (k + 1) * dt, dt)
            if run.agent_id in retargets:
                run.route, old_edge, new_edge = retargets[run.agent_id]
                run.s = 0.0
                run.lane_changes.append((k, old_edge, new_edge))
            run.log_state()

    t_axis = np.arange(n_steps + 1) * dt
    agents = []
    for run in runs:
        rows = np.asarray(run.rows)
        n = len(rows)
        agents.append(AgentLog(
            agent_id=run.agent_id,
            label=run.label,
            route_edges=run.route_edges,
            idm={"T": run.idm.T, "s0": run.idm.s0, "a": run.idm.a,
                 "b": run.idm.b, "delta": dynamics.DELTA},
            epsilon=run.ctrl.epsilon,
            exit_step=run.exit_step,
            t=t_axis[:n],
            x=rows[:, 0], y=rows[:, 1], v=rows[:, 2], psi=rows[:, 3],
            a=rows[:, 4], phi=rows[:, 5], x_lat=rows[:, 6],
            lane_changes=run.lane_changes,
        ))
    return SimLog(scene.scene_id, variant_index, dt, config.master_seed,
                  cfg_digest, agents)


def _replay_step(run, rel_t, dt):
    tr = run.tracklet
    t = tr.poses[0].t + rel_t
    t = min(max(t, tr.poses[0].t), tr.poses[-1].t)
    pose = interpolate_pose(tr, t)
    prev = run.state.position
    heading = pose.heading
    if heading is None:
        d = pose.position - prev
        heading = math.atan2(d[1], d[0]) if np.linalg.norm(d) > 1e-9 \
            else run.state.psi
    v = pose.speed
    if v is None:
        v = float(np.linalg.norm(pose.position - prev) / dt)
    run.state.position = pose.position.copy()
    run.state.psi = heading
    run.state.v = max(float(v), 0.0)


def _consider_lane_change(graph, run, snapshot, by_id, ac_old, config,
                          mobil_sides, base_accels):
    """Evaluate MOBIL toward the right then the left neighbor lane.

    ``mobil_sides`` holds the right and the left side's MOBIL parameters.
    Returns (new_route, old_edge, new_edge) or None; the agent starts the
    new route at its arc 0. All candidate accelerations read the frozen
    snapshot, the post-change ones with the subject moved or removed by
    a ``moved`` override; ``base_accels`` is the step's memo of
    :func:`_snapshot_accel`.
    """
    eid, arc = run.route.edge_at(run.s)
    edge = graph.edges[eid]
    old_lane = None     # the old follower's pair, shared by both sides
    for nb, mobil in zip((edge.right_neighbor, edge.left_neighbor),
                         mobil_sides):
        if nb is None:
            continue
        new_route = _retarget_route(graph, run, nb, config)
        if new_route is None:
            continue
        nb_edge, nb_arc = new_route.edge_at(0.0)

        # subject's acceleration if it were on the target lane
        moved = (run.agent_id, (nb_edge, nb_arc, run.state.v, run.geom.L))
        ac_new = _idm_accel_in(snapshot, run, new_route, config, moved)

        # the would-be new follower, then the follower left behind
        an_old, an_new = _follower_accels(
            dynamics.nearest_behind(snapshot, nb, nb_arc, run.agent_id),
            snapshot, moved, by_id, config, base_accels)
        if old_lane is None:
            old_lane = _follower_accels(
                dynamics.nearest_behind(snapshot, eid, arc, run.agent_id),
                snapshot, (run.agent_id, None), by_id, config, base_accels)
        ao_old, ao_new = old_lane

        if dynamics.mobil_decide(mobil, ac_old, ac_new, an_old, an_new,
                                 ao_old, ao_new) == "change":
            return new_route, eid, nb
    return None


def _retarget_route(graph, run, neighbor_eid, config):
    """Route continuing from the neighbor lane abeam the agent, or None."""
    nb = graph.edges[neighbor_eid]
    coord = road_graph.lane_coordinate(nb, run.state.position)
    if coord.arc_s >= nb.length - 1e-6:
        return None
    routes = road_graph.enumerate_routes(graph, coord, config.horizon_dist,
                                         config.max_routes)
    if not routes:
        return None
    if len(routes) == 1:
        # the only candidate either way: its maneuver decides nothing, so
        # its geometry is not built unless the change is accepted
        return routes[0]
    same = [r for r in routes if r.maneuver == run.label]
    return same[0] if same else routes[0]


def _follower_accels(follower, snapshot, moved, by_id, config, base_accels):
    """IDM accelerations of ``follower`` in the step's ``snapshot``, read
    through its memo ``base_accels``, and with the ``moved`` override."""
    if follower is None:
        return 0.0, 0.0
    f = by_id[follower]
    if f.route is None:
        return 0.0, 0.0
    return (_snapshot_accel(f, snapshot, config, base_accels),
            _idm_accel_in(snapshot, f, f.route, config, moved))


def _snapshot_accel(run, snapshot, config, base_accels):
    """The agent's acceleration on its route in the step's snapshot.

    Memoized in ``base_accels`` by (agent id, desired speed ``v0``) for
    the agent's own decision and every MOBIL check that reads it: an
    agent later in the step's order still holds the previous step's
    ``v0`` when an earlier subject's check reads it.
    """
    key = (run.agent_id, run.idm.v0)
    acc = base_accels.get(key)
    if acc is None:
        acc = base_accels[key] = _idm_accel_in(snapshot, run, run.route,
                                               config)
    return acc


def _idm_accel_in(snapshot, run, route, config, moved=None):
    """IDM acceleration of ``run`` behind its leader along ``route``."""
    lead = dynamics.find_leader(snapshot, run.agent_id, route,
                                config.sensing_range, moved)
    return dynamics.idm_accel(run.idm, lead, run.state.v,
                              config.controller.a_max_decel)


def check_sidecar(sidecar, source):
    """Raise :class:`ConfigError` naming ``source`` unless ``sidecar`` is
    an object with a finite ``dt`` > 0 (not a bool), an integer
    ``agent_id`` in each ``agents`` entry, and a ``step``, ``from_edge``
    and ``to_edge`` in each of an agent's ``lane_changes``."""
    try:
        dt = sidecar["dt"]
        if type(dt) not in (int, float) or not (math.isfinite(dt) and dt > 0):
            raise ValueError(f"'dt' must be a finite number > 0, got {dt!r}")
        for agent in sidecar.get("agents", []):
            if type(agent["agent_id"]) is not int:
                raise TypeError(f"'agent_id' must be an integer, got "
                                f"{agent['agent_id']!r}")
            for change in agent.get("lane_changes", []):
                # a KeyError names the field a lane change lacks
                change["step"], change["from_edge"], change["to_edge"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError([f"{source}: {type(exc).__name__}: {exc}"]
                          ) from exc


def read_simlog_csv(csv_path, sidecar=None):
    """Reconstruct a SimLog from its CSV (and optional sidecar dict, as
    :func:`check_sidecar` accepts it).

    Raises :class:`ConfigError` naming the file and the line when a
    column is missing or a field is absent or not a finite number.
    """
    with open(csv_path) as fh:
        header = fh.readline().strip().split(",")
        idx = {name: i for i, name in enumerate(header)}
        missing = [c for c in _CSV_HEADER if c not in idx]
        if missing:
            raise ConfigError([f"simulation log {csv_path} line 1: "
                               f"missing column(s) {', '.join(missing)}"])
        text = fh.read()
    numpy_reads_as_python = not any(c in text for c in _NUMPY_ONLY_SPACE)
    lines = text.split("\n")
    del text
    if lines[-1] == "":
        lines.pop()
    parsed = None
    if lines and numpy_reads_as_python:
        parsed = _parse_rows_bulk(lines, idx)
    scene_id, variant, per_agent = \
        parsed or _parse_rows_one_by_one(lines, idx, csv_path)
    side_agents = {}
    dt = default("sim.dt")
    master_seed, cfg_digest = default("sim.master_seed"), ""
    if sidecar:
        dt = float(sidecar.get("dt", dt))
        master_seed = sidecar.get("master_seed", master_seed)
        cfg_digest = sidecar.get("config_digest", "")
        side_agents = {a["agent_id"]: a for a in sidecar.get("agents", [])}
    agents = []
    for aid, (label, rows) in per_agent.items():
        if len(rows) > 1:
            dt_csv = float(rows[1, 0] - rows[0, 0])
            if not sidecar and dt_csv > 0:
                dt = dt_csv
        meta = side_agents.get(aid, {})
        agents.append(AgentLog(
            agent_id=aid, label=label,
            route_edges=meta.get("route_edges", []),
            idm=meta.get("idm", {}), epsilon=meta.get("epsilon", 0.0),
            exit_step=meta.get("exit_step"),
            t=rows[:, 0], x=rows[:, 1], y=rows[:, 2], v=rows[:, 3],
            psi=rows[:, 4], a=rows[:, 5], phi=rows[:, 6],
            x_lat=np.zeros(len(rows)),
            lane_changes=[(c["step"], c["from_edge"], c["to_edge"])
                          for c in meta.get("lane_changes", [])],
        ))
    return SimLog(scene_id, variant, dt, master_seed, cfg_digest, agents)


def _parse_rows_bulk(lines, idx):
    """The data ``lines`` in one ``np.loadtxt`` pass.

    Returns what :func:`_parse_rows_one_by_one` returns, or None where
    that row loop might read the lines differently or reject them; it
    alone then parses them and names a bad line.
    """
    cols = [idx["variant"], idx["agent_id"]] + [idx[c] for c in _CSV_VALUES]
    i_scene, i_label = idx["scene_id"], idx["label"]
    if i_scene > max(cols):
        return None  # loadtxt would not check that every row reaches it
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. "input contained no data"
            data = np.loadtxt(lines, dtype=_CSV_DTYPE, delimiter=",",
                              comments=None, usecols=cols, ndmin=1)
    except (ValueError, Warning):
        return None
    # the value fields, as float (n, 7): they follow the two i8 fields
    values = data.view(np.float64).reshape(len(data), -1)[:, 2:]
    if len(data) != len(lines) or not np.isfinite(values).all():
        return None  # a skipped blank line, or a bad value
    order = np.argsort(data["agent_id"], kind="stable")
    ids = data["agent_id"][order]
    starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    bounds = np.r_[starts, len(ids)].tolist()
    values = values[order]
    per_agent = {}
    for k, first in enumerate(order[starts].tolist()):
        fields = lines[first].split(",")
        if len(fields) <= i_label:
            return None
        per_agent[int(ids[bounds[k]])] = (
            fields[i_label], values[bounds[k]:bounds[k + 1]])
    return (lines[-1].split(",")[i_scene], int(data["variant"][-1]),
            per_agent)


def _parse_rows_one_by_one(lines, idx, csv_path):
    """(scene_id, variant, {agent_id: (label, rows)}) from the data
    ``lines``, ids ascending, each agent's label from its first row and
    the scene and variant from the last row; ``rows`` is float (n, 7) in
    ``_CSV_VALUES`` order. Raises a ``ConfigError`` naming the first bad
    line."""
    per_agent = {}
    scene_id, variant = "", 0
    i_scene, i_variant, i_agent, i_label = (
        idx["scene_id"], idx["variant"], idx["agent_id"], idx["label"])
    values = itemgetter(*(idx[c] for c in _CSV_VALUES))
    for line_no, line in enumerate(lines, 2):
        f = line.split(",")
        try:
            scene_id = f[i_scene]
            variant = int(f[i_variant])
            aid = int(f[i_agent])
            rec = per_agent.get(aid)
            if rec is None:
                rec = per_agent[aid] = (f[i_label], [])
            row = list(map(float, values(f)))
            if not all(map(math.isfinite, row)):
                raise ValueError(f"non-finite value in {row}")
            rec[1].append(row)
        except (IndexError, ValueError) as exc:
            raise ConfigError([f"simulation log {csv_path} line "
                               f"{line_no}: {type(exc).__name__}: {exc}"]
                              ) from exc
    if not per_agent:
        raise ConfigError([f"simulation log {csv_path}: no data rows"])
    return scene_id, variant, {aid: (per_agent[aid][0],
                                     np.asarray(per_agent[aid][1]))
                               for aid in sorted(per_agent)}


def run_dataset(scenes, pool, config, jobs=1):
    """Simulate every scene's behavior variants.

    Returns (logs, failures); failures are (scene_id, message) pairs for
    scenes that raised a TrafficForgeError, which are skipped without
    aborting the batch. Any other exception, ``ValueError`` included, is a
    bug and propagates. Results are byte-identical for any ``jobs`` value.

    Profiles are replayed one sample per simulation step, so a pool
    recorded at another time step than ``config.dt`` raises
    :class:`ConfigError` before any scene runs.
    """
    for profile in pool.profiles:
        if abs(profile.dt - config.dt) > 1e-9:
            raise ConfigError([f"profile pool dt {profile.dt} differs from "
                               f"sim.dt {config.dt}; rebuild the pool with "
                               f"profile-pool --set sim.dt={config.dt}"])
    if not scenes:
        raise ValueError("no scenes to simulate")
    results = map_tasks(_scene_worker,
                        [(scene, pool, config) for scene in scenes], jobs)
    logs, failures = [], []
    for scene_logs, scene_failures in results:
        logs.extend(scene_logs)
        failures.extend(scene_failures)
    return logs, failures


def _scene_worker(task):
    scene, pool, config = task
    logs, failures = [], []
    try:
        variants = behavior_mod.sample_behaviors(
            scene, pool,
            derive_seed(config.master_seed, scene.scene_id),
            config.max_variants, config.horizon_dist, config.max_routes,
            config.profile_noise_std)
        for vi, assignment in enumerate(variants):
            logs.append(simulate_scene(scene, assignment, config, vi))
    except TrafficForgeError as exc:
        failures.append((scene.scene_id, f"{type(exc).__name__}: {exc}"))
    return logs, failures
