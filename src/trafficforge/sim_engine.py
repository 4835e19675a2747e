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

Each agent's leader search runs once per step, along its route or, for
the replayed ego, along the lane it snaps to: one ranked search
(``dynamics.rank_leaders``) kept under the agent's id, from which its own
acceleration and every MOBIL what-if that moves or removes another agent
are read (``dynamics.leader_after``). The replayed ego takes its
tracklet's pose at the scene's ``t0`` plus the elapsed time, and leaves
the scene (an exit step) at the first step at which its tracklet has no
next pose or it snaps to no lane. MOBIL tests each side lazily, and
stops at the first inequality that rejects it; a side's target route is
only built once the new follower's safety test has passed. MOBIL is only
entered for an agent whose edge has a neighbor lane.
"""

import dataclasses
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from trafficforge import behavior as behavior_mod
from trafficforge import dynamics, road_graph
from trafficforge.controller import (longitudinal_command, steer_to_lane,
                                     step_kinematics)
from trafficforge.errors import ConfigError, OffMapError, TrafficForgeError
from trafficforge.scene_ingest import (MAX_AGENT_ID, check_scene_id,
                                       interpolate_pose)
from trafficforge.util import (derive_seed, digest, integer, map_tasks,
                              number, read_input)

V0_FLOOR = 0.1          # reference speed floor for the free-flow term
MIN_LOG_DT = 1e-6       # s; metrics divides by a log's dt squared
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
    lane_changes: list


_CSV_VALUES = ("t", "x", "y", "v", "psi", "a", "phi")
# the one header of a log: the ids and the values, columns 1 to 9, are
# read as numbers, and the label is column 10
_CSV_HEADER = ",".join(("scene_id", "variant", "agent_id") + _CSV_VALUES
                       + ("label",))
_CSV_DTYPE = np.dtype([("variant", "i8"), ("agent_id", "i8")]
                      + [(c, "f8") for c in _CSV_VALUES])
# numpy's text parser strips these around a number, as it does spaces, so
# a number could hide them; no line of a log holds one
_NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"
MAX_LOG_VARIANT = 2**32 - 1   # a .bevg header holds a log's variant as u32
_CHECK_CHUNK = 64    # lines that _first_bad_line reads in one _loadtxt call
# m; a log's x and y lie this close to 0: every lane of a map lies within
# road_graph.MAX_COORD, and the rest leaves room to drive off the map
MAX_LOG_COORD = 2 * road_graph.MAX_COORD


@dataclass
class SimLog:
    scene_id: str
    variant_index: int
    dt: float
    master_seed: int
    config_digest: str
    agents: list

    def write_csv(self, fh):
        fh.write(_CSV_HEADER + "\n")
        for ag in self.agents:
            head = f"{self.scene_id},{self.variant_index},{ag.agent_id},"
            tail = f",{ag.label}\n"
            fh.write("".join(
                f"{head}{t:.3f},{x!r},{y!r},{v!r},{psi!r},{a!r},{phi!r}{tail}"
                for t, x, y, v, psi, a, phi in zip(
                    ag.t.tolist(), ag.x.tolist(), ag.y.tolist(),
                    ag.v.tolist(), ag.psi.tolist(), ag.a.tolist(),
                    ag.phi.tolist())))

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
        self.state = dataclasses.replace(init.state)
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
        self.rows = []       # (x, y, v, psi, a, phi)
        if self.route is None and not self.replay:
            self.state.v = 0.0

    @property
    def exited(self):
        return self.exit_step is not None

    def log_state(self):
        st = self.state
        self.rows.append((st.position[0], st.position[1], st.v, st.psi,
                          st.a, st.phi))

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
        raise ValueError(f"assignment references unknown agents {sorted(unknown)}")

    ego_id = min(agent_ids) if agent_ids else None
    runs = []
    for init in scene.agents:
        aid = init.agent_id
        replay = (config.ego_mode == "replay" and aid == ego_id
                  and init.tracklet is not None)
        if not replay and aid not in assignment:
            raise ValueError(f"agent {aid} has no behavior assignment")
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
    # the edges with a neighbor lane, the only ones MOBIL can leave
    beside = {eid for eid, e in graph.edges.items()
              if e.left_neighbor is not None or e.right_neighbor is not None}

    for run in runs:
        if run.route is not None:
            run.s = run.route.project_near(run.state.position, 0.0)[0]
        run.log_state()

    for k in range(n_steps):
        active = [r for r in runs if not r.exited]
        # refresh route projections and detect exits on the frozen state
        still = []
        along = {}      # agent_id -> the route its leaders are searched along
        for run in active:
            if run.route is not None:
                fwd = run.state.v * dt + road_graph.PROJECT_AHEAD
                s, _, lat = run.route.project_near(run.state.position,
                                                   run.s, fwd)
                run.s, run.x_lat = s, lat
                if s >= run.route.total_length - EXIT_EPS:
                    run.exit_step = k
                    continue
                along[run.agent_id] = run.route
            elif run.replay:
                if not run.tracklet.covers(scene.t0 + (k + 1) * dt):
                    run.exit_step = k   # its tracklet has no next pose
                    continue
                try:
                    run.lane = road_graph.project_to_lane(graph,
                                                          run.state.position)
                except OffMapError:
                    run.exit_step = k
                    continue
                # MOBIL weighs the ego along its lane at its own speed (it
                # still cannot brake)
                run.idm.v0 = max(run.state.v, V0_FLOOR)
                along[run.agent_id] = road_graph.Route(
                    graph, [run.lane.edge_id], run.lane, True)
            still.append(run)
        active = still
        snapshot = dynamics.Snapshot({r.agent_id: r.coords() for r in active})
        by_id = {r.agent_id: r for r in active}
        # agent_id -> the agent's ranked leader search of this step, along
        # its route or the replayed ego's lane
        searches = {aid: dynamics.rank_leaders(
            snapshot, aid, route, config.sensing_range)
            for aid, route in along.items()}

        # decisions from the frozen snapshot
        commands = {}
        retargets = {}
        for run in active:
            if run.route is None:
                continue
            v = run.state.v
            v_ref = run.profile.value_at(k) if run.profile is not None else 0.0
            run.idm.v0 = max(v_ref, V0_FLOOR)
            a_idm = _accel(run, config, searches)
            if config.lane_change_enabled and abs(run.x_lat) <= MOBIL_EVAL_MAX_OFFSET \
                    and snapshot.coords[run.agent_id][0] in beside:
                target = _consider_lane_change(graph, run, snapshot, by_id,
                                               a_idm, config, mobil_sides,
                                               searches)
                if target is not None:
                    retargets[run.agent_id] = target

            ctrl = run.ctrl
            look = max(v * ctrl.lookahead_time, ctrl.lookahead_min)
            psi_future = run.route.table.heading_at(run.s + look)
            phi = steer_to_lane(run.x_lat, ctrl.epsilon, psi_future,
                                run.state.psi, v, ctrl.kp_lateral,
                                ctrl.kp_heading, ctrl.v_eps,
                                ctrl.psi_req_max, run.geom.L, ctrl.phi_max)
            a_cmd = longitudinal_command(v, v_ref, ctrl.kp_speed, a_idm,
                                         ctrl.a_max_decel)
            commands[run.agent_id] = (a_cmd, phi)

        # apply all updates simultaneously
        for run in active:
            if run.route is not None:
                a_cmd, phi = commands[run.agent_id]
                run.state = step_kinematics(run.state, a_cmd, phi,
                                            run.geom, dt)
            elif run.replay:
                _replay_step(run, scene.t0 + (k + 1) * dt, dt)
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
            a=rows[:, 4], phi=rows[:, 5],
            lane_changes=run.lane_changes,
        ))
    return SimLog(scene.scene_id, variant_index, dt, config.master_seed,
                  cfg_digest, agents)


def _replay_step(run, t, dt):
    """Move the replayed ego to its tracklet's pose at time ``t``."""
    tr = run.tracklet
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
    run.state.position = tuple(pose.position.tolist())
    run.state.psi = heading
    run.state.v = max(float(v), 0.0)


def _consider_lane_change(graph, run, snapshot, by_id, ac_old, config,
                          mobil_sides, searches):
    """Evaluate MOBIL toward the right then the left neighbor lane.

    ``mobil_sides`` holds the right and the left side's MOBIL parameters.
    The subject is projected onto a neighbor lane through the segment
    grid of the graph's snap limit (:func:`road_graph.lane_coordinate`).
    Returns (new_route, old_edge, new_edge) or None; the agent starts the
    new route at its arc 0. All candidate accelerations read the frozen
    snapshot, the post-change ones with the subject moved or removed by
    a ``moved`` override; the followers' read the step's ranked leader
    searches, ``searches``, through :func:`_accel`.

    Each side stops at the first test that rejects it, in this order:
    the neighbor lane must go on past the subject; the new follower's
    safety test; a route on the neighbor lane and the subject's safety
    test; then the incentive (with the old follower's pair, made at most
    once per subject), through ``dynamics.mobil_decide``.
    """
    eid, arc = snapshot.coords[run.agent_id][:2]
    edge = graph.edges[eid]
    old_lane = None     # the old follower's pair, shared by both sides
    for nb, mobil in zip((edge.right_neighbor, edge.left_neighbor),
                         mobil_sides):
        if nb is None:
            continue
        nb_lane = graph.edges[nb]
        coord = road_graph.lane_coordinate(graph, nb, run.state.position)
        if coord.arc_s >= nb_lane.length - 1e-6:
            continue
        moved = (run.agent_id, (nb, coord.arc_s, run.state.v, run.geom.L))

        # the would-be new follower
        an_old, an_new = _follower_accels(
            dynamics.nearest_behind(snapshot, nb, coord.arc_s, run.agent_id),
            moved, by_id, config, searches)
        if not dynamics.mobil_safe(mobil, an_old, an_new):
            continue

        # the subject's acceleration if it were on the target lane
        new_route = _retarget_route(graph, coord, run.label, config)
        if new_route is None:
            continue
        lead = dynamics.find_leader(snapshot, run.agent_id, new_route,
                                    config.sensing_range, moved)
        ac_new = dynamics.idm_accel(run.idm, lead, run.state.v,
                                    config.controller.a_max_decel)
        if not dynamics.mobil_safe(mobil, ac_old, ac_new):
            continue

        # the follower left behind
        if old_lane is None:
            old_lane = _follower_accels(
                dynamics.nearest_behind(snapshot, eid, arc, run.agent_id),
                (run.agent_id, None), by_id, config, searches)
        ao_old, ao_new = old_lane

        if dynamics.mobil_decide(mobil, ac_old, ac_new, an_old, an_new,
                                 ao_old, ao_new) == "change":
            return new_route, eid, nb
    return None


def _retarget_route(graph, coord, label, config):
    """Route continuing from the lane coordinate ``coord``, the one with
    the agent's maneuver ``label`` where there is one, or None."""
    routes = road_graph.enumerate_routes(graph, coord, config.horizon_dist,
                                         config.max_routes)
    if not routes:
        return None
    if len(routes) == 1:
        # the only candidate either way: its maneuver decides nothing, so
        # its geometry is not built unless the change is accepted
        return routes[0]
    same = [r for r in routes if r.maneuver == label]
    return same[0] if same else routes[0]


def _follower_accels(follower, moved, by_id, config, searches):
    """IDM accelerations of ``follower`` in the step's snapshot, without
    and with the ``moved`` override, read from its ranked search in
    ``searches``; (0, 0) without a follower or for a parked one, which
    has no search.
    """
    if follower not in searches:
        return 0.0, 0.0
    f = by_id[follower]
    return (_accel(f, config, searches),
            _accel(f, config, searches, moved))


def _accel(run, config, searches, moved=None):
    """The agent's IDM acceleration along its search route in the step's
    snapshot, with the ``moved`` override.

    The agent's ranked leader search, made right after the snapshot, is
    kept in ``searches`` under its id: it does not read ``v0``. The
    acceleration is taken at call time with the agent's current
    ``idm.v0``, so an agent later in the step's order still holds the
    previous step's ``v0`` when an earlier subject's check reads it.
    """
    lead = dynamics.leader_after(searches[run.agent_id], moved)
    return dynamics.idm_accel(run.idm, lead, run.state.v,
                              config.controller.a_max_decel)


def check_sidecar(sidecar, source):
    """Raise :class:`ConfigError` naming ``source`` unless ``sidecar`` is
    an object with a ``scene_id`` that :func:`check_scene_id` accepts, a
    ``variant`` from 0 to ``MAX_LOG_VARIANT``, a finite ``dt`` >=
    ``MIN_LOG_DT`` (not a bool), an integer ``master_seed``, a string
    ``config_digest``, an ``agent_id`` from 0 to ``MAX_AGENT_ID`` in each
    ``agents`` entry, and a ``step``, ``from_edge`` and ``to_edge`` in
    each of an agent's ``lane_changes``."""
    try:
        check_scene_id(sidecar["scene_id"])
        integer(sidecar["variant"], "variant", 0, MAX_LOG_VARIANT)
        dt = number(sidecar["dt"], "dt", 0, strict=True)
        number(dt, "dt", MIN_LOG_DT)
        integer(sidecar["master_seed"], "master_seed")
        if type(sidecar["config_digest"]) is not str:
            raise TypeError(f"'config_digest' must be a string, got "
                            f"{sidecar['config_digest']!r}")
        for agent in sidecar.get("agents", []):
            integer(agent["agent_id"], "agent_id", 0, MAX_AGENT_ID)
            for change in agent.get("lane_changes", []):
                # a KeyError names the field a lane change lacks
                change["step"], change["from_edge"], change["to_edge"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError([f"{source}: {type(exc).__name__}: {exc}"]
                          ) from exc


def read_simlog_csv(csv_path, sidecar):
    """Reconstruct a SimLog from its CSV and its sidecar dict, as
    :func:`check_sidecar` accepts it: the scene, the variant, ``dt``,
    ``master_seed`` and ``config_digest`` come from the sidecar alone.

    Raises :class:`ConfigError` naming the file and the line when line 1
    is not ``_CSV_HEADER`` or a data line breaks a rule of
    :func:`_first_bad_line`, and naming the file and the agent when an
    agent of the CSV has no entry in the sidecar's ``agents``.
    """
    header, _, text = read_input(csv_path, "simulation log").partition("\n")
    header = header.strip()
    if header != _CSV_HEADER:
        raise ConfigError([f"simulation log {csv_path} line 1: the "
                           f"header must be {_CSV_HEADER!r}, got "
                           f"{header!r}"])
    numpy_reads_as_written = not any(c in text for c in _NUMPY_ONLY_SPACE)
    lines = text.split("\n")
    del text
    if lines[-1] == "":
        lines.pop()
    identity = sidecar["scene_id"], sidecar["variant"]
    parsed = numpy_reads_as_written and _parse_rows(lines, *identity)
    per_agent = parsed or _first_bad_line(lines, csv_path, *identity)
    side_agents = {a["agent_id"]: a for a in sidecar.get("agents", [])}
    agents = []
    for aid, (label, rows) in per_agent.items():
        meta = side_agents.get(aid)
        if meta is None:
            raise ConfigError([f"simulation log {csv_path}: agent {aid} has "
                               f"no entry in the sidecar's agents"])
        agents.append(AgentLog(
            agent_id=aid, label=label,
            route_edges=meta.get("route_edges", []),
            idm=meta.get("idm", {}), epsilon=meta.get("epsilon", 0.0),
            exit_step=meta.get("exit_step"),
            t=rows[:, 0], x=rows[:, 1], y=rows[:, 2], v=rows[:, 3],
            psi=rows[:, 4], a=rows[:, 5], phi=rows[:, 6],
            lane_changes=[(c["step"], c["from_edge"], c["to_edge"])
                          for c in meta.get("lane_changes", [])],
        ))
    return SimLog(*identity, number(sidecar["dt"], "dt"),
                  sidecar["master_seed"], sidecar["config_digest"], agents)


def _loadtxt(lines, dtype, usecols=None):
    """``np.loadtxt`` of the CSV ``lines`` as ``dtype``, or None where it
    raises or warns (e.g. "input contained no data")."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(lines, dtype=dtype, delimiter=",",
                              comments=None, usecols=usecols, ndmin=1)
    except (ValueError, Warning):
        return None


def _parse_rows(lines, scene_id, variant):
    """{agent_id: (label, rows)} from the data ``lines`` in one
    :func:`_loadtxt` pass, or None where a line breaks a rule of
    :func:`_first_bad_line`. Ids ascend, each agent's label is from its
    first row, and ``rows`` is float (n, 7) in ``_CSV_VALUES`` order."""
    data = _loadtxt(lines, _CSV_DTYPE, range(1, 10))
    if data is None:
        return None
    # the value fields, as float (n, 7): they follow the two i8 fields
    values = data.view(np.float64).reshape(len(data), -1)[:, 2:]
    if len(data) != len(lines) or not np.isfinite(values).all() \
            or not (np.abs(values[:, 1:3]) <= MAX_LOG_COORD).all() \
            or not (data["variant"] == variant).all() \
            or not all(map(str.startswith, lines,
                           itertools.repeat(scene_id + ","))):
        return None  # a skipped blank line, a bad value, or another log
    order = np.argsort(data["agent_id"], kind="stable")
    ids, starts = np.unique(data["agent_id"][order], return_index=True)
    per_agent = {}
    for aid, first, rows in zip(ids.tolist(), order[starts].tolist(),
                                np.split(values[order], starts[1:])):
        fields = lines[first].split(",")
        if len(fields) <= 10:
            return None
        per_agent[aid] = fields[10], rows
    return per_agent


def _first_bad_line(lines, csv_path, scene_id, variant):
    """Raise the ConfigError naming the first of the data ``lines`` that
    breaks a rule, or saying that there are none. A line holds a
    ``variant``, an ``agent_id``, the label if it is the agent's first,
    finite values with ``x`` and ``y`` within ``MAX_LOG_COORD`` of 0, each
    number as :func:`_field` reads it, none of ``_NUMPY_ONLY_SPACE``, and
    the sidecar's ``scene_id`` and ``variant``.

    The numbers of each ``_CHECK_CHUNK`` lines are read in one
    :func:`_loadtxt` call; a line's fields are read one by one only in a
    chunk that call refuses, or where the line holds a
    ``_NUMPY_ONLY_SPACE``, which the call would strip.
    """
    labelled = set()
    for start in range(0, len(lines), _CHECK_CHUNK):
        chunk = lines[start:start + _CHECK_CHUNK]
        data = _loadtxt(chunk, _CSV_DTYPE, range(1, 10))
        numbers = data.tolist() if data is not None \
            and len(data) == len(chunk) else [None] * len(chunk)
        for line_no, line, nums in zip(itertools.count(start + 2), chunk,
                                       numbers):
            f = line.split(",")
            hidden = any(c in line for c in _NUMPY_ONLY_SPACE)
            if hidden:
                nums = None
            try:
                named = _field(f[1], "i8") if nums is None else nums[0]
                aid = _field(f[2], "i8") if nums is None else nums[1]
                if aid not in labelled:
                    f[10]  # an IndexError names a first line without a label
                    labelled.add(aid)
                row = ([_field(f[k], "f8") for k in range(3, 10)]
                       if nums is None else list(nums[2:]))
                if not all(map(math.isfinite, row)):
                    raise ValueError(f"non-finite value in {row}")
                number(row[1], "x", -MAX_LOG_COORD, MAX_LOG_COORD)
                number(row[2], "y", -MAX_LOG_COORD, MAX_LOG_COORD)
                if hidden:
                    raise ValueError(f"control character in {line!r}")
                if (f[0], named) != (scene_id, variant):
                    raise ValueError(f"every line must name the sidecar's "
                                     f"scene {scene_id!r} and variant "
                                     f"{variant}, got {f[0]!r} and {named}")
            except (IndexError, ValueError) as exc:
                raise ConfigError([f"simulation log {csv_path} line "
                                   f"{line_no}: {type(exc).__name__}: {exc}"]
                                  ) from exc
    raise ConfigError([f"simulation log {csv_path}: no data rows"])


def _field(text, dtype):
    """``text`` as :func:`_loadtxt` reads it alone as ``dtype``, "i8" or
    "f8", to an int or a float; a ValueError worded as int()'s or
    float()'s if it does not, or if ``text`` holds a ``_NUMPY_ONLY_SPACE``."""
    value = None if any(c in text for c in _NUMPY_ONLY_SPACE) \
        else _loadtxt([text], dtype)
    if value is None:
        kind = ("invalid literal for int() with base 10" if dtype == "i8"
                else "could not convert string to float")
        raise ValueError(f"{kind}: {text!r}")
    return value.item()


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
    if not abs(pool.dt - config.dt) <= 1e-9:
        raise ConfigError([f"profile pool dt {pool.dt} differs from "
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
            scene, pool, derive_seed(config.master_seed, scene.scene_id),
            config)
        for vi, assignment in enumerate(variants):
            logs.append(simulate_scene(scene, assignment, config, vi))
    except TrafficForgeError as exc:
        failures.append((scene.scene_id, f"{type(exc).__name__}: {exc}"))
    return logs, failures
