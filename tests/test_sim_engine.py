"""Scene simulation: kinematics, interactions, determinism, lifecycle."""

import concurrent.futures
import dataclasses
import hashlib
import json
import math
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (GRAPH_ARGS, ROUTE_ARGS, SPAWN_GAP, approach_point,
                     csv_text, four_way_intersection, straight_map,
                     tracklets_doc)

from trafficforge import (behavior, dynamics, geometry, road_graph,
                          scene_ingest, sim_engine, util)
from trafficforge.behavior import BehaviorAssignment, VelocityProfile
from trafficforge.config import SimConfig
from trafficforge.errors import ConfigError
from trafficforge.sim_engine import (AgentLog, SimLog, read_simlog_csv,
                                     run_dataset, simulate_scene)


def _scene_on_straight(agents, length=400.0, lanes=1, oneway=True,
                       n_poses=11):
    g = road_graph.build_graph(straight_map(length, lanes, oneway),
                               **GRAPH_ARGS)
    doc = tracklets_doc("t1", agents, n_poses=n_poses)
    sid, tracks = scene_ingest.load_tracklets(doc)
    return g, scene_ingest.instantiate_agents(g, tracks, 0.0, sid, SPAWN_GAP)


def _const_profile(speed, n=120):
    return VelocityProfile(np.full(n, float(speed)), speed, "straight")


def _assign_straight(graph, scene, speeds):
    out = {}
    for agent in scene.agents:
        routes = road_graph.enumerate_routes(
            graph, agent.lane, **dict(ROUTE_ARGS, horizon_dist=500.0))
        route = next(r for r in routes if r.maneuver == "straight")
        out[agent.agent_id] = BehaviorAssignment(
            agent.agent_id, route, "straight",
            _const_profile(speeds[agent.agent_id]))
    return out


def test_single_agent_constant_speed_displacement():
    g, scene = _scene_on_straight([(1, 5.0, 0.0, 0.0, 10.0)])
    asg = _assign_straight(g, scene, {1: 10.0})
    cfg = SimConfig(master_seed=1, epsilon_std=0.0)
    log = simulate_scene(scene, asg, cfg)
    ag = log.agents[0]
    assert len(ag.t) == cfg.n_steps + 1
    displacement = math.hypot(ag.x[-1] - ag.x[0], ag.y[-1] - ag.y[0])
    assert displacement == pytest.approx(70.0, abs=0.5)
    assert (ag.v >= 0).all()
    assert np.all(np.abs(ag.phi) <= cfg.controller.phi_max + 1e-12)


def test_follower_keeps_safe_gap():
    g, scene = _scene_on_straight([(1, 60.0, 0.0, 0.0, 5.0),
                                   (2, 20.0, 0.0, 0.0, 12.0)])
    asg = _assign_straight(g, scene, {1: 5.0, 2: 15.0})
    cfg = SimConfig(master_seed=3, epsilon_std=0.0)
    log = simulate_scene(scene, asg, cfg)
    lead = next(a for a in log.agents if a.agent_id == 1)
    foll = next(a for a in log.agents if a.agent_id == 2)
    n = min(len(lead.t), len(foll.t))
    gaps = (lead.x[:n] - foll.x[:n]) - 4.5  # bumper-to-bumper, both 4.5 m
    assert gaps.min() > 0.0
    assert gaps.min() >= foll.idm["s0"] - 1e-6
    # the follower had to slow below its 15 m/s wish
    assert foll.v.max() < 15.0


def test_same_seed_bit_identical():
    g, scene = _scene_on_straight([(1, 5.0, 0.0, 0.0, 10.0),
                                   (2, 40.0, 0.0, 0.0, 8.0)])
    asg = _assign_straight(g, scene, {1: 10.0, 2: 8.0})
    cfg = SimConfig(master_seed=11)
    a = simulate_scene(scene, asg, cfg)
    b = simulate_scene(scene, asg, cfg)
    assert csv_text(a) == csv_text(b)
    assert json.dumps(a.sidecar(), sort_keys=True) \
        == json.dumps(b.sidecar(), sort_keys=True)


def test_unknown_assignment_rejected():
    g, scene = _scene_on_straight([(1, 5.0, 0.0, 0.0, 10.0)])
    asg = _assign_straight(g, scene, {1: 10.0})
    asg[99] = asg[1]
    with pytest.raises(ValueError):
        simulate_scene(scene, asg, SimConfig())


def test_missing_assignment_rejected():
    g, scene = _scene_on_straight([(1, 5.0, 0.0, 0.0, 10.0),
                                   (2, 60.0, 0.0, 0.0, 10.0)])
    asg = _assign_straight(g, scene, {1: 10.0, 2: 10.0})
    del asg[2]
    with pytest.raises(ValueError):
        simulate_scene(scene, asg, SimConfig())


def test_exit_removes_agent_from_interaction():
    # leader's route ends 30 m ahead; once it exits the follower speeds up
    g, scene = _scene_on_straight([(1, 370.0, 0.0, 0.0, 10.0),
                                   (2, 340.0, 0.0, 0.0, 10.0)], length=400.0)
    asg = _assign_straight(g, scene, {1: 10.0, 2: 14.0})
    cfg = SimConfig(master_seed=5, epsilon_std=0.0)
    log = simulate_scene(scene, asg, cfg)
    lead = next(a for a in log.agents if a.agent_id == 1)
    foll = next(a for a in log.agents if a.agent_id == 2)
    assert lead.exit_step is not None
    assert len(lead.t) == lead.exit_step + 1
    # after the leader left, the follower is free to accelerate toward 14
    assert foll.v[-1] > foll.v[lead.exit_step] + 0.2
    assert foll.v.max() <= 14.5


def test_static_agent_holds_position():
    g = road_graph.build_graph(straight_map(50.0), **GRAPH_ARGS)
    doc = tracklets_doc("s", [(1, 50.0, 0.0, 0.0, 0.0)], n_poses=1)
    sid, tracks = scene_ingest.load_tracklets(doc)
    scene = scene_ingest.instantiate_agents(g, tracks, 0.0, sid, SPAWN_GAP)
    asg = {1: BehaviorAssignment(1, None, "static", None)}
    log = simulate_scene(scene, asg, SimConfig(master_seed=2))
    ag = log.agents[0]
    assert np.all(ag.x == ag.x[0])
    assert np.all(ag.v == 0.0)
    assert len(ag.t) == 71


def test_timesteps_inclusive_of_initial_state():
    g, scene = _scene_on_straight([(1, 5.0, 0.0, 0.0, 10.0)])
    asg = _assign_straight(g, scene, {1: 10.0})
    cfg = SimConfig(dt=0.1, horizon=7.0)
    log = simulate_scene(scene, asg, cfg)
    assert len(log.agents[0].t) == 71
    assert log.agents[0].t[0] == 0.0
    assert log.agents[0].t[-1] == pytest.approx(7.0)


def test_lane_deviation_bounded(intersection_graph, profile_pool):
    x, y, psi = approach_point(90, 30.0)
    doc = tracklets_doc("d1", [(1, x, y, psi, 9.0)])
    sid, tracks = scene_ingest.load_tracklets(doc)
    scene = scene_ingest.instantiate_agents(intersection_graph, tracks,
                                            0.0, sid, SPAWN_GAP)
    cfg = SimConfig(master_seed=8, epsilon_std=0.0)
    for vi, asg in enumerate(behavior.sample_behaviors(
            scene, profile_pool, 31,
            SimConfig(max_variants=3, profile_noise_std=0.0))):
        log = simulate_scene(scene, asg, cfg, vi)
        for ag in log.agents:
            if not ag.lane_changes:
                table = asg[ag.agent_id].route.table
                assert max(geometry.project_point(table, q)[1]
                           for q in zip(ag.x, ag.y)) \
                    <= cfg.max_lane_deviation


def test_run_dataset_counts_and_parallel_determinism(profile_pool):
    g = road_graph.build_graph(four_way_intersection(), **GRAPH_ARGS)
    scenes = []
    for i, deg in enumerate((0, 90)):
        x, y, psi = approach_point(deg, 30.0 + 4 * i)
        doc = tracklets_doc(f"p{i}", [(1, x, y, psi, 9.0)])
        sid, tracks = scene_ingest.load_tracklets(doc)
        scenes.append(scene_ingest.instantiate_agents(g, tracks, 0.0, sid,
                                                      SPAWN_GAP))
    cfg = SimConfig(master_seed=17, max_variants=3)
    seq_logs, seq_fail = run_dataset(scenes, profile_pool, cfg, jobs=1)
    par_logs, par_fail = run_dataset(scenes, profile_pool, cfg, jobs=4)
    assert not seq_fail and not par_fail
    assert len(seq_logs) == 6  # both scenes admit all three maneuvers
    assert [csv_text(l) for l in seq_logs] == \
        [csv_text(l) for l in par_logs]


def test_map_tasks_starts_no_more_workers_than_tasks(monkeypatch):
    # a fork start forks every worker at the first submit, so a pool of
    # --jobs workers over 3 scenes would fork all of them; the recording
    # pool below runs the tasks in this process and starts none
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    assert util.map_tasks(str, [1, 2, 3], 10 ** 6) == ["1", "2", "3"]
    assert sizes == [3]


def test_run_dataset_dedupes_forced_variants(profile_pool):
    g, scene = _scene_on_straight([(1, 5.0, 0.0, 0.0, 10.0)])
    logs, failures = run_dataset([scene], profile_pool,
                                 SimConfig(master_seed=1, max_variants=3))
    assert not failures
    assert len(logs) == 1  # single admissible behavior


def test_run_dataset_records_failures_and_continues(profile_pool):
    from trafficforge.behavior import ProfilePool
    g, good = _scene_on_straight([(1, 5.0, 0.0, 0.0, 10.0)])
    bad = _scene_on_straight([(1, 5.0, 0.0, 0.0, 10.0)])[1]
    bad.scene_id = "bad"
    empty_pool = ProfilePool([], 0.1)  # lookup fails for every label
    logs, failures = run_dataset([bad, good], empty_pool,
                                 SimConfig(master_seed=1))
    assert len(logs) == 0 and len(failures) == 2
    # mixed pool: the straight-only pool works for straight scenes
    logs, failures = run_dataset([good], profile_pool, SimConfig(master_seed=1))
    assert len(logs) == 1 and not failures


def test_scene_worker_records_only_typed_failures(profile_pool,
                                                  monkeypatch):
    g, scene = _scene_on_straight([(1, 5.0, 0.0, 0.0, 10.0)])
    cfg = SimConfig(master_seed=1)

    def fail_with(exc):
        def simulate(*args, **kwargs):
            raise exc
        monkeypatch.setattr(sim_engine, "simulate_scene", simulate)

    fail_with(ConfigError(["bad scene"]))
    logs, failures = run_dataset([scene], profile_pool, cfg)
    assert logs == [] and failures == [("t1", "ConfigError: bad scene")]
    # a programmer error is not a scene failure: it propagates
    for bug in (TypeError("bug"), ValueError("bug")):
        fail_with(bug)
        with pytest.raises(type(bug), match="bug"):
            run_dataset([scene], profile_pool, cfg)


def test_run_dataset_propagates_an_assignment_bug(profile_pool,
                                                  monkeypatch):
    """An assignment that misses an agent is a bug in the sampler, not a
    scene failure: run_dataset raises it."""
    g, scene = _scene_on_straight([(1, 5.0, 0.0, 0.0, 10.0),
                                   (2, 60.0, 0.0, 0.0, 10.0)])
    sample = behavior.sample_behaviors

    def dropping_agent_2(*args, **kwargs):
        variants = sample(*args, **kwargs)
        for assignment in variants:
            del assignment[2]
        return variants

    monkeypatch.setattr(behavior, "sample_behaviors", dropping_agent_2)
    with pytest.raises(ValueError,
                       match="agent 2 has no behavior assignment"):
        run_dataset([scene], profile_pool, SimConfig(master_seed=1))


def test_csv_roundtrip(tmp_path):
    """A log read back from its CSV and sidecar is the simulated log in
    every field but ``t``, which the CSV writes with 3 decimals. The
    scene, three agents per lane of a short 3-lane road with a slow
    right-lane head, changes lanes and drives agents off the road's
    end."""
    agents, speeds = [], {}
    for lane, (y, v) in enumerate(((-3.5, 9.0), (0.0, 14.0), (3.5, 18.0))):
        for k in range(3):
            aid = 3 * lane + k + 1
            agents.append((aid, 10.0 + 25.0 * k + 7.0 * lane, y, 0.0, v))
            speeds[aid] = 6.0 if aid == 3 else v + 2.0
    g, scene = _scene_on_straight(agents, length=150.0, lanes=3)
    log = simulate_scene(scene, _assign_straight(g, scene, speeds),
                         SimConfig(master_seed=4))
    assert any(ag.lane_changes for ag in log.agents)
    assert any(ag.exit_step is not None for ag in log.agents)
    path = tmp_path / "log.csv"
    with open(path, "w") as fh:
        log.write_csv(fh)
    back = read_simlog_csv(path, log.sidecar())
    want = dataclasses.replace(log, agents=[dataclasses.replace(
        ag, t=np.array([float(f"{t:.3f}") for t in ag.t]))
        for ag in log.agents])
    _assert_same_log(back, want)


_VALUES = ("t", "x", "y", "v", "psi", "a", "phi")
_HEADER = ("scene_id", "variant", "agent_id") + _VALUES + ("label",)
_CONTROL = "\x1c\x1d\x1e\x1f"   # numpy strips these around a number


def _loadtxt_field(text, dtype, message):
    """``text`` as ``np.loadtxt`` reads one field of ``dtype``, as a
    Python number; ``ValueError(message)`` if it does not, or if the
    field holds a control character that numpy would strip."""
    try:
        if any(c in text for c in _CONTROL):
            raise ValueError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt([text], dtype=dtype, delimiter=",",
                              comments=None).item()
    except (ValueError, Warning):
        raise ValueError(f"{message}: {text!r}") from None


def _row_loop_read_simlog_csv(csv_path, sidecar):
    """The row-by-row reader the bulk parse replaced, kept as its oracle,
    with each number field read alone by ``np.loadtxt``, and the scene
    and the variant taken from the sidecar."""
    per_agent = {}
    scene_id, variant = sidecar["scene_id"], sidecar["variant"]
    header = ",".join(_HEADER)
    with open(csv_path) as fh:
        got = fh.readline().strip()
        if got != header:
            raise ConfigError([f"simulation log {csv_path} line 1: the "
                               f"header must be {header!r}, got {got!r}"])
        for line_no, line in enumerate(fh, 2):
            line = line.rstrip("\n")
            f = line.split(",")
            try:
                named = _loadtxt_field(
                    f[1], "i8", "invalid literal for int() with base 10")
                aid = _loadtxt_field(
                    f[2], "i8", "invalid literal for int() with base 10")
                rec = per_agent.get(aid)
                if rec is None:
                    rec = per_agent[aid] = {"label": f[10], "rows": []}
                row = [_loadtxt_field(f[k], "f8",
                                      "could not convert string to float")
                       for k in range(3, 10)]
                if not all(map(math.isfinite, row)):
                    raise ValueError(f"non-finite value in {row}")
                for name, value in (("x", row[1]), ("y", row[2])):
                    if abs(value) > 2_000_000:   # twice the map bound
                        raise ValueError(
                            f"{name!r} must be a finite number >= -2000000 "
                            f"and <= 2000000, got {value!r}")
                if any(c in line for c in _CONTROL):
                    raise ValueError(f"control character in {line!r}")
                if (f[0], named) != (scene_id, variant):
                    raise ValueError(
                        f"every line must name the sidecar's scene "
                        f"{scene_id!r} and variant {variant}, got "
                        f"{f[0]!r} and {named}")
                rec["rows"].append(row)
            except (IndexError, ValueError) as exc:
                raise ConfigError([f"simulation log {csv_path} line "
                                   f"{line_no}: {type(exc).__name__}: {exc}"]
                                  ) from exc
    if not per_agent:
        raise ConfigError([f"simulation log {csv_path}: no data rows"])
    side_agents = {a["agent_id"]: a for a in sidecar.get("agents", [])}
    agents = []
    for aid in sorted(per_agent):
        rows = np.asarray(per_agent[aid]["rows"])
        meta = side_agents.get(aid)
        if meta is None:
            raise ConfigError([f"simulation log {csv_path}: agent {aid} has "
                               f"no entry in the sidecar's agents"])
        agents.append(AgentLog(
            agent_id=aid, label=per_agent[aid]["label"],
            route_edges=meta.get("route_edges", []),
            idm=meta.get("idm", {}), epsilon=meta.get("epsilon", 0.0),
            exit_step=meta.get("exit_step"),
            t=rows[:, 0], x=rows[:, 1], y=rows[:, 2], v=rows[:, 3],
            psi=rows[:, 4], a=rows[:, 5], phi=rows[:, 6],
            lane_changes=[(c["step"], c["from_edge"], c["to_edge"])
                          for c in meta.get("lane_changes", [])],
        ))
    return SimLog(scene_id, variant, float(sidecar["dt"]),
                  sidecar["master_seed"], sidecar["config_digest"], agents)


_number = st.one_of(st.floats(-1e6, 1e6), st.integers(-5, 5).map(float),
                    st.just(-0.0))
_label = st.sampled_from(["straight", "left", "right", " right", "", "a b"])
# ways to write one number that int(), float() and numpy read as written
_SPELLINGS = ("{}", " {}", "{} ", "\t{}", "{}\x0b")
# a field each reader may take differently: rejected by one or both,
# non-finite, or read by int()/float() but not by numpy (underscores,
# non-ASCII digits, huge integers), a control character numpy strips, a
# variant past a u32, or an x or y on or past its bound
_ODD_FIELDS = ("nan", "inf", "-inf", "1e400", "-1e400", "x", "", " ",
               "\x1c1", "1\x1f", "a\x1eb", "1_0", "3.0", "+3", "1e3",
               "0x10", ".5", "99999999999999999999", "１", "-1",
               "4294967295", "4294967296", "2e6", "-2000000.5")


# the scene and the variant of the drawn log, shared by its CSV text and
# its sidecar
_identity = st.shared(st.tuples(st.sampled_from(["s1", "scene 7"]),
                                st.integers(0, 4)), key="log identity")


@st.composite
def _log_text(draw):
    """CSV text of a log: the header as written, agents with interleaved
    or single rows, numbers written in several ways, and at most one
    fault: an odd field, a short row, a blank line, a missing column, a
    moved or extra one, a row of another scene or variant, or no rows at
    all. Lines end in LF or CRLF."""
    header = list(_HEADER)
    fault = draw(st.sampled_from(["none", "field", "short", "blank",
                                  "column", "layout", "mixed", "no rows"]))
    if fault == "layout":
        header = draw(st.sampled_from([
            header[1:] + header[:1], draw(st.permutations(header)),
            header + ["note"], ["extra"] + header]))
    scene, variant = draw(_identity)
    n_rows = 0 if fault == "no rows" else draw(st.integers(1, 12))
    rows = []
    t = 0.0
    for _ in range(n_rows):
        cells = {"scene_id": scene, "label": draw(_label)}
        cells["variant"] = draw(st.sampled_from(_SPELLINGS)).format(variant)
        cells["agent_id"] = draw(st.sampled_from(_SPELLINGS)).format(
            draw(st.integers(-2, 4)))
        t += draw(st.sampled_from([0.1, 0.0, -0.1, 0.25]))
        for c in _VALUES:
            value = f"{t:.3f}" if c == "t" else repr(draw(_number))
            cells[c] = draw(st.sampled_from(_SPELLINGS)).format(value)
        rows.append([cells.get(c, "e") for c in header])
    if rows and fault in ("field", "short", "blank", "mixed"):
        k = draw(st.integers(0, len(rows) - 1))
        if fault == "mixed":
            column, other = draw(st.sampled_from([
                (0, scene + "x"), (0, ""),
                (1, str(variant + 1)), (1, f" {variant}")]))
            rows[k][column] = other
        elif fault == "blank":
            rows.insert(draw(st.integers(0, len(rows))), [""])
        elif fault == "field":
            rows[k][draw(st.integers(0, len(header) - 1))] = \
                draw(st.sampled_from(_ODD_FIELDS))
        elif fault == "short":
            cut = draw(st.one_of(st.just(len(header) - 1),
                                 st.integers(0, len(header) - 1)))
            rows[k] = rows[k][:cut]
    if fault == "column":
        header.remove(draw(st.sampled_from(_HEADER)))
    lines = [",".join(header)] + [",".join(row) for row in rows]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


def _outcome(read, path, sidecar):
    try:
        return read(path, sidecar)
    except ConfigError as exc:
        return str(exc)


def _assert_same_log(got, want):
    for f in dataclasses.fields(SimLog):
        if f.name != "agents":
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert type(a) is type(b) and repr(a) == repr(b), f.name
    assert len(got.agents) == len(want.agents)
    for ga, wa in zip(got.agents, want.agents):
        for f in dataclasses.fields(AgentLog):
            a, b = getattr(ga, f.name), getattr(wa, f.name)
            if isinstance(b, np.ndarray):
                assert (a.dtype, a.shape, a.tobytes()) \
                    == (b.dtype, b.shape, b.tobytes()), f.name
            else:
                assert type(a) is type(b) and a == b, f.name


_ROW = "s1,0,1,0.000,1.0,2.0,3.0,0.0,0.0,0.0,straight"
_SCENE_LAST = ",".join(_HEADER[1:] + _HEADER[:1])
# logs that an earlier, looser reader took, and the line that now fails
_REFUSED = {
    "scene-last": (f"{_SCENE_LAST}\n{_ROW[3:]},s1\n", 1),
    "extra-column": (",".join(_HEADER) + f",note\n{_ROW},n\n", 1),
    "underscore": (",".join(_HEADER) + f"\n{_ROW}\n"
                   + _ROW.replace("2.0", "2_0") + "\n", 3),
    "full-width-digit": (",".join(_HEADER) + "\n"
                         + _ROW.replace("1.0", "\uff11") + "\n", 2),
    "20-digit-variant": (",".join(_HEADER) + "\n"
                         + _ROW.replace("s1,0,", "s1," + "9" * 20 + ",")
                         + "\n", 2),
    "control-in-label": (",".join(_HEADER) + f"\n{_ROW}\n{_ROW}\x1c\n", 3),
    "variant-minus-1": (",".join(_HEADER) + f"\n{_ROW}\n"
                        + _ROW.replace("s1,0,", "s1,-1,") + "\n", 3),
    "second-scene": (",".join(_HEADER) + f"\n{_ROW}\nzz{_ROW[2:]}\n", 3),
    "second-variant": (",".join(_HEADER) + f"\n{_ROW}\n"
                       + _ROW.replace("s1,0,", "s1,1,") + "\n", 3),
}
# _ROW's scene and variant, and an entry for every agent id _log_text
# writes
_SIDECAR = {"scene_id": "s1", "variant": 0, "dt": 0.1, "master_seed": 0,
            "config_digest": "",
            "agents": [{"agent_id": aid} for aid in range(-2, 5)]}


@st.composite
def _sidecars(draw):
    """One of two sidecars, naming the drawn log's scene and variant or,
    two times in five, another scene or another variant."""
    scene, variant = draw(_identity)
    other = draw(st.sampled_from([None, None, None, "scene", "variant"]))
    if other == "scene":
        scene = "scene 7" if scene == "s1" else "s1"
    elif other == "variant":
        variant += 1
    return {**draw(st.sampled_from([_SIDECAR, {
        "dt": 0.2, "master_seed": 5, "config_digest": "0123abcd", "agents": [
            {"agent_id": 1, "exit_step": 4, "lane_changes": [
                {"step": 2, "from_edge": 0, "to_edge": 1}]}]}])),
        "scene_id": scene, "variant": variant}


@settings(max_examples=600, deadline=None)
@given(_log_text(), _sidecars())
# one agent without a sidecar entry
@example(",".join(_HEADER) + f"\n{_ROW}\n{_ROW.replace(',1,', ',2,')}\n",
         {**_SIDECAR, "agents": [{"agent_id": 1}]})
# each case below is one that numpy reads and the row loop rejects
@example(",".join(_HEADER) + f"\n{_ROW}\n{_ROW.replace(',1,', ',2,')[:-9]}\n",
         _SIDECAR)                                     # no label, agent 2
@example(f"{_SCENE_LAST}\n{_ROW[3:]}\n", _SIDECAR)    # scene column moved
@example(",".join(_HEADER) + f"\n{_ROW.replace('1.0', chr(0x1c) + '1')}\n",
         _SIDECAR)                                     # numpy-only space
@example(",".join(_HEADER) + f"\n{_ROW.replace('1.0', 'nan')}\n", _SIDECAR)
@example(",".join(_HEADER) + f"\n{_ROW}\n\n", _SIDECAR)  # blank last line
@example(",".join(_HEADER) + "\n\n", _SIDECAR)        # only a blank line
# each case below is one that an earlier reader took: each is refused
@example(_REFUSED["scene-last"][0], _SIDECAR)
@example(_REFUSED["extra-column"][0], _SIDECAR)
@example(_REFUSED["underscore"][0], _SIDECAR)
@example(_REFUSED["full-width-digit"][0], _SIDECAR)
@example(_REFUSED["20-digit-variant"][0], _SIDECAR)
@example(_REFUSED["control-in-label"][0], _SIDECAR)
@example(_REFUSED["variant-minus-1"][0], _SIDECAR)
@example(_REFUSED["second-scene"][0], _SIDECAR)
@example(_REFUSED["second-variant"][0], _SIDECAR)
# a log read with another log's sidecar
@example(",".join(_HEADER) + f"\n{_ROW}\n", {**_SIDECAR, "scene_id": "s2"})
@example(",".join(_HEADER) + f"\n{_ROW}\n", {**_SIDECAR, "variant": 1})
def test_bulk_csv_reader_matches_row_loop(text, sidecar):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "log.csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = _outcome(read_simlog_csv, path, sidecar)
        assert caught == []  # nothing from numpy, e.g. "no data"
        want = _outcome(_row_loop_read_simlog_csv, path, sidecar)
    if isinstance(want, str):
        assert got == want
    else:
        _assert_same_log(got, want)


@pytest.mark.parametrize("case", sorted(_REFUSED))
def test_reader_refuses_what_it_once_took(tmp_path, case):
    text, line_no = _REFUSED[case]
    path = tmp_path / "log.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(
            f"simulation log {path} line {line_no}: ")):
        read_simlog_csv(path, _SIDECAR)


@pytest.mark.parametrize("bad, message", [
    ("nan", "ValueError: non-finite value in [255.6, nan, "),
    ("2.0x", "ValueError: could not convert string to float: '2.0x'"),
])
def test_checker_reads_a_long_log_a_chunk_at_a_time(tmp_path, monkeypatch,
                                                     bad, message):
    # 2,557 good lines, then one that breaks a rule: the checker reads
    # whole chunks of lines per np.loadtxt call, and single fields only in
    # the chunk that holds the bad line, where a call per field of every
    # line would make over 23,000 calls
    rows = [f"s1,0,{k % 5},{k * 0.1:.3f},1.0,2.0,3.0,0.0,0.0,0.0,straight"
            for k in range(2557)]
    rows.append(rows[-1].replace(",1.0,2.0,", f",{bad},2.0,"))
    path = tmp_path / "log.csv"
    path.write_text("\n".join([",".join(_HEADER)] + rows) + "\n")
    calls = []
    loadtxt = sim_engine._loadtxt

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(sim_engine, "_loadtxt", counting)
    with pytest.raises(ConfigError, match=re.escape(
            f"simulation log {path} line 2559: {message}")):
        read_simlog_csv(path, _SIDECAR)
    assert len(calls) < 1000


def test_replay_mode_follows_tracklet():
    g = road_graph.build_graph(straight_map(400.0), **GRAPH_ARGS)
    doc = tracklets_doc("r1", [(1, 5.0, 0.0, 0.0, 6.0),
                               (2, 100.0, 0.0, 0.0, 10.0)], n_poses=80)
    sid, tracks = scene_ingest.load_tracklets(doc)
    scene = scene_ingest.instantiate_agents(g, tracks, 0.0, sid, SPAWN_GAP)
    asg = _assign_straight(g, scene, {1: 10.0, 2: 10.0})
    del asg[1]  # the ego (lowest id) is replayed
    cfg = SimConfig(master_seed=6, ego_mode="replay")
    log = simulate_scene(scene, asg, cfg)
    ego = next(a for a in log.agents if a.agent_id == 1)
    assert ego.label == "replay"
    np.testing.assert_allclose(ego.x, 5.0 + 6.0 * ego.t, atol=1e-9)


def test_replay_non_finite_position_raises():
    # a corrupt replay pose is a data error, not the ego leaving the map
    g = road_graph.build_graph(straight_map(400.0), **GRAPH_ARGS)
    doc = tracklets_doc("r2", [(1, 5.0, 0.0, 0.0, 6.0),
                               (2, 100.0, 0.0, 0.0, 10.0)], n_poses=80)
    sid, tracks = scene_ingest.load_tracklets(doc)
    # load_tracklets rejects a non-finite pose, so corrupt the loaded one
    doc["tracks"][0]["poses"][30]["x"] = float("nan")
    with pytest.raises(ConfigError,
                       match="pose 30: 'x' must be a finite number.*got nan"):
        scene_ingest.load_tracklets(doc)
    tracks[0].xy[30, 0] = float("nan")
    scene = scene_ingest.instantiate_agents(g, tracks, 0.0, sid, SPAWN_GAP)
    asg = _assign_straight(g, scene, {1: 10.0, 2: 10.0})
    del asg[1]
    with pytest.raises(ValueError, match="finite"):
        simulate_scene(scene, asg, SimConfig(master_seed=6, ego_mode="replay"))


def test_replayed_ego_follows_t0():
    """The replayed ego takes its tracklet's pose at ``t0`` plus the
    elapsed time: from ``t0`` 2.0 it drives on from where ingest placed
    it (x 17.0, then 17.6), as it does from ``t0`` 0.0 (x 5.0, then
    5.6)."""
    g = road_graph.build_graph(straight_map(400.0), **GRAPH_ARGS)
    doc = tracklets_doc("r3", [(1, 5.0, 0.0, 0.0, 6.0),
                               (2, 100.0, 0.0, 0.0, 10.0)], n_poses=100)
    sid, tracks = scene_ingest.load_tracklets(doc)
    cfg = SimConfig(master_seed=6, ego_mode="replay")
    for t0 in (0.0, 2.0):
        scene = scene_ingest.instantiate_agents(g, tracks, t0, sid, SPAWN_GAP)
        asg = _assign_straight(g, scene, {1: 10.0, 2: 10.0})
        del asg[1]
        ego = simulate_scene(scene, asg, cfg).agents[0]
        assert ego.exit_step is None and len(ego.t) == 71
        np.testing.assert_allclose(ego.x, 5.0 + 6.0 * (t0 + ego.t),
                                   atol=1e-9)
        np.testing.assert_allclose(ego.v, 6.0, atol=1e-9)


@pytest.mark.parametrize("t0,exit_step", [(0.0, 10), (0.5, 5)])
def test_replayed_ego_leaves_when_its_tracklet_ends(t0, exit_step):
    """A 1 s tracklet (11 poses) over a 7 s horizon: the replayed ego
    logs its poses from ``t0`` to the last one, and leaves at the step
    at which its tracklet has no next pose, as an ego that leaves the
    map does; the car ahead drives the whole horizon."""
    g = road_graph.build_graph(straight_map(400.0), **GRAPH_ARGS)
    doc = tracklets_doc("r4", [(1, 5.0, 0.0, 0.0, 6.0)], n_poses=11)
    doc["tracks"] += tracklets_doc("r4", [(2, 100.0, 0.0, 0.0, 10.0)],
                                   n_poses=80)["tracks"]
    sid, tracks = scene_ingest.load_tracklets(doc)
    scene = scene_ingest.instantiate_agents(g, tracks, t0, sid, SPAWN_GAP)
    asg = _assign_straight(g, scene, {1: 10.0, 2: 10.0})
    del asg[1]
    ego, ahead = simulate_scene(
        scene, asg, SimConfig(master_seed=6, ego_mode="replay")).agents
    assert ego.exit_step == exit_step
    assert len(ego.t) == exit_step + 1
    np.testing.assert_allclose(ego.x, 5.0 + 6.0 * (t0 + ego.t), atol=1e-9)
    assert ego.x[-1] == pytest.approx(11.0)
    assert ahead.exit_step is None and len(ahead.t) == 71


def test_replay_snaps_with_the_scene_limit():
    """A replayed ego drifting 2 m/s sideways off a straight lane leaves
    the map once it is farther from the lane than the snap limit of the
    graph it was placed on."""
    psi = math.atan2(2.0, 8.0)
    doc = tracklets_doc("drift", [(1, 20.0, 0.1, psi, math.hypot(8.0, 2.0))],
                        n_poses=101)
    sid, tracks = scene_ingest.load_tracklets(doc)
    cfg = SimConfig(master_seed=6, ego_mode="replay", horizon=10.0)
    exits = []
    for limit in (10.0, 12.0, 14.0):
        g = road_graph.build_graph(
            straight_map(400.0), **dict(GRAPH_ARGS, max_snap_distance=limit))
        scene = scene_ingest.instantiate_agents(g, tracks, 0.0, sid, SPAWN_GAP)
        (ego,) = simulate_scene(scene, {}, cfg).agents
        exits.append(ego.exit_step)
    # the ego is 0.1 + 0.2 k m off the lane at step k
    assert exits == [50, 60, 70]


@pytest.mark.parametrize("ids", [(None, None), (0, 0)])
def test_parallel_roads_are_not_neighbor_lanes(ids):
    """Lane-change neighbours are the lanes of one centerline entry: two
    one-way roads 40 m apart are not, with no ids or with one shared id,
    so a fast agent stuck behind a slow one stays on its road."""
    spec = {"centerlines": [{"points": [[0.0, y], [400.0, y]]}
                            for y in (0.0, 40.0)]}
    for cl, cid in zip(spec["centerlines"], ids):
        if cid is not None:
            cl["id"] = cid
    g = road_graph.build_graph(spec, **GRAPH_ARGS)
    assert [(e.left_neighbor, e.right_neighbor) for e in g.edges.values()] \
        == [(None, None), (None, None)]
    sid, tracks = scene_ingest.load_tracklets(tracklets_doc(
        "t1", [(1, 60.0, 0.0, 0.0, 5.0), (2, 20.0, 0.0, 0.0, 12.0)]))
    scene = scene_ingest.instantiate_agents(g, tracks, 0.0, sid, SPAWN_GAP)
    log = simulate_scene(scene, _assign_straight(g, scene, {1: 5.0, 2: 15.0}),
                         SimConfig(master_seed=3))
    for ag in log.agents:
        assert ag.lane_changes == []
        assert np.abs(ag.y).max() < 0.5


def _three_lane_mobil_inputs():
    # 4 agents per lane of a straight 3-lane one-way road; the head of the
    # right lane wants 6 m/s, so its followers and the faster lanes give
    # MOBIL both incentives to change and lanes worth keeping.
    agents, speeds = [], {}
    for lane, (y, v_now, v_want) in enumerate(((-3.5, 9.0, 14.0),
                                               (0.0, 14.0, 16.0),
                                               (3.5, 18.0, 20.0))):
        for k in range(4):
            aid = lane * 4 + k + 1
            agents.append((aid, 10.0 + 25.0 * k + 7.0 * lane, y, 0.0, v_now))
            speeds[aid] = 6.0 if (lane, k) == (0, 3) else v_want
    g, scene = _scene_on_straight(agents, length=600.0, lanes=3)
    asg = _assign_straight(g, scene, speeds)
    return scene, asg, SimConfig(master_seed=21, max_variants=1)


def test_mobil_lane_changes_pinned():
    """MOBIL-path output is pinned, not only compared run against run."""
    log = simulate_scene(*_three_lane_mobil_inputs())
    changes = [c for ag in log.agents for c in ag.lane_changes]
    assert len(changes) >= 1
    csv_sha = hashlib.sha256(csv_text(log).encode()).hexdigest()
    side_sha = hashlib.sha256(
        json.dumps(log.sidecar(), sort_keys=True).encode()).hexdigest()
    assert csv_sha == \
        "9249ab3037210b055c3f81200085c470b985c10813100266de0896762b7625b2"
    assert side_sha == \
        "882028e60885075c06fb9899c5d00b6ef803a8243043e813b0b27a9a1466002e"


def test_step_memo_matches_fresh_accelerations(monkeypatch):
    """The step's memo of ranked searches feeds MOBIL the accelerations
    computed afresh, with every agent simulated and with the lowest id
    replayed, which MOBIL then reads as a follower."""
    scene, asg, cfg = _three_lane_mobil_inputs()
    # desired speeds that change every step, so an agent's v0 when an
    # earlier subject reads it differs from its own decision's
    t = np.arange(120) * 0.1
    for aid, a in asg.items():
        v = a.profile.feature
        asg[aid] = BehaviorAssignment(
            aid, a.route, a.label,
            VelocityProfile(v + 2.0 * np.sin(t + aid), v, a.label))
    decide = dynamics.mobil_decide
    snapshot = dynamics.Snapshot
    snapshots = []      # the step's snapshot is the last one made

    def recording_snapshot(coords):
        snapshots.append(snapshot(coords))
        return snapshots[-1]

    def run(accel, cfg):
        inputs, accels = [], []

        def recording(params, *args):
            inputs.append(args)
            return decide(params, *args)

        def recorded_accel(run, config, searches, moved=None):
            acc = accel(run, config, searches, moved)
            accels.append((run.agent_id, run.replay, moved, acc))
            return acc

        monkeypatch.setattr(dynamics, "mobil_decide", recording)
        monkeypatch.setattr(dynamics, "Snapshot", recording_snapshot)
        monkeypatch.setattr(sim_engine, "_accel", recorded_accel)
        csv = csv_text(simulate_scene(scene, asg, cfg))
        return inputs, accels, hashlib.sha256(csv.encode()).hexdigest()

    def fresh(run, config, searches, moved=None):
        # every base and what-if acceleration through find_leader, the
        # replayed ego's along the one-edge route of its lane
        route = run.route if run.route is not None else road_graph.Route(
            scene.graph, [run.lane.edge_id], run.lane, True)
        lead = dynamics.find_leader(snapshots[-1], run.agent_id, route,
                                    config.sensing_range, moved)
        return dynamics.idm_accel(run.idm, lead, run.state.v,
                                  config.controller.a_max_decel)

    for ego_mode in ("simulate", "replay"):
        mode_cfg = dataclasses.replace(cfg, ego_mode=ego_mode)
        memo_inputs, memo_accels, memo_csv = run(sim_engine._accel, mode_cfg)
        fresh_inputs, fresh_accels, fresh_csv = run(fresh, mode_cfg)
        assert len(memo_inputs) > 100
        assert sum(moved is not None for *_, moved, _ in memo_accels) > 500
        assert any(replay for _, replay, *_ in memo_accels) \
            == (ego_mode == "replay")
        assert memo_inputs == fresh_inputs
        assert memo_accels == fresh_accels
        assert memo_csv == fresh_csv


def _eager_mobil(graph, run, snapshot, by_id, ac_old, config, sides, seen):
    """Every side's six MOBIL terms, all computed before any test.

    Returns the subject's ``ac_old`` and, per side, ``(neighbor, route,
    stage, decision)``: ``decision`` is ``mobil_decide``'s ("keep"
    without a route), and ``stage`` how far a lazy pass gets: 0 if the
    lane ends abeam or the new follower's safety test fails, 1 if it
    builds routes, 2 if it also passes the subject's safety test.
    """
    def accel(agent, params, route, moved=None):
        lead = dynamics.find_leader(snapshot, agent.agent_id, route,
                                    config.sensing_range, moved)
        return dynamics.idm_accel(params, lead, agent.state.v,
                                  config.controller.a_max_decel)

    def follower(aid, moved):
        if aid is None:
            return 0.0, 0.0
        f = by_id[aid]
        if f.route is not None:
            return accel(f, f.idm, f.route), accel(f, f.idm, f.route, moved)
        if not f.replay:
            return 0.0, 0.0    # parked
        # the replayed ego, along its own edge at its own speed
        seen["ego_follower"] += 1
        route = road_graph.Route(graph, [f.lane.edge_id], f.lane, True)
        params = dataclasses.replace(
            f.idm, v0=max(f.state.v, sim_engine.V0_FLOOR))
        return accel(f, params, route), accel(f, params, route, moved)

    eid, arc = run.route.edge_at(run.s)
    edge = graph.edges[eid]
    ao_old, ao_new = follower(
        dynamics.nearest_behind(snapshot, eid, arc, run.agent_id),
        (run.agent_id, None))
    out = []
    for nb, mobil in zip((edge.right_neighbor, edge.left_neighbor), sides):
        if nb is None:
            continue
        lane = graph.edges[nb]
        coord = road_graph.lane_coordinate(graph, nb, run.state.position)
        moved = (run.agent_id, (nb, coord.arc_s, run.state.v, run.geom.L))
        an_old, an_new = follower(
            dynamics.nearest_behind(snapshot, nb, coord.arc_s, run.agent_id),
            moved)
        on_lane = coord.arc_s < lane.length - 1e-6
        stage = int(on_lane and an_new - an_old > -mobil.b_safe)
        routes = (_ENUMERATE(graph, coord, config.horizon_dist,
                             config.max_routes) if on_lane else [])
        same = [r for r in routes if r.maneuver == run.label]
        route = (same or routes or [None])[0]
        decision = "keep"
        if route is not None:
            ac_new = accel(run, run.idm, route, moved)
            stage += stage and ac_new - ac_old > -mobil.b_safe
            decision = _DECIDE(mobil, ac_old, ac_new, an_old, an_new,
                               ao_old, ao_new)
        out.append((nb, route, stage, decision))
    return accel(run, run.idm, run.route), out


_ENUMERATE = road_graph.enumerate_routes
_DECIDE = dynamics.mobil_decide


def _random_three_lane_inputs(seed):
    """A randomized 3-lane scene: 2-5 drivers a lane at random gaps and
    speeds, and a replayed ego (agent 1) among the cars of one lane,
    standing for the whole 7 s horizon, so that the others pass it."""
    rng = np.random.default_rng(seed)
    ego_lane = int(rng.integers(3))
    agents, speeds = [], {}
    for lane, y in enumerate((-3.5, 0.0, 3.5)):
        n = int(rng.integers(2, 6))
        ego_slot = int(rng.integers(n + 1)) if lane == ego_lane else -1
        x = float(rng.uniform(0.0, 20.0))
        for k in range(n + (lane == ego_lane)):
            aid = 1 if k == ego_slot else len(speeds) + 2
            v = float(rng.uniform(4.0, 20.0))
            agents.append((aid, x, y, 0.0, 0.0 if aid == 1 else v))
            if aid != 1:
                speeds[aid] = float(rng.uniform(3.0, 22.0))
            x += float(rng.uniform(9.0, 40.0))
    g, scene = _scene_on_straight(agents, length=600.0, lanes=3, n_poses=71)
    asg = _assign_straight(g, scene, {**speeds, 1: 0.0})
    del asg[1]
    return scene, asg, SimConfig(master_seed=seed, max_variants=1,
                                 ego_mode="replay")


_MOBIL_SCENES = [_three_lane_mobil_inputs] + [
    (lambda seed=seed: _random_three_lane_inputs(seed)) for seed in range(4)]


@pytest.mark.parametrize("inputs", _MOBIL_SCENES,
                         ids=["three_lane"] + [f"random{k}" for k in range(4)])
def test_lazy_mobil_matches_eager_oracle(monkeypatch, inputs):
    """Per subject and side, the lazy MOBIL decides as ``mobil_decide``
    over all six terms, and builds a route only for the sides that pass
    the new follower's safety test."""
    counts = {"routes": 0, "decisions": 0}
    seen = {"follower_vetoes": 0, "subject_vetoes": 0, "changes": 0,
            "ego_follower": 0}

    def counting(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    lazy = sim_engine._consider_lane_change

    def checked(graph, run, snapshot, by_id, ac_old, config, sides,
                searches):
        base, eager = _eager_mobil(graph, run, snapshot, by_id, ac_old,
                                   config, sides, seen)
        assert base == ac_old
        counts.update(routes=0, decisions=0)
        got = lazy(graph, run, snapshot, by_id, ac_old, config, sides,
                   searches)
        # the lazy pass stops at the first side that changes
        accepted = next((k for k, side in enumerate(eager)
                         if side[3] == "change"), None)
        evaluated = eager if accepted is None else eager[:accepted + 1]
        if accepted is None:
            assert got is None
        else:
            nb, route = eager[accepted][:2]
            eid = run.route.edge_at(run.s)[0]
            assert (got[0].edge_ids, got[1], got[2]) == \
                (route.edge_ids, eid, nb)
        stages = [side[2] for side in evaluated]
        assert counts["routes"] == sum(stage >= 1 for stage in stages)
        assert counts["decisions"] == stages.count(2)
        seen["follower_vetoes"] += stages.count(0)
        seen["subject_vetoes"] += stages.count(1)
        seen["changes"] += got is not None
        return got

    monkeypatch.setattr(road_graph, "enumerate_routes",
                        counting(_ENUMERATE, "routes"))
    monkeypatch.setattr(dynamics, "mobil_decide",
                        counting(_DECIDE, "decisions"))
    monkeypatch.setattr(sim_engine, "_consider_lane_change", checked)
    simulate_scene(*inputs())
    assert seen["follower_vetoes"] and seen["subject_vetoes"] \
        and seen["changes"]
    # the random scenes put their replayed ego behind target gaps
    assert seen["ego_follower"] or inputs is _three_lane_mobil_inputs


@pytest.mark.parametrize("lanes", [1, 3])
def test_mobil_entered_only_beside_a_neighbor_lane(monkeypatch, lanes):
    """The lane-change check runs only for agents on an edge with a
    neighbor lane: never on a one-lane road."""
    g, scene = _scene_on_straight([(1, 60.0, 0.0, 0.0, 5.0),
                                   (2, 20.0, 0.0, 0.0, 12.0)], lanes=lanes)
    asg = _assign_straight(g, scene, {1: 5.0, 2: 15.0})
    entered = []
    consider = sim_engine._consider_lane_change

    def counted(graph, run, snapshot, *args):
        edge = graph.edges[snapshot.coords[run.agent_id][0]]
        entered.append((edge.left_neighbor, edge.right_neighbor))
        return consider(graph, run, snapshot, *args)

    monkeypatch.setattr(sim_engine, "_consider_lane_change", counted)
    simulate_scene(scene, asg, SimConfig(master_seed=3))
    if lanes == 1:
        assert entered == []
    else:
        assert entered and all(nbs != (None, None) for nbs in entered)


def test_one_ranked_search_per_agent_per_step(monkeypatch):
    """Each routed agent's leader search from its own place runs once a
    step, whichever MOBIL checks read it."""
    scene, asg, cfg = _three_lane_mobil_inputs()
    rank = dynamics.rank_leaders
    searches = []

    def counted(snapshot, subject_id, route, sensing_range, coord=None):
        if coord is None:
            searches.append(subject_id)
        return rank(snapshot, subject_id, route, sensing_range, coord)

    monkeypatch.setattr(dynamics, "rank_leaders", counted)
    log = simulate_scene(scene, asg, cfg)
    assert sum(len(ag.lane_changes) for ag in log.agents) >= 1
    # an agent logs its initial state, then one row per step it drives
    assert len(searches) == sum(len(ag.t) - 1 for ag in log.agents)


def _cut_in_log():
    # a straight 2-lane road (edge 0 right, edge 1 left): the ego replayed
    # at 12 m/s at x=40 in the right lane; in the left lane drivers at
    # x=47 and x=70 holding 12 and 3 m/s, each with a reason to move right
    g = road_graph.build_graph(straight_map(400.0, lanes=2), **GRAPH_ARGS)
    agents = [(1, 40.0, -1.75, 0.0, 12.0), (2, 47.0, 1.75, 0.0, 12.0),
              (3, 70.0, 1.75, 0.0, 3.0)]
    sid, tracks = scene_ingest.load_tracklets(
        tracklets_doc("cut_in", agents, n_poses=80))
    scene = scene_ingest.instantiate_agents(g, tracks, 0.0, sid, SPAWN_GAP)
    asg = _assign_straight(g, scene, {1: 0.0, 2: 12.0, 3: 3.0})
    del asg[1]
    return simulate_scene(scene, asg,
                          SimConfig(master_seed=8, ego_mode="replay"))


def test_no_cut_in_just_ahead_of_the_replayed_ego():
    """MOBIL's safety test weighs the replayed ego as the new follower."""
    by_id = {ag.agent_id: ag for ag in _cut_in_log().agents}
    ego = by_id[1]
    assert ego.label == "replay"
    # the x=47 driver does not change in 7 m ahead of the ego at step 0
    assert (0, 1, 0) not in by_id[2].lane_changes
    for aid in (2, 3):
        ag = by_id[aid]
        n = min(len(ag.x), len(ego.x))
        beside = np.abs(ag.y[:n] - ego.y[:n]) < 1.8
        assert np.all(np.abs(ag.x[:n] - ego.x[:n])[beside] >= 4.5), aid


def test_one_snapshot_per_step(monkeypatch):
    """MOBIL's what-ifs read the step's snapshot; none is built for them."""
    scene, asg, cfg = _three_lane_mobil_inputs()
    built = []

    class Counted(dynamics.Snapshot):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(dynamics, "Snapshot", Counted)
    log = simulate_scene(scene, asg, cfg)
    assert sum(len(ag.lane_changes) for ag in log.agents) >= 1
    assert len(built) == cfg.n_steps


def test_rejected_lane_changes_build_no_route_geometry(monkeypatch):
    """Only an accepted lane change builds its new route's polyline."""
    scene, asg, cfg = _three_lane_mobil_inputs()
    counts = {"builds": 0, "decisions": 0}

    def counting(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(geometry, "polyline_tables",
                        counting(geometry.polyline_tables, "builds"))
    monkeypatch.setattr(dynamics, "mobil_decide",
                        counting(dynamics.mobil_decide, "decisions"))
    log = simulate_scene(scene, asg, cfg)
    changes = sum(len(ag.lane_changes) for ag in log.agents)
    assert changes >= 1
    assert counts["decisions"] > changes
    assert counts["builds"] == changes


def _turning_log():
    # a leader and a queued, faster follower on three arms of the
    # junction, turning left, right and going straight
    g = road_graph.build_graph(four_way_intersection(), **GRAPH_ARGS)
    agents, wanted, speeds = [], {}, {}
    for arm, (deg, label) in enumerate(((0, "left"), (90, "right"),
                                        (180, "straight"))):
        for k, (dist, v_now, v_want) in enumerate(((20.0, 6.0, 6.0),
                                                   (32.0, 9.0, 10.0))):
            aid = 2 * arm + k + 1
            x, y, psi = approach_point(deg, dist)
            agents.append((aid, x, y, psi, v_now))
            wanted[aid], speeds[aid] = label, v_want
    sid, tracks = scene_ingest.load_tracklets(tracklets_doc("turns", agents))
    scene = scene_ingest.instantiate_agents(g, tracks, 0.0, sid, SPAWN_GAP)
    asg = {}
    for agent in scene.agents:
        aid, label = agent.agent_id, wanted[agent.agent_id]
        route = next(r for r in road_graph.enumerate_routes(g, agent.lane,
                                                            **ROUTE_ARGS)
                     if r.maneuver == label)
        asg[aid] = BehaviorAssignment(
            aid, route, label,
            VelocityProfile(np.full(120, speeds[aid]), speeds[aid], label))
    return simulate_scene(scene, asg, SimConfig(master_seed=5))


def test_turning_simulation_pinned():
    """Junction turns with queued followers are pinned byte for byte."""
    log = _turning_log()
    assert sorted(ag.label for ag in log.agents) == \
        ["left", "left", "right", "right", "straight", "straight"]
    csv_sha = hashlib.sha256(csv_text(log).encode()).hexdigest()
    side_sha = hashlib.sha256(
        json.dumps(log.sidecar(), sort_keys=True).encode()).hexdigest()
    assert csv_sha == \
        "69de6ad4fc64eb23ece5137b745f07f52720b843038f72accade99fa1f6d8f5d"
    assert side_sha == \
        "3be650ca77507a22c3eb733b63d7fa4f88552a17c46e914ddba1f07fe57eca54"


def _routeless_log():
    # a replayed ego, two parked agents (no route; agent 3 was moving in
    # its tracklet) and three drivers on a straight 2-lane road: one
    # starts behind the ego, one queues behind a parked agent, and one
    # drives off ahead of both parked ones
    g = road_graph.build_graph(straight_map(400.0, lanes=2), **GRAPH_ARGS)
    agents = [(1, 40.0, -1.75, 0.0, 6.0), (2, 10.0, -1.75, 0.0, 8.0),
              (3, 150.0, 1.75, 0.0, 4.0), (4, 100.0, 1.75, 0.0, 10.0),
              (5, 156.0, -1.75, 0.0, 0.0), (6, 175.0, -1.75, 0.0, 10.0)]
    sid, tracks = scene_ingest.load_tracklets(
        tracklets_doc("routeless", agents, n_poses=80))
    scene = scene_ingest.instantiate_agents(g, tracks, 0.0, sid, SPAWN_GAP)
    asg = {aid: BehaviorAssignment(aid, None, "static", None)
           for aid in (3, 5)}
    for agent in scene.agents:
        aid = agent.agent_id
        if aid in (2, 4, 6):
            route = next(r for r in road_graph.enumerate_routes(
                g, agent.lane, **dict(ROUTE_ARGS, horizon_dist=500.0))
                if r.maneuver == "straight")
            asg[aid] = BehaviorAssignment(aid, route, "straight",
                                          _const_profile(12.0))
    return simulate_scene(scene, asg,
                          SimConfig(master_seed=8, ego_mode="replay"))


def test_routeless_agents_pinned():
    """Replayed and parked agents, and drivers around them, byte for byte."""
    log = _routeless_log()
    by_id = {ag.agent_id: ag for ag in log.agents}
    assert by_id[1].label == "replay" and by_id[1].route_edges == []
    for aid in (3, 5):
        assert np.all(by_id[aid].x == by_id[aid].x[0])
        assert np.all(by_id[aid].v == 0.0)
    # the driver that ends up behind parked agent 5 stops short of it
    assert by_id[4].x[-1] < by_id[5].x[0] - 4.5
    csv_sha = hashlib.sha256(csv_text(log).encode()).hexdigest()
    side_sha = hashlib.sha256(
        json.dumps(log.sidecar(), sort_keys=True).encode()).hexdigest()
    assert csv_sha == \
        "58bd744decc975e46b762a7322131de19a7b8b1e9b4211314de205c97272f605"
    assert side_sha == \
        "a6707432786d82c9ff520e27ba3a59a146619ee6258816a7c1ad1d0eb63874b4"


@pytest.mark.parametrize("make_log", [
    lambda: simulate_scene(*_three_lane_mobil_inputs()), _turning_log,
    _routeless_log], ids=["mobil", "turns", "replay-and-parked"])
def test_step_positions_are_float_pairs(monkeypatch, make_log):
    """Every position simulate_scene passes to step_kinematics, and every
    one the replayed ego is moved to, is an (x, y) tuple of Python
    floats, so no agent-step allocates or indexes a numpy array."""
    step, replay_step = sim_engine.step_kinematics, sim_engine._replay_step
    seen = []

    def stepping(state, *args):
        seen.append(state.position)
        return step(state, *args)

    def replaying(run, *args):
        replay_step(run, *args)
        seen.append(run.state.position)

    monkeypatch.setattr(sim_engine, "step_kinematics", stepping)
    monkeypatch.setattr(sim_engine, "_replay_step", replaying)
    make_log()
    assert seen
    assert {(type(p), len(p), type(p[0]), type(p[1])) for p in seen} \
        == {(tuple, 2, float, float)}


def _forked_two_lane_graph():
    """A 100 m two-lane road (edge 0 right, edge 1 left) whose right lane
    ends there and whose left lane forks into a left turn (edge 2) and a
    straight continuation (edge 3)."""
    turn = [[100.0 + 20.0 * math.sin(a), 21.75 - 20.0 * math.cos(a)]
            for a in np.linspace(0.0, math.pi / 2, 10)]
    return road_graph.build_graph({"centerlines": [
        {"id": 0, "points": [[0.0, 0.0], [100.0, 0.0]], "lanes": 2},
        {"id": 1, "points": turn + [[120.0, 60.0]]},
        {"id": 2, "points": [[100.0, 1.75], [200.0, 1.75]]}]}, **GRAPH_ARGS)


def test_retarget_route_keeps_the_label_where_it_can():
    g = _forked_two_lane_graph()
    assert (g.edges[0].left_neighbor, g.edges[1].right_neighbor) == (1, 0)
    cfg = SimConfig()
    coord = road_graph.lane_coordinate(g, 1, np.array([40.0, 1.75]))
    routes = road_graph.enumerate_routes(g, coord, cfg.horizon_dist,
                                         cfg.max_routes)
    assert [(r.edge_ids, r.maneuver) for r in routes] == \
        [([1, 2], "left"), ([1, 3], "straight")]

    def change(x, y, label, neighbor):
        coord = road_graph.lane_coordinate(g, neighbor, np.array([x, y]))
        return sim_engine._retarget_route(g, coord, label, cfg)

    # from the right lane onto the forked one: the agent's own maneuver
    # when a route has it, the first route when none does
    assert change(40.0, -1.75, "straight", 1).edge_ids == [1, 3]
    assert change(40.0, -1.75, "left", 1).edge_ids == [1, 2]
    assert change(40.0, -1.75, "right", 1).edge_ids == routes[0].edge_ids
    # the right lane has one route: taken without building its geometry
    only = change(40.0, 1.75, "left", 0)
    assert only.edge_ids == [0]
    assert "_tables" not in only.__dict__
    assert only.maneuver == "straight"  # built on first use


def test_run_dataset_rejects_a_pool_dt_that_is_not_sim_dt(profile_pool):
    g, scene = _scene_on_straight([(1, 5.0, 0.0, 0.0, 10.0)])
    for dt in (0.2, math.nan):
        pool = behavior.ProfilePool(profile_pool.profiles, dt)
        with pytest.raises(ConfigError, match=f"profile pool dt {dt} "
                                              f"differs from sim.dt 0.1"):
            run_dataset([scene], pool, SimConfig(master_seed=1))
