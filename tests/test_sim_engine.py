"""Scene simulation: kinematics, interactions, determinism, lifecycle."""

import dataclasses
import hashlib
import json
import math
import os
import tempfile
import warnings
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (approach_point, four_way_intersection, straight_map,
                     tracklets_doc)

from trafficforge import (behavior, dynamics, geometry, road_graph,
                          scene_ingest, sim_engine)
from trafficforge.behavior import BehaviorAssignment, VelocityProfile
from trafficforge.config import SimConfig, default
from trafficforge.errors import ConfigError
from trafficforge.sim_engine import (AgentLog, SimLog, read_simlog_csv,
                                     run_dataset, simulate_scene)


def _scene_on_straight(agents, length=400.0, lanes=1, oneway=True):
    g = road_graph.build_graph(straight_map(length, lanes, oneway))
    doc = tracklets_doc("t1", agents)
    sid, tracks = scene_ingest.load_tracklets(doc)
    return g, scene_ingest.instantiate_agents(g, tracks, 0.0, sid)


def _const_profile(speed, n=120, dt=0.1):
    return VelocityProfile(dt, np.full(n, float(speed)), speed, "straight")


def _assign_straight(graph, scene, speeds):
    out = {}
    for agent in scene.agents:
        routes = road_graph.enumerate_routes(graph, agent.lane,
                                             horizon_dist=500.0)
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
    assert a.to_csv() == b.to_csv()
    assert json.dumps(a.sidecar(), sort_keys=True) \
        == json.dumps(b.sidecar(), sort_keys=True)


def test_unknown_assignment_rejected():
    g, scene = _scene_on_straight([(1, 5.0, 0.0, 0.0, 10.0)])
    asg = _assign_straight(g, scene, {1: 10.0})
    asg[99] = asg[1]
    with pytest.raises(ConfigError):
        simulate_scene(scene, asg, SimConfig())


def test_missing_assignment_rejected():
    g, scene = _scene_on_straight([(1, 5.0, 0.0, 0.0, 10.0),
                                   (2, 60.0, 0.0, 0.0, 10.0)])
    asg = _assign_straight(g, scene, {1: 10.0, 2: 10.0})
    del asg[2]
    with pytest.raises(ConfigError):
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
    g = road_graph.build_graph(straight_map(50.0))
    doc = tracklets_doc("s", [(1, 50.0, 0.0, 0.0, 0.0)], n_poses=1)
    sid, tracks = scene_ingest.load_tracklets(doc)
    scene = scene_ingest.instantiate_agents(g, tracks, 0.0, sid)
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
                                            0.0, sid)
    cfg = SimConfig(master_seed=8, epsilon_std=0.0)
    for vi, asg in enumerate(behavior.sample_behaviors(
            scene, profile_pool, 31, 3, noise_std=0.0)):
        log = simulate_scene(scene, asg, cfg, vi)
        for ag in log.agents:
            if not ag.lane_changes:
                assert np.abs(ag.x_lat).max() <= cfg.max_lane_deviation


def test_run_dataset_counts_and_parallel_determinism(profile_pool):
    g = road_graph.build_graph(four_way_intersection())
    scenes = []
    for i, deg in enumerate((0, 90)):
        x, y, psi = approach_point(deg, 30.0 + 4 * i)
        doc = tracklets_doc(f"p{i}", [(1, x, y, psi, 9.0)])
        sid, tracks = scene_ingest.load_tracklets(doc)
        scenes.append(scene_ingest.instantiate_agents(g, tracks, 0.0, sid))
    cfg = SimConfig(master_seed=17, max_variants=3)
    seq_logs, seq_fail = run_dataset(scenes, profile_pool, cfg, jobs=1)
    par_logs, par_fail = run_dataset(scenes, profile_pool, cfg, jobs=4)
    assert not seq_fail and not par_fail
    assert len(seq_logs) == 6  # both scenes admit all three maneuvers
    assert [l.to_csv() for l in seq_logs] == [l.to_csv() for l in par_logs]


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
    empty_pool = ProfilePool([])  # profile lookup fails for every label
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


def test_csv_roundtrip(tmp_path):
    g, scene = _scene_on_straight([(1, 5.0, 0.0, 0.0, 10.0),
                                   (2, 60.0, 0.0, 0.0, 8.0)])
    asg = _assign_straight(g, scene, {1: 10.0, 2: 8.0})
    log = simulate_scene(scene, asg, SimConfig(master_seed=4))
    path = tmp_path / "log.csv"
    with open(path, "w") as fh:
        log.write_csv(fh)
    back = read_simlog_csv(path, log.sidecar())
    assert back.scene_id == log.scene_id
    for a, b in zip(log.agents, back.agents):
        assert a.agent_id == b.agent_id and a.label == b.label
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.psi, b.psi)
        assert a.exit_step == b.exit_step


_VALUES = ("t", "x", "y", "v", "psi", "a", "phi")
_HEADER = ("scene_id", "variant", "agent_id") + _VALUES + ("label",)


def _row_loop_read_simlog_csv(csv_path, sidecar=None):
    """The row-by-row reader the bulk parse replaced, kept as its oracle."""
    per_agent = {}
    scene_id, variant = "", 0
    with open(csv_path) as fh:
        header = fh.readline().strip().split(",")
        idx = {name: i for i, name in enumerate(header)}
        missing = [c for c in _HEADER if c not in idx]
        if missing:
            raise ConfigError([f"simulation log {csv_path} line 1: "
                               f"missing column(s) {', '.join(missing)}"])
        i_scene, i_variant, i_agent, i_label = (
            idx["scene_id"], idx["variant"], idx["agent_id"], idx["label"])
        values = itemgetter(*(idx[c] for c in _VALUES))
        for line_no, line in enumerate(fh, 2):
            f = line.rstrip("\n").split(",")
            try:
                scene_id = f[i_scene]
                variant = int(f[i_variant])
                aid = int(f[i_agent])
                rec = per_agent.get(aid)
                if rec is None:
                    rec = per_agent[aid] = {"label": f[i_label], "rows": []}
                row = list(map(float, values(f)))
                if not all(map(math.isfinite, row)):
                    raise ValueError(f"non-finite value in {row}")
                rec["rows"].append(row)
            except (IndexError, ValueError) as exc:
                raise ConfigError([f"simulation log {csv_path} line "
                                   f"{line_no}: {type(exc).__name__}: {exc}"]
                                  ) from exc
    if not per_agent:
        raise ConfigError([f"simulation log {csv_path}: no data rows"])
    side_agents = {}
    dt = default("sim.dt")
    master_seed, cfg_digest = default("sim.master_seed"), ""
    if sidecar:
        dt = float(sidecar.get("dt", dt))
        master_seed = sidecar.get("master_seed", master_seed)
        cfg_digest = sidecar.get("config_digest", "")
        side_agents = {a["agent_id"]: a for a in sidecar.get("agents", [])}
    agents = []
    for aid in sorted(per_agent):
        rows = np.asarray(per_agent[aid]["rows"])
        if len(rows) > 1:
            dt_csv = float(rows[1, 0] - rows[0, 0])
            if not sidecar and dt_csv > 0:
                dt = dt_csv
        meta = side_agents.get(aid, {})
        agents.append(AgentLog(
            agent_id=aid, label=per_agent[aid]["label"],
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


_number = st.one_of(st.floats(-1e6, 1e6), st.integers(-5, 5).map(float),
                    st.just(-0.0))
_label = st.sampled_from(["straight", "left", "right", " right", "", "a b"])
# ways to write one number that int() or float() reads as written
_SPELLINGS = ("{}", " {}", "{} ", "\t{}", "{}\x0b")
# a field each reader may take differently: rejected by one or both,
# non-finite, or read by int()/float() but not by numpy (underscores,
# non-ASCII digits, huge integers)
_ODD_FIELDS = ("nan", "inf", "-inf", "1e400", "-1e400", "x", "", " ",
               "\x1c1", "1\x1f", "1_0", "3.0", "+3", "1e3", "0x10", ".5",
               "99999999999999999999", "１")


@st.composite
def _log_text(draw):
    """CSV text of a log: any column order with extra columns, agents with
    interleaved or single rows, numbers written in several ways, and at
    most one fault: an odd field, a short row, a blank line, a missing
    column, or no rows at all. Lines end in LF or CRLF."""
    header = list(_HEADER)
    order = draw(st.sampled_from(["as written", "scene last", "shuffled"]))
    if order == "scene last":
        header = header[1:] + header[:1]
    elif order == "shuffled":
        header = draw(st.permutations(header))
    for name in draw(st.lists(st.sampled_from(["extra", "note", "x"]),
                              max_size=2)):
        header.insert(draw(st.integers(0, len(header))), name)
    fault = draw(st.sampled_from(["none", "field", "short", "blank",
                                  "column", "no rows"]))
    scene = draw(st.sampled_from(["s1", "scene 7", ""]))
    n_rows = 0 if fault == "no rows" else draw(st.integers(1, 12))
    rows = []
    t = 0.0
    for _ in range(n_rows):
        cells = {"scene_id": scene, "label": draw(_label)}
        for c in ("variant", "agent_id"):
            cells[c] = draw(st.sampled_from(_SPELLINGS)).format(
                draw(st.integers(-2, 4)))
        t += draw(st.sampled_from([0.1, 0.0, -0.1, 0.25]))
        for c in _VALUES:
            value = f"{t:.3f}" if c == "t" else repr(draw(_number))
            cells[c] = draw(st.sampled_from(_SPELLINGS)).format(value)
        rows.append([cells.get(c, "e") for c in header])
    if rows and fault in ("field", "short", "blank"):
        k = draw(st.integers(0, len(rows) - 1))
        if fault == "blank":
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


@settings(max_examples=600, deadline=None)
@given(_log_text(), st.sampled_from([None, {}, {"dt": 0.2, "agents": [
    {"agent_id": 1, "exit_step": 4, "lane_changes": [
        {"step": 2, "from_edge": 0, "to_edge": 1}]}]}]))
# each case below is one that numpy reads and the row loop rejects
@example(",".join(_HEADER) + f"\n{_ROW}\n{_ROW.replace(',1,', ',2,')[:-9]}\n",
         None)                                         # no label, agent 2
@example(f"{_SCENE_LAST}\n{_ROW[3:]}\n", None)        # no scene column
@example(",".join(_HEADER) + f"\n{_ROW.replace('1.0', chr(0x1c) + '1')}\n",
         None)                                         # numpy-only space
@example(",".join(_HEADER) + f"\n{_ROW.replace('1.0', 'nan')}\n", None)
@example(",".join(_HEADER) + f"\n{_ROW}\n\n", None)   # blank last line
@example(",".join(_HEADER) + "\n\n", None)             # only a blank line
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


def test_replay_mode_follows_tracklet():
    g = road_graph.build_graph(straight_map(400.0))
    doc = tracklets_doc("r1", [(1, 5.0, 0.0, 0.0, 6.0),
                               (2, 100.0, 0.0, 0.0, 10.0)], n_poses=80)
    sid, tracks = scene_ingest.load_tracklets(doc)
    scene = scene_ingest.instantiate_agents(g, tracks, 0.0, sid)
    asg = _assign_straight(g, scene, {1: 10.0, 2: 10.0})
    del asg[1]  # the ego (lowest id) is replayed
    cfg = SimConfig(master_seed=6, ego_mode="replay")
    log = simulate_scene(scene, asg, cfg)
    ego = next(a for a in log.agents if a.agent_id == 1)
    assert ego.label == "replay"
    np.testing.assert_allclose(ego.x, 5.0 + 6.0 * ego.t, atol=1e-9)


def test_replay_non_finite_position_raises():
    # a corrupt replay pose is a data error, not the ego leaving the map
    g = road_graph.build_graph(straight_map(400.0))
    doc = tracklets_doc("r2", [(1, 5.0, 0.0, 0.0, 6.0),
                               (2, 100.0, 0.0, 0.0, 10.0)], n_poses=80)
    sid, tracks = scene_ingest.load_tracklets(doc)
    # load_tracklets rejects a non-finite pose, so corrupt the loaded one
    doc["tracks"][0]["poses"][30]["x"] = float("nan")
    with pytest.raises(ConfigError, match="pose 30: non-finite x"):
        scene_ingest.load_tracklets(doc)
    tracks[0].poses[30].position[0] = float("nan")
    scene = scene_ingest.instantiate_agents(g, tracks, 0.0, sid)
    asg = _assign_straight(g, scene, {1: 10.0, 2: 10.0})
    del asg[1]
    with pytest.raises(ValueError, match="finite"):
        simulate_scene(scene, asg, SimConfig(master_seed=6, ego_mode="replay"))


def test_replay_snaps_with_the_scene_limit():
    """A replayed ego drifting 2 m/s sideways off a straight lane leaves
    the map once it is farther from the lane than the limit it was
    placed with."""
    g = road_graph.build_graph(straight_map(400.0))
    psi = math.atan2(2.0, 8.0)
    doc = tracklets_doc("drift", [(1, 20.0, 0.1, psi, math.hypot(8.0, 2.0))],
                        n_poses=101)
    sid, tracks = scene_ingest.load_tracklets(doc)
    cfg = SimConfig(master_seed=6, ego_mode="replay", horizon=10.0)
    exits = []
    for limit in (10.0, 12.0, 14.0):
        scene = scene_ingest.instantiate_agents(g, tracks, 0.0, sid,
                                                max_snap_distance=limit)
        (ego,) = simulate_scene(scene, {}, cfg).agents
        exits.append(ego.exit_step)
    # the ego is 0.1 + 0.2 k m off the lane at step k
    assert exits == [50, 60, 70]


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
    csv_sha = hashlib.sha256(log.to_csv().encode()).hexdigest()
    side_sha = hashlib.sha256(
        json.dumps(log.sidecar(), sort_keys=True).encode()).hexdigest()
    assert csv_sha == \
        "9249ab3037210b055c3f81200085c470b985c10813100266de0896762b7625b2"
    assert side_sha == \
        "882028e60885075c06fb9899c5d00b6ef803a8243043e813b0b27a9a1466002e"


def test_step_memo_matches_fresh_accelerations(monkeypatch):
    """The step's memo feeds MOBIL the accelerations computed afresh."""
    scene, asg, cfg = _three_lane_mobil_inputs()
    # desired speeds that change every step, so an agent's v0 when an
    # earlier subject reads it differs from its own decision's
    t = np.arange(120) * 0.1
    for aid, a in asg.items():
        v = a.profile.feature
        asg[aid] = BehaviorAssignment(
            aid, a.route, a.label,
            VelocityProfile(0.1, v + 2.0 * np.sin(t + aid), v, a.label))
    decide = dynamics.mobil_decide

    def run(snapshot_accel):
        inputs = []

        def recording(params, *accels):
            inputs.append(accels)
            return decide(params, *accels)

        monkeypatch.setattr(dynamics, "mobil_decide", recording)
        monkeypatch.setattr(sim_engine, "_snapshot_accel", snapshot_accel)
        csv = simulate_scene(scene, asg, cfg).to_csv()
        return inputs, hashlib.sha256(csv.encode()).hexdigest()

    def fresh(run, snapshot, config, base_accels):
        return sim_engine._idm_accel_in(snapshot, run, run.route, config)

    memo_inputs, memo_csv = run(sim_engine._snapshot_accel)
    fresh_inputs, fresh_csv = run(fresh)
    assert len(memo_inputs) > 100
    assert memo_inputs == fresh_inputs
    assert memo_csv == fresh_csv


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
    g = road_graph.build_graph(four_way_intersection())
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
    scene = scene_ingest.instantiate_agents(g, tracks, 0.0, sid)
    asg = {}
    for agent in scene.agents:
        aid, label = agent.agent_id, wanted[agent.agent_id]
        route = next(r for r in road_graph.enumerate_routes(g, agent.lane)
                     if r.maneuver == label)
        asg[aid] = BehaviorAssignment(
            aid, route, label,
            VelocityProfile(0.1, np.full(120, speeds[aid]), speeds[aid],
                            label))
    return simulate_scene(scene, asg, SimConfig(master_seed=5))


def test_turning_simulation_pinned():
    """Junction turns with queued followers are pinned byte for byte."""
    log = _turning_log()
    assert sorted(ag.label for ag in log.agents) == \
        ["left", "left", "right", "right", "straight", "straight"]
    csv_sha = hashlib.sha256(log.to_csv().encode()).hexdigest()
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
    g = road_graph.build_graph(straight_map(400.0, lanes=2))
    agents = [(1, 40.0, -1.75, 0.0, 6.0), (2, 10.0, -1.75, 0.0, 8.0),
              (3, 150.0, 1.75, 0.0, 4.0), (4, 100.0, 1.75, 0.0, 10.0),
              (5, 156.0, -1.75, 0.0, 0.0), (6, 175.0, -1.75, 0.0, 10.0)]
    sid, tracks = scene_ingest.load_tracklets(
        tracklets_doc("routeless", agents, n_poses=80))
    scene = scene_ingest.instantiate_agents(g, tracks, 0.0, sid)
    asg = {aid: BehaviorAssignment(aid, None, "static", None)
           for aid in (3, 5)}
    for agent in scene.agents:
        aid = agent.agent_id
        if aid in (2, 4, 6):
            route = next(r for r in road_graph.enumerate_routes(
                g, agent.lane, horizon_dist=500.0)
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
    csv_sha = hashlib.sha256(log.to_csv().encode()).hexdigest()
    side_sha = hashlib.sha256(
        json.dumps(log.sidecar(), sort_keys=True).encode()).hexdigest()
    assert csv_sha == \
        "58bd744decc975e46b762a7322131de19a7b8b1e9b4211314de205c97272f605"
    assert side_sha == \
        "a6707432786d82c9ff520e27ba3a59a146619ee6258816a7c1ad1d0eb63874b4"
