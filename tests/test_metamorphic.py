"""Metamorphic properties of the simulator: relations between the outputs
of two related inputs, which hold whatever the outputs' pinned digests."""

import json
import math
import os

import numpy as np
import pytest
from helpers import (GRAPH_ARGS, POOL_ARGS, ROUTE_ARGS, SPAWN_GAP,
                     approach_point, build_test_pool, four_way_intersection,
                     straight_map, synthetic_profile_sources, tracklets_doc)

from trafficforge import behavior, road_graph, scene_ingest
from trafficforge.cli import dispatch
from trafficforge.behavior import BehaviorAssignment, VelocityProfile
from trafficforge.config import SimConfig
from trafficforge.geometry import wrap_angle
from trafficforge.sim_engine import simulate_scene

_SHIFT = (1000.0, -700.0)


def _junction_inputs():
    """Two agents queued on each arm of the four-way junction."""
    agents = []
    for arm, deg in enumerate((0, 90, 180, 270)):
        for k, (dist, v) in enumerate(((12.0, 9.0), (30.0, 8.0))):
            x, y, psi = approach_point(deg, dist + 2.0 * arm)
            agents.append((2 * arm + k + 1, x, y, psi, v))
    return four_way_intersection(), agents


def _three_lane_inputs():
    """Three agents per lane of a straight 3-lane one-way road, the right
    lane's head slow, so that MOBIL changes lanes; the fast lane's head
    reaches the road's end."""
    agents = []
    for lane, (y, v) in enumerate(((-3.5, 9.0), (0.0, 14.0), (3.5, 18.0))):
        for k in range(3):
            agents.append((3 * lane + k + 1, 10.0 + 25.0 * k + 7.0 * lane,
                           y, 0.0, v))
    return straight_map(200.0, lanes=3), agents


def _move(deg):
    """Rotation by ``deg`` about the origin, then the shift ``_SHIFT``:
    the map (x, y) -> (x, y) function and its heading offset."""
    a = math.radians(deg)
    c, s = math.cos(a), math.sin(a)

    def point(x, y):
        return c * x - s * y + _SHIFT[0], s * x + c * y + _SHIFT[1]
    return point, a


def _logs(kind, deg=None):
    """Every variant's log of the ``kind`` scene, its map and tracklets
    moved by :func:`_move` when ``deg`` is given."""
    lane_map, agents = (_junction_inputs if kind == "junction"
                        else _three_lane_inputs)()
    if deg is not None:
        point, a = _move(deg)
        lane_map = {"centerlines": [
            dict(cl, points=[list(point(x, y)) for x, y in cl["points"]])
            for cl in lane_map["centerlines"]]}
        agents = [(aid, *point(x, y), wrap_angle(psi + a), v)
                  for aid, x, y, psi, v in agents]
    graph = road_graph.build_graph(lane_map, **GRAPH_ARGS)
    sid, tracks = scene_ingest.load_tracklets(tracklets_doc(kind, agents))
    scene = scene_ingest.instantiate_agents(graph, tracks, 0.0, sid, SPAWN_GAP)
    cfg = SimConfig(master_seed=5)
    if kind == "junction":
        variants = behavior.sample_behaviors(
            scene, behavior.build_profile_pool(
                synthetic_profile_sources(np.random.default_rng(0)), 0.1,
                **POOL_ARGS),
            5, SimConfig(max_variants=3))
    else:
        speeds = {aid: 6.0 if aid == 3 else v + 2.0
                  for aid, _, _, _, v in agents}
        variants = [{
            ag.agent_id: BehaviorAssignment(
                ag.agent_id, route, "straight",
                VelocityProfile(np.full(120, speeds[ag.agent_id]),
                                speeds[ag.agent_id], "straight"))
            for ag in scene.agents
            for route in road_graph.enumerate_routes(graph, ag.lane,
                                                     **ROUTE_ARGS)[:1]}]
    return [simulate_scene(scene, asg, cfg, vi)
            for vi, asg in enumerate(variants)]


@pytest.mark.parametrize("deg", [0, 90, 30])
@pytest.mark.parametrize("kind", ["junction", "three_lane"])
def test_rigid_motion_moves_every_position(kind, deg):
    """Moving the map and the tracklets together moves every logged
    position the same way, within 1e-9 m, and changes no route, lane
    change, exit step or row count."""
    base, moved = _logs(kind), _logs(kind, deg)
    assert len(moved) == len(base)
    a = math.radians(deg)
    c, s = math.cos(a), math.sin(a)
    worst = 0.0
    for log, mlog in zip(base, moved):
        assert len(mlog.agents) == len(log.agents)
        for ag, mag in zip(log.agents, mlog.agents):
            assert mag.agent_id == ag.agent_id
            assert mag.route_edges == ag.route_edges
            assert mag.lane_changes == ag.lane_changes
            assert mag.exit_step == ag.exit_step
            assert len(mag.t) == len(ag.t)
            # the inverse move: shift back, then rotate by -deg
            x, y = mag.x - _SHIFT[0], mag.y - _SHIFT[1]
            back = np.column_stack([c * x + s * y, -s * x + c * y])
            worst = max(worst, float(np.abs(
                back - np.column_stack([ag.x, ag.y])).max()))
    assert worst <= 1e-9
    if kind == "three_lane":   # the scene exercises both
        assert sum(len(ag.lane_changes) for ag in base[0].agents) >= 1
        assert any(ag.exit_step is not None for ag in base[0].agents)


def test_each_scene_simulates_as_in_its_batch(tmp_path):
    """Simulating one tracklet file alone writes the same CSV and sidecar
    bytes as the batch of files it came from: a scene's output depends on
    the master seed and its own inputs only."""
    (tmp_path / "map.json").write_text(json.dumps(four_way_intersection()))
    (tmp_path / "pool.json").write_text(build_test_pool(seed=0).to_json())
    batch = tmp_path / "tracklets"
    batch.mkdir()
    for i, deg in enumerate((0, 90, 180)):
        agents = [(1, *approach_point(deg, 25.0 + 4 * i), 9.0),
                  (2, *approach_point(deg, 45.0 + 4 * i), 8.0),
                  (3, *approach_point((deg + 90) % 360, 30.0), 7.0)]
        (batch / f"s{i}.json").write_text(
            json.dumps(tracklets_doc(f"s{i}", agents)))

    def simulate(tracklets, out):
        assert dispatch(["simulate", "--map", str(tmp_path / "map.json"),
                         "--tracklets", str(tracklets),
                         "--pool", str(tmp_path / "pool.json"),
                         "--out", str(out), "--seed", "11"]) == 0
        return {name: (out / name).read_bytes()
                for name in os.listdir(out) if name != "run.json"}

    whole = simulate(batch, tmp_path / "batch")
    alone = {}
    for i in range(3):
        logs = simulate(batch / f"s{i}.json", tmp_path / f"alone{i}")
        assert logs and all(name.startswith(f"s{i}_") for name in logs)
        alone.update(logs)
    assert sorted(alone) == sorted(whole)
    assert alone == whole


@pytest.mark.parametrize("kind", ["junction", "three_lane"])
@pytest.mark.parametrize("t0, ego, speeds, tol", [
    (1.0, "simulate", True, 0.0),
    (0.35, "replay", False, 1e-9),
], ids=["on-a-pose", "between-poses"])
def test_time_shift_changes_no_log(tmp_path, kind, t0, ego, speeds, tol):
    """Shifting every pose time and ``--t0`` by 1000 s writes the same
    logs: the CSV's ``t`` is relative to ``t0``. With ``t0`` on a pose
    and speeds recorded, ingest reads that pose as it is, and the bytes
    are equal. Between poses, with speeds derived from the positions or
    the ego replayed, times are differenced and interpolated in absolute
    time, so every value may move by rounding, within ``tol``: measured
    at most 3e-11 at this shift, and 3e-8 at 1e6 s. Routes, lane changes
    and exit steps stay equal."""
    lane_map, agents = (_junction_inputs if kind == "junction"
                        else _three_lane_inputs)()
    (tmp_path / "map.json").write_text(json.dumps(lane_map))
    (tmp_path / "pool.json").write_text(build_test_pool(seed=0).to_json())

    def simulate(shift):
        doc = tracklets_doc(kind, agents, n_poses=80)
        for track in doc["tracks"]:
            for pose in track["poses"]:
                pose["t"] += shift
                if not speeds:
                    del pose["speed"], pose["heading"]
        run = tmp_path / f"shift{shift}"
        run.mkdir()
        (run / "tracks.json").write_text(json.dumps(doc))
        assert dispatch(["simulate", "--map", str(tmp_path / "map.json"),
                         "--tracklets", str(run / "tracks.json"),
                         "--pool", str(tmp_path / "pool.json"),
                         "--out", str(run / "out"), "--seed", "5",
                         "--t0", repr(t0 + shift), "--set",
                         f"sim.ego={ego}"]) == 0
        return {name: (run / "out" / name).read_text()
                for name in os.listdir(run / "out") if name != "run.json"}

    base, shifted = simulate(0.0), simulate(1000.0)
    assert sorted(shifted) == sorted(base)
    for name, text in base.items():
        if tol == 0.0 or name.endswith(".json"):
            assert shifted[name] == text, name
            continue
        rows = [line.split(",") for line in text.splitlines()]
        moved = [line.split(",") for line in shifted[name].splitlines()]
        assert len(moved) == len(rows)
        for row, mrow in zip(rows, moved):
            # scene, variant, agent, t and label as written; the values
            # within tol
            assert mrow[:4] + mrow[10:] == row[:4] + row[10:]
            if row is not rows[0]:
                assert np.allclose(np.array(mrow[4:10], float),
                                   np.array(row[4:10], float),
                                   rtol=0.0, atol=tol)
