"""Command-line behavior: validation, exit codes, end-to-end determinism."""

import argparse
import errno
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from helpers import (GRAPH_ARGS, ROUTE_ARGS, SPAWN_GAP, approach_point,
                     four_way_intersection, synthetic_profile_sources,
                     tracklets_doc, turning_source_traj)

import trafficforge
from trafficforge import (bev_render, geometry, road_graph, scene_ingest,
                          sim_engine)
from trafficforge.cli import build_parser, dispatch
from trafficforge.config import SCHEMA, apply_overrides, validate_config
from trafficforge.errors import ConfigError
from trafficforge.sim_engine import read_simlog_csv


def test_validate_config_defaults():
    cfg = validate_config({})
    assert cfg["sim.dt"] == 0.1
    assert cfg["sim.horizon"] == 7.0
    assert cfg.sim_config().n_steps == 70


def test_validate_config_dt_zero():
    with pytest.raises(ConfigError) as exc:
        validate_config({"sim": {"dt": 0}})
    assert any("sim.dt" in v for v in exc.value.violations)


def test_validate_config_horizon_multiple():
    with pytest.raises(ConfigError) as exc:
        validate_config({"sim": {"dt": 0.1, "horizon": 7.05}})
    assert any("multiple" in v for v in exc.value.violations)


@pytest.mark.parametrize("dt", [0.0004, 0.0125, 1e-9])
def test_validate_config_dt_whole_milliseconds(dt):
    # a log writes t with 3 decimals: a finer step would repeat its times
    with pytest.raises(ConfigError) as exc:
        validate_config({"sim": {"dt": dt, "horizon": dt * 10}})
    assert exc.value.violations == [
        f"sim.dt: must be a whole number of milliseconds, since a log's t "
        f"column has 3 decimals, got {dt!r}"]
    for ok in (0.001, 0.04, 0.05, 0.2, 1.5):
        validate_config({"sim": {"dt": ok, "horizon": ok * 10}})


def test_validate_config_unknown_key():
    with pytest.raises(ConfigError) as exc:
        validate_config({"sim": {"dtt": 0.1}})
    assert any("unknown key 'sim.dtt'" in v for v in exc.value.violations)


def test_validate_config_aggregates_all_violations():
    with pytest.raises(ConfigError) as exc:
        validate_config({"sim": {"dt": -1, "max_variants": 0},
                         "mobil": {"b_safe": -2}})
    assert len(exc.value.violations) >= 3


def test_apply_overrides():
    raw = apply_overrides({}, ["sim.dt=0.05", "controller.kp_lateral=1.5",
                               "sim.ego=replay"])
    assert raw["sim"]["dt"] == 0.05
    assert raw["controller"]["kp_lateral"] == 1.5
    assert raw["sim"]["ego"] == "replay"
    with pytest.raises(ConfigError):
        apply_overrides({}, ["nodots"])


def _write_inputs(root, n_scenes=2):
    os.makedirs(root / "tracklets", exist_ok=True)
    with open(root / "map.json", "w") as fh:
        json.dump(four_way_intersection(), fh)
    for i in range(n_scenes):
        deg = [0, 90, 180, 270][i % 4]
        x, y, psi = approach_point(deg, 30.0 + 3 * i)
        doc = tracklets_doc(
            f"scene{i:02d}",
            [(1, x, y, psi, 9.0),
             (2, x - 18 * np.cos(psi), y - 18 * np.sin(psi), psi, 8.0)])
        with open(root / "tracklets" / f"scene{i:02d}.json", "w") as fh:
            json.dump(doc, fh)
    _write_pool_tracks(root)


def _write_pool_tracks(root):
    rng = np.random.default_rng(5)
    tracks = [{"agent_id": i,
               "poses": [{"t": float(t), "x": float(x), "y": float(y)}
                         for t, x, y in src]}
              for i, src in enumerate(synthetic_profile_sources(rng))]
    with open(root / "pool_tracks.json", "w") as fh:
        json.dump({"scene_id": "pool", "tracks": tracks}, fh)


def _tree_digest(root):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def test_missing_map_exits_1(tmp_path, capsys):
    rc = dispatch(["build-graph", "--map", str(tmp_path / "nope.json")])
    assert rc == 1
    assert "nope.json" in capsys.readouterr().err


def _one_entry(**fields):
    return {"centerlines": [{"id": 0, "points": [[0.0, 0.0], [10.0, 0.0]],
                             **fields}]}


# case -> (map document, how the error names the bad part)
_BAD_MAPS = {
    "not-an-object": ([], "map must be an object"),
    "no-centerlines": ({}, "non-empty 'centerlines' list"),
    "empty-centerlines": ({"centerlines": []}, "non-empty 'centerlines'"),
    "entry-not-an-object": ({"centerlines": [[[0, 0], [10, 0]]]},
                            "centerline at index 0: expected an object"),
    "no-points": ({"centerlines": [{"id": 0}]}, "centerline 0: missing"),
    "ragged-points": (_one_entry(points=[[0.0, 0.0], [10.0, 0.0, 1.0]]),
                      "centerline 0: 'points' must be"),
    "string-points": (_one_entry(points=[["0", "0"], ["10", "0"]]),
                      "centerline 0: 'points' must be"),
    "bool-point": (_one_entry(points=[[True, 0.0], [10.0, 0.0]]),
                   "centerline 0: 'points' must be"),
    "one-point": (_one_entry(points=[[0.0, 0.0]]),
                  "centerline 0: 'points' must be"),
    "nan-point": (_one_entry(points=[[0.0, 0.0], [math.nan, 1.0],
                                     [10.0, 0.0]]),
                  "centerline 0: 'points' must be"),
    "inf-point": (_one_entry(points=[[0.0, 0.0], [math.inf, 1.0],
                                     [10.0, 0.0]]),
                  "centerline 0: 'points' must be"),
    "duplicate-point": ({"centerlines": [
        {"points": [[0.0, 0.0], [10.0, 0.0]]},
        {"points": [[0.0, 5.0], [0.0, 5.0], [10.0, 5.0]]}]},
        "centerline at index 1: duplicate consecutive points"),
    "float-lanes": (_one_entry(lanes=1.7), "centerline 0: 'lanes'"),
    "bool-lanes": (_one_entry(lanes=True), "centerline 0: 'lanes'"),
    "zero-lanes": (_one_entry(lanes=0), "centerline 0: 'lanes' must be >= 1"),
    "string-oneway": (_one_entry(oneway="false"), "centerline 0: 'oneway'"),
    "nan-lane-width": (_one_entry(lane_width=math.nan),
                       "centerline 0: 'lane_width'"),
    "zero-lane-width": (_one_entry(lane_width=0), "centerline 0: 'lane_width'"),
}


@pytest.mark.parametrize("case", sorted(_BAD_MAPS))
def test_build_graph_rejects_malformed_map(tmp_path, capsys, case):
    doc, names = _BAD_MAPS[case]
    path = tmp_path / "map.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "graph.json"
    rc = dispatch(["build-graph", "--map", str(path), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: map file {path}: " in err and names in err
    assert "None" not in err
    assert not out.exists()


def test_unknown_subcommand_exits_1(capsys):
    assert dispatch(["frobnicate"]) == 1


def test_build_graph_stdout(tmp_path, capsys):
    _write_inputs(tmp_path)
    rc = dispatch(["build-graph", "--map", str(tmp_path / "map.json")])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["edges"]) == 20


def test_profile_pool_and_simulate_deterministic(tmp_path):
    _write_inputs(tmp_path)
    rc = dispatch(["profile-pool", "--tracklets",
                   str(tmp_path / "pool_tracks.json"),
                   "--out", str(tmp_path / "pool.json")])
    assert rc == 0
    pool_doc = json.loads((tmp_path / "pool.json").read_text())
    assert {p["label"] for p in pool_doc["profiles"]} \
        == {"left", "right", "straight"}

    def run(out):
        return dispatch(["simulate", "--map", str(tmp_path / "map.json"),
                         "--tracklets", str(tmp_path / "tracklets"),
                         "--pool", str(tmp_path / "pool.json"),
                         "--out", str(out), "--seed", "7"])

    assert run(tmp_path / "out_a") == 0
    assert run(tmp_path / "out_b") == 0
    assert _tree_digest(tmp_path / "out_a") == _tree_digest(tmp_path / "out_b")
    names = sorted(os.listdir(tmp_path / "out_a"))
    assert "run.json" in names
    assert any(n.endswith(".csv") for n in names)


def test_profile_pool_turn_onset_keys_reach_the_pool(tmp_path):
    src = turning_source_traj(10.0, 5.0, 40.0, direction="left")
    with open(tmp_path / "turn.json", "w") as fh:
        json.dump({"scene_id": "pool", "tracks": [
            {"agent_id": 1, "poses": [{"t": t, "x": x, "y": y}
                                      for t, x, y in src.tolist()]}]}, fh)

    def pool_bytes(*overrides):
        out = tmp_path / "pool.json"
        argv = ["profile-pool", "--tracklets", str(tmp_path / "turn.json"),
                "--out", str(out)]
        for kv in overrides:
            argv += ["--set", kv]
        assert dispatch(argv) == 0
        return out.read_bytes()

    default = pool_bytes()
    assert json.loads(default)["profiles"][0]["label"] == "left"
    assert pool_bytes("behavior.turn_rate_threshold=0.1",
                      "behavior.turn_rate_sustain=0.5") == default
    # the arc turns at 5/9 rad/s for about 2.8 s: a higher threshold or a
    # longer sustain finds no onset, so the feature becomes the full arc
    assert pool_bytes("behavior.turn_rate_threshold=1.0") != default
    assert pool_bytes("behavior.turn_rate_sustain=5.0") != default


def test_simulate_validation_failure_writes_nothing(tmp_path, capsys):
    _write_inputs(tmp_path)
    out = tmp_path / "never"
    rc = dispatch(["simulate", "--map", str(tmp_path / "map.json"),
                   "--tracklets", str(tmp_path / "tracklets"),
                   "--pool", str(tmp_path / "missing_pool.json"),
                   "--out", str(out), "--seed", "1"])
    assert rc == 1
    assert not out.exists()
    rc = dispatch(["simulate", "--map", str(tmp_path / "map.json"),
                   "--tracklets", str(tmp_path / "tracklets"),
                   "--pool", str(tmp_path / "missing_pool.json"),
                   "--out", str(out), "--seed", "2",
                   "--set", "sim.dt=0"])
    assert rc == 1
    assert not out.exists()


def test_simulate_seed_must_agree_with_master_seed(sim_logs, tmp_path,
                                                   capsys):
    config = tmp_path / "seed.json"
    config.write_text(json.dumps({"sim": {"master_seed": 7}}))

    def run(out, seed, *extra):
        return dispatch(["simulate", "--map", str(sim_logs / "map.json"),
                         "--tracklets", str(sim_logs / "tracklets"),
                         "--pool", str(sim_logs / "pool.json"),
                         "--out", str(tmp_path / out), "--seed", seed,
                         *extra])

    for extra in (["--set", "sim.master_seed=7"], ["--config", str(config)]):
        capsys.readouterr()
        assert run("conflict", "1", *extra) == 1
        err = capsys.readouterr().err
        assert "--seed 1" in err and "sim.master_seed 7" in err
        assert not (tmp_path / "conflict").exists()
    assert run("plain", "7") == 0
    for value in ("7", "7.0"):
        assert run(value, "7", "--set", f"sim.master_seed={value}") == 0
        assert _tree_digest(tmp_path / value) == \
            _tree_digest(tmp_path / "plain")
    sidecar = json.loads((tmp_path / "plain" / "scene00_v0.json").read_text())
    assert sidecar["master_seed"] == 7


def test_metrics_prediction_report(tmp_path):
    rng = np.random.default_rng(0)
    preds = tmp_path / "preds.jsonl"
    with open(preds, "w") as fh:
        for aid in range(4):
            gt = np.cumsum(rng.normal(size=(51, 2)), axis=0) + 5
            samples = [(gt + rng.normal(scale=0.4, size=gt.shape)).tolist()
                       for _ in range(6)]
            fh.write(json.dumps({"agent_id": aid, "dt": 0.1,
                                 "gt": gt.tolist(), "samples": samples})
                     + "\n")
    out = tmp_path / "report.json"
    rc = dispatch(["metrics", "--preds", str(preds), "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    for h in ("1.0", "2.0", "3.0", "4.0", "5.0"):
        assert h in rep["prediction"]
        block = rep["prediction"][h]
        assert block["ade"] >= 0 and block["fde"] >= 0
        assert block["nll"] is not None
    # errors grow with horizon on random-walk data
    assert rep["prediction"]["5.0"]["ade"] > rep["prediction"]["1.0"]["ade"]


@pytest.mark.parametrize("bad_line, detail", [
    ('{"agent_id": 2, "dt": 0.1, "gt": [[0, 0], [1, 1]]', "JSONDecodeError"),
    ('{"agent_id": 2, "dt": 0.1, "samples": [[[0, 0], [1, 1]]]}',
     "KeyError: 'gt'"),
    ('{"agent_id": 2, "dt": NaN, "gt": [[0, 0], [1, 1]], "samples": []}',
     "ValueError: 'dt' must be a finite number > 0, got nan"),
    ('{"agent_id": 2, "dt": Infinity, "gt": [[0, 0], [1, 1]], '
     '"samples": []}',
     "ValueError: 'dt' must be a finite number > 0, got inf"),
    ('{"agent_id": 2, "dt": true, "gt": [[0, 0], [1, 1]], "samples": []}',
     "ValueError: 'dt' must be a finite number > 0, got True"),
    ('{"agent_id": 1.7, "dt": 0.1, "gt": [[0, 0], [1, 1]], '
     '"samples": [[[0, 0], [1, 1]]]}',
     "TypeError: 'agent_id' must be an integer, got 1.7"),
    ('{"agent_id": true, "dt": 0.1, "gt": [[0, 0], [1, 1]], '
     '"samples": [[[0, 0], [1, 1]]]}',
     "TypeError: 'agent_id' must be an integer, got True"),
    ('{"agent_id": "2", "dt": 0.1, "gt": [[0, 0], [1, 1]], '
     '"samples": [[[0, 0], [1, 1]]]}',
     "TypeError: 'agent_id' must be an integer, got '2'"),
    ('{"agent_id": 2, "dt": 0.1, "gt": [[0, 0], [1, 1]], '
     '"samples": [[[0, 0], [1, 1]]], "dt": 0.2}',
     "ValueError: repeated key 'dt'"),
], ids=["bad-json", "missing-key", "nan-dt", "inf-dt", "bool-dt",
        "float-id", "bool-id", "text-id", "repeated-key"])
def test_metrics_malformed_predictions_exit_1(tmp_path, capsys, bad_line,
                                              detail):
    preds = tmp_path / "preds.jsonl"
    good = {"agent_id": 1, "dt": 0.1, "gt": [[0, 0], [1, 1]],
            "samples": [[[0, 0], [1, 1]]]}
    preds.write_text(json.dumps(good) + "\n\n" + bad_line + "\n")
    rc = dispatch(["metrics", "--preds", str(preds),
                   "--out", str(tmp_path / "report.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"predictions file {preds} line 3: " in err
    assert detail in err
    assert not (tmp_path / "report.json").exists()


_BAD_HORIZONS = ["1,x", "0", "2,-1", "nan", "inf"]


@pytest.mark.parametrize("horizons", _BAD_HORIZONS)
def test_metrics_bad_horizons_exit_1(tmp_path, capsys, horizons):
    preds = tmp_path / "preds.jsonl"
    preds.write_text(json.dumps({"agent_id": 1, "dt": 0.1,
                                 "gt": [[0, 0], [1, 1], [2, 2]],
                                 "samples": [[[0, 0], [1, 1], [2, 2]]]}))
    rc = dispatch(["metrics", "--preds", str(preds), "--horizons", horizons,
                   "--out", str(tmp_path / "report.json")])
    assert rc == 1
    assert f"error: --horizons {horizons!r}: every horizon must be a finite " \
        "number of seconds > 0" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("horizons", _BAD_HORIZONS)
def test_metrics_bad_horizons_with_logs_only_exit_1(sim_logs, tmp_path,
                                                    capsys, horizons):
    rc = dispatch(["metrics", "--logs", str(sim_logs / "logs"),
                   "--horizons", horizons,
                   "--out", str(tmp_path / "report.json")])
    assert rc == 1
    assert f"error: --horizons {horizons!r}: every horizon must be a finite " \
        "number of seconds > 0" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("map_text", ["{not json", None],
                         ids=["malformed", "missing"])
def test_metrics_map_without_logs_exit_1(tmp_path, capsys, map_text):
    # validity is scored on the logs' trajectories: a --map beside --preds
    # alone would never be opened
    preds = tmp_path / "preds.jsonl"
    preds.write_text(json.dumps({"agent_id": 1, "dt": 0.1,
                                 "gt": [[0, 0], [1, 1], [2, 2]],
                                 "samples": [[[0, 0], [1, 1], [2, 2]]]}))
    map_path = tmp_path / "map.json"
    if map_text is not None:
        map_path.write_text(map_text)
    rc = dispatch(["metrics", "--preds", str(preds), "--map", str(map_path),
                   "--out", str(tmp_path / "report.json")])
    assert rc == 1
    assert "error: --map needs --logs" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("horizons, clash", [
    ("1.0,1.04", "1.0 and 1.04 share the report key '1.0'"),
    ("2,1,2.0", "2.0 and 2.0 share the report key '2.0'"),
    ("0.96,1,3,2.99", "0.96 and 1.0 share the report key '1.0'; "
                      "3.0 and 2.99 share the report key '3.0'"),
])
def test_metrics_colliding_horizons_exit_1(tmp_path, capsys, horizons,
                                           clash):
    # the report keys horizons by f"{h:.1f}"; a clash would keep one
    preds = tmp_path / "preds.jsonl"
    preds.write_text(json.dumps({"agent_id": 1, "dt": 0.04,
                                 "gt": [[i, i] for i in range(80)],
                                 "samples": [[[i, i] for i in range(80)]]}))
    rc = dispatch(["metrics", "--preds", str(preds), "--horizons", horizons,
                   "--out", str(tmp_path / "report.json")])
    assert rc == 1
    assert f"error: --horizons {horizons!r}: {clash}" in \
        capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("dts, horizons, reached", [
    ([0.1], "0.1,1e308", ["0.1"]),
    ([0.1, 1e-320], "0.1,0.2", ["0.1", "0.2"]),
], ids=["horizon-past-the-floats", "dt-below-the-floats"])
def test_metrics_horizon_whose_steps_overflow_is_skipped(tmp_path, dts,
                                                         horizons, reached):
    # h / dt overflows to inf: that record cannot reach the horizon, so it
    # is skipped as any horizon past its ground truth is
    preds = tmp_path / "preds.jsonl"
    preds.write_text("".join(
        json.dumps({"agent_id": aid, "dt": dt,
                    "gt": [[i, i] for i in range(4)],
                    "samples": [[[i, i] for i in range(4)]] * 2}) + "\n"
        for aid, dt in enumerate(dts)))
    out = tmp_path / "report.json"
    rc = dispatch(["metrics", "--preds", str(preds), "--horizons", horizons,
                   "--out", str(out)])
    assert rc == 0
    per_h = json.loads(out.read_text())["prediction"]
    assert sorted(per_h) == reached
    assert all(block["n_agents"] == 1 for block in per_h.values())


@pytest.mark.parametrize("rows", [
    [(0.0, 0.0), (1.0, 0.0)],
    [(5.0, 2.0)] * 5,
], ids=["two-rows", "parked"])
def test_metrics_logs_with_nothing_to_score_exit_1(tmp_path, capsys, rows):
    # diversity scores an agent with 3 or more rows that moves: a short log
    # or a parked agent leaves it nothing, an input fault, not exit 2
    logs = tmp_path / "logs"
    logs.mkdir()
    (logs / "s_v0.csv").write_text(
        "scene_id,variant,agent_id,t,x,y,v,psi,a,phi,label\n" + "".join(
            f"s,0,1,{0.1 * k:.3f},{x!r},{y!r},0.0,0.0,0.0,0.0,straight\n"
            for k, (x, y) in enumerate(rows)))
    (logs / "s_v0.json").write_text(json.dumps(
        {"scene_id": "s", "variant": 0, "dt": 0.1, "master_seed": 0,
         "config_digest": "0", "agents": [{"agent_id": 1}]}))
    out = tmp_path / "report.json"
    assert dispatch(["metrics", "--logs", str(logs), "--out", str(out)]) == 1
    assert (f"error: --logs {logs}: no agent to score; diversity needs an "
            f"agent with 3 or more rows and a net displacement of at least "
            f"1e-9 m\n") in capsys.readouterr().err
    assert not out.exists()


def test_metrics_requires_input(capsys):
    assert dispatch(["metrics"]) == 1


def test_render_roundtrip_tree(tmp_path):
    _write_inputs(tmp_path, n_scenes=1)
    dispatch(["profile-pool", "--tracklets", str(tmp_path / "pool_tracks.json"),
              "--out", str(tmp_path / "pool.json")])
    dispatch(["simulate", "--map", str(tmp_path / "map.json"),
              "--tracklets", str(tmp_path / "tracklets"),
              "--pool", str(tmp_path / "pool.json"),
              "--out", str(tmp_path / "logs"), "--seed", "3"])
    rc = dispatch(["render", "--logs", str(tmp_path / "logs"),
                   "--map", str(tmp_path / "map.json"),
                   "--spec", '{"H":48,"W":48,"res":1.0,"t_obs":20}',
                   "--out", str(tmp_path / "grids")])
    assert rc == 0
    files = sorted(os.listdir(tmp_path / "grids"))
    assert files and all(f.endswith(".bevg") for f in files)
    from trafficforge.bev_render import read_grid_sample
    sample = read_grid_sample(str(tmp_path / "grids" / files[0]))
    assert sample.spec.H == 48
    assert sample.t_obs == 20


@pytest.fixture(scope="module")
def sim_logs(tmp_path_factory):
    """Map and logs of two scenes, three variants each."""
    root = tmp_path_factory.mktemp("render")
    _write_inputs(root, n_scenes=2)
    assert dispatch(["profile-pool", "--tracklets",
                     str(root / "pool_tracks.json"),
                     "--out", str(root / "pool.json")]) == 0
    assert dispatch(["simulate", "--map", str(root / "map.json"),
                     "--tracklets", str(root / "tracklets"),
                     "--pool", str(root / "pool.json"),
                     "--out", str(root / "logs"), "--seed", "3"]) == 0
    return root


def test_simulate_render_metrics_reject_a_malformed_map(sim_logs, capsys):
    bad = sim_logs / "bad_map.json"
    bad.write_text(json.dumps(_BAD_MAPS["nan-point"][0]))
    runs = {
        "simulate": ["--tracklets", str(sim_logs / "tracklets"), "--pool",
                     str(sim_logs / "pool.json"), "--seed", "3",
                     "--out", str(sim_logs / "bad_sim")],
        "render": ["--logs", str(sim_logs / "logs"),
                   "--out", str(sim_logs / "bad_grids")],
        "metrics": ["--logs", str(sim_logs / "logs"),
                    "--out", str(sim_logs / "bad_metrics.json")],
    }
    for command, argv in runs.items():
        assert dispatch([command, "--map", str(bad), *argv]) == 1, command
        assert f"error: map file {bad}: centerline 0: 'points' must be " \
            in capsys.readouterr().err
        assert not os.path.exists(argv[-1])


@pytest.mark.parametrize("flags, message", [
    (["--spec", '{"H":0}'], "grid.H: expected an integer > 0, got 0"),
    (["--spec", '{"H":16.5}'], "grid.H: expected an integer > 0, got 16.5"),
    (["--spec", '{"res":-1}'], "grid.resolution: expected a number > 0"),
    (["--spec", "[1]"], "--spec: expected a JSON object, got [1]"),
    (["--spec", '{"Hh":16}'], "unknown key 'grid.Hh'"),
    (["--spec", '{"t_obs":0}'],
     "grid.t_obs: expected an integer > 0, got 0"),
    (["--spec", '{"H":16,"W":16,"res":1.0,"resolution":0.5}'],
     "--spec: gives both 'res' and 'resolution'"),
    (["--spec", '{"H":16,"W":16,"res":1.0,"res":0.5,"t_obs":5}'],
     "--spec: invalid JSON (repeated key 'res')"),
], ids=["H-zero", "H-fractional", "res-negative", "not-an-object",
        "unknown-key", "t-obs-zero", "res-and-resolution", "repeated-res"])
def test_render_grid_validation_exit_1(sim_logs, tmp_path, capsys, flags,
                                       message):
    out = tmp_path / "grids"
    rc = dispatch(["render", "--logs", str(sim_logs / "logs"),
                   "--map", str(sim_logs / "map.json"), *flags,
                   "--out", str(out)])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_render_that_writes_nothing_exits_1(sim_logs, tmp_path, capsys):
    # no log has more than t_obs steps, so no window fits
    out = tmp_path / "grids"
    rc = dispatch(["render", "--logs", str(sim_logs / "logs"),
                   "--map", str(sim_logs / "map.json"),
                   "--spec", '{"t_obs": 1000}', "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert re.search(r"grid\.t_obs is 1000, and the longest log has "
                     r"\d+ steps", err), err
    assert not out.exists()


def test_render_stride_zero_exits_1(sim_logs, tmp_path):
    # a zero stride never advances the window; run it out of process so a
    # render that loops fails on the timeout instead of hanging the suite
    out = tmp_path / "grids"
    src = os.path.dirname(os.path.dirname(trafficforge.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "trafficforge.cli", "render",
         "--logs", str(sim_logs / "logs"), "--map", str(sim_logs / "map.json"),
         "--spec", '{"stride":0}', "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "grid.stride: expected an integer > 0, got 0" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("jobs", [1, 2])
def test_render_builds_graph_and_context_once(sim_logs, tmp_path,
                                              monkeypatch, jobs):
    calls = {"graph": 0, "context": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(road_graph, "build_graph",
                        counted("graph", road_graph.build_graph))
    monkeypatch.setattr(bev_render, "render_context",
                        counted("context", bev_render.render_context))
    starts = set()
    for name in os.listdir(sim_logs / "logs"):
        if name.endswith(".csv"):
            sidecar = json.loads((sim_logs / "logs" / name).with_suffix(
                ".json").read_text())
            simlog = read_simlog_csv(str(sim_logs / "logs" / name), sidecar)
            ego = min(simlog.agents, key=lambda ag: ag.agent_id)
            starts.add((ego.x[0], ego.y[0]))
    assert len(starts) == 2  # two scenes, three variants each
    rc = dispatch(["render", "--logs", str(sim_logs / "logs"),
                   "--map", str(sim_logs / "map.json"),
                   "--spec", '{"H":32,"W":32,"res":1.0}',
                   "--jobs", str(jobs), "--out", str(tmp_path / "grids")])
    assert rc == 0
    assert len(os.listdir(tmp_path / "grids")) == 6
    assert calls == {"graph": 1, "context": len(starts)}


@pytest.mark.parametrize("command, jobs", [("simulate", "0"),
                                           ("render", "-3")])
def test_jobs_below_one_exits_1(sim_logs, tmp_path, capsys, command, jobs):
    inputs = {"simulate": ["--tracklets", str(sim_logs / "tracklets"),
                           "--pool", str(sim_logs / "pool.json"),
                           "--seed", "1"],
              "render": ["--logs", str(sim_logs / "logs")]}[command]
    out = tmp_path / "out"
    rc = dispatch([command, "--map", str(sim_logs / "map.json"), *inputs,
                   "--jobs", jobs, "--out", str(out)])
    assert rc == 1
    assert f"error: --jobs: expected an integer >= 1, got {jobs}" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["simulate", "--tracklets", "t", "--pool", "p", "--seed", "1"],
    ["render", "--logs", "l", "--spec", '{"H":32}'],
], ids=["simulate", "render"])
def test_non_object_config_exits_1(tmp_path, capsys, command):
    (tmp_path / "config.json").write_text("[1]\n")
    out = tmp_path / "out"
    rc = dispatch([command[0], "--map", "m", *command[1:],
                   "--config", str(tmp_path / "config.json"),
                   "--out", str(out)])
    assert rc == 1
    assert "configuration must be a JSON object" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config, flags, message", [
    ("[]", [], "config file {config}: configuration must be a JSON object"),
    ("0", [], "config file {config}: configuration must be a JSON object"),
    ('""', [], "config file {config}: configuration must be a JSON object"),
    ("null", [], "config file {config}: configuration must be a JSON object"),
    ('{"sim": 5}', ["--set", "sim.dt=0.1"],
     "cannot set sim.dt: sim is 5, not an object"),
    (None, ["--set", "sim.dt=0.1", "--set", "sim.dt.x=1"],
     "cannot set sim.dt.x: sim.dt is 0.1, not an object"),
    (None, ["--set", "sim.max_variants=Infinity"],
     "sim.max_variants: expected an integer >= 1, got inf"),
    (None, ["--set", "sim.horizon=Infinity"],
     "sim.horizon: expected a number > 0, got inf"),
    (None, ["--set", 'idm.T_range=["a", 1]'],
     "idm.T_range: must be [low, high] with 0 <= low <= high"),
    (None, ["--t0", "nan"], "--t0: expected a finite number of seconds, "
                            "got nan"),
    (None, ["--t0", "inf"], "--t0: expected a finite number of seconds, "
                            "got inf"),
    (None, ["--t0=-inf"], "--t0: expected a finite number of seconds, "
                          "got -inf"),
], ids=["empty-list", "zero", "empty-string", "null", "section-not-object",
        "key-not-object", "infinite-integer", "infinite-horizon",
        "range-not-numbers", "t0-nan", "t0-inf", "t0-minus-inf"])
def test_malformed_config_input_exits_1(sim_logs, tmp_path, capsys, config,
                                        flags, message):
    path = tmp_path / "config.json"
    if config is not None:
        path.write_text(config + "\n")
        flags = [*flags, "--config", str(path)]
    out = tmp_path / "out"
    rc = dispatch(["simulate", "--map", str(sim_logs / "map.json"),
                   "--tracklets", str(sim_logs / "tracklets"),
                   "--pool", str(sim_logs / "pool.json"), "--seed", "1",
                   *flags, "--out", str(out)])
    assert rc == 1
    assert "error: " + message.format(config=path) in capsys.readouterr().err
    assert not out.exists()


def test_pool_dt_must_match_sim_dt(sim_logs, tmp_path, capsys):
    def simulate(pool, *flags):
        return dispatch(["simulate", "--map", str(sim_logs / "map.json"),
                         "--tracklets", str(sim_logs / "tracklets"),
                         "--pool", str(pool), "--seed", "1", *flags,
                         "--out", str(tmp_path / "logs")])

    pool = tmp_path / "pool.json"
    assert dispatch(["profile-pool", "--tracklets",
                     str(sim_logs / "pool_tracks.json"),
                     "--set", "sim.dt=0.2", "--out", str(pool)]) == 0
    assert simulate(pool) == 1
    assert "error: profile pool dt 0.2 differs from sim.dt 0.1" \
        in capsys.readouterr().err
    assert not (tmp_path / "logs").exists()
    # the pool was built at sim.dt 0.2, so a run at that dt takes it
    assert simulate(pool, "--set", "sim.dt=0.2") == 0


@pytest.mark.parametrize("dt", [math.nan, 0, True, "0.1"],
                         ids=["nan", "zero", "bool", "text"])
def test_pool_dt_must_be_a_finite_number_above_0(sim_logs, tmp_path, capsys,
                                                 dt):
    pool = tmp_path / "pool.json"
    doc = json.loads((sim_logs / "pool.json").read_text())
    pool.write_text(json.dumps(dict(doc, dt=dt)))
    out = tmp_path / "logs"
    rc = dispatch(["simulate", "--map", str(sim_logs / "map.json"),
                   "--tracklets", str(sim_logs / "tracklets"),
                   "--pool", str(pool), "--seed", "1", "--out", str(out)])
    assert rc == 1
    assert f"error: pool file {pool}: 'dt' must be a finite number > 0, " \
        f"got {dt!r}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("doc, message", [
    ({}, "missing key 'dt'"),
    ({"dt": 0.1, "profiles": [{"label": "straight", "feature": 5.0}]},
     "profile 0: missing key 'samples'"),
    ({"dt": 0.1, "profiles": [{"label": "straight", "feature": "fast",
                               "samples": [5.0, 5.0]}]},
     "profile 0: 'feature' must be a finite number, got 'fast'"),
    ({"dt": 0.1, "profiles": {"label": "straight"}},
     "'profiles' must be a list, got dict"),
], ids=["empty", "no-samples", "non-numeric-feature", "profiles-not-list"])
def test_malformed_pool_exits_1(sim_logs, tmp_path, capsys, doc, message):
    pool = tmp_path / "pool.json"
    pool.write_text(json.dumps(doc))
    out = tmp_path / "logs"
    rc = dispatch(["simulate", "--map", str(sim_logs / "map.json"),
                   "--tracklets", str(sim_logs / "tracklets"),
                   "--pool", str(pool), "--seed", "1", "--out", str(out)])
    assert rc == 1
    assert f"error: pool file {pool}: {message}" in capsys.readouterr().err
    assert not out.exists()


def _with_agent_ids(*ids):
    """A two-track tracklet document whose tracks have the ``ids``."""
    doc = tracklets_doc("ids", [(1, -40.0, -1.75, 0.0, 9.0),
                                (2, -70.0, -1.75, 0.0, 9.0)])
    for track, aid in zip(doc["tracks"], ids):
        track["agent_id"] = aid
    return doc


@pytest.mark.parametrize("doc, message", [
    ({"scene_id": "a"}, "missing key 'tracks'"),
    ({"tracks": [{"agent_id": 1, "poses": [{"t": 0.0, "x": 1.0}]}]},
     "track 0: pose 0: missing key 'y'"),
    ({"tracks": [{"agent_id": 1, "poses": [{"t": 0.5, "x": 0.0, "y": 0.0},
                                           {"t": 0.2, "x": 1.0, "y": 0.0}]}]},
     "track 0: times not sorted at pose 1 (t 0.2)"),
    (tracklets_doc("dup", [(1, -40.0, -1.75, 0.0, 9.0),
                           (1, -70.0, -1.75, 0.0, 9.0)]),
     "track 1: agent_id 1 is already track 0's"),
    *[(_with_agent_ids(1, bad), f"track 1: 'agent_id' must be an integer, "
                                f"got {bad!r}") for bad in (1.7, True, "2")],
    ({"tracks": [{"agent_id": 1, "poses": [[0, 1, 2]]}]},
     "track 0: pose 0: expected an object, got [0, 1, 2]"),
    ({"tracks": [{"agent_id": 1, "poses": {"t": 0, "x": 1, "y": 0}}]},
     "track 0: 'poses' must be a list, got dict"),
    ({"tracks": [{"agent_id": 1, "poses": "abc"}]},
     "track 0: 'poses' must be a list, got str"),
], ids=["no-tracks", "no-y", "unsorted-times", "repeated-id", "float-id",
        "bool-id", "text-id", "list-pose", "object-poses", "text-poses"])
@pytest.mark.parametrize("command", ["profile-pool", "simulate"])
def test_malformed_tracklets_exit_1(sim_logs, tmp_path, capsys, command, doc,
                                    message):
    path = tmp_path / "tracks.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = [command, "--tracklets", str(path), "--out", str(out)]
    if command == "simulate":
        argv += ["--map", str(sim_logs / "map.json"),
                 "--pool", str(sim_logs / "pool.json"), "--seed", "1"]
    assert dispatch(argv) == 1
    assert f"error: tracklets file {path}: {message}" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["t", "x", "y", "heading", "speed",
                                 "length", "width"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("command", ["profile-pool", "simulate"])
def test_non_finite_tracklets_exit_1(sim_logs, tmp_path, capsys, command,
                                     key, value):
    doc = tracklets_doc("nf", [(1, -40.0, -1.75, 0.0, 9.0),
                               (2, -70.0, -1.75, 0.0, 9.0)])
    where = "track 1"
    if key in ("length", "width"):
        doc["tracks"][1][key] = value
    else:
        doc["tracks"][1]["poses"][2][key] = value
        where += ": pose 2"
    path = tmp_path / "tracks.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = [command, "--tracklets", str(path), "--out", str(out)]
    if command == "simulate":
        argv += ["--map", str(sim_logs / "map.json"),
                 "--pool", str(sim_logs / "pool.json"), "--seed", "1"]
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert f"error: tracklets file {path}: {where}: {key!r} must be a " \
        f"finite number" in err and err.endswith(f", got {value!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["profile-pool", "simulate"])
def test_tracks_without_poses(sim_logs, tmp_path, capsys, command):
    """A track whose ``poses`` is empty is dropped at ingest as
    ``no-pose-at-t0`` and skipped by pool mining as ``too-short``; a
    file with no other track exits 1."""
    doc = _with_agent_ids(1, 2)
    doc["tracks"][1]["poses"] = []
    path = tmp_path / "tracks.json"
    argv = [command, "--tracklets", str(path)]
    if command == "simulate":
        argv += ["--map", str(sim_logs / "map.json"),
                 "--pool", str(sim_logs / "pool.json"), "--seed", "1"]

    def run(out):
        path.write_text(json.dumps(doc))
        return dispatch(argv + ["--out", str(tmp_path / out)])

    assert run("one") == 0
    if command == "simulate":
        summary = json.loads((tmp_path / "one" / "run.json").read_text())
        assert summary["dropped"] == [{"scene_id": "ids", "agent_id": 2,
                                       "reason": "no-pose-at-t0"}]
    else:
        pool = json.loads((tmp_path / "one").read_text())
        assert len(pool["profiles"]) == 1
    capsys.readouterr()
    doc["tracks"][0]["poses"] = []
    assert run("none") == 1
    message = f"tracklets file {path}: scene ids: every agent was dropped" \
        if command == "simulate" \
        else "no usable trajectories for the profile pool"
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not (tmp_path / "none").exists()


def test_simulate_exits_1_without_a_log(tmp_path, capsys):
    _write_inputs(tmp_path, n_scenes=1)
    # straight profiles only, while scene00's agents approach a junction
    # and must draw turns as well
    (tmp_path / "pool.json").write_text(json.dumps({"dt": 0.1, "profiles": [
        {"label": "straight", "feature": 9.0, "samples": [9.0] * 71}]}))

    def simulate(out):
        return dispatch(["simulate", "--map", str(tmp_path / "map.json"),
                         "--tracklets", str(tmp_path / "tracklets"),
                         "--pool", str(tmp_path / "pool.json"),
                         "--seed", "1", "--out", str(out)])

    assert simulate(tmp_path / "none") == 1
    err = capsys.readouterr().err
    assert "error: no log written: every scene failed\n" \
        "error: scene scene00: MissingProfileError" in err
    run = json.loads((tmp_path / "none" / "run.json").read_text())
    assert run["n_logs"] == 0 and len(run["failures"]) == 1
    # an agent on an outbound arm can only go straight
    (tmp_path / "tracklets" / "leaving.json").write_text(json.dumps(
        tracklets_doc("leaving", [(1, 40.0, -1.75, 0.0, 9.0)])))
    assert simulate(tmp_path / "some") == 0
    run = json.loads((tmp_path / "some" / "run.json").read_text())
    assert run["n_logs"] == 1
    assert [f["scene_id"] for f in run["failures"]] == ["scene00"]


def test_straight_threshold_reaches_route_labels(tmp_path):
    _write_inputs(tmp_path, n_scenes=1)
    (tmp_path / "pool.json").write_text(json.dumps({"dt": 0.1, "profiles": [
        {"label": "straight", "feature": 9.0, "samples": [9.0] * 71}]}))
    # a 90 degree turn is below a 100 degree threshold, so every route
    # the junction offers is labelled straight and the pool serves it
    rc = dispatch(["simulate", "--map", str(tmp_path / "map.json"),
                   "--tracklets", str(tmp_path / "tracklets"),
                   "--pool", str(tmp_path / "pool.json"),
                   "--set", "road.straight_threshold_deg=100",
                   "--seed", "1", "--out", str(tmp_path / "out")])
    assert rc == 0
    agents = [ag for p in sorted((tmp_path / "out").glob("scene00_v*.json"))
              for ag in json.loads(p.read_text())["agents"]]
    assert agents and {ag["label"] for ag in agents} == {"straight"}
    # at the default threshold some driven route is a turn
    graph = road_graph.build_graph(four_way_intersection(), **GRAPH_ARGS)
    doc = json.loads((tmp_path / "tracklets" / "scene00.json").read_text())
    scene = scene_ingest.instantiate_agents(
        graph, scene_ingest.load_tracklets(doc)[1], 0.0, "scene", SPAWN_GAP)
    turns = {tuple(r.edge_ids) for a in scene.agents
             for r in road_graph.enumerate_routes(graph, a.lane, **ROUTE_ARGS)
             if r.maneuver != "straight"}
    assert turns & {tuple(ag["route_edges"]) for ag in agents}


def test_pretty_only_where_json_is_printed(sim_logs, tmp_path, capsys):
    root = str(sim_logs)
    for argv in (["simulate", "--map", f"{root}/map.json", "--tracklets",
                  f"{root}/tracklets", "--pool", f"{root}/pool.json",
                  "--seed", "3"],
                 ["render", "--logs", f"{root}/logs", "--map",
                  f"{root}/map.json"],
                 ["profile-pool", "--tracklets", f"{root}/pool_tracks.json"]):
        out = tmp_path / argv[0]
        assert dispatch(argv + ["--pretty", "--out", str(out)]) == 1
        assert "unrecognized arguments: --pretty" in capsys.readouterr().err
        assert not out.exists()
    assert dispatch(["build-graph", "--map", f"{root}/map.json",
                     "--pretty"]) == 0
    assert capsys.readouterr().out.startswith("{\n  ")


def test_render_accepts_integer_valued_floats(sim_logs, tmp_path):
    # validation lets 16.0 pass as an integer, so the header must get 16
    out = tmp_path / "grids"
    rc = dispatch(["render", "--logs", str(sim_logs / "logs"),
                   "--map", str(sim_logs / "map.json"),
                   "--spec", '{"H":16.0,"W":16,"res":1,"t_obs":20.0}',
                   "--out", str(out)])
    assert rc == 0
    names = sorted(os.listdir(out))
    assert len(names) == 6
    sample = bev_render.read_grid_sample(str(out / names[0]))
    assert (sample.spec.H, sample.spec.W, sample.t_obs) == (16, 16, 20)


def _simulate_argv(root, out, *overrides):
    return ["simulate", "--map", f"{root}/map.json", "--tracklets",
            f"{root}/tracklets", "--pool", f"{root}/pool.json", "--seed", "3",
            "--out", str(out)] + [a for o in overrides for a in ("--set", o)]


def _arc_pose(s, offset, radius=300.0):
    """(x, y, heading) at arc length ``s`` of a left bend from the
    origin, ``offset`` m left of it."""
    a = s / radius
    return ((radius - offset) * math.sin(a),
            radius - (radius - offset) * math.cos(a), a)


@pytest.mark.parametrize("overrides", [[], ["road.max_snap_distance=1.0"]],
                         ids=["grid-snap", "whole-lane-snap"])
def test_mobil_snap_fallback_pinned(tmp_path, monkeypatch, overrides):
    """A two-lane bend where MOBIL changes lanes: the same logs whether
    the neighbor-lane snap reads the grid cell (the default snap limit)
    or every segment of the lane (a limit below the 3.5 m lane spacing,
    beyond which the cell answers nothing)."""
    os.makedirs(tmp_path / "tracklets")
    (tmp_path / "map.json").write_text(json.dumps({"centerlines": [
        {"id": 0, "lanes": 2,
         "points": [_arc_pose(s, 0.0)[:2] for s in range(0, 401, 20)]}]}))
    agents = [(aid, *_arc_pose(s, off), v) for aid, s, off, v in
              [(1, 60.0, -1.75, 6.0), (2, 35.0, -1.75, 12.0),
               (3, 10.0, -1.75, 13.0), (4, 40.0, 1.75, 14.0)]]
    (tmp_path / "tracklets" / "two_lane.json").write_text(
        json.dumps(tracklets_doc("two_lane", agents)))
    _write_pool_tracks(tmp_path)
    assert dispatch(["profile-pool", "--tracklets",
                     str(tmp_path / "pool_tracks.json"),
                     "--out", str(tmp_path / "pool.json")]) == 0
    project = geometry.project_point
    whole = []

    def counted(table, q, rows=None):
        whole.append(rows is None)
        return project(table, q, rows)

    monkeypatch.setattr(geometry, "project_point", counted)
    out = tmp_path / "logs"
    assert dispatch(_simulate_argv(tmp_path, out, *overrides)) == 0
    assert any(whole) == bool(overrides)
    sidecar = json.loads((out / "two_lane_v0.json").read_text())
    assert sum(len(ag["lane_changes"]) for ag in sidecar["agents"]) == 5
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("two_lane_v0.csv", "two_lane_v0.json")}
    assert digests == {
        "two_lane_v0.csv":
        "a645d6fb61452e41c485c05587a3aadf6d498adc6db37e45751ea4933515b76d",
        "two_lane_v0.json":
        "a8af60e16773347e8730f08c7d02355a3c1a99ecae6616b185e919a497d7bbdd"}


def _subcommands():
    """Each subcommand's name -> its parser."""
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_no_flag_shadows_a_config_key():
    # a setting has one way in: --config and --set (and --seed, --spec)
    key_names = {key.rsplit(".", 1)[-1] for key in SCHEMA}
    shadows = [f"{name} {action.option_strings}"
               for name, parser in _subcommands().items()
               for action in parser._actions if action.dest in key_names]
    assert shadows == []


def test_readme_synopsis_names_every_flag():
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme) as fh:
        block = fh.read().split("## Command line", 1)[1].split("```")[1]
    synopsis = {}
    for line in block.splitlines():
        words = line.split()
        if not words:
            continue
        if words[0] == "trafficforge":
            command = words[1]
        synopsis.setdefault(command, set()).update(
            w.strip("[]|") for w in words if w.strip("[]").startswith("--"))
    shared = {"--config", "--set", "--help"}
    commands = _subcommands()
    assert synopsis.keys() == commands.keys()
    for name, parser in commands.items():
        flags = set(parser._option_string_actions) - {"-h"}
        assert synopsis[name] - shared == flags - shared, name


@pytest.mark.parametrize("key, value", [("sim.max_variants", 3),
                                        ("road.max_routes", 16)])
def test_integer_keys_take_integer_valued_floats(sim_logs, tmp_path, key,
                                                 value):
    # 3.0 is the integer 3: the same logs and sidecars, config digest too
    for spelling in (f"{value}", f"{value}.0"):
        assert dispatch(_simulate_argv(sim_logs, tmp_path / spelling,
                                       f"{key}={spelling}")) == 0
    assert _tree_digest(tmp_path / f"{value}") \
        == _tree_digest(tmp_path / f"{value}.0")


def test_value_error_in_a_scene_exits_2(sim_logs, tmp_path, capsys,
                                        monkeypatch):
    # a ValueError is a bug, not a scene failure: it stops the run
    real, calls = sim_engine.step_kinematics, []

    def step_kinematics(*args, **kwargs):
        calls.append(None)
        if len(calls) == 50:
            np.zeros(3).reshape(2, 2)
        return real(*args, **kwargs)

    monkeypatch.setattr(sim_engine, "step_kinematics", step_kinematics)
    assert dispatch(_simulate_argv(sim_logs, tmp_path / "out")) == 2
    assert "error: ValueError: cannot reshape array of size 3 into shape " \
        "(2,2)\n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _sidecar_edit(edit):
    """A corruption that applies ``edit`` to the parsed sidecar."""
    def corrupt(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)
    return corrupt


_BAD_DT = "sidecar file {path}: ValueError: 'dt' must be a finite number " \
    "> 0, got "


@pytest.mark.parametrize("command", ["metrics", "render"])
@pytest.mark.parametrize("suffix, corrupt, detail", [
    (".csv", lambda text: text + "scene00,0,1,0.000,1.0\n",
     "simulation log {path} line {last}: IndexError: list index out of "
     "range"),
    (".csv", lambda text: text + "scene00,0,1,0.000,1.0,x,2.0,0.1,0.0,0.0,"
     "straight\n",
     "simulation log {path} line {last}: ValueError: could not convert "
     "string to float: 'x'"),
    (".csv", lambda text: text + "scene00,0,1,0.000,1.0,nan,2.0,0.1,0.0,0.0,"
     "straight\n",
     "simulation log {path} line {last}: ValueError: non-finite value in "
     "[0.0, 1.0, nan,"),
    (".csv", lambda text: text.replace(",psi,", ",yaw,", 1),
     "simulation log {path} line 1: the header must be 'scene_id,variant,"
     "agent_id,t,x,y,v,psi,a,phi,label', got 'scene_id,variant,agent_id,t,"
     "x,y,v,yaw,a,phi,label'"),
    (".csv", lambda text: text.splitlines(True)[0],
     "simulation log {path}: no data rows"),
    (".json", lambda text: text[:len(text) // 2],
     "sidecar file {path}: invalid JSON"),
    (".json", _sidecar_edit(lambda d: d.update(dt="abc")), _BAD_DT + "'abc'"),
    (".json", _sidecar_edit(lambda d: d.update(dt=None)), _BAD_DT + "None"),
    (".json", _sidecar_edit(lambda d: d.update(dt=0)), _BAD_DT + "0"),
    (".json", _sidecar_edit(lambda d: d.update(dt=math.nan)), _BAD_DT + "nan"),
    (".json", _sidecar_edit(lambda d: d.update(dt=True)), _BAD_DT + "True"),
    (".json", lambda text: "[1]\n",
     "sidecar file {path}: TypeError: list indices must be integers"),
    (".json", _sidecar_edit(lambda d: d["agents"][0].pop("agent_id")),
     "sidecar file {path}: KeyError: 'agent_id'"),
    (".json", _sidecar_edit(lambda d: d["agents"][0].update(agent_id="1")),
     "sidecar file {path}: TypeError: 'agent_id' must be an integer, "
     "got '1'"),
    (".json", _sidecar_edit(lambda d: d["agents"][0].update(
        lane_changes=[{"step": 3, "to_edge": 1}])),
     "sidecar file {path}: KeyError: 'from_edge'"),
    (".json", _sidecar_edit(lambda d: d.pop("master_seed")),
     "sidecar file {path}: KeyError: 'master_seed'"),
    (".json", _sidecar_edit(lambda d: d.update(master_seed=3.0)),
     "sidecar file {path}: TypeError: 'master_seed' must be an integer, "
     "got 3.0"),
    (".json", _sidecar_edit(lambda d: d.pop("config_digest")),
     "sidecar file {path}: KeyError: 'config_digest'"),
    (".json", _sidecar_edit(lambda d: d.update(config_digest=5)),
     "sidecar file {path}: TypeError: 'config_digest' must be a string, "
     "got 5"),
], ids=["missing-field", "non-numeric", "non-finite", "missing-column",
        "no-rows", "bad-sidecar", "sidecar-dt-text", "sidecar-dt-null",
        "sidecar-dt-zero", "sidecar-dt-nan", "sidecar-dt-bool",
        "sidecar-not-object", "sidecar-no-agent-id",
        "sidecar-agent-id-text", "sidecar-lane-change-no-from-edge",
        "sidecar-no-master-seed", "sidecar-master-seed-float",
        "sidecar-no-config-digest", "sidecar-config-digest-number"])
def test_malformed_log_exits_1(sim_logs, tmp_path, capsys, command, suffix,
                               corrupt, detail):
    logs = tmp_path / "logs"
    shutil.copytree(sim_logs / "logs", logs)
    path = logs / ("scene00_v1" + suffix)
    path.write_text(corrupt(path.read_text()))
    last = len(path.read_text().splitlines())
    out = tmp_path / "out"
    rc = dispatch([command, "--logs", str(logs),
                   "--map", str(sim_logs / "map.json"), "--out", str(out)])
    assert rc == 1
    assert "error: " + detail.format(path=path, last=last) \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["metrics", "render"])
@pytest.mark.parametrize("variant", [-1, 4294967296])
def test_log_variant_outside_u32_exits_1(sim_logs, tmp_path, capsys,
                                         command, variant):
    # a .bevg header holds the variant as a u32; the sidecar names it, and
    # a CSV line that names another is refused at its line
    logs = tmp_path / "logs"
    shutil.copytree(sim_logs / "logs", logs)
    path = logs / "scene00_v1.json"
    path.write_text(_sidecar_edit(lambda d: d.update(variant=variant))(
        path.read_text()))
    csv = logs / "scene00_v2.csv"
    with open(csv, "a") as fh:
        fh.write(f"scene00,{variant},1,0.000,1.0,2.0,0.0,0.0,0.0,0.0,"
                 f"straight\n")
    last = len(csv.read_text().splitlines())
    out = tmp_path / "out"
    argv = [command, "--logs", str(logs), "--map", str(sim_logs / "map.json"),
            "--out", str(out)]
    assert dispatch(argv) == 1
    assert f"error: sidecar file {path}: ValueError: 'variant' must be an " \
        f"integer >= 0 and <= 4294967295, got {variant}\n" \
        in capsys.readouterr().err
    shutil.copy(sim_logs / "logs" / "scene00_v1.json", path)
    assert dispatch(argv) == 1
    assert f"error: simulation log {csv} line {last}: ValueError: every " \
        f"line must name the sidecar's scene 'scene00' and variant 2, got " \
        f"'scene00' and {variant}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["metrics", "render"])
def test_swapped_sidecars_exit_1(sim_logs, tmp_path, capsys, command):
    # a log's scene and variant come from its sidecar: a CSV beside
    # another log's sidecar is refused at its first line, not read with
    # that sidecar's dt and routes
    logs = tmp_path / "logs"
    shutil.copytree(sim_logs / "logs", logs)
    shutil.copy(sim_logs / "logs" / "scene00_v0.json", logs / "scene01_v1.json")
    shutil.copy(sim_logs / "logs" / "scene01_v1.json", logs / "scene00_v0.json")
    out = tmp_path / "out"
    assert dispatch([command, "--logs", str(logs),
                     "--map", str(sim_logs / "map.json"),
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: simulation log {logs / 'scene00_v0.csv'} line 2: "
        f"ValueError: every line must name the sidecar's scene 'scene01' "
        f"and variant 1, got 'scene00' and 0\n")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--map", "--config", "--tracklets",
                                  "--preds", "--logs"])
def test_a_directory_for_an_input_file_exits_1(sim_logs, tmp_path, capsys,
                                               flag):
    # each flag names a directory where a file belongs; for --logs, a
    # directory named like a log, beside its sidecar
    here = tmp_path / "here.json"
    here.mkdir()
    logs = sim_logs / "logs"
    argv, what = {
        "--map": (["build-graph", "--map", str(here)], "map file"),
        "--config": (["build-graph", "--map", str(sim_logs / "map.json"),
                      "--config", str(here)], "config file"),
        "--tracklets": (["profile-pool", "--tracklets", str(here),
                         "--out", str(tmp_path / "pool.json")],
                        "tracklets file"),
        "--preds": (["metrics", "--preds", str(here)], "predictions file"),
        "--logs": (["metrics", "--logs", str(tmp_path / "logs")],
                   "simulation log"),
    }[flag]
    if flag == "--logs":
        shutil.copytree(logs, tmp_path / "logs")
        here = tmp_path / "logs" / "scene99_v0.csv"
        here.mkdir()
        shutil.copy(logs / "scene00_v0.json", tmp_path / "logs"
                    / "scene99_v0.json")
    assert dispatch(argv) == 1
    assert capsys.readouterr().err \
        == f"error: {what} {here}: {os.strerror(errno.EISDIR)}\n"


@pytest.mark.parametrize("command", ["metrics", "render"])
def test_two_logs_of_one_scene_and_variant_exit_1(sim_logs, tmp_path, capsys,
                                                  command):
    # a copy of a log under another name: render would write its grid
    # samples over the first's, and metrics would count its agents twice
    logs = tmp_path / "logs"
    shutil.copytree(sim_logs / "logs", logs)
    for suffix in (".csv", ".json"):
        shutil.copy(logs / f"scene00_v0{suffix}", logs / f"zz_v0{suffix}")
    out = tmp_path / "out"
    assert dispatch([command, "--logs", str(logs),
                     "--map", str(sim_logs / "map.json"),
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: simulation logs {logs / 'scene00_v0.csv'} and "
        f"{logs / 'zz_v0.csv'} both hold scene 'scene00' variant 0\n")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--logs", "--preds"])
def test_an_input_that_is_not_utf8_exits_1(sim_logs, tmp_path, capsys, flag):
    logs = tmp_path / "logs"
    shutil.copytree(sim_logs / "logs", logs)
    if flag == "--logs":
        # byte 0xff at the end of the first row's label
        path = logs / "scene00_v0.csv"
        data = path.read_bytes()
        end = data.index(b"\n", data.index(b"\n") + 1)
        path.write_bytes(data[:end] + b"\xff" + data[end:])
        what = "simulation log"
    else:
        path = tmp_path / "preds.jsonl"
        path.write_bytes(json.dumps({
            "agent_id": 1, "dt": 0.1, "gt": [[0.0, 0.0]] * 3,
            "samples": [[[0.0, 0.0]] * 3] * 2}).encode() + b"\n\xff\n")
        what = "predictions file"
    out = tmp_path / "report.json"
    assert dispatch(["metrics", flag, str(logs if flag == "--logs" else path),
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {what} {path}: UnicodeDecodeError: 'utf-8' codec can't "
        f"decode byte 0xff in position ")
    assert not out.exists()


@pytest.mark.parametrize("kind", ["map", "tracklets", "pool", "config",
                                  "sidecar"])
def test_repeated_key_in_a_json_file_exits_1(sim_logs, tmp_path, capsys,
                                             kind):
    # the repeated key holds the same value, or a second one for the
    # config; either way the file is refused, not read last-value-wins
    for name in ("map.json", "pool.json", "tracklets", "logs"):
        copy = shutil.copytree if name in ("tracklets", "logs") \
            else shutil.copy
        copy(sim_logs / name, tmp_path / name)
    path, key = {
        "map": (tmp_path / "map.json", "centerlines"),
        "tracklets": (tmp_path / "tracklets" / "scene00.json", "tracks"),
        "pool": (tmp_path / "pool.json", "dt"),
        "config": (tmp_path / "config.json", "resolution"),
        "sidecar": (tmp_path / "logs" / "scene00_v1.json", "agents"),
    }[kind]
    if kind == "config":
        path.write_text('{"grid": {"resolution": 1.0, "resolution": 0.5}}')
    else:
        doc = json.loads(path.read_text())
        path.write_text(json.dumps(doc)[:-1]
                        + f", {json.dumps(key)}: {json.dumps(doc[key])}}}")
    out = tmp_path / "out"
    if kind == "sidecar":
        argv = ["metrics", "--logs", str(tmp_path / "logs"), "--out", str(out)]
    else:
        argv = _simulate_argv(tmp_path, out) + ["--config", str(path)] * (
            kind == "config")
    assert dispatch(argv) == 1
    assert f"error: {kind} file {path}: invalid JSON (repeated key {key!r})" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["metrics", "render"])
def test_log_without_sidecar_exits_1(sim_logs, tmp_path, capsys, command):
    logs = tmp_path / "logs"
    shutil.copytree(sim_logs / "logs", logs)
    (logs / "scene00_v1.json").unlink()
    out = tmp_path / "out"
    rc = dispatch([command, "--logs", str(logs),
                   "--map", str(sim_logs / "map.json"), "--out", str(out)])
    assert rc == 1
    assert f"error: sidecar file not found: {logs / 'scene00_v1.json'}" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["metrics", "render"])
def test_log_agent_without_sidecar_entry_exits_1(sim_logs, tmp_path, capsys,
                                                 command):
    logs = tmp_path / "logs"
    shutil.copytree(sim_logs / "logs", logs)
    path = logs / "scene00_v1.json"
    doc = json.loads(path.read_text())
    first = min(ag["agent_id"] for ag in doc["agents"])
    doc["agents"] = []
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    rc = dispatch([command, "--logs", str(logs),
                   "--map", str(sim_logs / "map.json"), "--out", str(out)])
    assert rc == 1
    assert (f"error: simulation log {logs / 'scene00_v1.csv'}: agent "
            f"{first} has no entry in the sidecar's agents"
            ) in capsys.readouterr().err
    assert not out.exists()


def test_metrics_report_digest_pinned(sim_logs, tmp_path):
    # a map with 40 m arms leaves the far ends of half the trajectories
    # off the lanes, so the report covers valid and invalid verdicts
    with open(tmp_path / "short_map.json", "w") as fh:
        json.dump(four_way_intersection(arm=40.0), fh)
    out = tmp_path / "report.json"
    rc = dispatch(["metrics", "--logs", str(sim_logs / "logs"),
                   "--map", str(tmp_path / "short_map.json"),
                   "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_bytes())["validity_ratio"] == 0.5
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "574fcc48bc2f66b0acea3e897e0631f4221c0c260cac6ea88c00301c84578a1b"


def test_run_json_lists_dropped_agents(sim_logs, tmp_path):
    # agent 2 is far off the map; agent 3 spawns 2 m behind agent 1 on
    # the same lane, inside the spawn gap, so the higher id is thinned
    x, y, psi = approach_point(0, 30.0)
    doc = tracklets_doc("drops", [(1, x, y, psi, 9.0),
                                  (2, 500.0, 500.0, 0.0, 5.0),
                                  (3, x - 2.0, y, psi, 9.0)])
    tracklets = tmp_path / "tracklets"
    tracklets.mkdir()
    (tracklets / "drops.json").write_text(json.dumps(doc))
    shutil.copy(sim_logs / "tracklets" / "scene00.json", tracklets)
    out = tmp_path / "logs"
    assert dispatch(["simulate", "--map", str(sim_logs / "map.json"),
                     "--tracklets", str(tracklets),
                     "--pool", str(sim_logs / "pool.json"), "--seed", "1",
                     "--out", str(out)]) == 0
    run = json.loads((out / "run.json").read_text())
    assert run["failures"] == []
    assert run["dropped"] == [
        {"scene_id": "drops", "agent_id": 2, "reason": "off-map"},
        {"scene_id": "drops", "agent_id": 3, "reason": "spawn-gap"}]


def test_render_does_not_import_numpy_ma(sim_logs, tmp_path):
    # numpy.ma costs about 10 ms and 0.65 MB on first import, and some
    # numpy calls import it lazily (np.unique without return_index); run
    # render in a fresh interpreter
    src = os.path.dirname(os.path.dirname(trafficforge.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["render", "--logs", str(sim_logs / "logs"),
            "--map", str(sim_logs / "map.json"),
            "--spec", '{"H":32,"W":32,"res":1.0}',
            "--out", str(tmp_path / "grids")]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, trafficforge.cli\n"
         f"assert trafficforge.cli.dispatch({argv!r}) == 0\n"
         "print('numpy.ma' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    assert len(os.listdir(tmp_path / "grids")) == 6


def test_runtime_imports_neither_scipy_nor_numpy_ma():
    # the runtime is numpy-only: scipy (about half a second of import
    # time) and numpy.ma (imported by np.median) stay unloaded through
    # the snap, the validity check (of one trajectory, and of several
    # folded by reduceat), the likelihood, the diversity report and the
    # realism check; run in a fresh interpreter
    src = os.path.dirname(os.path.dirname(trafficforge.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.path.dirname(__file__)]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, numpy as np, trafficforge.cli\n"
         "from helpers import GRAPH_ARGS\n"
         "from trafficforge import metrics, road_graph\n"
         "g = road_graph.build_graph({'centerlines': [\n"
         "    {'id': 0, 'points': [[0, 0], [50, 0]], 'oneway': False}]},\n"
         "    **GRAPH_ARGS)\n"
         "road_graph.project_to_lane(g, (10.0, 1.0), 0.0)\n"
         "road_graph.within_lanes(g, np.array([[5.0, 1.0], [5.0, 30.0]]), 0.5)\n"
         "trajs = [metrics.Trajectory2D(0.1, np.column_stack(\n"
         "    [np.arange(6.0), np.sin(np.arange(6.0) + k)]))\n"
         "    for k in range(5)]\n"
         "assert metrics.validity_ratio(trajs, g) == 1.0\n"
         "metrics.nll(metrics.PredictionSet(1, trajs[0], trajs[1:]), 5)\n"
         "metrics.diversity_report(trajs)\n"
         "metrics.pca_kde_realism(trajs[:4], trajs[1:], n_eval=8)\n"
         "print(sorted(m for m in sys.modules\n"
         "             if m.split('.')[0] == 'scipy'\n"
         "             or m.split('.')[:2] == ['numpy', 'ma']))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
