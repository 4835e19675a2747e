"""Command-line behavior: validation, exit codes, end-to-end determinism."""

import hashlib
import json
import os

import numpy as np
import pytest

from helpers import (approach_point, four_way_intersection,
                     synthetic_profile_sources, tracklets_doc,
                     turning_source_traj)

from trafficforge.cli import dispatch
from trafficforge.config import apply_overrides, validate_config
from trafficforge.errors import ConfigError


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
                   "--dt", "0.1", "--out", str(tmp_path / "pool.json")])
    assert rc == 0
    pool_doc = json.load(open(tmp_path / "pool.json"))
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
                "--dt", "0.1", "--out", str(out)]
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
    rep = json.load(open(out))
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
], ids=["bad-json", "missing-key"])
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


def test_metrics_requires_input(capsys):
    assert dispatch(["metrics"]) == 1


def test_render_roundtrip_tree(tmp_path):
    _write_inputs(tmp_path, n_scenes=1)
    dispatch(["profile-pool", "--tracklets", str(tmp_path / "pool_tracks.json"),
              "--dt", "0.1", "--out", str(tmp_path / "pool.json")])
    dispatch(["simulate", "--map", str(tmp_path / "map.json"),
              "--tracklets", str(tmp_path / "tracklets"),
              "--pool", str(tmp_path / "pool.json"),
              "--out", str(tmp_path / "logs"), "--seed", "3"])
    rc = dispatch(["render", "--logs", str(tmp_path / "logs"),
                   "--map", str(tmp_path / "map.json"),
                   "--spec", '{"H":48,"W":48,"res":1.0}',
                   "--t-obs", "20", "--out", str(tmp_path / "grids")])
    assert rc == 0
    files = sorted(os.listdir(tmp_path / "grids"))
    assert files and all(f.endswith(".bevg") for f in files)
    from trafficforge.bev_render import read_grid_sample
    sample = read_grid_sample(str(tmp_path / "grids" / files[0]))
    assert sample.spec.H == 48
    assert sample.t_obs == 20
