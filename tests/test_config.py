"""The configuration schema: defaults, validation and the SimConfig mapping.

The digests and the violation list below were recorded before the key
table replaced the hand-written defaults and checks, so they pin that the
key set, every default, every message and every field a key feeds stayed
the same.
"""

import ast
import hashlib
import os
import re

import pytest

from trafficforge import config
from trafficforge.config import SCHEMA, SimConfig, validate_config
from trafficforge.errors import ConfigError
from trafficforge.util import canonical_json, digest


def _sha(doc):
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def _keys(raw):
    return sorted(f"{sec}.{key}" for sec, body in raw.items() for key in body)


def test_defaults_pinned():
    cfg = validate_config({})
    assert _sha(cfg.raw) == \
        "20e419fbaacff64a41abde109b50d73c4d3695a92bb7ef6af18ea79390816116"
    assert len(_keys(cfg.raw)) == 41
    sim_sha = \
        "063224c191e0938b73936880e51a2e99fcf10d14839b1c7c6a6c44a7d79d1dae"
    assert _sha(SimConfig().to_dict()) == sim_sha
    assert _sha(cfg.sim_config().to_dict()) == sim_sha
    # the config_digest written into every sidecar
    assert digest(SimConfig().to_dict()) == "063224c191e0938b"


# one violation per key, an unknown section and an unknown key
_BROKEN = {
    "sim": {"dt": 0, "horizon": -7.0, "max_variants": 0, "master_seed": 1.5,
            "ego": "other", "sensing_range": 0, "max_lane_deviation": -1,
            "lane_change_enabled": 1, "extra": 1},
    "idm": {"T_range": [2.5, 0.5], "s0_range": [-1, 4],
            "a_range": [1.0], "b_range": "wide"},
    "mobil": {"p": -0.1, "da_th": "x", "b_safe": 0, "da_bias": True},
    "controller": {"kp_lateral": 0, "kp_heading": -2, "kp_speed": "1",
                   "lookahead_time": -0.1, "lookahead_min": -1,
                   "phi_max_deg": 90.5, "psi_req_max_deg": 0, "v_eps": None,
                   "epsilon_std": -0.2, "a_max_decel": 0},
    "road": {"join_tolerance": -0.5, "max_snap_distance": 0,
             "default_lane_width": -3.5, "straight_threshold_deg": 180.5,
             "horizon_dist": 0, "max_routes": 0.5},
    "behavior": {"noise_std": -1, "min_spawn_gap": -2,
                 "turn_rate_threshold": 0, "turn_rate_sustain": -0.5},
    "grid": {"H": 0, "W": 16.5, "resolution": [0.5], "t_obs": False,
             "stride": -1},
    "unknown": {},
}

_BROKEN_VIOLATIONS = [
    "behavior.min_spawn_gap: expected a number >= 0, got -2",
    "behavior.noise_std: expected a number >= 0, got -1",
    "behavior.turn_rate_sustain: expected a number >= 0, got -0.5",
    "behavior.turn_rate_threshold: expected a number > 0, got 0",
    "controller.a_max_decel: expected a number > 0, got 0",
    "controller.epsilon_std: expected a number >= 0, got -0.2",
    "controller.kp_heading: expected a number > 0, got -2",
    "controller.kp_lateral: expected a number > 0, got 0",
    "controller.kp_speed: expected a number > 0, got '1'",
    "controller.lookahead_min: expected a number >= 0, got -1",
    "controller.lookahead_time: expected a number >= 0, got -0.1",
    "controller.phi_max_deg: expected a number > 0, got 90.5",
    "controller.psi_req_max_deg: expected a number > 0, got 0",
    "controller.v_eps: expected a number > 0, got None",
    "grid.H: expected an integer > 0, got 0",
    "grid.W: expected an integer > 0, got 16.5",
    "grid.resolution: expected a number > 0, got [0.5]",
    "grid.stride: expected an integer > 0, got -1",
    "grid.t_obs: expected an integer > 0, got False",
    "idm.T_range: must be [low, high] with 0 <= low <= high",
    "idm.a_range: must be [low, high] with 0 <= low <= high",
    "idm.b_range: must be [low, high] with 0 <= low <= high",
    "idm.s0_range: must be [low, high] with 0 <= low <= high",
    "mobil.b_safe: expected a number > 0, got 0",
    "mobil.da_bias: expected a number, got True",
    "mobil.da_th: expected a number, got 'x'",
    "mobil.p: expected a number >= 0, got -0.1",
    "road.default_lane_width: expected a number > 0, got -3.5",
    "road.horizon_dist: expected a number > 0, got 0",
    "road.join_tolerance: expected a number >= 0, got -0.5",
    "road.max_routes: expected an integer >= 1, got 0.5",
    "road.max_snap_distance: expected a number > 0, got 0",
    "road.straight_threshold_deg: expected a number > 0, got 180.5",
    "sim.dt: expected a number > 0, got 0",
    "sim.ego: must be 'simulate' or 'replay'",
    "sim.horizon: expected a number > 0, got -7.0",
    "sim.lane_change_enabled: must be a boolean",
    "sim.master_seed: expected an integer, got 1.5",
    "sim.max_lane_deviation: expected a number > 0, got -1",
    "sim.max_variants: expected an integer >= 1, got 0",
    "sim.sensing_range: expected a number > 0, got 0",
    "unknown key 'sim.extra'",
    "unknown key 'unknown'",
]


def test_every_key_reports_its_violation():
    with pytest.raises(ConfigError) as exc:
        validate_config(_BROKEN)
    assert sorted(exc.value.violations) == _BROKEN_VIOLATIONS


def test_ego_mode_must_be_known():
    with pytest.raises(ConfigError) as exc:
        validate_config({"sim": {"ego": "other"}})
    assert exc.value.violations == ["sim.ego: must be 'simulate' or 'replay'"]


# every numeric key with an inclusive bound, exactly at that bound
_AT_BOUNDS = {
    "sim": {"max_variants": 1},
    "idm": {"T_range": [0, 0], "s0_range": [0, 0], "a_range": [0, 0],
            "b_range": [0, 0]},
    "mobil": {"p": 0},
    "controller": {"lookahead_time": 0, "lookahead_min": 0,
                   "phi_max_deg": 90, "psi_req_max_deg": 90,
                   "epsilon_std": 0},
    "road": {"join_tolerance": 0, "straight_threshold_deg": 180,
             "max_routes": 1},
    "behavior": {"noise_std": 0, "min_spawn_gap": 0, "turn_rate_sustain": 0},
}


def test_inclusive_bounds_are_accepted():
    cfg = validate_config(_AT_BOUNDS)
    for sec, body in _AT_BOUNDS.items():
        for key, value in body.items():
            assert cfg[f"{sec}.{key}"] == value
    assert _sha(cfg.sim_config().to_dict()) == \
        "1500a5349055f6894219169a8bcf6ece359e0d7862e771c283b2729dae38bdb0"


# every key moved off its default, so each field it feeds shows in the pin
_CHANGED = {
    "sim": {"dt": 0.05, "horizon": 5.0, "max_variants": 2, "master_seed": 7,
            "ego": "replay", "sensing_range": 80.0,
            "max_lane_deviation": 2.5, "lane_change_enabled": False},
    "idm": {"T_range": [0.6, 2.4], "s0_range": [0.7, 3.9],
            "a_range": [1.1, 1.9], "b_range": [1.6, 2.4]},
    "mobil": {"p": 0.4, "da_th": 0.2, "b_safe": 3.5, "da_bias": 0.25},
    "controller": {"kp_lateral": 1.1, "kp_heading": 2.1, "kp_speed": 1.2,
                   "lookahead_time": 0.9, "lookahead_min": 2.5,
                   "phi_max_deg": 30.0, "psi_req_max_deg": 40.0,
                   "v_eps": 0.6, "epsilon_std": 0.3, "a_max_decel": 7.0},
    "road": {"join_tolerance": 0.4, "max_snap_distance": 9.0,
             "default_lane_width": 3.25, "straight_threshold_deg": 25.0,
             "horizon_dist": 110.0, "max_routes": 12},
    "behavior": {"noise_std": 0.8, "min_spawn_gap": 1.5,
                 "turn_rate_threshold": 0.15, "turn_rate_sustain": 0.4},
    "grid": {"H": 128, "W": 64, "resolution": 1.0, "t_obs": 10, "stride": 5},
}


def test_every_key_reaches_its_field():
    defaults = validate_config({})
    cfg = validate_config(_CHANGED)
    assert _keys(_CHANGED) == _keys(defaults.raw)
    for key in _keys(_CHANGED):
        assert cfg[key] != defaults[key]
    assert _sha(cfg.sim_config().to_dict()) == \
        "d8150f6af7345ba22d027bb40fa5b4fa1b57562162f7ea90daf884111a76f533"


def test_every_key_without_a_field_is_read():
    # a key that feeds no SimConfig field must be read by its dotted name
    # outside config.py; default("...") only reads the default
    src = os.path.dirname(config.__file__)
    code = ""
    for name in sorted(os.listdir(src)):
        if name.endswith(".py") and name != "config.py":
            with open(os.path.join(src, name)) as fh:
                code += fh.read()
    unread = [dotted for dotted, key in SCHEMA.items() if not key.field
              and not re.search(r"(?<!default\()[\"']" + re.escape(dotted)
                                + r"[\"']", code)]
    assert unread == []


def _reads_a_default(node):
    """True when the expression ``node`` calls ``default(...)`` or names
    ``ControllerParams``: it copies a config default."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            func = sub.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name == "default":
                return True
        if isinstance(sub, ast.Name) and sub.id == "ControllerParams" \
                or isinstance(sub, ast.Attribute) \
                and sub.attr == "ControllerParams":
            return True
    return False


def test_settings_have_one_source():
    # the CLI is the one reader of the config: every other module takes
    # each setting from its caller, so no parameter default, field
    # default or module constant can copy a key's default and outlive a
    # caller that forgets to pass it
    src = os.path.dirname(config.__file__)
    faults = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py") or name == "config.py":
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            imported = (
                [node.module] if isinstance(node, ast.ImportFrom) else
                [a.name for a in node.names] if isinstance(node, ast.Import)
                else [])
            if isinstance(node, ast.ImportFrom) \
                    and node.module == "trafficforge":
                imported += [f"trafficforge.{a.name}" for a in node.names]
            if "trafficforge.config" in imported and name != "cli.py":
                faults.append(f"{name}:{node.lineno} imports the config")
            defaults = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                defaults = node.args.defaults + [
                    d for d in node.args.kw_defaults if d is not None]
            elif isinstance(node, (ast.Module, ast.ClassDef)):
                defaults = [stmt.value for stmt in node.body
                            if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                            and stmt.value is not None]
            faults += [f"{name}:{d.lineno} copies a config default"
                       for d in defaults if _reads_a_default(d)]
    assert faults == []
