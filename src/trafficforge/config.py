"""Run configuration: defaults, validation, dotted-key overrides.

One JSON document configures every stage; CLI flags of the form
``--set section.key=value`` override single fields. Validation checks all
fields and reports every violation at once; unknown keys are rejected to
catch typos.
"""

import copy
import json
import math

from trafficforge.controller import ControllerParams
from trafficforge.dynamics import MobilParams
from trafficforge.errors import ConfigError
from trafficforge.sim_engine import SimConfig

DEFAULTS = {
    "sim": {
        "dt": 0.1,
        "horizon": 7.0,
        "max_variants": 3,
        "master_seed": 0,
        "ego": "simulate",
        "sensing_range": 100.0,
        "max_lane_deviation": 3.0,
        "lane_change_enabled": True,
    },
    "idm": {
        "delta": 4.0,
        "T_range": [0.5, 2.5],
        "s0_range": [0.5, 4.0],
        "a_range": [1.0, 2.0],
        "b_range": [1.5, 2.5],
    },
    "mobil": {
        "p": 0.3,
        "da_th": 0.1,
        "b_safe": 4.0,
        "da_bias": 0.3,
    },
    "controller": {
        "kp_lateral": 1.0,
        "kp_heading": 2.0,
        "kp_speed": 1.0,
        "lookahead_time": 0.8,
        "lookahead_min": 2.0,
        "phi_max_deg": 35.0,
        "psi_req_max_deg": 45.0,
        "v_eps": 0.5,
        "epsilon_std": 0.2,
        "a_max_decel": 8.0,
    },
    "road": {
        "join_tolerance": 0.5,
        "max_snap_distance": 10.0,
        "default_lane_width": 3.5,
        "straight_threshold_deg": 30.0,
        "horizon_dist": 120.0,
        "max_routes": 16,
    },
    "behavior": {
        "noise_std": 1.0,
        "min_spawn_gap": 2.0,
        "turn_rate_threshold": 0.1,
        "turn_rate_sustain": 0.5,
    },
    "grid": {
        "H": 256,
        "W": 256,
        "resolution": 0.5,
        "t_obs": 20,
        "stride": 100000,
    },
}


class RunConfig:
    """Validated configuration with typed accessors per stage."""

    def __init__(self, resolved):
        self.raw = resolved

    def __getitem__(self, dotted):
        sec, key = dotted.split(".", 1)
        return self.raw[sec][key]

    def sim_config(self):
        sim = self.raw["sim"]
        ctrl = self.raw["controller"]
        mob = self.raw["mobil"]
        return SimConfig(
            dt=sim["dt"], horizon=sim["horizon"],
            max_variants=sim["max_variants"],
            master_seed=sim["master_seed"], ego_mode=sim["ego"],
            sensing_range=sim["sensing_range"],
            max_lane_deviation=sim["max_lane_deviation"],
            lane_change_enabled=sim["lane_change_enabled"],
            horizon_dist=self.raw["road"]["horizon_dist"],
            max_routes=self.raw["road"]["max_routes"],
            profile_noise_std=self.raw["behavior"]["noise_std"],
            epsilon_std=ctrl["epsilon_std"],
            idm_ranges={k: tuple(self.raw["idm"][k])
                        for k in ("T_range", "s0_range", "a_range", "b_range")},
            mobil=MobilParams(p=mob["p"], da_th=mob["da_th"],
                              b_safe=mob["b_safe"], da_bias=mob["da_bias"]),
            controller=ControllerParams(
                kp_lateral=ctrl["kp_lateral"], kp_heading=ctrl["kp_heading"],
                kp_speed=ctrl["kp_speed"],
                lookahead_time=ctrl["lookahead_time"],
                lookahead_min=ctrl["lookahead_min"],
                phi_max=math.radians(ctrl["phi_max_deg"]),
                psi_req_max=math.radians(ctrl["psi_req_max_deg"]),
                v_eps=ctrl["v_eps"], a_max_decel=ctrl["a_max_decel"]),
        )


def _merge(base, override, path, problems):
    out = copy.deepcopy(base)
    for key, value in override.items():
        dotted = f"{path}{key}" if not path else f"{path}.{key}"
        if key not in base:
            problems.append(f"unknown key {dotted!r}")
            continue
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                problems.append(f"{dotted} must be an object")
                continue
            out[key] = _merge(base[key], value, dotted, problems)
        else:
            out[key] = value
    return out


def _expect_number(resolved, dotted, problems, low=None, high=None,
                   strict_low=True, integer=False):
    sec, key = dotted.split(".")
    value = resolved[sec][key]
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    if ok and integer:
        ok = float(value) == int(value)
    if ok and low is not None:
        ok = value > low if strict_low else value >= low
    if ok and high is not None:
        ok = value <= high
    if not ok:
        bound = f" > {low}" if (low is not None and strict_low) else \
            (f" >= {low}" if low is not None else "")
        kind = "an integer" if integer else "a number"
        problems.append(f"{dotted}: expected {kind}{bound}, got {value!r}")
    return value if ok else None


def validate_config(raw):
    """Resolve ``raw`` against the defaults and type-check every field.

    Raises :class:`ConfigError` carrying the complete list of violations.
    """
    problems = []
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(["configuration must be a JSON object"])
    resolved = _merge(DEFAULTS, raw, "", problems)

    dt = _expect_number(resolved, "sim.dt", problems, low=0)
    horizon = _expect_number(resolved, "sim.horizon", problems, low=0)
    if dt and horizon:
        steps = horizon / dt
        if abs(steps - round(steps)) > 1e-9:
            problems.append("sim.horizon: must be a multiple of sim.dt")
    _expect_number(resolved, "sim.max_variants", problems, low=1,
                   strict_low=False, integer=True)
    _expect_number(resolved, "sim.master_seed", problems, integer=True)
    _expect_number(resolved, "sim.sensing_range", problems, low=0)
    _expect_number(resolved, "sim.max_lane_deviation", problems, low=0)
    if resolved["sim"]["ego"] not in ("simulate", "replay"):
        problems.append("sim.ego: must be 'simulate' or 'replay'")
    if not isinstance(resolved["sim"]["lane_change_enabled"], bool):
        problems.append("sim.lane_change_enabled: must be a boolean")

    for key in ("T_range", "s0_range", "a_range", "b_range"):
        rng = resolved["idm"][key]
        if (not isinstance(rng, (list, tuple)) or len(rng) != 2
                or rng[0] > rng[1] or rng[0] < 0):
            problems.append(f"idm.{key}: must be [low, high] with 0 <= low <= high")
    _expect_number(resolved, "idm.delta", problems, low=0)

    _expect_number(resolved, "mobil.p", problems, low=0, strict_low=False)
    _expect_number(resolved, "mobil.b_safe", problems, low=0)
    _expect_number(resolved, "mobil.da_th", problems)
    _expect_number(resolved, "mobil.da_bias", problems)

    for key in ("kp_lateral", "kp_heading", "kp_speed"):
        _expect_number(resolved, f"controller.{key}", problems, low=0)
    _expect_number(resolved, "controller.phi_max_deg", problems, low=0, high=90)
    _expect_number(resolved, "controller.psi_req_max_deg", problems,
                   low=0, high=90)
    _expect_number(resolved, "controller.v_eps", problems, low=0)
    _expect_number(resolved, "controller.epsilon_std", problems, low=0,
                   strict_low=False)
    _expect_number(resolved, "controller.a_max_decel", problems, low=0)
    _expect_number(resolved, "controller.lookahead_time", problems, low=0,
                   strict_low=False)
    _expect_number(resolved, "controller.lookahead_min", problems, low=0,
                   strict_low=False)

    _expect_number(resolved, "road.join_tolerance", problems, low=0,
                   strict_low=False)
    _expect_number(resolved, "road.max_snap_distance", problems, low=0)
    _expect_number(resolved, "road.default_lane_width", problems, low=0)
    _expect_number(resolved, "road.straight_threshold_deg", problems,
                   low=0, high=180)
    _expect_number(resolved, "road.horizon_dist", problems, low=0)
    _expect_number(resolved, "road.max_routes", problems, low=1,
                   strict_low=False, integer=True)

    _expect_number(resolved, "behavior.noise_std", problems, low=0,
                   strict_low=False)
    _expect_number(resolved, "behavior.min_spawn_gap", problems, low=0,
                   strict_low=False)
    _expect_number(resolved, "behavior.turn_rate_threshold", problems, low=0)
    _expect_number(resolved, "behavior.turn_rate_sustain", problems, low=0,
                   strict_low=False)

    for key in ("H", "W"):
        _expect_number(resolved, f"grid.{key}", problems, low=0, integer=True)
    _expect_number(resolved, "grid.resolution", problems, low=0)
    _expect_number(resolved, "grid.t_obs", problems, low=0, integer=True)
    _expect_number(resolved, "grid.stride", problems, low=0, integer=True)

    if problems:
        raise ConfigError(problems)
    return RunConfig(resolved)


def apply_overrides(raw, overrides):
    """Apply ``section.key=value`` strings onto a raw config dict."""
    out = copy.deepcopy(raw) if raw else {}
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError([f"--set {item!r}: expected key=value"])
        dotted, text = item.split("=", 1)
        parts = dotted.strip().split(".")
        if len(parts) < 2:
            raise ConfigError([f"--set {item!r}: key must be dotted (a.b)"])
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        node = out
        for p in parts[:-1]:
            node = node.setdefault(p, {})
        node[parts[-1]] = value
    return out
