"""Run configuration: the key table, validation, dotted-key overrides.

One JSON document configures every stage; CLI flags of the form
``--set section.key=value`` override single fields. :data:`SCHEMA` is the
only place a key's default, bounds and target field are written: it drives
:func:`validate_config`, :meth:`RunConfig.sim_config` and the defaults of
:class:`SimConfig` and its parameter groups. The CLI is the one reader of
this module: every library function takes each setting from its caller
and keeps no default of its own. Validation checks all fields and reports
every violation at once; unknown keys are rejected to catch typos.
"""

import copy
import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from trafficforge.errors import ConfigError
from trafficforge.util import is_number


@dataclass(frozen=True)
class Key:
    """One config key: its default, its check and the field it feeds.

    ``kind`` is "number" (``low`` exclusive unless ``strict`` is false,
    ``high`` inclusive, ``integer`` for whole numbers, stored as ``int``),
    "choice" (one of ``choices``), "bool" or "range" (``[low, high]`` with
    ``0 <= low <= high``). ``field`` is the :class:`SimConfig` field the
    key sets, dotted for a parameter group, after ``convert``; None when
    callers read the key by name.
    """

    default: object
    kind: str = "number"
    low: Optional[float] = None
    high: Optional[float] = None
    strict: bool = True
    integer: bool = False
    choices: tuple = ()
    field: Optional[str] = None
    convert: Callable = lambda value: value


# sim.max_lane_deviation is validated and stored but has no effect on a
# simulation yet (see ROADMAP)
SCHEMA = {
    "sim.dt": Key(0.1, low=0, field="dt"),
    "sim.horizon": Key(7.0, low=0, field="horizon"),
    "sim.max_variants": Key(3, low=1, strict=False, integer=True,
                            field="max_variants"),
    "sim.master_seed": Key(0, integer=True, field="master_seed"),
    "sim.ego": Key("simulate", kind="choice", choices=("simulate", "replay"),
                   field="ego_mode"),
    "sim.sensing_range": Key(100.0, low=0, field="sensing_range"),
    "sim.max_lane_deviation": Key(3.0, low=0, field="max_lane_deviation"),
    "sim.lane_change_enabled": Key(True, kind="bool",
                                   field="lane_change_enabled"),
    "idm.T_range": Key((0.5, 2.5), kind="range", field="idm_ranges.T_range",
                       convert=tuple),
    "idm.s0_range": Key((0.5, 4.0), kind="range",
                        field="idm_ranges.s0_range", convert=tuple),
    "idm.a_range": Key((1.0, 2.0), kind="range", field="idm_ranges.a_range",
                       convert=tuple),
    "idm.b_range": Key((1.5, 2.5), kind="range", field="idm_ranges.b_range",
                       convert=tuple),
    "mobil.p": Key(0.3, low=0, strict=False, field="mobil.p"),
    "mobil.da_th": Key(0.1, field="mobil.da_th"),
    "mobil.b_safe": Key(4.0, low=0, field="mobil.b_safe"),
    "mobil.da_bias": Key(0.3, field="mobil.da_bias"),
    "controller.kp_lateral": Key(1.0, low=0, field="controller.kp_lateral"),
    "controller.kp_heading": Key(2.0, low=0, field="controller.kp_heading"),
    "controller.kp_speed": Key(1.0, low=0, field="controller.kp_speed"),
    "controller.lookahead_time": Key(0.8, low=0, strict=False,
                                     field="controller.lookahead_time"),
    "controller.lookahead_min": Key(2.0, low=0, strict=False,
                                    field="controller.lookahead_min"),
    "controller.phi_max_deg": Key(35.0, low=0, high=90,
                                  field="controller.phi_max",
                                  convert=math.radians),
    "controller.psi_req_max_deg": Key(45.0, low=0, high=90,
                                      field="controller.psi_req_max",
                                      convert=math.radians),
    "controller.v_eps": Key(0.5, low=0, field="controller.v_eps"),
    "controller.epsilon_std": Key(0.2, low=0, strict=False,
                                  field="epsilon_std"),
    "controller.a_max_decel": Key(8.0, low=0, field="controller.a_max_decel"),
    "road.join_tolerance": Key(0.5, low=0, strict=False),
    "road.max_snap_distance": Key(10.0, low=0),
    "road.default_lane_width": Key(3.5, low=0),
    "road.straight_threshold_deg": Key(30.0, low=0, high=180),
    "road.horizon_dist": Key(120.0, low=0, field="horizon_dist"),
    "road.max_routes": Key(16, low=1, strict=False, integer=True,
                           field="max_routes"),
    "behavior.noise_std": Key(1.0, low=0, strict=False,
                              field="profile_noise_std"),
    "behavior.min_spawn_gap": Key(2.0, low=0, strict=False),
    "behavior.turn_rate_threshold": Key(0.1, low=0),
    "behavior.turn_rate_sustain": Key(0.5, low=0, strict=False),
    "grid.H": Key(256, low=0, integer=True),
    "grid.W": Key(256, low=0, integer=True),
    "grid.resolution": Key(0.5, low=0),
    "grid.t_obs": Key(20, low=0, integer=True),
    "grid.stride": Key(100000, low=0, integer=True),
}


def default(dotted):
    """The default value of the config key ``dotted``."""
    return SCHEMA[dotted].default


def _fields(value_of):
    """SimConfig field path -> value for every key that feeds a field,
    where ``value_of(dotted)`` is the key's value.

    This is the one mapping from keys to SimConfig fields: it gives both
    the dataclass defaults and :meth:`RunConfig.sim_config`.
    """
    return {key.field: key.convert(value_of(dotted))
            for dotted, key in SCHEMA.items() if key.field}


def _group(fields, group):
    """The fields of one parameter group, "" for SimConfig's own."""
    out = {}
    for path, value in fields.items():
        prefix, _, name = path.rpartition(".")
        if prefix == group:
            out[name] = value
    return out


_FIELD_DEFAULTS = _fields(default)   # field path -> default value


@dataclass
class ControllerParams:
    kp_lateral: float = _FIELD_DEFAULTS["controller.kp_lateral"]
    kp_heading: float = _FIELD_DEFAULTS["controller.kp_heading"]
    epsilon: float = 0.0            # per-agent lane-offset noise, meters
    lookahead_time: float = _FIELD_DEFAULTS["controller.lookahead_time"]
    lookahead_min: float = _FIELD_DEFAULTS["controller.lookahead_min"]
    kp_speed: float = _FIELD_DEFAULTS["controller.kp_speed"]
    phi_max: float = _FIELD_DEFAULTS["controller.phi_max"]
    psi_req_max: float = _FIELD_DEFAULTS["controller.psi_req_max"]
    v_eps: float = _FIELD_DEFAULTS["controller.v_eps"]
    a_max_decel: float = _FIELD_DEFAULTS["controller.a_max_decel"]


@dataclass
class MobilParams:
    """Politeness factor ``p``; acceleration-gain threshold ``da_th``, the
    largest braking ``b_safe`` imposed on anyone and the bias ``da_bias``
    toward the rightmost lane, all in m/s^2."""

    p: float = _FIELD_DEFAULTS["mobil.p"]
    da_th: float = _FIELD_DEFAULTS["mobil.da_th"]
    b_safe: float = _FIELD_DEFAULTS["mobil.b_safe"]
    da_bias: float = _FIELD_DEFAULTS["mobil.da_bias"]


@dataclass
class SimConfig:
    dt: float = _FIELD_DEFAULTS["dt"]
    horizon: float = _FIELD_DEFAULTS["horizon"]
    max_variants: int = _FIELD_DEFAULTS["max_variants"]
    master_seed: int = _FIELD_DEFAULTS["master_seed"]
    ego_mode: str = _FIELD_DEFAULTS["ego_mode"]
    sensing_range: float = _FIELD_DEFAULTS["sensing_range"]
    max_lane_deviation: float = _FIELD_DEFAULTS["max_lane_deviation"]
    horizon_dist: float = _FIELD_DEFAULTS["horizon_dist"]
    max_routes: int = _FIELD_DEFAULTS["max_routes"]
    profile_noise_std: float = _FIELD_DEFAULTS["profile_noise_std"]
    epsilon_std: float = _FIELD_DEFAULTS["epsilon_std"]
    lane_change_enabled: bool = _FIELD_DEFAULTS["lane_change_enabled"]
    idm_ranges: dict = field(
        default_factory=lambda: _group(_FIELD_DEFAULTS, "idm_ranges"))
    mobil: MobilParams = field(default_factory=MobilParams)
    controller: ControllerParams = field(default_factory=ControllerParams)

    @property
    def n_steps(self):
        return int(round(self.horizon / self.dt))

    def to_dict(self):
        return dataclasses.asdict(self)


class RunConfig:
    """Validated configuration with typed accessors per stage."""

    def __init__(self, resolved):
        self.raw = resolved

    def __getitem__(self, dotted):
        sec, key = dotted.split(".", 1)
        return self.raw[sec][key]

    def sim_config(self):
        fields = _fields(self.__getitem__)
        return SimConfig(
            **_group(fields, ""),
            idm_ranges=_group(fields, "idm_ranges"),
            mobil=MobilParams(**_group(fields, "mobil")),
            controller=ControllerParams(**_group(fields, "controller")))


def _violation(dotted, key, value):
    """The message for ``value`` breaking ``key``, or None."""
    if key.kind == "choice":
        if value not in key.choices:
            return f"{dotted}: must be " + " or ".join(map(repr, key.choices))
    elif key.kind == "bool":
        if not isinstance(value, bool):
            return f"{dotted}: must be a boolean"
    elif key.kind == "range":
        if not (isinstance(value, (list, tuple)) and len(value) == 2
                and all(map(is_number, value))
                and 0 <= value[0] <= value[1]):
            return f"{dotted}: must be [low, high] with 0 <= low <= high"
    else:
        if not is_number(value, key.low, key.high, key.strict) \
                or (key.integer and value % 1):
            bound = "" if key.low is None else \
                f" {'>' if key.strict else '>='} {key.low}"
            kind = "an integer" if key.integer else "a number"
            return f"{dotted}: expected {kind}{bound}, got {value!r}"
    return None


def validate_config(raw):
    """Resolve ``raw`` against the defaults and check every field.

    Raises :class:`ConfigError` carrying the complete list of violations.
    """
    if not isinstance(raw, dict):
        raise ConfigError(["configuration must be a JSON object"])
    problems = []
    resolved = {}
    for dotted in SCHEMA:
        resolved.setdefault(dotted.split(".")[0], {})
    for sec, body in raw.items():
        if sec not in resolved:
            problems.append(f"unknown key {sec!r}")
        elif not isinstance(body, dict):
            problems.append(f"{sec} must be an object")
        else:
            for dotted in (f"{sec}.{name}" for name in body):
                if dotted not in SCHEMA:
                    problems.append(f"unknown key {dotted!r}")
    invalid = set()
    for dotted, key in SCHEMA.items():
        sec, name = dotted.split(".")
        body = raw.get(sec)
        value = body.get(name, key.default) if isinstance(body, dict) \
            else key.default
        problem = _violation(dotted, key, value)
        if problem:
            problems.append(problem)
            invalid.add(dotted)
        elif key.integer:
            value = int(value)  # 3.0 and 3 are one setting
        resolved[sec][name] = value
    if "sim.dt" not in invalid:
        ms = resolved["sim"]["dt"] * 1000.0
        if abs(ms - round(ms)) > 1e-9:
            problems.append(f"sim.dt: must be a whole number of milliseconds, "
                            f"since a log's t column has 3 decimals, got "
                            f"{resolved['sim']['dt']!r}")
    if not invalid & {"sim.dt", "sim.horizon"}:
        steps = resolved["sim"]["horizon"] / resolved["sim"]["dt"]
        if abs(steps - round(steps)) > 1e-9:
            problems.append("sim.horizon: must be a multiple of sim.dt")
    if problems:
        raise ConfigError(problems)
    return RunConfig(resolved)


def set_key(raw, dotted, value):
    """Set ``raw[a][b]...`` for the dotted key ``a.b...`` in place.

    Raises :class:`ConfigError` naming the key when a prefix of it holds a
    value that is not an object.
    """
    parts = dotted.split(".")
    node = raw
    for i, part in enumerate(parts[:-1]):
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            prefix = ".".join(parts[:i + 1])
            raise ConfigError([f"cannot set {dotted}: {prefix} is "
                               f"{node!r}, not an object"])
    node[parts[-1]] = value


def apply_overrides(raw, overrides):
    """Apply ``section.key=value`` strings onto a copy of a raw config."""
    out = copy.deepcopy(raw) if raw else {}
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError([f"--set {item!r}: expected key=value"])
        dotted, text = item.split("=", 1)
        dotted = dotted.strip()
        if "." not in dotted:
            raise ConfigError([f"--set {item!r}: key must be dotted (a.b)"])
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        set_key(out, dotted, value)
    return out
