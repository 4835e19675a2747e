"""Every config key acts: each key of ``config.SCHEMA`` has a row here, a
small input and one other value at which some output byte changes, or
which is refused.

The outputs are every file the commands write (pool, ``graph.json``,
log CSVs, sidecars without their ``config_digest``, ``run.json``,
``.bevg`` grids). A value that is refused (exit 1) counts as acting;
``_REFUSED`` names each key whose row is refused. A key added to the
schema without a row fails :func:`test_key_acts`. Everything runs
in-process through ``cli.dispatch``.
"""

import json
import os

import pytest

from helpers import (approach_point, build_test_pool, four_way_intersection,
                     profile_sources_doc, straight_map, tracklets_doc)

from trafficforge.cli import dispatch
from trafficforge.config import SCHEMA


def _simulate(map_name, tracks):
    return ["simulate", "--map", f"{{in}}/{map_name}", "--tracklets",
            f"{{in}}/{tracks}", "--pool", "{in}/pool.json", "--out",
            "{out}/logs", "--seed", "7"]


# name -> (commands, the overrides every run of it starts from). "{in}"
# is the inputs' directory and "{out}" each run's own.
_SCENARIOS = {
    # mined from straight drives and left and right turns
    "pool": ([["profile-pool", "--tracklets", "{in}/sources.json",
               "--out", "{out}/pool.json"]], []),
    # two lane ends 0.3 m apart, and a 2-lane entry without a lane_width
    "graph": ([["build-graph", "--map", "{in}/joins.json",
                "--out", "{out}/graph.json"]], []),
    # a 2-lane road: agent 1 stuck behind slow agent 2, agent 3 close
    # behind in the left lane, agent 4 2.15 m off the left lane, agent 5
    # alone ahead
    "lanes": ([_simulate("lanes.json", "lanes_tracks.json")], []),
    # two cars approaching a four-way junction, each with left, right and
    # straight routes
    "junction": ([_simulate("junction.json", "junction_tracks.json")], []),
    # the lanes logs, 3 s long, rendered on a small grid
    "render": ([_simulate("lanes.json", "lanes_tracks.json"),
                ["render", "--logs", "{out}/logs", "--map", "{in}/lanes.json",
                 "--out", "{out}/grids"]],
               ["sim.horizon=3.0", "grid.H=32", "grid.W=32",
                "grid.resolution=1.0"]),
}

# key -> (scenario, another value than the scenario's)
_ROWS = {
    "sim.dt": ("pool", 0.05),
    "sim.horizon": ("lanes", 5.0),
    "sim.max_variants": ("junction", 1),
    "sim.master_seed": ("lanes", 8),
    "sim.ego": ("lanes", "replay"),
    "sim.sensing_range": ("lanes", 5.0),
    "sim.lane_change_enabled": ("lanes", False),
    "idm.T_range": ("lanes", [1.0, 1.5]),
    "idm.s0_range": ("lanes", [1.0, 2.0]),
    "idm.a_range": ("lanes", [0.5, 1.0]),
    "idm.b_range": ("lanes", [2.0, 3.0]),
    "mobil.p": ("lanes", 10.0),
    "mobil.da_th": ("lanes", 100.0),
    "mobil.b_safe": ("lanes", 0.01),
    "mobil.da_bias": ("lanes", 5.0),
    "controller.kp_lateral": ("lanes", 3.0),
    "controller.kp_heading": ("lanes", 4.0),
    "controller.kp_speed": ("lanes", 2.0),
    "controller.lookahead_time": ("junction", 2.0),
    "controller.lookahead_min": ("junction", 6.0),
    "controller.phi_max_deg": ("lanes", 1.0),
    "controller.psi_req_max_deg": ("lanes", 1.0),
    "controller.v_eps": ("lanes", 20.0),
    "controller.epsilon_std": ("lanes", 0.5),
    "controller.a_max_decel": ("lanes", 1.0),
    "road.join_tolerance": ("graph", 0.1),
    "road.max_snap_distance": ("lanes", 1.0),
    "road.default_lane_width": ("graph", 3.0),
    "road.straight_threshold_deg": ("pool", 100.0),
    "road.horizon_dist": ("junction", 5.0),
    "road.max_routes": ("junction", 1),
    "behavior.noise_std": ("lanes", 0.0),
    "behavior.min_spawn_gap": ("lanes", 30.0),
    "behavior.turn_rate_threshold": ("pool", 1.0),
    "behavior.turn_rate_sustain": ("pool", 5.0),
    "grid.H": ("render", 16),
    "grid.W": ("render", 16),
    "grid.resolution": ("render", 2.0),
    "grid.t_obs": ("render", 10),
    "grid.stride": ("render", 5),
}

# keys whose other value is refused (exit 1): --seed 7 gives another seed
_REFUSED = {"sim.master_seed"}
# accepted and stored, but no simulation reads it yet: ROADMAP item R1
# deletes it, and this exemption with it
_NO_EFFECT = "sim.max_lane_deviation"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    lanes = [(1, 30.0, -1.75, 0.0, 12.0), (2, 45.0, -1.75, 0.0, 5.0),
             (3, 15.0, 1.75, 0.0, 14.0), (4, 200.0, 3.9, 0.0, 8.0),
             (5, 225.0, -1.75, 0.0, 8.0)]
    cars = [(1, *approach_point(0, 30.0), 10.0),
            (2, *approach_point(90, 35.0), 9.0)]
    docs = {
        "sources.json": profile_sources_doc(),
        "joins.json": {"centerlines": [
            {"id": 0, "points": [[0.0, 0.0], [50.0, 0.0]]},
            {"id": 1, "points": [[50.3, 0.0], [100.0, 0.0]]},
            {"id": 2, "points": [[0.0, 40.0], [100.0, 40.0]], "lanes": 2}]},
        "lanes.json": straight_map(400.0, lanes=2),
        "lanes_tracks.json": tracklets_doc("lanes", lanes),
        "junction.json": four_way_intersection(),
        "junction_tracks.json": tracklets_doc("junction", cars),
    }
    for name, doc in docs.items():
        (root / name).write_text(json.dumps(doc))
    (root / "pool.json").write_text(build_test_pool().to_json())
    return root


def _outputs(out):
    """Every file under ``out`` by relative path, a sidecar without its
    ``config_digest``."""
    files = {}
    for parent, _, names in os.walk(out):
        for name in names:
            path = os.path.join(parent, name)
            with open(path, "rb") as fh:
                data = fh.read()
            if name.endswith(".json") and os.path.basename(parent) == "logs" \
                    and name != "run.json":
                sidecar = json.loads(data)
                del sidecar["config_digest"]
                data = json.dumps(sidecar, sort_keys=True).encode()
            files[os.path.relpath(path, out)] = data
    return files


def _run(inputs, out, scenario, overrides=()):
    """(exit status of the first command that fails or 0, outputs) of a
    scenario's commands with its overrides, then ``overrides``."""
    commands, base = _SCENARIOS[scenario]
    out.mkdir()
    sets = [arg for item in [*base, *overrides] for arg in ("--set", item)]
    for command in commands:
        argv = [a.format(**{"in": inputs, "out": out}) for a in command]
        code = dispatch(argv + sets)
        if code:
            return code, _outputs(out)
    return 0, _outputs(out)


@pytest.fixture(scope="module")
def baseline(inputs, tmp_path_factory):
    root = tmp_path_factory.mktemp("baseline")
    runs = {}
    for scenario in _SCENARIOS:
        runs[scenario] = _run(inputs, root / scenario, scenario)
        assert runs[scenario][0] == 0, scenario
    return runs


@pytest.mark.parametrize("key", sorted(SCHEMA))
def test_key_acts(key, inputs, baseline, tmp_path):
    if key == _NO_EFFECT:
        for scenario in ("lanes", "junction"):
            got = _run(inputs, tmp_path / scenario, scenario,
                       [f"{key}=1.0"])
            assert got == baseline[scenario], scenario
        return
    assert key in _ROWS, f"{key} has no row: give it an input and a value " \
                         f"at which it changes an output byte"
    scenario, value = _ROWS[key]
    code, files = _run(inputs, tmp_path / "run", scenario,
                       [f"{key}={json.dumps(value)}"])
    if key in _REFUSED:
        assert code == 1
    else:
        assert code == 0
        assert files != baseline[scenario][1]
