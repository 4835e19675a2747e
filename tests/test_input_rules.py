"""One rule for every number an input file holds, as a property.

Each example sets one field of one input file to a drawn value and runs
one command through ``cli.dispatch`` on small fixture inputs (a straight
road, two agents, a one-track pool source). A value that breaks the
field's documented rule (README, "Input rules") must exit 1 with an
error naming the file and the field. Any run must not exit 2; a run that
exits 0 writes only finite numbers, and nothing outside ``--out``.
Warnings are errors in this suite, so a ``RuntimeWarning`` is an exit 2.
"""

import contextlib
import copy
import glob
import io
import json
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import straight_map, straight_source_traj, tracklets_doc

from trafficforge import bev_render
from trafficforge.cli import dispatch

MAX_COORD = 1_000_000
MAX_SPEED = 1000
MAX_AGENT_ID = 2 ** 31 - 2
MIN_SIZE = 0.01
MIN_LOG_DT = 1e-6
MAX_LOG_VARIANT = 2 ** 32 - 1
ROAD = 200.0         # the fixture road runs from x = 0 to x = ROAD
HALF_BAND = 3.5      # its one lane's width: the band past its points

# each command's arguments; "@name" is the file ``name`` of the run
_ARGV = {
    "build-graph": ["--map", "@map.json", "--out", "@out/graph.json"],
    "profile-pool": ["--tracklets", "@pool_tracks.json",
                     "--out", "@out/pool.json"],
    "simulate": ["--map", "@map.json", "--tracklets", "@tracks.json",
                 "--pool", "@pool.json", "--seed", "1", "--out", "@out"],
    "render": ["--logs", "@logs", "--map", "@map.json",
               "--spec", '{"H":32,"W":32,"res":1,"t_obs":10}',
               "--out", "@out"],
    "metrics": ["--logs", "@logs", "--map", "@map.json", "--preds",
                "@preds.jsonl", "--out", "@out/report.json"],
}
_READERS = {"map.json": ("build-graph", "simulate", "render", "metrics"),
            "pool_tracks.json": ("profile-pool",),
            "tracks.json": ("simulate",),
            "pool.json": ("simulate",),
            "sidecar": ("render", "metrics"),
            "preds.jsonl": ("metrics",)}


def _number(low=None, high=None, strict=False):
    """The documented number rule: an int or a float, not a bool,
    finite as a float, within the bounds."""
    def ok(v):
        if type(v) not in (int, float) or abs(v) > 1.7976931348623157e308:
            return False
        return (low is None or (v > low if strict else v >= low)) \
            and (high is None or v <= high)
    return ok


def _integer(low, high):
    return lambda v: type(v) is int and low <= v <= high


def _scene_id(v):
    return type(v) is str and 0 < len(v) <= 60 and v.isprintable() \
        and not any(c in v for c in "/\\,")


_COORD = MAX_COORD - HALF_BAND
# (file, path to the field, rule, values just inside and outside it); a
# pose's rule includes the speed it implies from its neighbours (the
# fixture's poses are 0.8 m and 0.1 s apart), at most MAX_SPEED
_FIELDS = [
    ("map.json", ("centerlines", 0, "points", 1, 0),
     _number(-_COORD, _COORD), [_COORD, _COORD + 0.1, -MAX_COORD - 1]),
    ("map.json", ("centerlines", 0, "points", 0, 1),
     _number(-_COORD, _COORD), [-_COORD, -_COORD - 0.1]),
    ("map.json", ("centerlines", 0, "lanes"), _integer(1, 100), [100, 101]),
    ("map.json", ("centerlines", 0, "lane_width"),
     _number(0, MAX_COORD - ROAD, strict=True),
     [5e-324, MAX_COORD - ROAD, MAX_COORD - ROAD + 0.1]),
    ("pool_tracks.json", ("tracks", 0, "poses", 1, "t"),
     _number(0.001, 0.199), [0.05, 5e-324]),
    ("pool_tracks.json", ("tracks", 0, "poses", 3, "x"),
     _number(-96, 101), [100, MAX_COORD, MAX_COORD + 1]),
    ("pool_tracks.json", ("tracks", 0, "agent_id"),
     _integer(0, MAX_AGENT_ID), [MAX_AGENT_ID, MAX_AGENT_ID + 1]),
    ("tracks.json", ("scene_id",), _scene_id,
     ["../escaped", "a/b", "x,y", "a\\b", "a\nb", "a\0b", "\ud800", "",
      "ok", "s" * 60, "s" * 61, "\u00e9" * 60]),
    ("tracks.json", ("tracks", 1, "agent_id"),
     _integer(0, MAX_AGENT_ID), [MAX_AGENT_ID, MAX_AGENT_ID + 1]),
    ("tracks.json", ("tracks", 1, "length"), _number(MIN_SIZE),
     [5e-324, MIN_SIZE, 0.0099]),
    ("tracks.json", ("tracks", 1, "width"), _number(MIN_SIZE),
     [MIN_SIZE, 0.0099]),
    ("tracks.json", ("tracks", 1, "poses", 1, "t"),
     _number(0.001, 0.199), [0.05, 5e-324]),
    ("tracks.json", ("tracks", 1, "poses", 10, "t"), _number(0.901), []),
    ("tracks.json", ("tracks", 1, "poses", 0, "x"),
     _number(-79, 120), [-MAX_COORD, -MAX_COORD - 1]),
    ("tracks.json", ("tracks", 1, "poses", 0, "y"),
     _number(-99, 99), [MAX_COORD, MAX_COORD + 1]),
    ("tracks.json", ("tracks", 1, "poses", 0, "heading"), _number(), []),
    ("tracks.json", ("tracks", 1, "poses", 0, "speed"),
     _number(0, MAX_SPEED), [MAX_SPEED, MAX_SPEED + 1e-9]),
    ("pool.json", ("dt",), _number(0, strict=True), [0.1]),
    ("pool.json", ("profiles", 0, "feature"), _number(), []),
    ("pool.json", ("profiles", 0, "samples", 5), _number(0), []),
    ("pool.json", ("profiles", 0, "label"), lambda v: type(v) is str,
     ["left"]),
    ("sidecar", ("scene_id",), _scene_id,
     ["../escaped", "a/b", "x,y", "a\nb", "", "s", "s" * 61]),
    ("sidecar", ("variant",), _integer(0, MAX_LOG_VARIANT),
     [MAX_LOG_VARIANT, MAX_LOG_VARIANT + 1]),
    ("sidecar", ("dt",), _number(MIN_LOG_DT), [MIN_LOG_DT, 9.9e-7]),
    ("sidecar", ("agents", 0, "agent_id"), _integer(0, MAX_AGENT_ID),
     [MAX_AGENT_ID + 1]),
    ("preds.jsonl", ("dt",), _number(0, strict=True), []),
    ("preds.jsonl", ("gt", 1, 0), _number(), []),
    ("preds.jsonl", ("samples", 0, 1, 1), _number(), []),
]
# one of each kind a JSON file can hold where a number belongs
_ANY = [0, -1, 1e300, -1e300, 1e-300, -1e-300, math.nan, math.inf,
        -math.inf, True, "7", 10 ** 400]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The fixture input files by name, as parsed documents."""
    root = tmp_path_factory.mktemp("inputs")
    docs = {
        "map.json": straight_map(ROAD),
        "tracks.json": tracklets_doc("s", [(1, 20.0, 0.0, 0.0, 8.0),
                                          (2, 60.0, 0.0, 0.0, 8.0)]),
        "pool_tracks.json": {"scene_id": "pool", "tracks": [
            {"agent_id": 1, "poses": [{"t": t, "x": x, "y": y} for t, x, y
                                      in straight_source_traj(8.0).tolist()]}
        ]},
    }
    for name, doc in docs.items():
        (root / name).write_text(json.dumps(doc))
    assert dispatch(["profile-pool", "--tracklets",
                     str(root / "pool_tracks.json"),
                     "--out", str(root / "pool.json")]) == 0
    assert dispatch(["simulate", "--map", str(root / "map.json"),
                     "--tracklets", str(root / "tracks.json"),
                     "--pool", str(root / "pool.json"), "--seed", "1",
                     "--out", str(root / "logs")]) == 0
    docs["pool.json"] = json.loads((root / "pool.json").read_text())
    logs = {path.name: path.read_text()
            for path in (root / "logs").glob("s_v*")}
    docs["sidecar"] = json.loads(logs.pop("s_v0.json"))
    docs["preds.jsonl"] = {"agent_id": 1, "dt": 0.1,
                           "gt": [[0.0, 0.0], [1.0, 0.5], [2.0, 1.0]],
                           "samples": [[[0.0, 0.0], [1.0, 0.4],
                                        [2.1, 1.0]]]}
    return docs, logs


def _cases():
    return st.sampled_from(_FIELDS).flatmap(lambda f: st.tuples(
        st.just(f), st.sampled_from(_READERS[f[0]]),
        st.sampled_from(_ANY + f[3])))


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _outside(tmp):
    """Every path under ``tmp`` but the run's ``--out`` and its files."""
    out = os.path.join(tmp, "run", "out")
    return {p for p in glob.glob(os.path.join(tmp, "**"), recursive=True)
            if p != out and not p.startswith(out + os.sep)}


def _forbid_constant(name):
    raise ValueError(f"non-finite {name} in an output")


def _check_outputs(out):
    """Every number a run wrote under ``out`` is finite, and a marked
    .bevg cell holds a positive id."""
    for path in glob.glob(os.path.join(out, "**", "*"), recursive=True):
        if path.endswith(".json"):
            with open(path) as fh:
                json.load(fh, parse_constant=_forbid_constant)
        elif path.endswith(".csv"):
            with open(path) as fh:
                rows = [line.split(",")[3:10] for line in fh.readlines()[1:]]
            assert np.isfinite(np.array(rows, dtype=float)).all(), path
        elif path.endswith(".bevg"):
            sample = bev_render.read_grid_sample(path)
            assert np.isfinite(sample.context.planes).all(), path
            for frame in sample.frames:
                assert np.isfinite(frame.state).all(), path
                assert (frame.ids[frame.mask > 0] > 0).all(), path


@settings(max_examples=200, deadline=None)
@given(case=_cases())
def test_one_field_at_a_time(inputs, case):
    (name, path, rule, _), command, value = case
    docs, logs = inputs
    with tempfile.TemporaryDirectory() as tmp:
        root = os.path.join(tmp, "run")
        os.makedirs(os.path.join(root, "logs"))
        os.makedirs(os.path.join(root, "out"))
        for log_name, text in logs.items():
            with open(os.path.join(root, "logs", log_name), "w") as fh:
                fh.write(text)
        for doc_name, doc in docs.items():
            doc = copy.deepcopy(doc)
            if doc_name == name:
                _set(doc, path, value)
            target = "logs/s_v0.json" if doc_name == "sidecar" else doc_name
            with open(os.path.join(root, target), "w") as fh:
                fh.write(json.dumps(doc) + "\n")
        before = _outside(tmp)
        with contextlib.redirect_stderr(io.StringIO()) as stderr:
            rc = dispatch([command] + [
                os.path.join(root, a[1:]) if a.startswith("@") else a
                for a in _ARGV[command]])
        err = stderr.getvalue()
        assert rc in (0, 1), err
        assert _outside(tmp) == before, err
        if not rule(value):
            file_name = "logs/s_v0.json" if name == "sidecar" else name
            field = [key for key in path if type(key) is str][-1]
            assert rc == 1, err
            assert os.path.join(root, file_name) in err, err
            assert re.search(rf"\b{field}\b", err), err
        if rc == 0:
            _check_outputs(os.path.join(root, "out"))


@pytest.mark.parametrize("command, flag", [("build-graph", "--map"),
                                           ("metrics", "--preds")])
def test_deeply_nested_json_exits_1(tmp_path, capsys, command, flag):
    # json gives up on this nesting with a RecursionError, not a
    # JSONDecodeError
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000 + "\n")
    out = tmp_path / "out.json"
    assert dispatch([command, flag, str(path), "--out", str(out)]) == 1
    assert f"{path}" in capsys.readouterr().err
    assert not out.exists()


def test_two_files_with_one_scene_id_exit_1(tmp_path, capsys):
    # each scene's logs are named after its scene_id: the second file's
    # would overwrite the first's
    (tmp_path / "tracks").mkdir()
    for name, x in (("a.json", 20.0), ("b.json", 60.0)):
        (tmp_path / "tracks" / name).write_text(json.dumps(
            tracklets_doc("same", [(1, x, 0.0, 0.0, 8.0)])))
    (tmp_path / "map.json").write_text(json.dumps(straight_map(ROAD)))
    (tmp_path / "pool.json").write_text(json.dumps({"dt": 0.1, "profiles": [
        {"label": "straight", "feature": 8.0, "samples": [8.0] * 71}]}))
    out = tmp_path / "out"
    assert dispatch(["simulate", "--map", str(tmp_path / "map.json"),
                     "--tracklets", str(tmp_path / "tracks"),
                     "--pool", str(tmp_path / "pool.json"), "--seed", "1",
                     "--out", str(out)]) == 1
    assert f"tracklets file {tmp_path / 'tracks' / 'b.json'}: 'scene_id' " \
        f"'same' is already {tmp_path / 'tracks' / 'a.json'}'s" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["render", "metrics"])
def test_log_scene_id_that_is_a_path_exits_1(inputs, tmp_path, capsys,
                                             command):
    # render names its grid files after the scene id a log's sidecar
    # holds, which every line of its CSV names too
    docs, logs = inputs
    (tmp_path / "logs").mkdir()
    (tmp_path / "map.json").write_text(json.dumps(docs["map.json"]))
    sidecar = tmp_path / "logs" / "s_v0.json"
    sidecar.write_text(json.dumps({**docs["sidecar"],
                                   "scene_id": "../escaped"}))
    (tmp_path / "logs" / "s_v0.csv").write_text(
        logs["s_v0.csv"].replace("\ns,", "\n../escaped,"))
    out = tmp_path / "out"
    assert dispatch([command, "--logs", str(tmp_path / "logs"), "--map",
                     str(tmp_path / "map.json"), "--out", str(out)]) == 1
    assert f"sidecar file {sidecar}: ValueError: 'scene_id' must be" \
        in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["logs", "map.json"]


def _with_positions(csv_text, column, values, row=4):
    """``csv_text`` with ``column`` of agent ``k + 1``'s ``row``-th row set
    to ``values[k]``, and the file line numbers of those rows."""
    lines = csv_text.split("\n")
    header = lines[0].split(",")
    i_agent, i_col = header.index("agent_id"), header.index(column)
    seen, edited = {}, []
    for n, line in enumerate(lines[1:], 2):
        fields = line.split(",")
        if len(fields) < len(header):
            continue
        k = int(fields[i_agent]) - 1
        seen[k] = seen.get(k, -1) + 1
        if k < len(values) and seen[k] == row:
            fields[i_col] = values[k]
            lines[n - 1] = ",".join(fields)
            edited.append(n)
    assert len(edited) == len(values)
    return "\n".join(lines), edited


@pytest.mark.parametrize("command", ["render", "metrics"])
@pytest.mark.parametrize("column, values, bad", [
    # numpy overflowed on these and both commands exited 0, metrics
    # writing an "xdd_wasserstein" mean of Infinity
    ("x", ("1e308", "-1e308"), 0),
    ("y", ("2000000", "-2000000.0000005"), 1),
    ("x", ("-2000000", "2000000.0"), None),
])
def test_log_positions_beyond_the_bound_exit_1(inputs, tmp_path, capsys,
                                               command, column, values, bad):
    # a log's x and y lie within 2 x 1e6 m, twice the map's bound
    docs, logs = inputs
    (tmp_path / "logs").mkdir()
    (tmp_path / "map.json").write_text(json.dumps(docs["map.json"]))
    (tmp_path / "logs" / "s_v0.json").write_text(json.dumps(docs["sidecar"]))
    csv = tmp_path / "logs" / "s_v0.csv"
    text, lines = _with_positions(logs["s_v0.csv"], column, values)
    csv.write_text(text)
    out = tmp_path / "out"
    argv = [command, "--logs", str(tmp_path / "logs"), "--map",
            str(tmp_path / "map.json"), "--out", str(out)]
    if bad is None:
        assert dispatch(argv) == 0
        _check_outputs(str(tmp_path))
        return
    assert dispatch(argv) == 1
    assert f"simulation log {csv} line {lines[bad]}: ValueError: " \
        f"'{column}' must be a finite number >= -2000000 and <= 2000000, " \
        f"got {float(values[bad])!r}" in capsys.readouterr().err
    assert not out.exists()
