"""Command-line front end.

Subcommands: build-graph, profile-pool, simulate, render, metrics.
Exit codes: 0 success, 1 validation error, 2 runtime error. All
randomized paths take an explicit --seed so reruns are byte-identical.
The TRAFFICFORGE_LOG environment variable sets the log level.
"""

import argparse
import json
import logging
import math
import os
import sys

import numpy as np

from trafficforge import behavior, bev_render, metrics, road_graph
from trafficforge import scene_ingest, sim_engine
from trafficforge.config import apply_overrides, set_key, validate_config
from trafficforge.errors import (ConfigError, EmptySceneError,
                                 InsufficientDataError, MapFormatError,
                                 TrafficForgeError)
from trafficforge.util import (integer, is_number, map_tasks, number, numbers,
                              open_input, read_input)

log = logging.getLogger("trafficforge")


def _setup_logging():
    level = os.environ.get("TRAFFICFORGE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _unique_keys(pairs):
    """The ``object_pairs_hook`` of every JSON reader: an object that
    repeats a key raises ``ValueError`` naming it, where ``json`` would
    keep the last value."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"repeated key {key!r}")
            seen.add(key)
    return doc


def _load_json(path, what):
    with open_input(path, f"{what} file") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError) as exc:
            raise ConfigError([f"{what} file {path}: invalid JSON ({exc})"])


def _tracklet_paths(path):
    if os.path.isdir(path):
        names = sorted(n for n in os.listdir(path) if n.endswith(".json"))
        if not names:
            raise ConfigError([f"no .json tracklet files in {path}"])
        return [os.path.join(path, n) for n in names]
    return [path]  # _load_json refuses a file that is not there


def _resolve_config(args):
    raw = {}
    if args.config:
        raw = _load_json(args.config, "config")
        if not isinstance(raw, dict):
            raise ConfigError([f"config file {args.config}: configuration "
                               f"must be a JSON object"])
    raw = apply_overrides(raw, getattr(args, "set", None))
    if getattr(args, "seed", None) is not None:
        sim = raw.get("sim")
        given = sim.get("master_seed", args.seed) \
            if isinstance(sim, dict) else args.seed
        if not (is_number(given) and given == args.seed):
            raise ConfigError([f"--seed {args.seed} conflicts with "
                               f"sim.master_seed {given!r} from --config or "
                               f"--set; give one seed"])
        set_key(raw, "sim.master_seed", args.seed)
    if getattr(args, "spec", None):  # render's grid.* fields
        try:
            spec = json.loads(args.spec, object_pairs_hook=_unique_keys)
        except ValueError as exc:
            raise ConfigError([f"--spec: invalid JSON ({exc})"])
        if not isinstance(spec, dict):
            raise ConfigError(
                [f"--spec: expected a JSON object, got {spec!r}"])
        if "res" in spec and "resolution" in spec:
            raise ConfigError(["--spec: gives both 'res' and 'resolution', "
                               "two spellings of grid.resolution; give one"])
        for key, value in spec.items():
            key = "resolution" if key == "res" else key
            set_key(raw, f"grid.{key}", value)
    return validate_config(raw)


def _emit(doc, out, pretty):
    text = json.dumps(doc, indent=2, sort_keys=True) if pretty \
        else json.dumps(doc, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _load_graph(args, cfg):
    """The lane graph of ``--map``, built with the configured road keys."""
    doc = _load_json(args.map, "map")
    try:
        return road_graph.build_graph(
            doc, cfg["road.join_tolerance"], cfg["road.default_lane_width"],
            math.radians(cfg["road.straight_threshold_deg"]),
            cfg["road.max_snap_distance"])
    except MapFormatError as exc:
        raise ConfigError([f"map file {args.map}: {exc}"]) from None


def cmd_build_graph(args):
    cfg = _resolve_config(args)
    graph = _load_graph(args, cfg)
    doc = {
        "nodes": [{"id": n.id, "x": float(n.position[0]),
                   "y": float(n.position[1])}
                  for n in (graph.nodes[i] for i in sorted(graph.nodes))],
        "edges": [{"id": e.id, "from": e.from_node, "to": e.to_node,
                   "length": e.length, "lane_width": e.lane_width,
                   "one_way": e.one_way,
                   "left_neighbor": e.left_neighbor,
                   "right_neighbor": e.right_neighbor,
                   "polyline": [[float(x), float(y)] for x, y in e.polyline]}
                  for e in (graph.edges[i] for i in sorted(graph.edges))],
    }
    _emit(doc, args.out, args.pretty)
    return 0


def cmd_profile_pool(args):
    cfg = _resolve_config(args)
    trajs = []
    for path in args.tracklets:
        doc = _load_json(path, "tracklets")
        _, tracks = scene_ingest.load_tracklets(doc,
                                                f"tracklets file {path}")
        trajs += [np.column_stack([tr.t, tr.xy]) for tr in tracks]
    pool = behavior.build_profile_pool(
        trajs, cfg["sim.dt"],
        math.radians(cfg["road.straight_threshold_deg"]),
        cfg["behavior.turn_rate_threshold"],
        cfg["behavior.turn_rate_sustain"])
    if pool.skipped:
        log.warning("skipped %d trajectories: %s", len(pool.skipped),
                    pool.skipped)
    if len(pool) == 0:
        raise ConfigError(["no usable trajectories for the profile pool"])
    with open(args.out, "w") as fh:
        fh.write(pool.to_json() + "\n")
    return 0


def _load_scenes(args, cfg):
    graph = _load_graph(args, cfg)
    scenes = []
    file_of = {}   # scene_id -> the file that has it; it names the logs
    for path in _tracklet_paths(args.tracklets):
        doc = _load_json(path, "tracklets")
        scene_id, tracks = scene_ingest.load_tracklets(
            doc, f"tracklets file {path}")
        if scene_id in file_of:
            raise ConfigError([f"tracklets file {path}: 'scene_id' "
                               f"{scene_id!r} is already "
                               f"{file_of[scene_id]}'s"])
        file_of[scene_id] = path
        try:
            scenes.append(scene_ingest.instantiate_agents(
                graph, tracks, args.t0, scene_id,
                cfg["behavior.min_spawn_gap"]))
        except EmptySceneError as exc:
            raise ConfigError([f"tracklets file {path}: {exc}"]) from None
    return scenes


def cmd_simulate(args):
    cfg = _resolve_config(args)
    if not math.isfinite(args.t0):
        raise ConfigError([f"--t0: expected a finite number of seconds, "
                           f"got {args.t0}"])
    sim_cfg = cfg.sim_config()
    pool = behavior.ProfilePool.from_json(_load_json(args.pool, "pool"),
                                          f"pool file {args.pool}")
    scenes = _load_scenes(args, cfg)

    logs, failures = sim_engine.run_dataset(scenes, pool, sim_cfg,
                                            jobs=args.jobs)
    os.makedirs(args.out, exist_ok=True)
    for simlog in logs:
        stem = f"{simlog.scene_id}_v{simlog.variant_index}"
        with open(os.path.join(args.out, stem + ".csv"), "w") as fh:
            simlog.write_csv(fh)
        with open(os.path.join(args.out, stem + ".json"), "w") as fh:
            json.dump(simlog.sidecar(), fh, sort_keys=True)
            fh.write("\n")
    summary = {"n_logs": len(logs),
               "failures": [{"scene_id": s, "error": e} for s, e in failures],
               "dropped": [{"scene_id": scene.scene_id,
                            "agent_id": d.agent_id, "reason": d.reason}
                           for scene in scenes for d in scene.dropped]}
    with open(os.path.join(args.out, "run.json"), "w") as fh:
        json.dump(summary, fh, sort_keys=True)
        fh.write("\n")
    if not logs:
        raise ConfigError(["no log written: every scene failed"]
                          + [f"scene {s}: {e}" for s, e in failures])
    if failures:
        log.warning("%d scene(s) failed", len(failures))
    return 0


def _load_logs(logs_dir):
    if not os.path.isdir(logs_dir):
        raise ConfigError([f"logs directory not found: {logs_dir}"])
    logs = []
    paths = {}      # (scene_id, variant) -> the CSV that holds it
    for name in sorted(os.listdir(logs_dir)):
        if not name.endswith(".csv"):
            continue
        side_path = os.path.join(logs_dir, name[:-4] + ".json")
        sidecar = _load_json(side_path, "sidecar")
        sim_engine.check_sidecar(sidecar, f"sidecar file {side_path}")
        csv_path = os.path.join(logs_dir, name)
        logs.append(sim_engine.read_simlog_csv(csv_path, sidecar))
        key = (logs[-1].scene_id, logs[-1].variant_index)
        if key in paths:
            raise ConfigError([f"simulation logs {paths[key]} and {csv_path} "
                               f"both hold scene {key[0]!r} variant {key[1]}"])
        paths[key] = csv_path
    if not logs:
        raise ConfigError([f"no simulation CSVs in {logs_dir}"])
    return logs


def _render_one(task):
    return bev_render.export_sequence(*task)


def _ego_grid(simlog, cfg):
    """The grid centered on the start of the log's lowest-id agent."""
    ego = min(simlog.agents, key=lambda ag: ag.agent_id)
    return bev_render.GridSpec.centered_on(
        (ego.x[0], ego.y[0]), cfg["grid.H"], cfg["grid.W"],
        cfg["grid.resolution"])


def cmd_render(args):
    cfg = _resolve_config(args)
    graph = _load_graph(args, cfg)
    logs = _load_logs(args.logs)
    longest = max(max((len(ag.t) for ag in simlog.agents), default=0)
                  for simlog in logs)
    if longest <= cfg["grid.t_obs"]:
        raise ConfigError([f"no grid sample to write: grid.t_obs is "
                           f"{cfg['grid.t_obs']}, and the longest log has "
                           f"{longest} steps; a sample needs t_obs + 1"])

    # variants of a scene share an ego start, hence a grid and a context
    contexts = {}
    tasks = []
    for simlog in logs:
        spec = _ego_grid(simlog, cfg)
        if spec not in contexts:
            contexts[spec] = bev_render.render_context(graph, spec)
        tasks.append((simlog, contexts[spec], cfg["grid.t_obs"],
                      cfg["grid.stride"], args.out))

    os.makedirs(args.out, exist_ok=True)
    results = map_tasks(_render_one, tasks, args.jobs)
    n_files = sum(len(r) for r in results)
    log.info("wrote %d grid samples", n_files)
    return 0


def _prediction_sets(path):
    psets = []
    text = read_input(path, "predictions file")
    for line_no, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line, object_pairs_hook=_unique_keys)
            dt = number(doc["dt"], "dt", 0, strict=True)
            gt = metrics.Trajectory2D(dt, numbers(doc["gt"], "gt", 2))
            samples = [metrics.Trajectory2D(dt, s) for s in
                       numbers(doc["samples"], "samples", 3)]
            aid = integer(doc["agent_id"], "agent_id")
            psets.append(metrics.PredictionSet(aid, gt, samples))
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise ConfigError([f"predictions file {path} line {line_no}: "
                               f"{type(exc).__name__}: {exc}"]) from exc
    if not psets:
        raise ConfigError([f"no prediction records in {path}"])
    return psets


def _horizons(text):
    """The comma-separated ``--horizons`` by report key, in order.

    Each must be a finite number > 0 with a key of its own: two horizons
    that round to one key would overwrite each other in the report.
    """
    try:
        horizons = [float(h) for h in text.split(",")]
        valid = all(math.isfinite(h) and h > 0 for h in horizons)
    except ValueError:
        valid = False
    if not valid:
        raise ConfigError([f"--horizons {text!r}: every horizon must be a "
                           f"finite number of seconds > 0"])
    by_key = {}
    for h in horizons:
        by_key.setdefault(f"{h:.1f}", []).append(h)
    clashes = [f"{' and '.join(map(str, hs))} share the report key {key!r}"
               for key, hs in by_key.items() if len(hs) > 1]
    if clashes:
        raise ConfigError([f"--horizons {text!r}: {'; '.join(clashes)}"])
    return {key: hs[0] for key, hs in by_key.items()}


def cmd_metrics(args):
    if args.map and not args.logs:
        raise ConfigError(["--map needs --logs: the map checks the validity "
                           "of the logs' trajectories"])
    horizons = _horizons(args.horizons)
    cfg = _resolve_config(args)
    report = {}
    if args.preds:
        psets = _prediction_sets(args.preds)
        per_h = {}
        for key, h in horizons.items():
            ades, fdes, nlls = [], [], []
            for ps in psets:
                n = len(ps.ground_truth.points)
                ratio = h / ps.ground_truth.dt   # inf when it overflows
                if not ratio < n:
                    continue
                steps = int(round(ratio))
                if steps < 1 or steps >= n:
                    continue
                ades.append(metrics.min_over_samples(ps, "ade", steps))
                fdes.append(metrics.min_over_samples(ps, "fde", steps))
                if len(ps.samples) >= 2:
                    nlls.append(metrics.nll(ps, steps))
            if ades:
                per_h[key] = {
                    "ade": float(np.mean(ades)),
                    "fde": float(np.mean(fdes)),
                    "nll": float(np.mean(nlls)) if nlls else None,
                    "n_agents": len(ades),
                }
        report["prediction"] = per_h
    if args.logs:
        logs = _load_logs(args.logs)
        trajs = []
        for simlog in logs:
            for ag in simlog.agents:
                pts = np.column_stack([ag.x, ag.y])
                if len(pts) >= 3:
                    trajs.append(metrics.Trajectory2D(simlog.dt, pts))
        try:
            div = metrics.diversity_report(trajs)
        except InsufficientDataError:
            raise ConfigError([
                f"--logs {args.logs}: no agent to score; diversity needs an "
                f"agent with 3 or more rows and a net displacement of at "
                f"least 1e-9 m"
            ]) from None
        report["diversity"] = div.to_dict()
        if args.map:
            report["validity_ratio"] = metrics.validity_ratio(
                trajs, _load_graph(args, cfg))
    if not report:
        raise ConfigError(["metrics needs --preds and/or --logs"])
    _emit(report, args.out, args.pretty)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="trafficforge",
        description="Deterministic multi-agent driving-scenario simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_help, seed=False, pretty=False):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config field (dotted key)")
        p.add_argument("--out", help=out_help)
        if pretty:  # only commands that print JSON through _emit
            p.add_argument("--pretty", action="store_true",
                           help="indent JSON output")
        if seed:
            p.add_argument("--seed", type=int, required=True,
                           help="master seed (required for reproducibility)")

    p = sub.add_parser("build-graph", help="build and dump the lane graph")
    p.add_argument("--map", required=True)
    common(p, "graph JSON file (default: stdout)", pretty=True)
    p.set_defaults(fn=cmd_build_graph)

    p = sub.add_parser("profile-pool",
                       help="mine a velocity-profile pool from tracklets")
    p.add_argument("--tracklets", nargs="+", required=True)
    common(p, "profile pool JSON file (required)")
    p.set_defaults(fn=cmd_profile_pool)
    p.set_defaults(out_required=True)

    p = sub.add_parser("simulate", help="simulate scenes to CSV logs")
    p.add_argument("--map", required=True)
    p.add_argument("--tracklets", required=True,
                   help="tracklet JSON file or directory of files")
    p.add_argument("--pool", required=True)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--jobs", type=int, default=1)
    common(p, "directory for the logs and run.json (required)", seed=True)
    p.set_defaults(fn=cmd_simulate, out_required=True)

    p = sub.add_parser("render", help="rasterize logs into grid samples")
    p.add_argument("--logs", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--spec", help='grid geometry, e.g. {"H":256,"W":256,"res":0.5}')
    p.add_argument("--jobs", type=int, default=1)
    common(p, "directory for the .bevg grid samples (required)")
    p.set_defaults(fn=cmd_render, out_required=True)

    p = sub.add_parser("metrics", help="evaluate predictions and logs")
    p.add_argument("--preds", help="JSONL prediction file")
    p.add_argument("--logs", help="directory of simulation CSVs")
    p.add_argument("--map", help="map for validity checks")
    p.add_argument("--horizons", default="1,2,3,4,5")
    common(p, "report JSON file (default: stdout)", pretty=True)
    p.set_defaults(fn=cmd_metrics)

    return parser


def dispatch(argv):
    """Run one CLI invocation; returns the process exit status."""
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    if getattr(args, "out_required", False) and not args.out:
        sys.stderr.write("error: --out is required for this command\n")
        return 1
    try:
        if getattr(args, "jobs", 1) < 1:
            raise ConfigError([f"--jobs: expected an integer >= 1, "
                               f"got {args.jobs}"])
        return args.fn(args)
    except ConfigError as exc:
        for v in exc.violations:
            sys.stderr.write(f"error: {v}\n")
        return 1
    except TrafficForgeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # runtime failures
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
