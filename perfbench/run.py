"""Whole-pipeline benchmark for trafficforge.

    python3 perfbench/run.py --workload junction --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --pin

Each run writes the workload's inputs from ``--seed`` (default: the
baseline seed), then repeats the pipeline in a fresh worker process per
repetition (set-up, then ``simulate``, ``render`` and ``metrics`` through
the real command line, ``--jobs 1``), closed loop, until ``--seconds`` is
used up. Before the timed repetitions one warm-up repetition runs the
workload's baseline seed and checks its output digests against
``golden.json``; every timed repetition must match the pinned digests of
``--seed`` when it has any, else the first timed repetition.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
medians over repetitions. Stage throughputs are given per "ref", the wall
time of a fixed reference computation the worker runs right before and
after each stage, because on a shared 2-vCPU virtual machine the CPU
speed swings by up to ~1.5x over seconds to minutes; the same figures per
second are printed above that line. With ``--trace 1`` repetitions
alternate traced and untraced, and the last line carries the per-layer
metrics of the traced ones plus the per-second figures of the untraced
ones. ``--pin`` re-pins the golden digests of every workload for the
baseline and held-out seeds; do that only for an intended output change.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import overlap
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
GOLDEN = os.path.join(HERE, "golden.json")
RUN_LIMIT_S = 170.0     # a run must finish well inside 180 s
MAX_REPS = 60


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    nproc = str(len(os.sched_getaffinity(0)))
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = nproc
    env["TRAFFICFORGE_LOG"] = "WARNING"
    return env


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def tree_sha256(directory, keep):
    """Digest of the (name, content digest) list of a flat directory."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        if keep(name):
            h.update(f"{name}\0{file_sha256(os.path.join(directory, name))}\n"
                     .encode())
    return h.hexdigest()


def output_digests(rep_dir):
    return {
        "logs": tree_sha256(os.path.join(rep_dir, "logs"),
                            lambda n: n != "run.json"),
        "grids": tree_sha256(os.path.join(rep_dir, "grids"),
                             lambda n: n.endswith(".bevg")),
        "report": file_sha256(os.path.join(rep_dir, "report.json")),
    }


def mismatches(got, want):
    return sum(got[k] != want[k] for k in want)


def run_rep(inputs, seed, rep_dir, trace, deadline):
    """One worker process; returns its result plus output digests."""
    shutil.rmtree(rep_dir, ignore_errors=True)
    os.makedirs(rep_dir)
    spec = {"src": os.path.join(ROOT, "src"), "inputs": inputs["paths"],
            "grid": inputs["grid"], "seed": seed, "trace": trace,
            "out": rep_dir, "result": os.path.join(rep_dir, "result.json")}
    spec_path = os.path.join(rep_dir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    with open(spec["result"]) as fh:
        result = json.load(fh)
    result["digests"] = output_digests(rep_dir)
    with open(os.path.join(rep_dir, "logs", "run.json")) as fh:
        result["failed"] = len(json.load(fh)["failures"])
    return result


def inspect_outputs(rep_dir, sizes):
    """Counts the throughput metrics divide by, plus output sanity checks."""
    logs = os.path.join(rep_dir, "logs")
    rows = points = lane_changes = n_logs = 0
    for name in sorted(os.listdir(logs)):
        path = os.path.join(logs, name)
        if name.endswith(".csv"):
            n_logs += 1
            per_agent = {}
            with open(path) as fh:
                next(fh)
                for line in fh:
                    aid = line.split(",", 3)[2]
                    per_agent[aid] = per_agent.get(aid, 0) + 1
            rows += sum(per_agent.values())
            # metrics --logs scores agents with at least 3 points
            points += sum(n for n in per_agent.values() if n >= 3)
        elif name.endswith(".json") and name != "run.json":
            with open(path) as fh:
                lane_changes += sum(len(a["lane_changes"])
                                    for a in json.load(fh)["agents"])
    n_grids = sum(n.endswith(".bevg")
                  for n in os.listdir(os.path.join(rep_dir, "grids")))
    with open(os.path.join(rep_dir, "report.json")) as fh:
        report = json.load(fh)
    problems = []
    if n_logs == 0 or rows == 0:
        problems.append("simulate wrote no rows")
    if n_grids != n_logs:
        problems.append(f"render wrote {n_grids} samples for {n_logs} logs")
    if not 0.0 <= report.get("validity_ratio", -1.0) <= 1.0:
        problems.append("metrics report lacks a validity ratio")
    return {"rows": rows, "points": points, "logs": n_logs,
            "grids": n_grids, "lane_changes": lane_changes,
            "overlap_pair_steps": overlap.count_log_overlaps(logs, sizes),
            "problems": problems}


def top_percentile(n):
    """Highest of p50/p90/p99 with at least ten samples beyond it."""
    best = 50
    for p in (90, 99):
        if n * (100 - p) / 100.0 >= 10:
            best = p
    return best


def percentile(values, p):
    return float(statistics.quantiles(values, n=100, method="inclusive")
                 [p - 1]) if len(values) > 1 else float(values[0])


def layer_metrics(traced, untraced, extra):
    """Per-layer metrics from the traced repetitions."""
    m = {}
    first = traced[0]["trace"]
    for stage in STAGES:
        m[f"cli.{stage}.s"] = (statistics.median(
            r["wall"][stage] for r in traced), "s")
    for name, calls in sorted(first["calls"].items()):
        if name.startswith("cli."):
            continue
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.s"] = (statistics.median(
            r["trace"]["self_s"][name] for r in traced), "s")
    for name, value in sorted(first["counts"].items()):
        m[name] = (value, "bytes" if name.endswith("_bytes") else "count")
    decisions = first["counts"].get("dynamics.mobil_decide.calls", 0)
    m["dynamics.mobil_change_ratio"] = (
        first["counts"].get("dynamics.mobil_changes", 0) / decisions
        if decisions else 0.0, "ratio")
    durations = [d for r in traced
                 for d in r["trace"]["durations"].get(
                     "sim_engine.simulate_scene", [])]
    ptop = top_percentile(len(durations))
    m["sim_engine.simulate_scene.s_p50"] = (percentile(durations, 50), "s")
    m["sim_engine.simulate_scene.s_ptop"] = (percentile(durations, ptop), "s")
    m["sim_engine.simulate_scene.ptop"] = (ptop, "pct")
    m["sim_engine.simulate_scene.samples"] = (len(durations), "count")
    m["trace_overhead_frac"] = (
        statistics.median(pipeline_s(r) for r in traced)
        / statistics.median(pipeline_s(r) for r in untraced) - 1.0, "ratio")
    m.update(extra)
    return m


STAGES = ("simulate", "render", "metrics")


def pipeline_s(rep):
    return sum(rep["wall"][stage] for stage in STAGES)


def in_refs(rep, stage):
    """Stage time over the mean of the references taken around it."""
    ref = rep["wall"]["ref"]
    i = STAGES.index(stage)
    return rep["wall"][stage] / ((ref[i] + ref[i + 1]) / 2.0)


def end_to_end_metrics(reps, counts):
    """Stage throughputs in units of the reference computation ("ref")."""
    med = statistics.median
    return {
        "setup_s": (med(r["wall"]["setup"] for r in reps), "s"),
        "sim_agent_steps_per_ref": (
            med(counts["rows"] / in_refs(r, "simulate") for r in reps),
            "1/ref"),
        "render_samples_per_ref": (
            med(counts["grids"] / in_refs(r, "render") for r in reps),
            "1/ref"),
        "metrics_points_per_ref": (
            med(counts["points"] / in_refs(r, "metrics") for r in reps),
            "1/ref"),
        "pipeline_ref": (
            med(sum(in_refs(r, s) for s in STAGES) for r in reps), "ref"),
        "peak_rss_mb": (med(r["peak_rss_mb"] for r in reps), "MB"),
    }


def wall_clock_metrics(reps, counts):
    """The same throughputs in plain seconds, and the reference itself."""
    med = statistics.median
    return {
        "sim_agent_steps_per_s": (
            med(counts["rows"] / r["wall"]["simulate"] for r in reps), "1/s"),
        "render_samples_per_s": (
            med(counts["grids"] / r["wall"]["render"] for r in reps), "1/s"),
        "metrics_points_per_s": (
            med(counts["points"] / r["wall"]["metrics"] for r in reps),
            "1/s"),
        "pipeline_s": (med(pipeline_s(r) for r in reps), "s"),
        "ref_s": (med(x for r in reps for x in r["wall"]["ref"]), "s"),
    }


def count_drift(traced):
    """Names of exact counts that differ between traced repetitions."""
    def exact(r):
        t = r["trace"]
        return {**{f"{k}.calls": v for k, v in t["calls"].items()},
                **t["counts"]}
    first = exact(traced[0])
    return sorted({k for r in traced[1:] for k, v in exact(r).items()
                   if first.get(k) != v})


def stage_tops(traced):
    """Per stage, the span name with the largest summed self time."""
    tops = {}
    for stage in sorted(traced[0]["trace"]["stages"]):
        total = {}
        for r in traced:
            for name, s in r["trace"]["stages"][stage].items():
                total[name] = total.get(name, 0.0) + s
        name = max(total, key=total.get)
        tops[stage] = (name, total[name] / sum(total.values()))
    return tops


def run(workload, seed, seconds, trace):
    t_run = time.monotonic()
    deadline = t_run + RUN_LIMIT_S
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    pinned = golden["digests"][workload]
    base_seed = golden["baseline_seed"]
    work = os.path.join(WORK, workload)
    shutil.rmtree(work, ignore_errors=True)
    base_in = workloads.write_inputs(workload, base_seed,
                                     os.path.join(work, "in_base"))
    inputs = base_in if seed == base_seed else \
        workloads.write_inputs(workload, seed, os.path.join(work, "in"))

    # warm-up: compiles bytecode, fills the file cache, checks the goldens
    warm = run_rep(base_in, base_seed, os.path.join(work, "rep_base"), False,
                   deadline)
    digest_mismatch = mismatches(warm["digests"], pinned[str(base_seed)])
    shutil.rmtree(os.path.join(work, "rep_base"))

    want = pinned.get(str(seed))
    reps, counts = [], None
    t0 = time.monotonic()
    while len(reps) < MAX_REPS:
        # at least 3 repetitions; traced runs alternate T, U, T, ...
        if len(reps) >= 3 and time.monotonic() + statistics.median(
                r["rep_wall"] for r in reps) > t0 + seconds:
            break
        t_rep = time.monotonic()
        traced = trace and len(reps) % 2 == 0
        rep_dir = os.path.join(work, f"rep{len(reps)}")
        rep = run_rep(inputs, seed, rep_dir, traced, deadline)
        rep["traced"] = traced
        if counts is None:
            counts = inspect_outputs(rep_dir, inputs["sizes"])
            want = want or rep["digests"]
        digest_mismatch += mismatches(rep["digests"], want)
        if traced:
            os.replace(os.path.join(rep_dir, "spans.npz"),
                       os.path.join(work, "spans.npz"))
        shutil.rmtree(rep_dir)
        rep["rep_wall"] = time.monotonic() - t_rep
        reps.append(rep)

    n_scenes = workloads.WORKLOADS[workload][2]
    attempted = n_scenes * len(reps)
    failed = sum(r["failed"] for r in reps)
    untraced = [r for r in reps if not r["traced"]]
    quality = {
        "digest_mismatch": (digest_mismatch, "count"),
        "failed_scene_frac": (failed / attempted, "ratio"),
        "overlap_pair_steps": (counts["overlap_pair_steps"], "count"),
        "sim_engine.lane_changes": (counts["lane_changes"], "count"),
    }
    problems = list(counts["problems"])
    if digest_mismatch:
        problems.append(f"{digest_mismatch} output digest(s) differ from "
                        "the pinned or first repetition")
    e2e = end_to_end_metrics(untraced, counts)
    wall_clock = wall_clock_metrics(untraced, counts)
    if trace:
        traced_reps = [r for r in reps if r["traced"]]
        metrics = layer_metrics(traced_reps, untraced,
                                {**wall_clock, **quality})
        drift = count_drift(traced_reps)
        if drift:
            problems.append("counts differ between repetitions: "
                            + ", ".join(drift))
        missing = traced_reps[0]["trace"]["missing"]
        if missing:
            print("not traced (attribute not found): " + ", ".join(missing))
        print("largest self time per stage: " + "; ".join(
            f"{stage}: {name} {share:.0%}"
            for stage, (name, share) in stage_tops(traced_reps).items()))
    else:
        metrics = e2e
    print(f"{workload} seed {seed}: {len(reps)} repetitions "
          f"({len(untraced)} untraced), {attempted} scenes attempted, "
          f"{counts['rows']} rows, {counts['grids']} grid samples, "
          f"{counts['points']} metric points per repetition")
    for name, (value, unit) in {**e2e, **wall_clock, **quality}.items():
        print(f"  {name} = {value:.6g} {unit}")
    for p in problems:
        print(f"FAILED CHECK: {p}", file=sys.stderr)
    return {"correct": not problems and failed == 0,
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def pin():
    """Run each workload twice per pinned seed and record its digests."""
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    deadline = time.monotonic() + 3600.0
    golden["digests"] = {}
    for workload in workloads.WORKLOADS:
        for seed in (golden["baseline_seed"], golden["heldout_seed"]):
            work = os.path.join(WORK, "pin", workload)
            inputs = workloads.write_inputs(workload, seed,
                                            os.path.join(work, "in"))
            got = [run_rep(inputs, seed, os.path.join(work, f"rep{i}"),
                           False, deadline)["digests"] for i in range(2)]
            if got[0] != got[1]:
                raise BenchError(f"{workload} seed {seed}: outputs differ "
                                 "between two identical runs")
            golden["digests"].setdefault(workload, {})[str(seed)] = got[0]
            shutil.rmtree(work)
            print(f"pinned {workload} seed {seed}")
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="re-pin the golden digests and exit")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "trafficforge", "cli.py")):
        print(f"error: no trafficforge sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    overlap.self_test()
    try:
        if args.pin:
            pin()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if args.seed is None:
            with open(GOLDEN) as fh:
                args.seed = json.load(fh)["baseline_seed"]
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
