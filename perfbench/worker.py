"""One benchmark repetition in a fresh process.

Runs the real command line in-process through ``trafficforge.cli.dispatch``:
set-up (import, ``profile-pool``, ``build-graph``), then the pipeline
(``simulate``, ``render``, ``metrics``), all with ``--jobs 1``. Times a
fixed reference computation before and after every pipeline stage. Writes
stage and reference wall times, peak RSS and, when tracing, the per-layer
summary to the result path named in the spec.
Usage: ``python3 worker.py SPEC.json``.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def reference():
    """Wall time of a fixed mix of interpreter and small NumPy work.

    Shared virtual CPUs slow down and speed up by up to ~1.5x for seconds
    to minutes at a time, and all stages of a process slow alike; dividing
    a stage's time by the mean of the references taken right before and
    after it cancels most of that swing.
    """
    import numpy as np
    v = np.arange(8.0)
    seen = {}
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(25000):
        w = v * 1.5 + i
        seen[i % 97] = seen.get(i % 97, 0) + 1
        acc += math.sqrt(float(w @ v))
    return time.perf_counter() - t0


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    import trafficforge
    import trafficforge.cli as cli

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(trafficforge.__file__).startswith(src + os.sep):
        sys.exit(f"trafficforge imported from {trafficforge.__file__}, "
                 f"not from {src}")
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(trafficforge)

    inp, out = spec["inputs"], spec["out"]
    pool = os.path.join(out, "pool.json")
    stages = [
        ("profile_pool", ["profile-pool", "--tracklets", inp["pool_src"],
                          "--out", pool]),
        ("build_graph", ["build-graph", "--map", inp["map"],
                         "--out", os.path.join(out, "graph.json")]),
        ("simulate", ["simulate", "--map", inp["map"],
                      "--tracklets", inp["tracklets"], "--pool", pool,
                      "--out", os.path.join(out, "logs"),
                      "--seed", str(spec["seed"]), "--jobs", "1"]),
        ("render", ["render", "--logs", os.path.join(out, "logs"),
                    "--map", inp["map"], "--spec", json.dumps(spec["grid"]),
                    "--out", os.path.join(out, "grids"), "--jobs", "1"]),
        ("metrics", ["metrics", "--logs", os.path.join(out, "logs"),
                     "--map", inp["map"],
                     "--out", os.path.join(out, "report.json")]),
    ]
    wall = {"ref": []}
    for name, argv in stages:
        t0 = time.perf_counter()
        if tracer is None:
            rc = cli.dispatch(argv)
        else:
            rc = tracer.span(f"cli.{name}", cli.dispatch, argv)
        wall[name] = time.perf_counter() - t0
        if rc != 0:
            sys.exit(f"{name} exited with status {rc}")
        if name == "build_graph":
            wall["setup"] = time.perf_counter() - T_START
        if name != "profile_pool":
            wall["ref"].append(reference())

    result = {"wall": wall,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        result["trace"] = tracer.summary(("sim_engine.simulate_scene",))
        tracer.dump(os.path.join(out, "spans.npz"))
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
