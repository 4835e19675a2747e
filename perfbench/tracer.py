"""Tracing from outside the library: wrap its functions at run time.

The tracer replaces module and class attributes of an imported
``trafficforge`` with wrappers that record one span per call (name,
start, end, parent) into flat in-memory arrays, or only count calls for
functions too hot to time. Nothing in the library changes on disk, and
an untraced process never imports this module.

Self time of a span is its duration minus the time covered by its
direct child spans; spans of one process nest strictly, since the
pipeline runs single-threaded with ``--jobs 1``.
"""

import os
import time
from array import array
from collections import Counter

import numpy as np

# (metric name, module, attribute path, kind, extra counter)
#   kind "span":  time every call; "count": count calls only.
#   The extra counter receives (args, result) and returns a number that is
#   summed under its own name.
TARGETS = [
    ("road_graph.build_graph", "road_graph", "build_graph", "span", None),
    ("road_graph.enumerate_routes", "road_graph", "enumerate_routes",
     "span", None),
    ("road_graph.route_build", "road_graph", "Route.__init__", "span", None),
    ("road_graph.project_to_lane", "road_graph", "project_to_lane",
     "span", None),
    ("road_graph.project_near", "road_graph", "Route.project_near",
     "span", None),
    ("road_graph.route_s_of", "road_graph", "Route.route_s_of",
     "count", None),
    ("geometry.project_point", "geometry", "project_point", "span", None),
    ("dynamics.find_leader", "dynamics", "find_leader", "span", None),
    ("dynamics.mobil_decide", "dynamics", "mobil_decide", "count",
     ("dynamics.mobil_changes", lambda args, res: res == "change")),
    ("sim_engine.consider_lane_change", "sim_engine",
     "_consider_lane_change", "span", None),
    # sim_engine binds the kernels by name, so they are wrapped there
    ("controller.step_kinematics", "sim_engine", "step_kinematics",
     "span", None),
    ("kernels.steer_to_lane", "sim_engine", "steer_to_lane", "span", None),
    ("kernels.longitudinal_command", "sim_engine", "longitudinal_command",
     "span", None),
    ("behavior.sample_behaviors", "behavior", "sample_behaviors", "span",
     ("behavior.variants", lambda args, res: len(res))),
    ("scene_ingest.instantiate_agents", "scene_ingest", "instantiate_agents",
     "span", ("scene_ingest.dropped_agents",
              lambda args, res: len(res.dropped))),
    ("sim_engine.simulate_scene", "sim_engine", "simulate_scene", "span",
     ("sim_engine.agent_steps",
      lambda args, res: sum(len(ag.t) for ag in res.agents))),
    ("sim_engine.write_csv", "sim_engine", "SimLog.write_csv", "span",
     ("sim_engine.csv_bytes", lambda args, res: args[1].tell())),
    ("sim_engine.read_simlog_csv", "sim_engine", "read_simlog_csv",
     "span", None),
    ("bev_render.render_context", "bev_render", "render_context",
     "span", None),
    ("bev_render.rasterize_states", "bev_render", "rasterize_states",
     "span", None),
    ("bev_render.write_grid_sample", "bev_render", "write_grid_sample",
     "span", ("bev_render.bevg_bytes",
              lambda args, res: os.path.getsize(args[1]))),
    ("metrics.validity_ratio", "metrics", "validity_ratio", "span", None),
    ("metrics.diversity_report", "metrics", "diversity_report",
     "span", None),
]


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts = Counter()
        self.missing = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, *args):
        """Call ``fn(*args)`` inside a span called ``name``."""
        return self._timed(name, fn, None)(*args)

    def _timed(self, name, fn, extra):
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        counts, clock = self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            starts.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()
            if extra is not None:
                counts[extra[0]] += extra[1](args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn, extra):
        counts, key = self.counts, f"{name}.calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            if extra is not None:
                counts[extra[0]] += extra[1](args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package):
        """Wrap every target found under ``package`` (the imported root).

        Every metric reads 0, not absent, when its target is never called
        or no longer exists; missing targets are listed in ``missing``.
        """
        for name, module, path, kind, extra in TARGETS:
            if kind == "span":
                self._name_id(name)
            else:
                self.counts[f"{name}.calls"] += 0
            if extra is not None:
                self.counts[extra[0]] += 0
            owner = getattr(package, module, None)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                self.missing.append(name)
                continue
            make = self._timed if kind == "span" else self._counted
            setattr(owner, attr, make(name, getattr(owner, attr), extra))

    def _arrays(self):
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = (np.frombuffer(self.span_end, dtype=np.float64)
               - np.frombuffer(self.span_start, dtype=np.float64))
        return name, parent, dur

    def summary(self, durations_of=()):
        """Calls, self time, per-stage self times and selected durations.

        A stage is a root span. ``stages`` maps each stage to the self
        time of every span name beneath it, the stage itself included.
        """
        name, parent, dur = self._arrays()
        has_parent = parent >= 0
        covered = np.zeros(len(dur))
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_time = dur - covered
        n_names = len(self.names)
        calls = np.bincount(name, minlength=n_names)
        self_sum = np.bincount(name, weights=self_time, minlength=n_names)
        root = np.empty(len(dur), dtype=np.int64)
        for i, p in enumerate(parent.tolist()):
            root[i] = i if p < 0 else root[p]
        stages = {}
        key = name[root].astype(np.int64) * n_names + name
        per_key = np.bincount(key, weights=self_time,
                              minlength=n_names * n_names)
        for k in np.nonzero(per_key)[0].tolist():
            stage, nid = divmod(k, n_names)
            stages.setdefault(self.names[stage], {})[self.names[nid]] = \
                float(per_key[k])
        durations = {n: dur[name == self._ids[n]].tolist()
                     for n in durations_of if n in self._ids}
        return {
            "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
            "self_s": {n: float(self_sum[i]) for i, n in enumerate(self.names)},
            "counts": dict(self.counts),
            "durations": durations,
            "stages": stages,
            "missing": self.missing,
        }

    def dump(self, path):
        """Write every span (name index, start, end, parent) as ``.npz``."""
        name, parent, _ = self._arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name=name, parent=parent,
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64))
