"""Diverse behavior sampling and reference velocity-profile matching.

A pool of velocity profiles is mined from real trajectories, each labeled
with its maneuver and a matching feature: for turns the distance traveled
before the turn starts, for straight driving the average speed. Simulated
agents pick routes per maneuver and look up the nearest-neighbor profile
by feature, with per-sample Gaussian noise for extra diversity.
"""

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from trafficforge import geometry, road_graph
from trafficforge.errors import ConfigError, MissingProfileError
from trafficforge.geometry import wrap_angle
from trafficforge.util import derive_seed, number, numbers

TURN_CURVATURE_THRESHOLD = 0.05  # rad/m, onset on pure route geometry
TURN_CURVATURE_SUSTAIN = 1.0     # m of sustained curvature
TURN_ARC_STEP = 0.5              # m, resampling step of that onset scan


@dataclass
class VelocityProfile:
    samples: np.ndarray   # m/s, one per step of the pool's dt
    feature: float
    maneuver: str

    def value_at(self, step):
        """Reference speed at a simulation step; holds the last value."""
        i = min(step, len(self.samples) - 1)
        return float(self.samples[i])


class ProfilePool:
    """Velocity profiles, one sample every ``dt`` s, by maneuver label;
    ``skipped`` lists the (index, reason) of each source left out."""

    def __init__(self, profiles, dt, skipped=()):
        self.profiles = list(profiles)
        self.dt = dt
        self.skipped = list(skipped)
        self.by_label = {}
        for i, p in enumerate(self.profiles):
            self.by_label.setdefault(p.maneuver, []).append(i)

    def __len__(self):
        return len(self.profiles)

    def to_json(self):
        doc = {
            "dt": self.dt,
            "profiles": [
                {"label": p.maneuver, "feature": p.feature,
                 "samples": [float(s) for s in p.samples]}
                for p in self.profiles
            ],
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, doc, source="profile pool"):
        """Pool from its parsed JSON document.

        Raises :class:`ConfigError` naming ``source`` when a key is
        missing or a value breaks its rule (``dt`` > 0, ``label`` text).
        """
        where = source
        try:
            if not isinstance(doc, dict):
                raise TypeError(f"expected a JSON object, got "
                                f"{type(doc).__name__}")
            dt = number(doc["dt"], "dt", 0, strict=True)
            entries = doc["profiles"]
            if not isinstance(entries, list):
                raise TypeError(f"'profiles' must be a list, got "
                                f"{type(entries).__name__}")
            profiles = []
            for i, p in enumerate(entries):
                where = f"{source}: profile {i}"
                if type(p["label"]) is not str:
                    raise TypeError(f"'label' must be a string, got "
                                    f"{p['label']!r}")
                profiles.append(VelocityProfile(
                    numbers(p["samples"], "samples", 1, 0),
                    number(p["feature"], "feature"), p["label"]))
        except KeyError as exc:
            raise ConfigError([f"{where}: missing key {exc}"]) from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError([f"{where}: {exc}"]) from exc
        return cls(profiles, dt)


@dataclass
class BehaviorAssignment:
    """One agent's route, label and profile; no route parks the agent."""

    agent_id: int
    route: Optional[road_graph.Route]
    label: str
    profile: Optional[VelocityProfile]


def _sustained_onset(flags, stamps, sustain):
    """Start ``i`` of the first run of true ``flags`` ``i..j`` that lasts
    ``stamps[j + 1] - stamps[i] >= sustain``, or None; stops there."""
    start = None
    for j, flag in enumerate(flags):
        if not flag:
            start = None
        elif start is None:
            start = j
        if start is not None and stamps[j + 1] - stamps[start] >= sustain:
            return start
    return None


def distance_before_turn(traj, rate_threshold, sustain):
    """Arc length traveled before the first sustained turn onset.

    ``traj`` is an (N, 3) array of (t, x, y). The onset is the first
    timestep whose heading-rate magnitude exceeds ``rate_threshold``
    rad/s for at least ``sustain`` seconds; without one the full arc
    length returns.
    """
    traj = np.asarray(traj, dtype=float)
    if traj.ndim != 2 or traj.shape[1] != 3 or len(traj) < 3:
        raise ValueError("need an (N>=3, 3) array of (t, x, y)")
    pts = traj[:, 1:]
    arc = geometry.cumulative_lengths(pts)

    # headings per segment, carrying the previous one over standstill gaps
    h = geometry.segment_headings(pts).tolist()
    seg_len = geometry.segment_lengths(pts)
    for i in range(1, len(h)):
        if seg_len[i] < 1e-9:
            h[i] = h[i - 1]

    # rate sample j turns headings j to j + 1 from t[j + 1] to t[j + 2]
    stamps = traj[1:, 0].tolist()
    flags = (t1 > t0 and abs(wrap_angle(h1 - h0) / (t1 - t0)) > rate_threshold
             for t0, t1, h0, h1 in zip(stamps, stamps[1:], h, h[1:]))
    onset = _sustained_onset(flags, stamps, sustain)
    if onset is None:
        return float(arc[-1])
    return float(arc[onset + 1])


def build_profile_pool(real_trajs, dt, straight_threshold, rate_threshold,
                       sustain):
    """Mine a labeled profile pool from timestamped (t, x, y) trajectories.

    Speeds come from central differences and are resampled to ``dt``.
    Each trajectory is labelled by :func:`road_graph.classify_maneuver`
    at ``straight_threshold`` radians, and turning profiles carry
    :func:`distance_before_turn` with the given turn-onset
    ``rate_threshold`` and ``sustain``. Trajectories with fewer than 3
    points or non-increasing times are skipped and reported.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    profiles = []
    skipped = []
    for idx, traj in enumerate(real_trajs):
        traj = np.asarray(traj, dtype=float)
        if traj.ndim != 2 or traj.shape[1] != 3 or len(traj) < 3:
            skipped.append((idx, "too-short"))
            continue
        t = traj[:, 0]
        if np.any(np.diff(t) <= 0):
            skipped.append((idx, "bad-times"))
            continue
        pts = traj[:, 1:]
        speeds = [geometry.central_speed(t, pts, i) for i in range(len(t))]
        rel_t = t - t[0]
        grid = np.arange(0.0, rel_t[-1] + dt / 2, dt)
        samples = np.interp(grid, rel_t, speeds)
        label = road_graph.classify_maneuver(pts, straight_threshold)
        if label == "straight":
            feature = float(samples.mean())
        else:
            feature = distance_before_turn(traj, rate_threshold, sustain)
        profiles.append(VelocityProfile(samples, feature, label))
    return ProfilePool(profiles, dt, skipped)


def match_profile(pool, label, feature_query, rng_seed, noise_std):
    """Nearest profile by feature distance, returned with sampled noise.

    Noise is i.i.d. Gaussian per sample (std in m/s), clamped so speeds
    stay non-negative; ``noise_std=0`` returns the profile unchanged.
    """
    indices = pool.by_label.get(label)
    if not indices:
        raise MissingProfileError(label)
    best = min(indices,
               key=lambda i: (abs(pool.profiles[i].feature - feature_query), i))
    src = pool.profiles[best]
    samples = src.samples.copy()
    if noise_std > 0:
        rng = np.random.default_rng(rng_seed)
        samples = np.maximum(
            samples + rng.normal(0.0, noise_std, size=len(samples)), 0.0)
    return VelocityProfile(samples, src.feature, src.maneuver)


def feature_for_behavior(agent_init, route):
    """Profile-matching feature for one agent/route pair.

    Straight routes use the agent's current speed; turning routes use the
    arc distance from the route start to the turn onset, detected as
    sustained curvature above the threshold on the resampled geometry.
    """
    if route.maneuver == "straight":
        return float(agent_init.state.v)
    pts = geometry.resample_polyline(route.polyline, TURN_ARC_STEP)
    h = geometry.segment_headings(pts).tolist()
    stamps = [k * TURN_ARC_STEP for k in range(len(h))]
    flags = (abs(wrap_angle(h1 - h0)) / TURN_ARC_STEP
             > TURN_CURVATURE_THRESHOLD for h0, h1 in zip(h, h[1:]))
    onset = _sustained_onset(flags, stamps, TURN_CURVATURE_SUSTAIN)
    if onset is None:
        return float(route.total_length)
    return float(stamps[onset + 1])


def sample_behaviors(scene, pool, rng_seed, config):
    """Up to ``config.max_variants`` distinct behavior sets on
    ``scene.graph``, with the routes, route horizon and profile noise of
    the :class:`SimConfig` ``config``.

    Per agent, maneuver labels are drawn without replacement across
    variants (cycling once exhausted) and a route is drawn uniformly
    within the label. Variant sets that repeat an earlier multiset of
    (agent, label) pairs are dropped, so fewer sets may return. Fully
    determined by ``rng_seed`` and ``config``.
    """
    if config.max_variants < 1:
        raise ValueError("max_variants must be >= 1")

    per_agent = {}
    for agent in scene.agents:
        routes = road_graph.enumerate_routes(scene.graph, agent.lane,
                                             config.horizon_dist,
                                             config.max_routes)
        by_label = {}
        for r in routes:
            by_label.setdefault(r.maneuver, []).append(r)
        rng = np.random.default_rng(derive_seed(rng_seed, agent.agent_id))
        labels = sorted(by_label)
        order = [labels[i] for i in rng.permutation(len(labels))] \
            if labels else []
        per_agent[agent.agent_id] = (agent, by_label, order, rng)

    variants = []
    seen = set()
    for k in range(config.max_variants):
        assignment = {}
        for aid in sorted(per_agent):
            agent, by_label, order, rng = per_agent[aid]
            if not order:
                assignment[aid] = BehaviorAssignment(aid, None, "static", None)
                continue
            label = order[k % len(order)]
            candidates = by_label[label]
            route = candidates[int(rng.integers(len(candidates)))]
            feature = feature_for_behavior(agent, route)
            profile = match_profile(
                pool, label, feature,
                derive_seed(rng_seed, aid, k, "profile"),
                config.profile_noise_std)
            assignment[aid] = BehaviorAssignment(aid, route, label, profile)
        key = tuple(sorted((aid, a.label) for aid, a in assignment.items()))
        if key in seen:
            continue
        seen.add(key)
        variants.append(assignment)
    return variants
