"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Tolerances are fixed here, not tuned at runtime.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import hashlib
import json
import math
import os
import shutil

import numpy as np

from helpers import (GRAPH_ARGS, ROUTE_ARGS, SIM, SPAWN_GAP, approach_point,
                     assert_grid_sample, four_way_intersection, straight_map,
                     synthetic_profile_sources, tracklets_doc)

from trafficforge import behavior, bev_render, metrics, road_graph
from trafficforge import scene_ingest
from trafficforge.behavior import BehaviorAssignment, VelocityProfile
from trafficforge.cli import dispatch
from trafficforge.config import ControllerParams, SimConfig
from trafficforge.controller import VehicleGeometry, VehicleState, \
    steer_to_lane, step_kinematics
from trafficforge.dynamics import (IdmParams, LeaderInfo, desired_gap,
                                   idm_accel, sample_idm_params)
from trafficforge.sim_engine import simulate_scene


def _line(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- 1. IDM unit fidelity ---------------------------------------------------

def test_criterion_1_idm_unit_fidelity():
    params = IdmParams(v0=15.0, T=1.5, s0=2.0, a=1.5, b=2.0)
    got = idm_accel(params, LeaderInfo(0, gap_s=20.0, dv=2.0), 10.0,
                    SIM.controller.a_max_decel)

    # independently coded closed form
    sstar = 2.0 + max(0.0, 10.0 * 1.5 + 10.0 * 2.0
                      / (2.0 * math.sqrt(1.5 * 2.0)))
    oracle = 1.5 * (1.0 - (10.0 / 15.0) ** 4 - (sstar / 20.0) ** 2)

    ok = abs(got - oracle) < 1e-12 and abs(got - (-0.741)) < 1e-3
    _line(1, ok, f"a_cf = {got:.6f} m/s^2 (oracle {oracle:.6f}, target -0.741)")


# -- 2. IDM equilibrium -----------------------------------------------------

def test_criterion_2_idm_equilibrium():
    dt, v_leader = 0.1, 10.0
    worst = 0.0
    rng = np.random.default_rng(2024)
    for k in range(100):
        # wants to go much faster
        p = sample_idm_params(k, v0=40.0, **SIM.idm_ranges)
        gap0 = float(rng.uniform(10.0, 60.0))
        x_l, x_f, v_f = gap0, 0.0, 10.0
        for _ in range(600):  # 60 simulated seconds
            acc = idm_accel(p, LeaderInfo(0, x_l - x_f, v_f - v_leader), v_f,
                            SIM.controller.a_max_decel)
            x_l += v_leader * dt
            x_f += v_f * dt
            v_f = max(v_f + acc * dt, 0.0)
        sstar = desired_gap(p, v_leader, 0.0)
        worst = max(worst, abs((x_l - x_f) - sstar) / sstar)
    ok = worst < 0.01
    _line(2, ok, f"worst gap error over 100 draws: {worst * 100:.3f}% of s*")


# -- 3. collision-free guarantee ---------------------------------------------

def _two_agent_scene(graph, rng, idx):
    lead_v = float(rng.uniform(0.0, 12.0))
    gap0 = float(rng.uniform(5.0, 50.0))
    bumper0 = gap0 + 4.5  # arc distance for a 5..50 m bumper gap
    # follower speed limited to what full braking can absorb
    v_max_safe = math.sqrt(lead_v ** 2 + 2.0 * 4.0 * max(gap0 - 0.5, 0.0))
    foll_v = min(float(rng.uniform(0.0, 15.0)), v_max_safe)

    x_f = 20.0
    x_l = x_f + bumper0
    doc = tracklets_doc(f"crash{idx:04d}",
                        [(1, x_l, 0.0, 0.0, lead_v),
                         (2, x_f, 0.0, 0.0, foll_v)])
    sid, tracks = scene_ingest.load_tracklets(doc)
    scene = scene_ingest.instantiate_agents(graph, tracks, 0.0, sid, SPAWN_GAP)

    route = {a.agent_id: road_graph.enumerate_routes(
        graph, a.lane, **dict(ROUTE_ARGS, horizon_dist=900.0))[0]
        for a in scene.agents}
    # leader ramps toward a random target speed; follower wants to be fast
    lead_target = float(rng.uniform(0.0, lead_v)) if rng.random() < 0.5 \
        else lead_v
    ramp = np.linspace(lead_v, lead_target, 30)
    lead_profile = np.concatenate([ramp, np.full(90, lead_target)])
    foll_profile = np.full(120, float(rng.uniform(8.0, 20.0)))
    asg = {
        1: BehaviorAssignment(1, route[1], "straight",
                              VelocityProfile(lead_profile, 0.0,
                                              "straight")),
        2: BehaviorAssignment(2, route[2], "straight",
                              VelocityProfile(foll_profile, 0.0,
                                              "straight")),
    }
    return scene, asg


def test_criterion_3_collision_free():
    graph = road_graph.build_graph(straight_map(900.0), **GRAPH_ARGS)
    rng = np.random.default_rng(99)
    min_gap = math.inf
    for idx in range(1000):
        scene, asg = _two_agent_scene(graph, rng, idx)
        cfg = SimConfig(master_seed=idx, epsilon_std=0.0)
        log = simulate_scene(scene, asg, cfg)
        lead = next(a for a in log.agents if a.agent_id == 1)
        foll = next(a for a in log.agents if a.agent_id == 2)
        n = min(len(lead.t), len(foll.t))
        gaps = (lead.x[:n] - foll.x[:n]) - 4.5
        min_gap = min(min_gap, float(gaps.min()))
    ok = min_gap >= 0.0
    _line(3, ok, f"minimum bumper gap over 1000 scenes: {min_gap:.3f} m")


# -- 4. controller convergence ----------------------------------------------

def test_criterion_4_controller_convergence():
    params = ControllerParams()  # kp_lateral = 1.0, kp_heading = 2.0
    geom = VehicleGeometry()
    state = VehicleState(np.array([0.0, 1.0]), v=10.0, psi=0.0)
    offsets = [1.0]
    for _ in range(70):
        phi = steer_to_lane(float(state.position[1]), 0.0, 0.0, state.psi,
                            state.v, params.kp_lateral, params.kp_heading,
                            params.v_eps, params.psi_req_max, geom.L,
                            params.phi_max)
        state = step_kinematics(state, 0.0, phi, geom, 0.1)
        offsets.append(float(state.position[1]))
    offsets = np.asarray(offsets)
    below = np.nonzero(np.abs(offsets) < 0.05)[0]
    t_reach = below[0] * 0.1 if below.size else math.inf
    overshoot = max(0.0, float(-offsets.min()))
    ok = t_reach <= 3.0 and overshoot <= 0.3
    _line(4, ok, f"|offset| < 0.05 m at t = {t_reach:.1f} s, "
                 f"overshoot {overshoot:.3f} m")


# -- 5. kinematic circle ----------------------------------------------------

def test_criterion_5_kinematic_circle():
    L, R, v, dt = 4.0, 20.0, 5.0, 0.1
    phi = math.atan(L / R)
    geom = VehicleGeometry(L=L)
    st = VehicleState((0.0, 0.0), v=v, psi=0.0)
    pts = [st.position]
    for _ in range(int(math.ceil(2 * math.pi * R / (v * dt)))):
        st = step_kinematics(st, 0.0, phi, geom, dt)
        pts.append(st.position)
    pts = np.asarray(pts)
    x, y = pts[:, 0], pts[:, 1]
    A = np.column_stack([2 * x, 2 * y, np.ones(len(pts))])
    sol, *_ = np.linalg.lstsq(A, x * x + y * y, rcond=None)
    r_fit = math.sqrt(sol[2] + sol[0] ** 2 + sol[1] ** 2)
    err = abs(r_fit - R) / R
    ok = err < 0.02
    _line(5, ok, f"fitted radius {r_fit:.3f} m vs {R} m ({err * 100:.2f}%)")


# -- 6. diversity direction ---------------------------------------------------

def _intersection_scenes(graph, n_scenes, rng):
    scenes = []
    for i in range(n_scenes):
        deg = int(rng.choice([0, 90, 180, 270]))
        # spawn close enough that a turn dominates the 7 s horizon
        dist = float(rng.uniform(8.0, 30.0))
        speed = float(rng.uniform(8.0, 13.0))
        x, y, psi = approach_point(deg, dist)
        doc = tracklets_doc(f"div{i:03d}", [(1, x, y, psi, speed)])
        sid, tracks = scene_ingest.load_tracklets(doc)
        scenes.append(scene_ingest.instantiate_agents(graph, tracks, 0.0,
                                                      sid, SPAWN_GAP))
    return scenes


def _logs_to_trajs(logs):
    out = []
    for log in logs:
        for ag in log.agents:
            pts = np.column_stack([ag.x, ag.y])
            if len(pts) >= 3:
                out.append(metrics.Trajectory2D(log.dt, pts))
    return out


def test_criterion_6_diversity_direction(profile_pool):
    graph = road_graph.build_graph(four_way_intersection(), **GRAPH_ARGS)
    rng = np.random.default_rng(61)
    scenes = _intersection_scenes(graph, 50, rng)
    cfg = SimConfig(master_seed=6)

    multi_logs, straight_logs = [], []
    for scene in scenes:
        variants = behavior.sample_behaviors(
            scene, profile_pool,
            behavior.derive_seed(6, scene.scene_id),
            SimConfig(max_variants=3))
        for vi, asg in enumerate(variants):
            multi_logs.append(simulate_scene(scene, asg, cfg, vi))
        # straight-only baseline: force the straight route for every agent
        base = {}
        for agent in scene.agents:
            routes = road_graph.enumerate_routes(graph, agent.lane,
                                                 **ROUTE_ARGS)
            straight = next(r for r in routes if r.maneuver == "straight")
            profile = behavior.match_profile(
                profile_pool, "straight", agent.state.v,
                behavior.derive_seed(6, scene.scene_id, "base"),
                cfg.profile_noise_std)
            base[agent.agent_id] = BehaviorAssignment(
                agent.agent_id, straight, "straight", profile)
        straight_logs.append(simulate_scene(scene, base, cfg, 0))

    multi = metrics.diversity_report(_logs_to_trajs(multi_logs))
    base = metrics.diversity_report(_logs_to_trajs(straight_logs))
    y_ratio = multi.y_mean / base.y_mean
    xdd_ratio = multi.xdd_mean / base.xdd_mean
    ok = y_ratio >= 2.0 and xdd_ratio >= 2.0
    _line(6, ok,
          f"multi/straight ratios: y {y_ratio:.1f}x "
          f"({multi.y_mean:.2f}/{base.y_mean:.2f} m), "
          f"xdd {xdd_ratio:.1f}x "
          f"({multi.xdd_mean:.2f}/{base.xdd_mean:.2f} m/s^2)")


# -- 7. metric oracle equivalence ---------------------------------------------

def test_criterion_7_metric_oracles():
    rng = np.random.default_rng(7)
    worst_disp, worst_w = 0.0, 0.0
    for _ in range(200):
        n = int(rng.integers(10, 40))
        gt = np.cumsum(rng.normal(size=(n, 2)), axis=0)
        samples = [gt + rng.normal(scale=0.5, size=(n, 2)) for _ in range(5)]
        h = int(rng.integers(1, n))
        tgt = metrics.Trajectory2D(0.1, gt)
        tsam = [metrics.Trajectory2D(0.1, s) for s in samples]
        pset = metrics.PredictionSet(0, tgt, tsam)

        d = [np.linalg.norm(s - gt, axis=1) for s in samples]
        worst_disp = max(
            worst_disp,
            abs(metrics.ade(tsam[0], tgt, h) - d[0][1:h + 1].mean()),
            abs(metrics.fde(tsam[0], tgt, h) - d[0][h]),
            abs(metrics.min_over_samples(pset, "ade", h)
                - min(di[1:h + 1].mean() for di in d)),
            abs(metrics.min_over_samples(pset, "fde", h)
                - min(di[h] for di in d)))

        norm = metrics.normalize_trajectory(tgt)
        worst_w = max(worst_w, abs(metrics.y_wasserstein(norm)
                                   - np.abs(norm.points[:, 1]).mean()))
        x = norm.points[:, 0]
        dt2 = 0.1 * 0.1
        interior = np.convolve(x, [1.0, -2.0, 1.0], "valid") / dt2
        full = np.concatenate([[interior[0]], interior, [interior[-1]]])
        worst_w = max(worst_w, abs(metrics.xdd_wasserstein(norm)
                                   - np.abs(full).mean()))
    ok = worst_disp < 1e-12 and worst_w < 1e-9
    _line(7, ok, f"max |error| displacement {worst_disp:.2e}, "
                 f"wasserstein {worst_w:.2e}")


# -- 8. realism-check sanity ---------------------------------------------------

def _realism_set(rng, n, shift=0.0):
    out = []
    for _ in range(n):
        t = np.arange(36) * 0.2
        x = 8.0 * t + np.cumsum(rng.normal(scale=0.8, size=36)) * 0.2
        y = np.cumsum(rng.normal(scale=0.5, size=36)) * 0.2 + shift
        out.append(metrics.Trajectory2D(0.2, np.column_stack([x, y])))
    return out


def test_criterion_8_realism_sanity():
    rng = np.random.default_rng(8)
    real = _realism_set(rng, 1500)
    sim_same = _realism_set(rng, 1500)
    ll_real, ll_same = metrics.pca_kde_realism(real, sim_same,
                                               n_eval=1000, rng_seed=88)
    gap_same = abs(ll_real - ll_same)

    sigma = float(np.std([t.points[:, 1].mean() for t in real]))
    sim_far = _realism_set(rng, 1500, shift=10.0 * sigma)
    ll_real2, ll_far = metrics.pca_kde_realism(real, sim_far,
                                               n_eval=1000, rng_seed=88)
    drop = ll_real2 - ll_far
    ok = gap_same <= 0.1 and drop >= 5.0
    _line(8, ok, f"same-generator gap {gap_same:.3f} nats (<= 0.1), "
                 f"10-sigma shift drop {drop:.1f} nats (>= 5)")


# -- 9. rasterizer invariants --------------------------------------------------

def test_criterion_9_rasterizer_invariants(tmp_path):
    rng = np.random.default_rng(9)
    graphs = []
    for i in range(20):
        pts0 = rng.uniform(-15, 15, size=2)
        pts1 = pts0 + rng.uniform(10, 25, size=2)
        graphs.append(road_graph.build_graph({"centerlines": [
            {"id": 0, "points": [list(pts0), list(pts1)],
             "lanes": int(rng.integers(1, 3)), "oneway": True}]},
            **GRAPH_ARGS))

    checked = 0
    for i in range(1000):
        H = int(rng.integers(20, 40))
        W = int(rng.integers(20, 40))
        spec = bev_render.GridSpec(H, W, float(rng.choice([0.5, 1.0])),
                                   (float(rng.uniform(-20, -5)),
                                    float(rng.uniform(-20, -5))))
        graph = graphs[i % len(graphs)]
        ctx = bev_render.render_context(graph, spec)
        assert (ctx.planes.sum(axis=0) == 1).all()

        n_agents = int(rng.integers(1, 6))
        positions = rng.uniform(-25, 25, size=(n_agents, 2))

        class _Ag:
            pass

        class _Log:
            pass

        log = _Log()
        log.scene_id, log.variant_index, log.agents = f"r{i}", 0, []
        for aid, (px, py) in enumerate(positions):
            ag = _Ag()
            ag.agent_id = aid
            ag.label = str(rng.choice(["straight", "left", "right"]))
            ag.t = np.array([0.0, 0.1])
            ag.x = np.array([px, px + 0.5])
            ag.y = np.array([py, py])
            log.agents.append(ag)
        maps = bev_render.rasterize_states(log, 1, spec)
        in_grid = int((spec.cells(positions[:, 0] + 0.5,
                                  positions[:, 1]) >= 0).sum())
        assert maps.mask.sum() + maps.collisions == in_grid
        assert ((maps.ids != 0) == (maps.mask == 1)).all()

        (path,) = bev_render.export_sequence(log, ctx, 1, 1, str(tmp_path))
        assert_grid_sample(bev_render.read_grid_sample(path),
                           log, ctx, 1)
        os.remove(path)
        checked += 1
    _line(9, checked == 1000,
          f"{checked}/1000 rasterizations satisfied one-hot, mask-count "
          f"and round-trip invariants")


# -- 10. determinism -----------------------------------------------------------

def _pipeline_inputs(root):
    os.makedirs(root / "tracklets")
    with open(root / "map.json", "w") as fh:
        json.dump(four_way_intersection(), fh)
    rng = np.random.default_rng(10)
    for i in range(20):
        deg = int(rng.choice([0, 90, 180, 270]))
        x, y, psi = approach_point(deg, float(rng.uniform(25, 50)))
        agents = [(1, x, y, psi, float(rng.uniform(7, 11))),
                  (2, x - 20 * math.cos(psi), y - 20 * math.sin(psi), psi,
                   float(rng.uniform(6, 10)))]
        with open(root / "tracklets" / f"s{i:02d}.json", "w") as fh:
            json.dump(tracklets_doc(f"s{i:02d}", agents), fh)
    tracks = [{"agent_id": i,
               "poses": [{"t": float(t), "x": float(px), "y": float(py)}
                         for t, px, py in src]}
              for i, src in enumerate(
                  synthetic_profile_sources(np.random.default_rng(11)))]
    with open(root / "pool_tracks.json", "w") as fh:
        json.dump({"scene_id": "pool", "tracks": tracks}, fh)
    assert dispatch(["profile-pool", "--tracklets",
                     str(root / "pool_tracks.json"),
                     "--out", str(root / "pool.json")]) == 0


def _run_pipeline(root, out, jobs):
    assert dispatch(["simulate", "--map", str(root / "map.json"),
                     "--tracklets", str(root / "tracklets"),
                     "--pool", str(root / "pool.json"),
                     "--out", str(out / "logs"), "--seed", "123",
                     "--jobs", str(jobs)]) == 0
    assert dispatch(["render", "--logs", str(out / "logs"),
                     "--map", str(root / "map.json"),
                     "--spec", '{"H":32,"W":32,"res":1.0,"t_obs":20}',
                     "--jobs", str(jobs),
                     "--out", str(out / "grids")]) == 0
    assert dispatch(["metrics", "--logs", str(out / "logs"),
                     "--map", str(root / "map.json"),
                     "--out", str(out / "metrics.json")]) == 0


def _tree_digest(root):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def test_criterion_10_determinism(tmp_path):
    _pipeline_inputs(tmp_path)
    digests = {}
    for name, jobs in (("a", 1), ("b", 1), ("par", 8)):
        out = tmp_path / f"run_{name}"
        os.makedirs(out)
        _run_pipeline(tmp_path, out, jobs)
        digests[name] = _tree_digest(out)
        shutil.rmtree(out)
    ok = digests["a"] == digests["b"] == digests["par"]
    _line(10, ok, f"tree digests: rerun {'==' if digests['a'] == digests['b'] else '!='} "
                  f"first, jobs=8 {'==' if digests['par'] == digests['a'] else '!='} jobs=1")
