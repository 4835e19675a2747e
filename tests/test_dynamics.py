"""Car-following model, parameter sampling, leader search, lane-change rule."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import GRAPH_ARGS, ROUTE_ARGS, SIM, ring_map, straight_map

from trafficforge import road_graph
from trafficforge.config import MobilParams
from trafficforge.dynamics import (IdmParams, LeaderInfo, Snapshot,
                                   desired_gap, find_leader, idm_accel,
                                   leader_after, mobil_decide, mobil_safe,
                                   nearest_behind, rank_leaders,
                                   sample_idm_params)

_DECEL = SIM.controller.a_max_decel
_RANGE = SIM.sensing_range
_IDM = SIM.idm_ranges


def _gap_oracle(s0, T, a, b, v, dv):
    return s0 + max(0.0, v * T + v * dv / (2.0 * math.sqrt(a * b)))


def _accel_oracle(a, b, v0, delta, T, s0, v, s, dv):
    sstar = _gap_oracle(s0, T, a, b, v, dv)
    return a * (1.0 - (v / v0) ** delta - (sstar / s) ** 2)


def test_desired_gap_standstill():
    p = IdmParams(v0=15.0, s0=2.0, T=1.5, a=1.5, b=2.0)
    assert desired_gap(p, 0.0, 0.0) == pytest.approx(2.0)


def test_desired_gap_closed_form():
    p = IdmParams(v0=15.0, s0=2.0, T=1.5, a=1.5, b=2.0)
    assert desired_gap(p, 10.0, 0.0) == pytest.approx(17.0)
    # with closing speed 2: 2 + 15 + 20 / (2 * sqrt(3))
    expected = 2.0 + 15.0 + 20.0 / (2.0 * math.sqrt(3.0))
    assert desired_gap(p, 10.0, 2.0) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(22.7735, abs=1e-4)


def test_desired_gap_floor():
    p = IdmParams(v0=15.0, s0=2.0, T=0.5, a=1.5, b=2.0)
    # strongly opening gap would make the dynamic term negative
    assert desired_gap(p, 5.0, -50.0) == pytest.approx(2.0)


def test_accel_free_flow_equilibrium():
    p = IdmParams(v0=15.0)
    assert idm_accel(p, None, 15.0, _DECEL) == 0.0
    assert idm_accel(p, None, 0.0, _DECEL) == pytest.approx(p.a)


def test_accel_matches_independent_oracle():
    p = IdmParams(v0=15.0, T=1.5, s0=2.0, a=1.5, b=2.0)
    leader = LeaderInfo(2, gap_s=20.0, dv=2.0)
    got = idm_accel(p, leader, 10.0, _DECEL)
    want = _accel_oracle(1.5, 2.0, 15.0, 4.0, 1.5, 2.0, 10.0, 20.0, 2.0)
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(-0.741, abs=1e-3)


def test_accel_emergency_clamp():
    p = IdmParams(v0=15.0)
    for gap in (0.5, 0.0, -1.0):
        leader = LeaderInfo(2, gap_s=gap, dv=10.0)
        assert idm_accel(p, leader, 20.0, _DECEL) == -_DECEL


@settings(max_examples=200)
@given(st.floats(0.0, 25.0), st.floats(0.0, 25.0), st.floats(1.0, 200.0),
       st.floats(-10.0, 10.0))
def test_accel_monotone_in_speed(v1, v2, gap, dv):
    p = IdmParams(v0=14.0, T=1.2, s0=2.0, a=1.5, b=2.0)
    lo, hi = sorted((v1, v2))
    a_lo = idm_accel(p, LeaderInfo(0, gap, dv), lo, _DECEL)
    a_hi = idm_accel(p, LeaderInfo(0, gap, dv), hi, _DECEL)
    assert a_hi <= a_lo + 1e-12


@settings(max_examples=200)
@given(st.floats(1.0, 200.0), st.floats(1.0, 200.0), st.floats(0.0, 25.0),
       st.floats(-10.0, 10.0))
def test_accel_monotone_in_gap(g1, g2, v, dv):
    p = IdmParams(v0=14.0, T=1.2, s0=2.0, a=1.5, b=2.0)
    lo, hi = sorted((g1, g2))
    a_lo = idm_accel(p, LeaderInfo(0, lo, dv), v, _DECEL)
    a_hi = idm_accel(p, LeaderInfo(0, hi, dv), v, _DECEL)
    assert a_hi >= a_lo - 1e-12


def test_sample_params_within_ranges():
    for seed in range(200):
        p = sample_idm_params(seed, v0=12.0, **_IDM)
        assert 0.5 <= p.T <= 2.5
        assert 0.5 <= p.s0 <= 4.0
        assert 1.0 <= p.a <= 2.0
        assert 1.5 <= p.b <= 2.5
    assert sample_idm_params(7, 12.0, **_IDM) \
        == sample_idm_params(7, 12.0, **_IDM)


def test_sample_params_means():
    n = 10_000
    draws = [sample_idm_params(seed, 12.0, **_IDM) for seed in range(n)]
    for attr, (lo, hi) in (("T", (0.5, 2.5)), ("s0", (0.5, 4.0)),
                           ("a", (1.0, 2.0)), ("b", (1.5, 2.5))):
        values = np.array([getattr(p, attr) for p in draws])
        mid = (lo + hi) / 2.0
        sigma = (hi - lo) / math.sqrt(12.0 * n)
        assert abs(values.mean() - mid) < 3.0 * sigma, attr


def _two_agent_route(length=300.0):
    g = road_graph.build_graph(straight_map(length), **GRAPH_ARGS)
    start = road_graph.project_to_lane(g, (0.0, 0.0))
    return road_graph.enumerate_routes(
        g, start, **dict(ROUTE_ARGS, horizon_dist=length + 10))[0]


def test_find_leader_empty_road():
    route = _two_agent_route()
    coords = {1: (0, 10.0, 10.0, 4.0)}
    assert find_leader(Snapshot(coords), 1, route, _RANGE) is None


def test_find_leader_gap_minus_half_lengths():
    route = _two_agent_route()
    coords = {1: (0, 10.0, 10.0, 4.0), 2: (0, 40.0, 5.0, 4.0)}
    info = find_leader(Snapshot(coords), 1, route, _RANGE)
    assert info.leader_id == 2
    assert info.gap_s == pytest.approx(26.0)
    assert info.dv == pytest.approx(5.0)


def test_find_leader_nearest_wins():
    route = _two_agent_route()
    coords = {1: (0, 0.0, 10.0, 4.0),
              2: (0, 50.0, 5.0, 4.0),
              3: (0, 20.0, 5.0, 4.0)}
    assert find_leader(Snapshot(coords), 1, route, _RANGE).leader_id == 3


def test_find_leader_sensing_range():
    route = _two_agent_route()
    coords = {1: (0, 0.0, 10.0, 4.0), 2: (0, 150.0, 5.0, 4.0)}
    snap = Snapshot(coords)
    assert find_leader(snap, 1, route, sensing_range=100.0) is None
    assert find_leader(snap, 1, route, sensing_range=200.0).leader_id == 2
    # the boundary is inside the range
    assert find_leader(snap, 1, route, sensing_range=150.0).leader_id == 2


def _route_s_ref(route, edge_id, arc):
    for eid, s_start, arc0 in route.edge_spans:
        if eid == edge_id and arc >= arc0 - 1e-9:
            return s_start + (arc - arc0)
    return None


def _find_leader_ref(coords, subject_id, route, sensing_range):
    """O(N) scan over every agent in id order: the unindexed search."""
    subj_edge, subj_arc, subj_v, subj_len = coords[subject_id]
    subj_s = _route_s_ref(route, subj_edge, subj_arc)
    if subj_s is None:
        subj_s = 0.0
    best = None
    for aid in sorted(coords):
        if aid == subject_id:
            continue
        edge_id, arc, v, length = coords[aid]
        s = _route_s_ref(route, edge_id, arc)
        if s is None:
            continue
        dist = s - subj_s
        if dist <= 0.0 or dist > sensing_range:
            continue
        if best is None or dist < best[0]:
            best = (dist, aid, v, length)
    if best is None:
        return None
    dist, aid, v, length = best
    return LeaderInfo(aid, max(dist - (subj_len + length) / 2.0, 0.01),
                      subj_v - v)


def _nearest_behind_ref(coords, edge_id, arc, subject_id):
    best = None
    for aid in sorted(coords):
        if aid == subject_id:
            continue
        eid, a, _, _ = coords[aid]
        if eid != edge_id or a >= arc:
            continue
        if best is None or arc - a < best[0]:
            best = (arc - a, aid)
    return best[1] if best else None


def test_equal_arc_ties_go_to_lower_id():
    route = _two_agent_route()
    coords = {1: (0, 0.0, 10.0, 4.0), 7: (0, 30.0, 5.0, 4.0),
              3: (0, 30.0, 6.0, 4.0), 5: (0, 10.0, 0.0, 4.0)}
    snap = Snapshot(coords)
    assert find_leader(snap, 1, route, _RANGE,
                       moved=(5, None)).leader_id == 3
    # a moved agent tied with the bucketed ones wins only by its id
    tied = (0, 30.0, 0.0, 4.0)
    assert find_leader(snap, 5, route, _RANGE, moved=(1, tied)).leader_id == 1
    assert find_leader(snap, 1, route, _RANGE, moved=(5, tied)).leader_id == 3
    assert nearest_behind(snap, 0, 40.0, 1) == 3
    without_3 = {a: c for a, c in coords.items() if a != 3}
    assert nearest_behind(Snapshot(without_3), 0, 40.0, 1) == 7


# edges 0..3 form the loop; 9 is on no route
_RING = road_graph.build_graph(ring_map(50.0), **GRAPH_ARGS)


def _ring_route(edge_id, arc, horizon):
    return road_graph.enumerate_routes(
        _RING, road_graph.LaneCoordinate(edge_id, arc, 0.0, 0.0),
        **dict(ROUTE_ARGS, horizon_dist=horizon))[0]


_ROUTES = {
    # from arc 20 of edge 0 round to edge 0 again: two spans on edge 0,
    # the first one partial
    "revisit": _ring_route(0, 20.0, 230.0),
    # two laps and a bit: three spans on edge 0, two on the others
    "laps": _ring_route(0, 0.0, 410.0),
    # edges 2 (from arc 35) and 3: several edges, none revisited
    "multi": _ring_route(2, 35.0, 40.0),
    # from the end of edge 3: edges 0, 1 and 2, none partial
    "whole": _ring_route(3, 50.0, 120.0),
    "single": _ring_route(1, 10.0, 20.0),
}
# a 5 m grid of arcs makes equal arcs and exact sensing-range hits common
_COORDS = st.tuples(st.sampled_from([0, 1, 2, 3, 9]),
                    st.one_of(st.sampled_from([5.0 * i for i in range(11)]),
                              st.floats(0.0, 50.0)),
                    st.floats(0.0, 30.0), st.sampled_from([4.0, 4.5, 12.0]))


def test_ring_routes_cover_their_cases():
    spans = {name: [eid for eid, _, _ in r.edge_spans]
             for name, r in _ROUTES.items()}
    assert spans == {"revisit": [0, 1, 2, 3, 0],
                     "laps": [0, 1, 2, 3] * 2 + [0],
                     "multi": [2, 3], "whole": [0, 1, 2], "single": [1]}
    assert _ROUTES["revisit"].spans_by_edge[0] == [(0.0, 20.0), (180.0, 0.0)]
    assert _ROUTES["whole"].edge_spans[0] == (0, 0.0, 0.0)


@settings(max_examples=400, deadline=None)
@given(st.dictionaries(st.integers(1, 40), _COORDS, min_size=1, max_size=14),
       st.data(), st.sampled_from([25.0, 45.0, 100.0, 1000.0]),
       st.sampled_from(sorted(_ROUTES)))
def test_indexed_search_matches_brute_force(coords, data, sensing_range,
                                            route_name):
    route = _ROUTES[route_name]
    ids = sorted(coords)
    subject = data.draw(st.sampled_from(ids))
    snap = Snapshot(coords)
    assert find_leader(snap, subject, route, sensing_range) == \
        _find_leader_ref(coords, subject, route, sensing_range)
    edge, arc = data.draw(_COORDS)[:2]
    assert nearest_behind(snap, edge, arc, subject) == \
        _nearest_behind_ref(coords, edge, arc, subject)

    # the subject moved onto another lane position (MOBIL's "after")
    new_coord = data.draw(_COORDS)
    moved = dict(coords)
    moved[subject] = new_coord
    for aid in ids:
        assert find_leader(snap, aid, route, sensing_range,
                           moved=(subject, new_coord)) == \
            _find_leader_ref(moved, aid, route, sensing_range)
    assert nearest_behind(Snapshot(moved), edge, arc, -1) == \
        _nearest_behind_ref(moved, edge, arc, -1)

    # the subject removed (the old follower's "after")
    without = {a: c for a, c in coords.items() if a != subject}
    for aid in without:
        assert find_leader(snap, aid, route, sensing_range,
                           moved=(subject, None)) == \
            _find_leader_ref(without, aid, route, sensing_range)
    assert nearest_behind(Snapshot(without), edge, arc, -1) == \
        _nearest_behind_ref(without, edge, arc, -1)
    # what-ifs leave the snapshot untouched
    assert find_leader(snap, subject, route, sensing_range) == \
        _find_leader_ref(coords, subject, route, sensing_range)


# few agents make empty, one-agent and two-agent buckets common
_AGENTS = st.one_of(
    st.dictionaries(st.integers(1, 6), _COORDS, min_size=1, max_size=3),
    st.dictionaries(st.integers(1, 40), _COORDS, min_size=1, max_size=14))


@settings(max_examples=400, deadline=None)
@given(_AGENTS, st.data(), st.sampled_from([25.0, 45.0, 100.0, 1000.0]),
       st.sampled_from(sorted(_ROUTES)))
def test_ranked_search_resolves_every_what_if(coords, data, sensing_range,
                                              route_name):
    """One ranked search answers every one-agent what-if of the subject
    as the brute-force scan over the changed agents does."""
    route = _ROUTES[route_name]
    snap = Snapshot(coords)
    subject = data.draw(st.sampled_from(sorted(coords)))
    search = rank_leaders(snap, subject, route, sensing_range)
    assert leader_after(search) == \
        _find_leader_ref(coords, subject, route, sensing_range)
    # where a moved agent lands: tied on arc with the best and with the
    # runner-up (the lower id then wins), and anywhere
    ranked = [r for r in (search.first, search.second) if r is not None]
    places = [coords[aid] for _, aid, _, _ in ranked]
    places.append(data.draw(_COORDS))
    for aid in coords:
        if aid == subject:
            continue
        without = {a: c for a, c in coords.items() if a != aid}
        assert leader_after(search, (aid, None)) == \
            _find_leader_ref(without, subject, route, sensing_range)
        for place in places:
            moved = dict(coords)
            moved[aid] = place
            assert leader_after(search, (aid, place)) == \
                _find_leader_ref(moved, subject, route, sensing_range)
    # the subject itself moved: a search from its new coord
    for place in places:
        moved = dict(coords)
        moved[subject] = place
        want = _find_leader_ref(moved, subject, route, sensing_range)
        assert leader_after(rank_leaders(snap, subject, route,
                                         sensing_range, place)) == want
        assert find_leader(snap, subject, route, sensing_range,
                           moved=(subject, place)) == want


def test_ranked_search_keeps_the_runner_up():
    route = _two_agent_route()
    # tied on arc for the best place, then for the runner-up's
    for coords, ranked in (
            ({1: (0, 0.0, 10.0, 4.0), 4: (0, 30.0, 5.0, 4.0),
              2: (0, 30.0, 6.0, 4.0), 3: (0, 60.0, 7.0, 4.0)}, [2, 4]),
            ({1: (0, 0.0, 10.0, 4.0), 2: (0, 10.0, 5.0, 4.0),
              5: (0, 30.0, 6.0, 4.0), 3: (0, 30.0, 7.0, 4.0)}, [2, 3])):
        search = rank_leaders(Snapshot(coords), 1, route, _RANGE)
        assert [r[1] for r in (search.first, search.second)] == ranked
        assert search.subj_s == 0.0
        best, runner_up = ranked
        # the best moved away or removed: the runner-up leads
        assert leader_after(search, (best, (0, 90.0, 0.0, 4.0))) \
            .leader_id == runner_up
        assert leader_after(search, (best, None)).leader_id == runner_up
        # the runner-up removed: the best still leads
        assert leader_after(search, (runner_up, None)).leader_id == best


def test_mobil_selfish_change():
    p = MobilParams(p=0.0, da_th=0.1, b_safe=4.0, da_bias=0.0)
    assert mobil_decide(p, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0) == "change"


def test_mobil_safety_veto():
    p = MobilParams(p=0.0, da_th=0.1, b_safe=4.0, da_bias=0.0)
    # huge incentive, but the new follower would brake at 5 > b_safe
    assert mobil_decide(p, 0.0, 10.0, 0.0, -5.0, 0.0, 0.0) == "keep"
    # and the subject itself must not need to brake harder than b_safe
    assert mobil_decide(p, 0.0, -5.0, 0.0, 0.0, 0.0, 0.0) == "keep"


def test_mobil_politeness_balance():
    p = MobilParams(p=1.0, da_th=0.1, b_safe=4.0, da_bias=0.0)
    # gain 0.2, others lose 0.3 -> total -0.1 < 0.1 -> keep
    assert mobil_decide(p, 0.0, 0.2, 0.0, -0.2, 0.0, -0.1) == "keep"


def test_mobil_safe_is_the_safety_inequality():
    p = MobilParams(p=0.0, da_th=0.1, b_safe=4.0, da_bias=0.0)
    assert mobil_safe(p, 0.0, -3.9)
    assert not mobil_safe(p, 0.0, -4.0)
    assert not mobil_safe(p, 1.0, -3.5)


def test_mobil_p_zero_reduces_to_selfish(rng):
    p = MobilParams(p=0.0, da_th=0.1, b_safe=4.0, da_bias=0.05)
    for _ in range(300):
        acc = rng.uniform(-6, 3, size=6)
        got = mobil_decide(p, *acc)
        safe = (acc[3] - acc[2] > -p.b_safe) and (acc[1] - acc[0] > -p.b_safe)
        selfish = (acc[1] - acc[0]) > p.da_th - p.da_bias
        assert got == ("change" if (safe and selfish) else "keep")


def test_mobil_shift_invariance(rng):
    p = MobilParams(p=0.4, da_th=0.1, b_safe=4.0, da_bias=0.2)
    for _ in range(300):
        acc = rng.uniform(-6, 3, size=6)
        shift = float(rng.uniform(-5, 5))
        assert mobil_decide(p, *acc) == mobil_decide(p, *(acc + shift))


def test_idm_closed_loop_settles():
    """Follower behind a constant-speed leader converges to the desired gap."""
    dt = 0.1
    for seed in range(10):
        p = sample_idm_params(seed, v0=40.0, **_IDM)
        v_leader = 10.0
        x_l, x_f, v_f = 60.0, 0.0, 10.0
        for _ in range(600):
            gap = x_l - x_f
            acc = idm_accel(p, LeaderInfo(0, gap, v_f - v_leader), v_f,
                            _DECEL)
            x_l += v_leader * dt
            x_f += v_f * dt
            v_f = max(v_f + acc * dt, 0.0)
        sstar = desired_gap(p, v_leader, 0.0)
        assert abs((x_l - x_f) - sstar) < 0.01 * sstar
