"""Longitudinal car-following (IDM) and lane-change decisions (MOBIL).

The car-following acceleration is

    a_cf = a * (1 - (v / v0)^delta - (s* / s)^2)

with the desired minimum gap s* = s0 + max(0, v*T + v*dv / (2*sqrt(a*b))).
The lane-change test accepts a change when the politeness-weighted
acceleration gain clears the threshold and neither the subject nor the
new follower would brake harder than the safe limit.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

DELTA = 4.0   # IDM free-road acceleration exponent


@dataclass
class IdmParams:
    v0: float           # desired speed; the engine sets this per step
    T: float = 1.5
    s0: float = 2.0
    a: float = 1.5
    b: float = 2.0


@dataclass
class LeaderInfo:
    leader_id: int
    gap_s: float   # bumper-to-bumper, meters
    dv: float      # v_follower - v_leader


def desired_gap(params, v, dv):
    """Desired minimum gap s* for the current speed and closing speed.

    The dynamic term is floored at zero, so an opening gap never shrinks
    the requirement below the standstill distance s0.
    """
    dyn = v * params.T + v * dv / (2.0 * math.sqrt(params.a * params.b))
    if dyn < 0.0:
        dyn = 0.0
    return params.s0 + dyn


def idm_accel(params, leader, v, a_max_decel):
    """Safe longitudinal acceleration; free road when ``leader`` is None.

    Clamped to [-a_max_decel, params.a]. A non-positive gap (prevented
    upstream) degrades to the emergency clamp.
    """
    if leader is None:
        gap, dv = math.inf, 0.0
    else:
        gap, dv = leader.gap_s, leader.dv
        if gap <= 0.0:
            return -a_max_decel
    ratio = desired_gap(params, v, dv) / gap
    acc = params.a * (1.0 - (v / params.v0) ** DELTA - ratio * ratio)
    if acc < -a_max_decel:
        acc = -a_max_decel
    elif acc > params.a:
        acc = params.a
    return acc


def sample_idm_params(rng_seed, v0, T_range, s0_range, a_range, b_range):
    """Draw per-agent IDM parameters uniformly from (low, high) ranges."""
    rng = np.random.default_rng(rng_seed)
    return IdmParams(
        v0=v0,
        T=float(rng.uniform(*T_range)),
        s0=float(rng.uniform(*s0_range)),
        a=float(rng.uniform(*a_range)),
        b=float(rng.uniform(*b_range)),
    )


class Snapshot:
    """Frozen agent positions, bucketed by the lane edge each agent is on.

    ``coords`` maps agent_id -> (edge_id, arc_on_edge, v, length);
    ``by_edge`` maps edge_id -> the ids of the agents on that edge.
    """

    def __init__(self, coords):
        self.coords = coords
        self.by_edge = {}
        for aid, coord in coords.items():
            self.by_edge.setdefault(coord[0], []).append(aid)


class LeaderSearch(NamedTuple):
    """One ranked leader search of a subject along ``route``.

    ``subj_s`` is the subject's arc along the route, ``subj_v`` and
    ``subj_len`` its speed and length; ``first`` and ``second`` are its
    two nearest agents ahead within ``sensing_range``, as
    ``(dist, agent_id, v, length)`` ranked by ``(dist, agent_id)``, or
    None.
    """
    route: object
    sensing_range: float
    subj_s: float
    subj_v: float
    subj_len: float
    first: Optional[tuple]
    second: Optional[tuple]


def rank_leaders(snapshot, subject_id, route, sensing_range, coord=None):
    """The subject's two nearest agents ahead along its route.

    Only agents on the route's edges (``snapshot.by_edge``) are examined;
    distances are arc lengths along the route. ``coord`` puts the subject
    there instead of at its snapshot coord. :func:`leader_after` turns
    the result into the leader, also with one agent moved or removed.
    """
    coords = snapshot.coords
    by_edge = snapshot.by_edge
    subj_edge, subj_arc, subj_v, subj_len = coord or coords[subject_id]
    subj_s = route.route_s_of(subj_edge, subj_arc)
    if subj_s is None:
        subj_s = 0.0
    first = second = None
    for edge_id, spans in route.spans_by_edge.items():
        for aid in by_edge.get(edge_id, ()):
            if aid == subject_id:
                continue
            _, arc, v, length = coords[aid]
            # Route.route_s_of, inline: the first visit reaching ``arc``
            for s_start, arc0 in spans:
                if arc >= arc0 - 1e-9:
                    break
            else:
                continue
            dist = s_start + (arc - arc0) - subj_s
            if dist <= 0.0 or dist > sensing_range:
                continue
            if first is None or dist < first[0] \
                    or (dist == first[0] and aid < first[1]):
                first, second = (dist, aid, v, length), first
            elif second is None or dist < second[0] \
                    or (dist == second[0] and aid < second[1]):
                second = (dist, aid, v, length)
    return LeaderSearch(route, sensing_range, subj_s, subj_v, subj_len,
                        first, second)


def leader_after(search, moved=None):
    """The leader a :class:`LeaderSearch` finds, as a :class:`LeaderInfo`.

    ``moved``, an ``(agent_id, coord)`` pair of an agent other than the
    subject, reads the search as if that agent stood at ``coord``, or
    were absent when ``coord`` is None. The gap is bumper-to-bumper,
    floored at 0.01 m; ties go to the lower agent id.
    """
    best = search.first
    if moved is not None:
        moved_id, moved_coord = moved
        if best is not None and best[1] == moved_id:
            best = search.second
        if moved_coord is not None:
            # the moved agent, where the what-if puts it
            s = search.route.route_s_of(moved_coord[0], moved_coord[1])
            if s is not None:
                dist = s - search.subj_s
                if 0.0 < dist <= search.sensing_range and (
                        best is None or (dist, moved_id) < best[:2]):
                    best = (dist, moved_id) + moved_coord[2:]
    if best is None:
        return None
    dist, aid, v, length = best
    gap = max(dist - (search.subj_len + length) / 2.0, 0.01)
    return LeaderInfo(aid, gap, search.subj_v - v)


def find_leader(snapshot, subject_id, route, sensing_range, moved=None):
    """First agent ahead of the subject along its route: one
    :func:`rank_leaders` search read by :func:`leader_after`.

    ``moved``, an ``(agent_id, coord)`` pair, reads the snapshot as if
    that agent stood at ``coord``, or were absent when ``coord`` is None;
    a moved subject is searched for from ``coord``.
    """
    if moved is not None and moved[0] == subject_id:
        return leader_after(rank_leaders(snapshot, subject_id, route,
                                         sensing_range, moved[1]))
    return leader_after(rank_leaders(snapshot, subject_id, route,
                                     sensing_range), moved)


def nearest_behind(snapshot, edge_id, arc, subject_id):
    """Id of the closest agent behind ``arc`` on ``edge_id``, or None.

    The subject itself is skipped; ties go to the lower agent id.
    """
    best = None
    for aid in snapshot.by_edge.get(edge_id, ()):
        if aid == subject_id:
            continue
        a = snapshot.coords[aid][1]
        if a >= arc:
            continue
        d = arc - a
        if best is None or d < best[0] or (d == best[0] and aid < best[1]):
            best = (d, aid)
    return best[1] if best else None


def mobil_safe(params, a_old, a_new):
    """MOBIL's safety inequality for one vehicle: the change must not
    make it brake by ``params.b_safe`` or more."""
    return not a_new - a_old <= -params.b_safe


def mobil_decide(params, ac_old, ac_new, an_old, an_new, ao_old, ao_new):
    """Lane-change decision from the six involved accelerations.

    ``c`` is the subject, ``n`` the would-be new follower, ``o`` the old
    follower; ``*_new`` are the post-change values. Returns "change" when
    the incentive inequality and both safety inequalities hold.
    """
    if not (mobil_safe(params, an_old, an_new)
            and mobil_safe(params, ac_old, ac_new)):
        return "keep"
    gain = (ac_new - ac_old) \
        + params.p * ((an_new - an_old) + (ao_new - ao_old))
    return "change" if gain > params.da_th - params.da_bias else "keep"
