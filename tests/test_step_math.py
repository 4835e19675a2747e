"""Properties and pinned bits of the scalar per-step math.

The IDM, steering chain and bicycle step have one implementation each,
in :mod:`trafficforge.dynamics`, :mod:`trafficforge.controller` and
:mod:`trafficforge.geometry`; the digest below pins their exact floats.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafficforge.controller import (VehicleGeometry, VehicleState,
                                     longitudinal_command, steer_to_lane,
                                     step_kinematics)
from trafficforge.dynamics import (IdmParams, LeaderInfo, desired_gap,
                                   idm_accel)
from trafficforge.geometry import wrap_angle

finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)

# SHA-256 of the reprs that _step_math_reprs() yields, pinned on the tree
# that still selected between a compiled and a pure-Python backend.
STEP_MATH_DIGEST = ("18223b26ec48e3286cd73a5429d2ff71"
                    "28e7453bb50463d16ad3b3fc10f14bc6")


@given(finite)
def test_wrap_angle_range(theta):
    w = wrap_angle(theta)
    assert -math.pi < w <= math.pi
    # wrapping is idempotent and preserves the angle mod 2*pi
    assert wrap_angle(w) == w
    assert math.isclose(math.sin(w), math.sin(theta), abs_tol=1e-6)
    assert math.isclose(math.cos(w), math.cos(theta), abs_tol=1e-6)


def test_wrap_angle_boundaries():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(0.0) == 0.0


@settings(max_examples=200)
@given(st.floats(0.5, 4.0), st.floats(0.0, 2.5), st.floats(1.0, 2.0),
       st.floats(1.5, 2.5), st.floats(0.0, 40.0), st.floats(-15.0, 15.0),
       st.floats(0.1, 40.0), st.floats(0.01, 200.0))
def test_idm_bounds(s0, T, a, b, v, dv, v0, gap):
    p = IdmParams(v0=v0, T=T, s0=s0, a=a, b=b)
    acc = idm_accel(p, LeaderInfo(1, gap, dv), v, 8.0)
    assert -8.0 <= acc <= a
    assert desired_gap(p, v, dv) >= s0


def test_idm_emergency_gap():
    p = IdmParams(v0=15.0, T=1.5, s0=2.0, a=1.5, b=2.0)
    assert idm_accel(p, LeaderInfo(1, 0.0, 0.0), 10.0, 8.0) == -8.0


def _array_step(state, a_cmd, phi, geom, dt):
    """The bicycle step as it was when positions were numpy arrays: the
    oracle for :func:`step_kinematics`."""
    x, y = float(state.position[0]), float(state.position[1])
    v, psi = state.v, state.psi
    v_new = v + a_cmd * dt
    if v_new < 0.0:
        v_new = 0.0
    psi_new = wrap_angle(psi + (v / geom.L) * math.tan(phi) * dt)
    x_new = x + v * dt * math.cos(psi)
    y_new = y + v * dt * math.sin(psi)
    return VehicleState(np.array([x_new, y_new]), v_new, psi_new, a_cmd, phi)


@settings(max_examples=300)
@given(finite, finite, st.floats(0.0, 60.0), st.floats(-4.0, 4.0),
       st.floats(-8.0, 3.0), st.floats(-0.6, 0.6),
       st.sampled_from([0.05, 0.1, 0.25]), st.booleans())
def test_step_kinematics_matches_array_step(x, y, v, psi, a_cmd, phi, dt,
                                            as_array):
    geom = VehicleGeometry(L=4.5)
    position = np.array([x, y]) if as_array else (x, y)
    new = step_kinematics(VehicleState(position, v, psi), a_cmd, phi, geom,
                          dt)
    want = _array_step(VehicleState(np.array([x, y]), v, psi), a_cmd, phi,
                       geom, dt)
    got = (*new.position, new.v, new.psi, new.a, new.phi)
    assert type(new.position) is tuple and len(new.position) == 2
    assert all(type(value) is float for value in got)
    assert [value.hex() for value in got] == [
        float(value).hex() for value in (*want.position, want.v, want.psi,
                                         want.a, want.phi)]


def _step_math_reprs():
    """reprs of every step-math function over a fixed seeded input grid."""
    rng = np.random.default_rng(20240611)
    geom = VehicleGeometry(L=4.5)
    for th in (0.0, -0.0, math.pi, -math.pi, 2 * math.pi, -3 * math.pi,
               1e6, -1e6):
        yield repr(wrap_angle(th))
    for i in range(3000):
        th = float(rng.uniform(-60, 60))
        yield repr(wrap_angle(th))

        p = IdmParams(v0=float(rng.uniform(0.1, 40)),
                      T=float(rng.uniform(0, 2.5)),
                      s0=float(rng.uniform(0.5, 4)),
                      a=float(rng.uniform(1, 2)),
                      b=float(rng.uniform(1.5, 2.5)))
        v, dv = float(rng.uniform(0, 30)), float(rng.uniform(-10, 10))
        yield repr(desired_gap(p, v, dv))
        # a free road, a non-positive gap, and an ordinary leader in turn
        if i % 5 == 0:
            leader = None
        elif i % 5 == 1:
            gap = -float(rng.uniform(0, 2)) if i % 2 else 0.0
            leader = LeaderInfo(1, gap, dv)
        else:
            leader = LeaderInfo(1, float(rng.uniform(0.01, 120)), dv)
        yield repr(idm_accel(p, leader, v, 8.0))

        yield repr(steer_to_lane(
            float(rng.uniform(-4, 4)), float(rng.uniform(-0.5, 0.5)),
            float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)), v,
            1.0, 2.0, 0.5, math.radians(45), 4.5, math.radians(35)))
        yield repr(longitudinal_command(
            v, float(rng.uniform(0, 20)), 1.0, float(rng.uniform(-8, 2)),
            8.0))

        state = VehicleState(
            np.array([rng.uniform(-100, 100), rng.uniform(-100, 100)]),
            v, float(rng.uniform(-3, 3)))
        new = step_kinematics(state, float(rng.uniform(-8, 2)),
                              float(rng.uniform(-0.6, 0.6)), geom, 0.1)
        yield repr((float(new.position[0]), float(new.position[1]),
                    new.v, new.psi, new.a, new.phi))


def test_step_math_bits_pinned():
    h = hashlib.sha256()
    for text in _step_math_reprs():
        h.update(text.encode())
        h.update(b"\n")
    assert h.hexdigest() == STEP_MATH_DIGEST
