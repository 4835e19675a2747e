"""Tracking-controller equations, bicycle integration, closed-loop behavior."""

import math

import numpy as np
import pytest

from trafficforge.config import ControllerParams
from trafficforge.controller import (VehicleGeometry, VehicleState,
                                     heading_rate, lateral_velocity,
                                     longitudinal_command, required_heading,
                                     steer_to_lane, steering_from_rate,
                                     step_kinematics)

_P = ControllerParams()   # the controller.* keys at their defaults


def test_lateral_velocity():
    assert lateral_velocity(1.0, 0.0, 0.0) == 0.0
    assert lateral_velocity(1.0, 1.0, 0.0) == -1.0
    # left of lane -> corrective command toward the right
    assert lateral_velocity(0.7, 2.5, 0.0) < 0.0
    assert lateral_velocity(1.0, 0.0, 0.3) == pytest.approx(-0.3)


def test_required_heading():
    v_eps, psi_max = _P.v_eps, _P.psi_req_max
    assert required_heading(10.0, 0.0, v_eps, psi_max) == 0.0
    assert required_heading(10.0, 1.0, v_eps, psi_max) \
        == pytest.approx(math.asin(0.1))
    # saturates at the configured bound when the ratio explodes
    cap = math.radians(45.0)
    assert required_heading(10.0, 20.0, v_eps, cap) == pytest.approx(cap)
    assert required_heading(10.0, -20.0, v_eps, cap) == pytest.approx(-cap)


def test_required_heading_low_speed_floor():
    # at v = 0 the floor keeps the quotient finite
    got = required_heading(0.0, 0.25, 0.5, _P.psi_req_max)
    assert got == pytest.approx(math.asin(0.5))


def test_heading_rate():
    assert heading_rate(2.0, 0.3, 0.0, 0.3) == 0.0
    assert heading_rate(2.0, 0.1, 0.0, 0.0) == pytest.approx(0.2)
    # wrapped error: target 350 degrees ahead is really -10 degrees
    rate = heading_rate(1.0, math.radians(350.0), 0.0, 0.0)
    assert rate == pytest.approx(math.radians(-10.0))


def test_steering_from_rate():
    v_eps, phi_max = _P.v_eps, _P.phi_max
    assert steering_from_rate(4.0, 10.0, 0.0, v_eps, phi_max) == 0.0
    assert steering_from_rate(4.0, 10.0, 0.25, v_eps, phi_max) \
        == pytest.approx(math.atan(0.1))
    # low-speed floor: 0.5 is used in the quotient
    assert steering_from_rate(4.0, 0.0, 0.05, 0.5, phi_max) \
        == pytest.approx(math.atan(4.0 * 0.05 / 0.5))
    cap = math.radians(35.0)
    assert steering_from_rate(4.0, 0.5, 50.0, v_eps, cap) \
        == pytest.approx(cap)


def test_longitudinal_command():
    floor = _P.a_max_decel
    assert longitudinal_command(10.0, 10.0, 1.0, 5.0, floor) == 0.0
    # IDM caps the tracking command
    assert longitudinal_command(10.0, 15.0, 1.0, 1.5, floor) \
        == pytest.approx(1.5)
    # a braking IDM value dominates even when the reference wants speed
    assert longitudinal_command(10.0, 15.0, 1.0, -3.0, floor) \
        == pytest.approx(-3.0)
    # hard floor
    assert longitudinal_command(10.0, 0.0, 5.0, 5.0, floor) \
        == pytest.approx(-floor)


def test_longitudinal_never_exceeds_idm(rng):
    for _ in range(500):
        v, v_ref = rng.uniform(0, 20, size=2)
        a_idm = float(rng.uniform(-8, 2))
        cmd = longitudinal_command(float(v), float(v_ref), 1.0, a_idm,
                                   _P.a_max_decel)
        assert cmd <= a_idm + 1e-15


def test_step_kinematics_straight():
    geom = VehicleGeometry(L=4.5)
    st = VehicleState(np.array([0.0, 0.0]), v=10.0, psi=0.0)
    st = step_kinematics(st, 0.0, 0.0, geom, 0.1)
    assert st.position[0] == pytest.approx(1.0)
    assert st.position[1] == 0.0
    assert st.psi == 0.0 and st.v == 10.0


def test_step_kinematics_exact_distance():
    geom = VehicleGeometry(L=4.5)
    st = VehicleState(np.array([0.0, 0.0]), v=10.0, psi=0.0)
    for _ in range(50):
        st = step_kinematics(st, 0.0, 0.0, geom, 0.1)
    assert st.position[0] == 50 * 10.0 * 0.1  # bit-exact


def test_step_kinematics_no_reverse():
    geom = VehicleGeometry()
    st = VehicleState(np.array([0.0, 0.0]), v=1.0, psi=0.0)
    st = step_kinematics(st, -200.0, 0.0, geom, 0.1)
    assert st.v == 0.0


def _kasa_circle_fit(pts):
    """Least-squares circle fit; returns (center, radius)."""
    x, y = pts[:, 0], pts[:, 1]
    A = np.column_stack([2 * x, 2 * y, np.ones(len(pts))])
    b = x * x + y * y
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    cx, cy, c = sol
    r = math.sqrt(c + cx * cx + cy * cy)
    return np.array([cx, cy]), r


def test_constant_steering_traces_circle():
    L, R, v, dt = 4.0, 20.0, 5.0, 0.1
    phi = math.atan(L / R)
    geom = VehicleGeometry(L=L)
    st = VehicleState((0.0, 0.0), v=v, psi=0.0)
    n_steps = int(math.ceil(2 * math.pi * R / (v * dt)))  # one full loop
    pts = [st.position]
    for _ in range(n_steps):
        st = step_kinematics(st, 0.0, phi, geom, dt)
        pts.append(st.position)
    center, r_fit = _kasa_circle_fit(np.asarray(pts))
    assert abs(r_fit - R) / R < 0.02
    # every vertex stays near the fitted circle
    radii = np.linalg.norm(np.asarray(pts) - center, axis=1)
    assert np.max(np.abs(radii - r_fit)) / R < 0.02


def simulate_lane_keeping(x0=1.0, v=10.0, seconds=7.0, dt=0.1,
                          params=None, geom=None):
    """Closed loop on a straight lane; returns the lateral offset series."""
    params = params or ControllerParams()
    geom = geom or VehicleGeometry()
    st = VehicleState(np.array([0.0, x0]), v=v, psi=0.0)
    offsets = [x0]
    for _ in range(int(round(seconds / dt))):
        x_lat = float(st.position[1])
        phi = steer_to_lane(x_lat, params.epsilon, 0.0, st.psi, st.v,
                            params.kp_lateral, params.kp_heading,
                            params.v_eps, params.psi_req_max, geom.L,
                            params.phi_max)
        st = step_kinematics(st, 0.0, phi, geom, dt)
        offsets.append(float(st.position[1]))
    return np.asarray(offsets)


def test_lane_keeping_converges():
    offsets = simulate_lane_keeping()
    below = np.nonzero(np.abs(offsets) < 0.05)[0]
    assert below.size > 0
    assert below[0] * 0.1 <= 3.0          # reaches the band within 3 s
    assert offsets.min() >= -0.3          # bounded overshoot to the far side
    assert abs(offsets[-1]) < 0.05        # and stays settled at the end


def test_lane_keeping_steering_bounded():
    params = ControllerParams()
    geom = VehicleGeometry()
    st = VehicleState(np.array([0.0, 3.0]), v=8.0, psi=0.0)
    for _ in range(80):
        phi = steer_to_lane(float(st.position[1]), 0.0, 0.0, st.psi, st.v,
                            params.kp_lateral, params.kp_heading,
                            params.v_eps, params.psi_req_max, geom.L,
                            params.phi_max)
        assert abs(phi) <= params.phi_max + 1e-15
        st = step_kinematics(st, 0.0, phi, geom, 0.1)
        assert -math.pi < st.psi <= math.pi
        assert st.v >= 0
