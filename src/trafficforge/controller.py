"""Lane-tracking controllers and the kinematic bicycle update.

The lateral chain converts a signed lane offset into a lateral speed
command, the heading needed to realize it, a proportional heading rate,
and finally a steering angle for the bicycle model. The longitudinal
command tracks a reference speed but never exceeds the safe car-following
acceleration.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from trafficforge.geometry import wrap_angle

A_MAX_DECEL = 8.0


@dataclass
class VehicleState:
    """Kinematic state: position, speed, heading, acceleration, steering."""

    position: np.ndarray
    v: float = 0.0
    psi: float = 0.0
    a: float = 0.0
    phi: float = 0.0

    def copy(self):
        return VehicleState(self.position.copy(), self.v, self.psi,
                            self.a, self.phi)


@dataclass
class VehicleGeometry:
    L: float = 4.5
    width: float = 1.8


@dataclass
class ControllerParams:
    kp_lateral: float = 1.0
    kp_heading: float = 2.0
    epsilon: float = 0.0            # per-agent lane-offset noise, meters
    lookahead_time: float = 0.8
    lookahead_min: float = 2.0
    kp_speed: float = 1.0
    phi_max: float = field(default=math.radians(35.0))
    psi_req_max: float = field(default=math.radians(45.0))
    v_eps: float = 0.5
    a_max_decel: float = A_MAX_DECEL

    def validate(self):
        if min(self.kp_lateral, self.kp_heading, self.kp_speed) <= 0:
            raise ValueError("controller gains must be positive")
        if not 0 < self.phi_max < math.pi / 2:
            raise ValueError("phi_max must be in (0, pi/2)")


def lateral_velocity(kp_lateral, x_lateral, epsilon):
    """v_lateral command; positive offsets (left of lane) steer right."""
    return -kp_lateral * (x_lateral + epsilon)


def required_heading(v, v_lateral, v_eps=0.5,
                     psi_req_max=math.radians(45.0)):
    """arcsin(v_lateral / v) with a low-speed floor and saturation."""
    vv = v if v > v_eps else v_eps
    ratio = v_lateral / vv
    if ratio > 1.0:
        ratio = 1.0
    elif ratio < -1.0:
        ratio = -1.0
    psi = math.asin(ratio)
    if psi > psi_req_max:
        psi = psi_req_max
    elif psi < -psi_req_max:
        psi = -psi_req_max
    return psi


def heading_rate(kp_heading, psi_future, psi_req, psi_current):
    """Rate command from the wrapped error (psi_future + psi_req - psi)."""
    return kp_heading * wrap_angle(psi_future + psi_req - psi_current)


def steering_from_rate(L, v, psi_dot, v_eps=0.5,
                       phi_max=math.radians(35.0)):
    """phi = arctan(L * psi_dot / v), floored at v_eps, clamped at phi_max."""
    vv = v if v > v_eps else v_eps
    phi = math.atan(L * psi_dot / vv)
    if phi > phi_max:
        phi = phi_max
    elif phi < -phi_max:
        phi = -phi_max
    return phi


def steer_to_lane(x_lateral, epsilon, psi_future, psi_current, v,
                  kp_lateral, kp_heading, v_eps, psi_req_max, L, phi_max):
    """Fused lateral chain: offset -> lateral speed -> heading -> steering."""
    v_lat = lateral_velocity(kp_lateral, x_lateral, epsilon)
    psi_req = required_heading(v, v_lat, v_eps, psi_req_max)
    psi_dot = heading_rate(kp_heading, psi_future, psi_req, psi_current)
    return steering_from_rate(L, v, psi_dot, v_eps, phi_max)


def longitudinal_command(v, v_ref, kp_speed, a_idm,
                         a_max_decel=A_MAX_DECEL, a_cap=math.inf):
    """min(kp * (v_ref - v), a_idm); the safety ceiling is absolute.

    ``a_cap`` is the comfort limit (the caller usually passes the agent's
    comfortable acceleration; the IDM value already respects it).
    """
    a_cmd = kp_speed * (v_ref - v)
    if a_idm < a_cmd:
        a_cmd = a_idm
    if a_cmd < -a_max_decel:
        a_cmd = -a_max_decel
    elif a_cmd > a_cap:
        a_cmd = a_cap
    return a_cmd


def step_kinematics(state, a_cmd, phi, geom, dt):
    """Forward-Euler bicycle step; returns a new VehicleState.

    Position advances along the pre-update heading with the pre-update
    speed, speed is floored at zero (no reverse), and the applied
    (a, phi) are stored on the new state.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    x, y = float(state.position[0]), float(state.position[1])
    v, psi = state.v, state.psi
    v_new = v + a_cmd * dt
    if v_new < 0.0:
        v_new = 0.0
    psi_new = wrap_angle(psi + (v / geom.L) * math.tan(phi) * dt)
    x_new = x + v * dt * math.cos(psi)
    y_new = y + v * dt * math.sin(psi)
    return VehicleState(np.array([x_new, y_new]), v_new, psi_new, a_cmd, phi)
