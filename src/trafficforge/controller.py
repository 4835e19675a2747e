"""Lane-tracking controllers and the kinematic bicycle update.

The lateral chain converts a signed lane offset into a lateral speed
command, the heading needed to realize it, a proportional heading rate,
and finally a steering angle for the bicycle model. The longitudinal
command tracks a reference speed but never exceeds the safe car-following
acceleration.
"""

import math
from dataclasses import dataclass

from trafficforge.geometry import wrap_angle


@dataclass
class VehicleState:
    """Kinematic state: position, speed, heading, acceleration, steering.

    The simulation keeps ``position`` as an ``(x, y)`` tuple of Python
    floats, so a step allocates and indexes no numpy array.
    """

    position: tuple
    v: float = 0.0
    psi: float = 0.0
    a: float = 0.0
    phi: float = 0.0


@dataclass
class VehicleGeometry:
    L: float = 4.5
    width: float = 1.8


def lateral_velocity(kp_lateral, x_lateral, epsilon):
    """v_lateral command; positive offsets (left of lane) steer right."""
    return -kp_lateral * (x_lateral + epsilon)


def required_heading(v, v_lateral, v_eps, psi_req_max):
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


def steering_from_rate(L, v, psi_dot, v_eps, phi_max):
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


def longitudinal_command(v, v_ref, kp_speed, a_idm, a_max_decel):
    """min(kp * (v_ref - v), a_idm); the safety ceiling is absolute.

    The command is at most ``a_idm``, which :func:`dynamics.idm_accel`
    clamps to the agent's comfortable ``a``, so it needs no upper clamp.
    """
    a_cmd = kp_speed * (v_ref - v)
    if a_idm < a_cmd:
        a_cmd = a_idm
    if a_cmd < -a_max_decel:
        a_cmd = -a_max_decel
    return a_cmd


def step_kinematics(state, a_cmd, phi, geom, dt):
    """Forward-Euler bicycle step; returns a new VehicleState.

    Position advances along the pre-update heading with the pre-update
    speed, speed is floored at zero (no reverse), and the applied
    (a, phi) are stored on the new state. ``state.position`` may be any
    (x, y) pair; the new one is a tuple of Python floats.
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
    return VehicleState((x_new, y_new), v_new, psi_new, a_cmd, phi)
