"""Trajectory-tracking flight control via thrust-vector linearization.

The vertical dynamics parametrize the collective thrust directly; the
planar dynamics are linearized through the commanded thrust direction
and stabilized with linear state feedback. The outer (position) and
inner (attitude) gains of each planar axis are derived jointly so that
the hover linearization realizes the union of the configured pole pairs
exactly, rather than relying on time-scale separation. An integrator on
position error rejects constant disturbances such as wind; known body
drag is cancelled as feedforward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimation import NavEstimate
from .geometry import cross3
from .simulation import GRAVITY, VehicleParams
from .trajectory import RefPoint


def integrator_chain_gains(poles) -> np.ndarray:
    """State-feedback gains placing `poles` on a chain of integrators.

    Returns the characteristic-polynomial coefficients lowest order
    first, so for x^(n) = u the law u = -gains . (x, x', ..) realizes
    the poles: a double integrator with poles (-2, -2) gives (4, 4).
    """
    poles = np.atleast_1d(np.asarray(poles, dtype=complex))
    if np.any(poles.real >= 0):
        raise ValueError("poles must have negative real part")
    coeffs = np.poly(poles)  # highest order first, monic
    gains = coeffs[1:][::-1]
    if np.max(np.abs(gains.imag)) > 1e-9:
        raise ValueError("complex poles must come in conjugate pairs")
    return gains.real


def _pair(poles) -> tuple[float, float]:
    """(a0, a1) of s^2 + a1 s + a0 for a stable pole pair."""
    g = integrator_chain_gains(poles)
    if g.shape != (2,):
        raise ValueError("expected exactly two poles")
    return float(g[0]), float(g[1])


@dataclass(frozen=True)
class ControllerGains:
    """Feedback gains derived by `place_poles`."""

    ki: float
    integrator_limit: float  # [m s]
    kp_planar: float
    kd_planar: float
    att_stiffness: float  # c1
    att_damping: float  # c2
    kp_vertical: float
    kd_vertical: float
    kp_yaw: float
    kd_yaw: float


def place_poles(
    planar_poles=(-2.0, -2.5),
    attitude_poles=(-15.0, -16.0),
    vehicle: VehicleParams = VehicleParams(),
    ki: float = 2.0,
    integrator_limit: float = 2.0,
) -> ControllerGains:
    """Joint outer/inner gain derivation for the planar axes.

    With attitude gains (c1, c2), outer gains (Kp, Kd), linear body drag
    d = drag/mass cancelled as velocity feedforward, the hover
    linearization of one planar axis has characteristic polynomial
    s^4 + (c2 + d) s^3 + (c1 + c2 d) s^2 + c1 Kd s + c1 Kp; matching it
    against (s^2 + a1 s + a0)(s^2 + b1 s + b0) places all four poles
    exactly, with no reliance on inner/outer time-scale separation. The
    vertical axis, a double integrator, gets the planar poles.
    """
    d = vehicle.drag / vehicle.mass
    a0, a1 = _pair(planar_poles)
    b0, b1 = _pair(attitude_poles)
    c2 = (a1 + b1) - d
    c1 = (a0 + b0 + a1 * b1) - c2 * d
    if c2 <= 0 or c1 <= 0:
        raise ValueError("drag too large for the requested pole set")
    kd = (a1 * b0 + a0 * b1) / c1
    kp = a0 * b0 / c1
    if integrator_limit <= 0:
        raise ValueError("integrator limit must be positive")
    return ControllerGains(
        ki=ki,
        integrator_limit=integrator_limit,
        kp_planar=kp,
        kd_planar=kd,
        att_stiffness=c1,
        att_damping=c2,
        kp_vertical=a0,
        kd_vertical=a1,
        kp_yaw=b0,
        kd_yaw=b1,
    )


def _vee(m: np.ndarray) -> np.ndarray:
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def desired_attitude(f_vec: np.ndarray, heading: float) -> np.ndarray:
    """Rotation matrix with body z along f_vec and yaw from heading."""
    z_b = f_vec / np.linalg.norm(f_vec)
    x_c = np.array([math.cos(heading), math.sin(heading), 0.0])
    y_b = np.array(cross3(z_b, x_c))
    n = np.linalg.norm(y_b)
    if n < 1e-9:  # thrust collinear with heading axis; fall back to world y
        y_b = np.array([0.0, 1.0, 0.0])
        n = 1.0
    y_b = y_b / n
    x_b = np.array(cross3(y_b, z_b))
    return np.column_stack([x_b, y_b, z_b])


class Controller:
    """Single-writer controller instance (owns the error integrator)."""

    def __init__(self, gains: ControllerGains, vehicle: VehicleParams):
        self.gains = gains
        self.vehicle = vehicle
        self.integrator = np.zeros(3)
        self.last_r_des = np.eye(3)
        self.freefall_events = 0

    def step(self, est: NavEstimate, ref: RefPoint, body_rate, dt: float):
        """One control update; returns (thrust [N], body torques [N m]).

        `body_rate` is the bias-corrected gyro reading. Position and
        velocity errors feed the outer loop; the integrator adds slow
        disturbance rejection with a hard anti-windup clamp.
        """
        g = self.gains
        p = self.vehicle
        e_p = ref.position - est.pose.position
        e_v = ref.velocity - est.velocity
        self.integrator = np.clip(
            self.integrator + e_p * dt, -g.integrator_limit, g.integrator_limit
        )

        kp = np.array([g.kp_planar, g.kp_planar, g.kp_vertical])
        kd = np.array([g.kd_planar, g.kd_planar, g.kd_vertical])
        a_cmd = ref.accel + kp * e_p + kd * e_v + g.ki * self.integrator
        a_cmd = a_cmd + (p.drag / p.mass) * est.velocity

        f_vec = a_cmd - GRAVITY
        if np.linalg.norm(f_vec) < -0.1 * GRAVITY[2]:
            r_des = self.last_r_des
            self.freefall_events += 1
        else:
            r_des = desired_attitude(f_vec, ref.heading)
            self.last_r_des = r_des

        r_est = est.pose.orientation.to_matrix()
        thrust = p.mass * float(f_vec @ r_est[:, 2])
        thrust = min(max(thrust, 0.0), p.max_thrust)

        e_rot = 0.5 * _vee(r_des.T @ r_est - r_est.T @ r_des)
        rate_ff = r_est.T @ np.array([0.0, 0.0, ref.heading_rate])
        e_rate = np.asarray(body_rate, dtype=float) - rate_ff
        c1 = np.array([g.att_stiffness, g.att_stiffness, g.kp_yaw])
        c2 = np.array([g.att_damping, g.att_damping, g.kd_yaw])
        inertia = np.asarray(p.inertia)
        rate = np.asarray(body_rate, dtype=float)
        torque = inertia * (-c1 * e_rot - c2 * e_rate) + np.array(cross3(rate, inertia * rate))
        torque = np.clip(torque, -p.max_torque, p.max_torque)
        return thrust, torque
