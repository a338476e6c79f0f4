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

from .estimation import NavState
from .geometry import _norm, cross3, rotation_matrix
from .simulation import _GX, _GY, _GZ, VehicleParams
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


def desired_attitude(z_b, heading: float) -> np.ndarray:
    """Rotation matrix with body z along the unit 3-vector z_b and yaw
    from heading."""
    x_c = (math.cos(heading), math.sin(heading), 0.0)
    y_b = cross3(z_b, x_c)
    n = _norm(y_b)
    if n < 1e-9:  # thrust collinear with heading axis; fall back to world y
        y_b, n = (0.0, 1.0, 0.0), 1.0
    y0, y1, y2 = y_b[0] / n, y_b[1] / n, y_b[2] / n
    (x0, x1, x2), (z0, z1, z2) = cross3((y0, y1, y2), z_b), z_b
    return np.array((x0, y0, z0, x1, y1, z1, x2, y2, z2)).reshape(3, 3)


class Controller:
    """Single-writer controller instance (owns the error integrator)."""

    def __init__(self, gains: ControllerGains, vehicle: VehicleParams):
        self.gains = gains
        self.vehicle = vehicle
        self.integrator = (0.0, 0.0, 0.0)
        self.last_r_des = np.eye(3)
        self.freefall_events = 0

    def step(self, nav: NavState, ref: RefPoint, body_rate, dt: float):
        """One control update; returns (thrust [N], body torques [N m]).

        `nav` is the filter's float state and `body_rate` the bias-corrected
        gyro reading. Position and velocity errors feed the outer loop; the
        integrator adds slow disturbance rejection with a hard anti-windup
        clamp. Runs on floats, rounding as the numpy 3-vector expressions
        do, and raises ValueError on a non-finite estimate, reference or
        body rate.
        """
        g = self.gains
        p = self.vehicle
        (px, py, pz), (vx, vy, vz) = nav.position, nav.velocity
        # built flat but C-ordered: `r_des.T.dot(r_est)` rounds as on a nested-list matrix
        r_est = rotation_matrix(*nav.orientation)
        (rx, ry, rz), (rvx, rvy, rvz), (ax, ay, az) = ref.position, ref.velocity, ref.accel
        wx, wy, wz = body_rate
        # a list: CPython 3.11 keeps freed 20-tuples on its free list without
        # reusing them, 2000 deep (0.4 MB of peak RSS)
        if not all(map(math.isfinite, [px, py, pz, vx, vy, vz, rx, ry, rz, rvx, rvy, rvz,
                                       ax, ay, az, wx, wy, wz, ref.heading, ref.heading_rate])):
            raise ValueError("non-finite estimate, reference or body rate")

        ex, ey, ez = rx - px, ry - py, rz - pz
        lim = g.integrator_limit
        ix, iy, iz = self.integrator
        ix, iy, iz = (min(max(ix + ex * dt, -lim), lim), min(max(iy + ey * dt, -lim), lim),
                      min(max(iz + ez * dt, -lim), lim))
        self.integrator = (ix, iy, iz)

        kpp, kdp, kpv, kdv, ki = g.kp_planar, g.kd_planar, g.kp_vertical, g.kd_vertical, g.ki
        dm = p.drag / p.mass
        f = (ax + kpp * ex + kdp * (rvx - vx) + ki * ix + dm * vx - _GX,
             ay + kpp * ey + kdp * (rvy - vy) + ki * iy + dm * vy - _GY,
             az + kpv * ez + kdv * (rvz - vz) + ki * iz + dm * vz - _GZ)
        f_norm = _norm(f)
        if f_norm < -0.1 * _GZ:
            r_des = self.last_r_des
            self.freefall_events += 1
        else:
            r_des = desired_attitude((f[0] / f_norm, f[1] / f_norm, f[2] / f_norm), ref.heading)
            self.last_r_des = r_des

        thrust = p.mass * float(np.array(f).dot(r_est[:, 2]))
        thrust = min(max(thrust, 0.0), p.max_thrust)

        # 0.5 vee(M - M.T), M = r_des.T r_est; r_est.T r_des is M.T bit for bit
        (_, m01, m02), (m10, _, m12), (m20, m21, _) = r_des.T.dot(r_est).tolist()
        erx, ery, erz = 0.5 * (m21 - m12), 0.5 * (m02 - m20), 0.5 * (m10 - m01)
        # r_est.T @ (0, 0, heading_rate) is the last row of r_est times the
        # rate; its zero terms only turn a -0.0 into +0.0
        (r20, r21, r22), hr = r_est[2].tolist(), ref.heading_rate
        ewx, ewy, ewz = wx - (r20 * hr + 0.0), wy - (r21 * hr + 0.0), wz - (r22 * hr + 0.0)
        c1, c2, c1z, c2z = g.att_stiffness, g.att_damping, g.kp_yaw, g.kd_yaw
        jx, jy, jz = p.inertia
        cx, cy, cz = cross3((wx, wy, wz), (jx * wx, jy * wy, jz * wz))  # gyroscopic term
        tx = jx * (-c1 * erx - c2 * ewx) + cx
        ty = jy * (-c1 * ery - c2 * ewy) + cy
        tz = jz * (-c1z * erz - c2z * ewz) + cz
        lim = p.max_torque
        return thrust, (min(max(tx, -lim), lim), min(max(ty, -lim), lim), min(max(tz, -lim), lim))
