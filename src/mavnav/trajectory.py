"""Quintic spline trajectories with continuous derivatives through snap.

The spline interpolates timed waypoints with a piecewise degree-5
polynomial that is C4 at every interior knot and has zero velocity,
acceleration, jerk and snap at both ends. A C4 piecewise quintic over m
knots carries m + 4 degrees of freedom, so meeting n waypoints plus the
8 boundary conditions requires m = n + 4 knots: two extra free knots are
inserted into the first span and two into the last (four evenly when
there is only a single span). Heading is fitted on unwrapped angles.
`fit_spline` takes arrays: positions (n, 3), headings (n,), times (n,).
A spline stores each segment's Horner term table for position, velocity
and acceleration once, so that `eval_spline`, called once per tick of the
closed loop, only runs the Horner steps.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class RefPoint:
    """Trajectory reference: position, velocity and acceleration, the
    derivatives the controller tracks, each a 3-tuple of Python floats."""

    position: tuple
    velocity: tuple
    accel: tuple
    heading: float
    heading_rate: float
    stamp: float
    clamped: bool = False


@dataclass(frozen=True)
class QuinticSpline:
    knots: np.ndarray  # (m,) knot times
    coeffs: np.ndarray  # (m-1, 4, 6): per segment, per channel (x,y,z,psi)
    # per segment, per (order, channel) pair in row-major order for orders
    # 0-2, the Horner terms of that derivative from the highest power of tau down
    terms: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # d^o/dt^o sum_p c_p t^p = sum_{p >= o} perm(p, o) c_p t^(p - o)
        terms = [[[math.perm(p, order) * ch[p] for p in range(5, order - 1, -1)]
                  for order in range(3) for ch in seg] for seg in np.asarray(self.coeffs).tolist()]
        object.__setattr__(self, "terms", terms)

    @property
    def t_start(self) -> float:
        return float(self.knots[0])

    @property
    def t_end(self) -> float:
        return float(self.knots[-1])

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


def _basis_row(tau: float, order: int) -> np.ndarray:
    """Row of d^order/dt^order [1, t, .., t^5] evaluated at local time tau."""
    row = np.zeros(6)
    for p in range(order, 6):
        row[p] = math.perm(p, order) * tau ** (p - order)
    return row


def _knot_layout(times: np.ndarray):
    """Waypoint times plus 4 free knots; returns (knots, waypoint indices)."""
    n = len(times)
    if n == 2:
        inner = times[0] + (times[1] - times[0]) * np.array([0.2, 0.4, 0.6, 0.8])
        knots = np.concatenate([[times[0]], inner, [times[1]]])
        return knots, [0, 5]
    first = times[0] + (times[1] - times[0]) * np.array([1 / 3, 2 / 3])
    last = times[-2] + (times[-1] - times[-2]) * np.array([1 / 3, 2 / 3])
    knots = np.concatenate([[times[0]], first, times[1:-1], last, [times[-1]]])
    wp_idx = [0] + [k + 2 for k in range(1, n - 1)] + [n + 3]
    return knots, wp_idx


def fit_spline(positions, headings, times) -> QuinticSpline:
    """C4 piecewise quintic through timed waypoints, at rest at both ends
    in every derivative from velocity through snap."""
    positions = np.asarray(positions, dtype=float)
    headings = np.asarray(headings, dtype=float)
    times = np.asarray(times, dtype=float)
    n = len(times) if times.ndim == 1 else -1
    if positions.shape != (n, 3) or headings.shape != (n,):
        raise ValueError(f"need positions (n, 3), headings (n,) and times (n,), got "
                         f"{positions.shape}, {headings.shape} and {times.shape}")
    if n < 2:
        raise ValueError("need at least 2 timed waypoints")
    if not all(np.isfinite(a).all() for a in (positions, headings, times)):
        raise ValueError("waypoint positions, headings and times must be finite")
    if np.any(np.diff(times) <= 0):
        raise ValueError("waypoint times must be strictly increasing")
    knots, wp_idx = _knot_layout(times)
    h = np.diff(knots)
    n_seg = len(h)

    # (segment, local time, order) per row: waypoint interpolation, C0..C4
    # continuity at every interior knot (less the next segment's start),
    # rest in derivatives 1..4 at both ends
    fits = [(0, 0.0, 0) if j == 0 else (j - 1, h[j - 1], 0) for j in wp_idx]
    joins = [(j - 1, h[j - 1], order) for j in range(1, n_seg) for order in range(5)]
    rests = [(s, tau, order) for s, tau in ((0, 0.0), (n_seg - 1, h[-1])) for order in range(1, 5)]
    a_mat = np.zeros((6 * n_seg, 6 * n_seg))
    for r, (seg, tau, order) in enumerate(fits + joins + rests):
        a_mat[r, 6 * seg : 6 * seg + 6] = _basis_row(tau, order)
    for r, (seg, _, order) in enumerate(joins, start=n):
        a_mat[r, 6 * seg + 6 : 6 * seg + 12] -= _basis_row(0.0, order)

    rhs = np.zeros((6 * n_seg, 4))
    rhs[:n, :3] = positions
    rhs[:n, 3] = np.unwrap(headings)
    coeffs = np.empty((n_seg, 4, 6))
    for ch in range(4):  # one solve per channel: a multi-column solve rounds differently
        coeffs[:, ch, :] = np.linalg.solve(a_mat, rhs[:, ch]).reshape(n_seg, 6)
    return QuinticSpline(knots, coeffs)


def eval_spline(spline: QuinticSpline, t: float) -> RefPoint:
    """Polynomial evaluation of position, velocity and acceleration at time t.

    Out-of-range times, infinite ones too, clamp to the nearest endpoint
    with zero derivatives and set the `clamped` flag; NaN raises ValueError.
    """
    if math.isnan(t):
        raise ValueError("spline time must not be NaN")
    tq, clamped = t, False
    if t < spline.t_start:
        tq, clamped = spline.t_start, True
    elif t > spline.t_end:
        tq, clamped = spline.t_end, True
    seg = min(max(bisect_right(spline.knots, tq) - 1, 0), len(spline.knots) - 2)
    tau = float(tq - spline.knots[seg])

    vals = []
    for terms in spline.terms[seg]:
        acc = 0.0
        for a in terms:
            acc = acc * tau + a
        vals.append(acc)
    px, py, pz, psi, vx, vy, vz, rate, ax, ay, az, _ = vals
    if clamped:
        vx = vy = vz = rate = ax = ay = az = 0.0
    heading = math.remainder(psi, math.tau)
    if heading <= -math.pi:
        heading += math.tau
    return RefPoint((px, py, pz), (vx, vy, vz), (ax, ay, az), heading, rate, t, clamped)


def spline_from_path(waypoints: np.ndarray, times: np.ndarray) -> QuinticSpline:
    """Spline through planner output: waypoints (n,3) with cumulative times.

    Headings follow the direction of travel, unwrapped; duplicate
    consecutive times (zero-length segments) are merged.
    """
    waypoints = np.asarray(waypoints, dtype=float)
    times = np.asarray(times, dtype=float)
    keep = [0]
    for i in range(1, len(times)):
        if times[i] - times[keep[-1]] > 1e-9:
            keep.append(i)
    waypoints, times = waypoints[keep], times[keep]
    d = np.diff(waypoints[:, :2], axis=0)
    segment_yaw = np.arctan2(d[:, 1], d[:, 0])
    degenerate = np.linalg.norm(d, axis=1) < 1e-9
    for i in np.argwhere(degenerate).ravel():
        segment_yaw[i] = segment_yaw[i - 1] if i > 0 else 0.0
    return fit_spline(waypoints, np.concatenate([segment_yaw[:1], segment_yaw]), times)
