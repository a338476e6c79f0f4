"""Quintic spline trajectories with continuous derivatives through snap.

The spline interpolates timed waypoints with a piecewise degree-5
polynomial that is C4 at every interior knot and has zero velocity,
acceleration, jerk and snap at both ends. A C4 piecewise quintic over m
knots carries m + 4 degrees of freedom, so meeting n waypoints plus the
8 boundary conditions requires m = n + 4 knots: two extra free knots are
inserted into the first span and two into the last (four evenly when
there is only a single span). Heading is fitted on unwrapped angles.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Waypoint:
    position: np.ndarray
    heading: float
    time: float

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))


def validate_waypoints(waypoints) -> list[Waypoint]:
    wps = [
        wp if isinstance(wp, Waypoint) else Waypoint(wp[0], float(wp[1]), float(wp[2]))
        for wp in waypoints
    ]
    if len(wps) < 2:
        raise ValueError("need at least 2 timed waypoints")
    times = [wp.time for wp in wps]
    if any(b - a <= 0 for a, b in zip(times, times[1:])):
        raise ValueError("waypoint times must be strictly increasing")
    return wps


@dataclass(frozen=True)
class RefPoint:
    """Trajectory reference: position and derivatives through snap."""

    position: np.ndarray
    velocity: np.ndarray
    accel: np.ndarray
    jerk: np.ndarray
    snap: np.ndarray
    heading: float
    heading_rate: float
    stamp: float
    clamped: bool = False


@dataclass(frozen=True)
class QuinticSpline:
    knots: np.ndarray  # (m,) knot times
    coeffs: np.ndarray  # (m-1, 4, 6): per segment, per channel (x,y,z,psi)

    @property
    def t_start(self) -> float:
        return float(self.knots[0])

    @property
    def t_end(self) -> float:
        return float(self.knots[-1])

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


_DERIV_FACTORS = [
    [1, 1, 1, 1, 1, 1],
    [0, 1, 2, 3, 4, 5],
    [0, 0, 2, 6, 12, 20],
    [0, 0, 0, 6, 24, 60],
    [0, 0, 0, 0, 24, 120],
]


def _basis_row(tau: float, order: int) -> np.ndarray:
    """Row of d^order/dt^order [1, t, .., t^5] evaluated at local time tau."""
    row = np.zeros(6)
    for p in range(order, 6):
        row[p] = _DERIV_FACTORS[order][p] * tau ** (p - order)
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


def fit_spline(waypoints) -> QuinticSpline:
    """C4 piecewise quintic through timed waypoints, at rest at both ends
    in every derivative from velocity through snap."""
    wps = validate_waypoints(waypoints)
    times = np.array([wp.time for wp in wps])
    knots, wp_idx = _knot_layout(times)
    m = len(knots)
    n_seg = m - 1
    h = np.diff(knots)
    n_unknowns = 6 * n_seg

    rows = []
    targets_meta = []  # channel-independent right-hand-side descriptors

    def add_row(seg: int, tau: float, order: int, seg2: int | None = None):
        row = np.zeros(n_unknowns)
        row[6 * seg : 6 * seg + 6] = _basis_row(tau, order)
        if seg2 is not None:
            row[6 * seg2 : 6 * seg2 + 6] -= _basis_row(0.0, order)
        rows.append(row)

    # waypoint interpolation
    for k, j in enumerate(wp_idx):
        if j == 0:
            add_row(0, 0.0, 0)
        else:
            add_row(j - 1, h[j - 1], 0)
        targets_meta.append(("wp", k))
    # C0..C4 continuity at every interior knot
    for j in range(1, m - 1):
        for order in range(5):
            add_row(j - 1, h[j - 1], order, seg2=j)
            targets_meta.append(("zero", None))
    # rest boundary in derivatives 1..4
    for order in range(1, 5):
        add_row(0, 0.0, order)
        targets_meta.append(("zero", None))
    for order in range(1, 5):
        add_row(n_seg - 1, h[-1], order)
        targets_meta.append(("zero", None))

    a_mat = np.vstack(rows)
    if a_mat.shape[0] != n_unknowns:
        raise AssertionError("spline system is not square")

    headings = np.unwrap([wp.heading for wp in wps])
    channels = np.column_stack([np.array([wp.position for wp in wps]), headings])
    coeffs = np.empty((n_seg, 4, 6))
    for ch in range(4):
        rhs = np.array(
            [channels[k, ch] if kind == "wp" else 0.0 for kind, k in targets_meta]
        )
        sol = np.linalg.solve(a_mat, rhs)
        coeffs[:, ch, :] = sol.reshape(n_seg, 6)
    return QuinticSpline(knots, coeffs)


def eval_spline(spline: QuinticSpline, t: float) -> RefPoint:
    """Polynomial evaluation of position and derivatives 1..4 at time t.

    Out-of-range times clamp to the nearest endpoint with zero
    derivatives and set the `clamped` flag.
    """
    clamped = False
    tq = t
    if t < spline.t_start:
        tq, clamped = spline.t_start, True
    elif t > spline.t_end:
        tq, clamped = spline.t_end, True
    seg = min(max(bisect_right(spline.knots, tq) - 1, 0), len(spline.knots) - 2)
    tau = float(tq - spline.knots[seg])

    vals = np.empty((4, 5))
    for ch, c in enumerate(spline.coeffs[seg].tolist()):
        for order in range(5):
            acc = 0.0
            for p in range(5, order - 1, -1):
                acc = acc * tau + _DERIV_FACTORS[order][p] * c[p]
            vals[ch, order] = acc
    if clamped:
        vals[:, 1:] = 0.0
    heading = math.remainder(vals[3, 0], math.tau)
    if heading <= -math.pi:
        heading += math.tau
    return RefPoint(
        position=vals[:3, 0].copy(),
        velocity=vals[:3, 1].copy(),
        accel=vals[:3, 2].copy(),
        jerk=vals[:3, 3].copy(),
        snap=vals[:3, 4].copy(),
        heading=heading,
        heading_rate=float(vals[3, 1]),
        stamp=t,
        clamped=clamped,
    )


def spline_from_path(waypoints: np.ndarray, times: np.ndarray, headings=None) -> QuinticSpline:
    """Spline through planner output: waypoints (n,3) with cumulative times.

    Headings default to the direction of travel, unwrapped; duplicate
    consecutive times (zero-length segments) are merged.
    """
    waypoints = np.asarray(waypoints, dtype=float)
    times = np.asarray(times, dtype=float)
    keep = [0]
    for i in range(1, len(times)):
        if times[i] - times[keep[-1]] > 1e-9:
            keep.append(i)
    waypoints = waypoints[keep]
    times = times[keep]
    if headings is None:
        d = np.diff(waypoints[:, :2], axis=0)
        segment_yaw = np.arctan2(d[:, 1], d[:, 0])
        degenerate = np.linalg.norm(d, axis=1) < 1e-9
        for i in np.argwhere(degenerate).ravel():
            segment_yaw[i] = segment_yaw[i - 1] if i > 0 else 0.0
        headings = np.concatenate([[segment_yaw[0]], segment_yaw])
    return fit_spline(
        [Waypoint(waypoints[i], float(headings[i]), float(times[i])) for i in range(len(times))]
    )
