"""IMU-driven navigation filter with delayed-measurement replay.

Prediction integrates bias-corrected IMU data with Euler steps. When a
(delayed) pose measurement arrives, the estimate snapshot taken at the
capture time is blended with the measurement, position by a convex
combination, orientation by a partial rotation along the relative axis,
and the biases by a small signed innovation nudge; every buffered IMU
sample after the capture time is then re-applied to bring the corrected
state to the present. Blend weights are fixed a priori from the
steady-state gains of a linear Kalman covariance recursion.

No pseudo-velocity is ever differenced from consecutive measurements;
the velocity state is instead corrected by its steady-state gain acting
on the position innovation (without this the decoupled error loop is
unstable: its per-cycle eigenvalues exceed one).

The filter runs on `geometry`'s plain-float kernels, as the simulator's
rigid-body step and `control.Controller.step` do. Floats pass between the
layers: `_predict` steps a `NavState` of plain floats on the simulator's
float IMU reading, and the controller reads that state.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import Pose, Quat, _norm, quat_from_rotvec, quat_mul, quat_normalize, quat_rotate
from .simulation import (
    _GX, _GY, _GZ, IMU_PERIOD, POSE_PERIOD, ImuSample, NoiseConfig, PoseMeasurement,
)

BUFFER_SPAN = 0.5  # replayable IMU history; must exceed the pose delay [s]
GATE_SIGMAS = 5.0
MAX_GATE_REJECTS = 5
BIAS_GAIN_CLAMP = 0.015  # largest bias weight per update
RICCATI_MAX_DOUBLINGS = 64  # 2^64 updates


class FilterError(RuntimeError):
    pass


@dataclass(frozen=True)
class NavEstimate:
    pose: Pose = field(default_factory=Pose.identity)
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))
    accel_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))
    gyro_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))
    stamp: float = 0.0

    def __post_init__(self):
        for name in ("velocity", "accel_bias", "gyro_bias"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))


@dataclass(frozen=True)
class FusionWeights:
    """Per-state correction weights, all in [0, 1].

    `velocity` weighs the position innovation spread over one measurement
    period (v += velocity * innovation / POSE_PERIOD); the bias weights
    are small signed innovation gains.
    """

    position: float = 0.5
    velocity: float = 0.1
    orientation: float = 0.5
    accel_bias: float = 0.01
    gyro_bias: float = 0.01

    def __post_init__(self):
        for name in ("position", "velocity", "orientation", "accel_bias", "gyro_bias"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} weight must be in [0, 1], got {v}")


class NavState(NamedTuple):
    """A navigation estimate as plain floats: 3-sequences, the orientation
    as (w, x, y, z)."""

    position: tuple
    velocity: tuple
    orientation: tuple
    accel_bias: tuple
    gyro_bias: tuple
    stamp: float

    @staticmethod
    def of(est: NavEstimate) -> "NavState":
        q = est.pose.orientation
        return NavState(est.pose.position.tolist(), est.velocity.tolist(), (q.w, q.x, q.y, q.z),
                        est.accel_bias.tolist(), est.gyro_bias.tolist(), est.stamp)


def _estimate_of(x: NavState) -> NavEstimate:
    p, v, q, ab, gb, t = x
    return NavEstimate(Pose(np.array(p), Quat(*q), t), np.array(v), np.array(ab), np.array(gb), t)


def _imu_of(imu: ImuSample) -> tuple:
    # lists: CPython 3.11 parks each freed tuple built by `tuple(iterable)`
    # on its free list and never reuses it
    return imu.stamp, list(map(float, imu.specific_force)), list(map(float, imu.angular_rate))


def _predict(x: NavState, stamp: float, f, w) -> NavState:
    """Euler integration of one IMU sample (stamp, specific force f, angular
    rate w) onto the float state x, rounding as the numpy expressions do.
    Raises FilterError on a stamp not after x's, ValueError on a non-finite result.
    """
    p, v, q, ab, gb, t = x
    dt = stamp - t
    if dt <= 0:
        raise FilterError(f"non-monotonic IMU stamp: {stamp} after {t}")
    dq = quat_from_rotvec(((w[0] - gb[0]) * dt, (w[1] - gb[1]) * dt, (w[2] - gb[2]) * dt))
    q = quat_normalize(*quat_normalize(*quat_mul(q, dq)))  # as `(q * dq).normalized()`
    ax, ay, az = quat_rotate(q, (f[0] - ab[0], f[1] - ab[1], f[2] - ab[2]))
    v = (v[0] + (ax + _GX) * dt, v[1] + (ay + _GY) * dt, v[2] + (az + _GZ) * dt)
    p = (p[0] + v[0] * dt, p[1] + v[1] * dt, p[2] + v[2] * dt)
    if not all(map(math.isfinite, (stamp, *p, *v, *q))):
        raise ValueError("IMU sample gave a non-finite estimate")
    return NavState(p, v, q, ab, gb, stamp)


def predict(est: NavEstimate, imu: ImuSample) -> NavEstimate:
    """Euler integration of one IMU sample onto the estimate."""
    return _estimate_of(_predict(NavState.of(est), *_imu_of(imu)))


class NavFilter:
    """Single-writer prediction/correction filter instance.

    The float states of the initial estimate and of every prediction are
    kept, each with its IMU sample as (stamp, f, w) floats (none for the
    initial one), for the last BUFFER_SPAN seconds so that a delayed
    measurement can be replayed. `state` is the current `NavState`.
    Innovations beyond GATE_SIGMAS times the per-axis innovation sigmas
    `gate_stds` (position [m], angle [rad], as `steady_state` returns
    them) are dropped and counted; with `gate_stds=None` nothing is
    gated. A string of MAX_GATE_REJECTS consecutive drops means the
    filter itself is off rather than the measurements, so the gate then
    stays open until innovations re-enter the band; isolated outliers
    are still rejected.
    """

    def __init__(
        self,
        initial: NavEstimate,
        weights: FusionWeights,
        gate_stds: tuple[float, float] | None = None,
    ):
        self._x = NavState.of(initial)
        self.weights = weights
        self.buffer: deque[tuple[tuple | None, tuple]] = deque(
            [(None, self._x)], maxlen=round(BUFFER_SPAN / IMU_PERIOD) + 2
        )
        self.dropped_stale = 0
        self.dropped_gated = 0
        self._consecutive_rejects = 0
        self._gate_pos = self._gate_rot = None
        if gate_stds is not None:
            if not all(math.isfinite(s) and s > 0 for s in gate_stds):
                raise ValueError(f"gate sigmas must be finite and positive, got {gate_stds}")
            self._gate_pos, self._gate_rot = (GATE_SIGMAS * s * math.sqrt(3.0) for s in gate_stds)

    @property
    def state(self) -> NavState:
        return self._x

    def predict(self, imu: ImuSample) -> None:
        sample = _imu_of(imu)
        self._x = _predict(self._x, *sample)
        self.buffer.append((sample, self._x))

    def _blend(self, snap: NavState, innov_p: list, rot_innov: list) -> NavState:
        w = self.weights
        p, v, q, ab, gb, stamp = snap
        kv = w.velocity / POSE_PERIOD
        dq = quat_from_rotvec([w.orientation * r for r in rot_innov])
        # a 3x3 @ 3-vector product (gemv) rounds unlike per-row dots, so it stays numpy
        body = (Quat(*q).to_matrix().T @ np.array(innov_p)).tolist()
        return NavState([a + w.position * d for a, d in zip(p, innov_p)],
                        [a + kv * d for a, d in zip(v, innov_p)],
                        quat_normalize(*quat_normalize(*quat_mul(q, dq))),
                        [a - w.accel_bias * d for a, d in zip(ab, body)],
                        [a - w.gyro_bias * r for a, r in zip(gb, rot_innov)], stamp)

    def _gated(self, innov_p: list, rot_innov: list) -> bool:
        if self._gate_pos is None:
            return False
        big_pos = _norm(innov_p) > self._gate_pos
        big_rot = _norm(rot_innov) > self._gate_rot
        if not (big_pos or big_rot):
            self._consecutive_rejects = 0
            return False
        if self._consecutive_rejects >= MAX_GATE_REJECTS:
            return False  # open until innovations re-enter the band
        self._consecutive_rejects += 1
        return True

    def correct(self, meas: PoseMeasurement) -> None:
        """Blend the snapshot at capture time, then re-apply interim IMU.

        The anchor is the latest snapshot at or before the capture time; a
        measurement older than every snapshot is dropped as stale. The gate
        and the blend share one innovation: the position difference and the
        rotation vector from the snapshot's orientation to the measured one.
        """
        buf = self.buffer
        idx = bisect_right(buf, meas.capture_stamp + 1e-9, key=lambda entry: entry[1][5]) - 1
        if idx < 0:
            self.dropped_stale += 1
            return

        snap = buf[idx][1]
        innov_p = [a - b for a, b in zip(meas.pose.position.tolist(), snap[0])]
        rot_innov = (Quat(*snap[2]).conjugate() * meas.pose.orientation).as_rotvec().tolist()
        if self._gated(innov_p, rot_innov):
            self.dropped_gated += 1
            return

        current = self._blend(snap, innov_p, rot_innov)
        for i in range(idx + 1, len(buf)):
            sample = buf[i][0]
            current = _predict(current, *sample)
            buf[i] = (sample, current)
        self._x = current


def riccati_gain(F, Q, H, R, predicts_per_update: int = 1):
    """Converged Kalman gain and innovation covariance of a linear
    covariance recursion.

    The recursion runs P <- F P F' + Q for `predicts_per_update` steps,
    then one measurement update. Composed into one prediction P <- A P A'
    + W, these converge to the stabilizing solution of the Riccati equation
    X = A X (I + G X)^-1 A' + W, G = H' R^-1 H, for the predicted P.
    Structure-preserving doubling (Chu, Fan & Lin 2005) reaches after k
    doublings the covariance of 2^k updates and stops once a doubling moves
    no entry of X by more than 1e-15 of itself. Returns (K, S) with
    S = H X H' + R and K = X H' S^-1. Raises FilterError on non-convergence.
    """
    F, Q, H, R = (np.atleast_2d(np.asarray(m, dtype=float)) for m in (F, Q, H, R))
    n = F.shape[0]
    a, x = np.eye(n), np.zeros((n, n))
    for _ in range(predicts_per_update):
        a, x = F @ a, F @ x @ F.T + Q
    a = a.T  # the doubling runs on the dual (control-form) equation
    g = H.T @ np.linalg.solve(R, H)
    for _ in range(RICCATI_MAX_DOUBLINGS):
        w = np.linalg.inv(np.eye(n) + g @ x)
        a_w, step = a @ w, a.T @ x @ w @ a
        a, g, x = a_w @ a, g + a_w @ g @ a.T, x + step
        if np.all(np.abs(step) <= 1e-15 * np.abs(x)):
            S = H @ x @ H.T + R
            return x @ H.T @ np.linalg.inv(S), S
    raise FilterError("steady-state gain recursion did not converge")


def _chains(noise: NoiseConfig):
    dt = IMU_PERIOD
    per_update = round(POSE_PERIOD / IMU_PERIOD)
    f_t = np.array([[1.0, dt, 0.0], [0.0, 1.0, -dt], [0.0, 0.0, 1.0]])
    q_t = np.diag([0.0, (noise.accel_std * dt) ** 2, noise.bias_walk_std**2 * dt])
    trans = riccati_gain(f_t, q_t, [[1.0, 0.0, 0.0]], [[noise.pose_pos_std**2]], per_update)
    f_r = np.array([[1.0, -dt], [0.0, 1.0]])
    q_r = np.diag([(noise.gyro_std * dt) ** 2, noise.bias_walk_std**2 * dt])
    rot = riccati_gain(f_r, q_r, [[1.0, 0.0]], [[noise.pose_rot_std**2]], per_update)
    return trans, rot


def steady_state(noise: NoiseConfig = NoiseConfig()) -> tuple[FusionWeights, tuple[float, float]]:
    """A priori fusion weights and the converged per-axis innovation sigmas
    (position [m], angle [rad]), from one run of the steady-state recursion.

    Translation uses a decoupled position/velocity/accel-bias chain
    observed in position; rotation uses an angle/gyro-bias chain observed
    in angle. Gains are mapped into [0, 1] weights; the bias gains keep
    their magnitude, clamped to BIAS_GAIN_CLAMP per update.
    """
    if min(noise.accel_std, noise.gyro_std, noise.pose_pos_std, noise.pose_rot_std) <= 0:
        raise ValueError("steady-state weights need strictly positive noise")
    (k_t, s_t), (k_r, s_r) = _chains(noise)
    weights = FusionWeights(
        position=float(np.clip(k_t[0, 0], 0.0, 1.0)),
        velocity=float(np.clip(k_t[1, 0] * POSE_PERIOD, 0.0, 1.0)),
        orientation=float(np.clip(k_r[0, 0], 0.0, 1.0)),
        accel_bias=float(np.clip(abs(k_t[2, 0]), 0.0, BIAS_GAIN_CLAMP)),
        gyro_bias=float(np.clip(abs(k_r[1, 0]), 0.0, BIAS_GAIN_CLAMP)),
    )
    return weights, (math.sqrt(float(s_t[0, 0])), math.sqrt(float(s_r[0, 0])))
