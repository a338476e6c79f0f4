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
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .geometry import Pose, Quat
from .simulation import GRAVITY, IMU_PERIOD, POSE_PERIOD, ImuSample, NoiseConfig, PoseMeasurement

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


def predict(est: NavEstimate, imu: ImuSample) -> NavEstimate:
    """Euler integration of one IMU sample onto the estimate."""
    dt = imu.stamp - est.stamp
    if dt <= 0:
        raise FilterError(f"non-monotonic IMU stamp: {imu.stamp} after {est.stamp}")
    rate = np.asarray(imu.angular_rate, dtype=float) - est.gyro_bias
    q = (est.pose.orientation * Quat.from_rotvec(rate * dt)).normalized()
    f = np.asarray(imu.specific_force, dtype=float) - est.accel_bias
    v = est.velocity + (q.rotate(f) + GRAVITY) * dt
    p = est.pose.position + v * dt
    return NavEstimate(Pose(p, q, imu.stamp), v, est.accel_bias, est.gyro_bias, imu.stamp)


class NavFilter:
    """Single-writer prediction/correction filter instance.

    The initial estimate and every prediction are kept, each with the IMU
    sample it came from (none for the initial one), for the last
    BUFFER_SPAN seconds so that a delayed measurement can be replayed.
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
        self.estimate = initial
        self.weights = weights
        self.buffer: deque[tuple[ImuSample | None, NavEstimate]] = deque(
            [(None, initial)], maxlen=round(BUFFER_SPAN / IMU_PERIOD) + 2
        )
        self.dropped_stale = 0
        self.dropped_gated = 0
        self._consecutive_rejects = 0
        self._gate_pos = self._gate_rot = None
        if gate_stds is not None:
            if not all(math.isfinite(s) and s > 0 for s in gate_stds):
                raise ValueError(f"gate sigmas must be finite and positive, got {gate_stds}")
            self._gate_pos, self._gate_rot = (GATE_SIGMAS * s * math.sqrt(3.0) for s in gate_stds)

    def predict(self, imu: ImuSample) -> NavEstimate:
        self.estimate = predict(self.estimate, imu)
        self.buffer.append((imu, self.estimate))
        return self.estimate

    def _blend(self, snap: NavEstimate, innov_p: np.ndarray, rot_innov: np.ndarray) -> NavEstimate:
        w = self.weights
        p = snap.pose.position + w.position * innov_p
        v = snap.velocity + (w.velocity / POSE_PERIOD) * innov_p
        q = (snap.pose.orientation * Quat.from_rotvec(w.orientation * rot_innov)).normalized()
        r_t = snap.pose.orientation.to_matrix().T
        accel_bias = snap.accel_bias - w.accel_bias * (r_t @ innov_p)
        gyro_bias = snap.gyro_bias - w.gyro_bias * rot_innov
        return NavEstimate(Pose(p, q, snap.stamp), v, accel_bias, gyro_bias, snap.stamp)

    def _gated(self, innov_p: np.ndarray, rot_innov: np.ndarray) -> bool:
        if self._gate_pos is None:
            return False
        big_pos = np.linalg.norm(innov_p) > self._gate_pos
        big_rot = np.linalg.norm(rot_innov) > self._gate_rot
        if not (big_pos or big_rot):
            self._consecutive_rejects = 0
            return False
        if self._consecutive_rejects >= MAX_GATE_REJECTS:
            return False  # open until innovations re-enter the band
        self._consecutive_rejects += 1
        return True

    def correct(self, meas: PoseMeasurement) -> NavEstimate:
        """Blend the snapshot at capture time, then re-apply interim IMU.

        The anchor is the latest snapshot at or before the capture time; a
        measurement older than every snapshot is dropped as stale. The gate
        and the blend share one innovation: the position difference and the
        rotation vector from the snapshot's orientation to the measured one.
        """
        idx = -1
        for i, (_, snap) in enumerate(self.buffer):
            if snap.stamp > meas.capture_stamp + 1e-9:
                break
            idx = i
        if idx < 0:
            self.dropped_stale += 1
            return self.estimate

        _, snap = self.buffer[idx]
        innov_p = meas.pose.position - snap.pose.position
        rot_innov = (snap.pose.orientation.conjugate() * meas.pose.orientation).as_rotvec()
        if self._gated(innov_p, rot_innov):
            self.dropped_gated += 1
            return self.estimate

        current = self._blend(snap, innov_p, rot_innov)
        for i in range(idx + 1, len(self.buffer)):
            imu, _ = self.buffer[i]
            current = predict(current, imu)
            self.buffer[i] = (imu, current)
        self.estimate = current
        return self.estimate


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
