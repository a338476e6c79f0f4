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

from .geometry import Pose, Quat, partial_rotation
from .simulation import ImuSample, NoiseConfig, PoseMeasurement

GRAVITY = np.array([0.0, 0.0, -9.81])


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
    period (v += velocity * innovation / meas_period); the bias weights
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


def predict(est: NavEstimate, imu: ImuSample, gravity=GRAVITY) -> NavEstimate:
    """Euler integration of one IMU sample onto the estimate."""
    dt = imu.stamp - est.stamp
    if dt <= 0:
        raise FilterError(f"non-monotonic IMU stamp: {imu.stamp} after {est.stamp}")
    rate = np.asarray(imu.angular_rate, dtype=float) - est.gyro_bias
    q = (est.pose.orientation * Quat.from_rotvec(rate * dt)).normalized()
    f = np.asarray(imu.specific_force, dtype=float) - est.accel_bias
    v = est.velocity + (q.rotate(f) + gravity) * dt
    p = est.pose.position + v * dt
    return NavEstimate(Pose(p, q, imu.stamp), v, est.accel_bias, est.gyro_bias, imu.stamp)


class ReplayBuffer:
    """Ring of (ImuSample, post-predict NavEstimate snapshot) pairs."""

    def __init__(self, span: float = 0.5, imu_period: float = 0.01):
        if span < 0.2:
            raise ValueError("buffer span must cover at least 0.2 s")
        self.capacity = int(round(span / imu_period)) + 2
        self._entries: deque[tuple[ImuSample, NavEstimate]] = deque(maxlen=self.capacity)

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, imu: ImuSample, snapshot: NavEstimate) -> None:
        self._entries.append((imu, snapshot))

    @property
    def earliest(self) -> float:
        return self._entries[0][1].stamp if self._entries else math.inf

    def anchor_index(self, capture_stamp: float) -> int:
        """Index of the latest snapshot at or before capture_stamp."""
        idx = -1
        for i, (_, snap) in enumerate(self._entries):
            if snap.stamp <= capture_stamp + 1e-9:
                idx = i
            else:
                break
        if idx < 0:
            raise FilterError("measurement older than the replay buffer span")
        return idx

    def entry(self, i: int) -> tuple[ImuSample, NavEstimate]:
        return self._entries[i]

    def set_snapshot(self, i: int, snapshot: NavEstimate) -> None:
        imu, _ = self._entries[i]
        self._entries[i] = (imu, snapshot)


class NavFilter:
    """Single-writer prediction/correction filter instance.

    Innovations beyond `gate_sigmas` times the steady-state innovation
    sigma are dropped and counted. A string of `max_gate_rejects`
    consecutive drops means the filter itself is off rather than the
    measurements, so the gate then stays open until innovations re-enter
    the band; isolated outliers are still rejected.
    """

    def __init__(
        self,
        initial: NavEstimate,
        weights: FusionWeights,
        noise: NoiseConfig = NoiseConfig(),
        buffer_span: float = 0.5,
        gate_sigmas: float = 5.0,
        max_gate_rejects: int = 5,
        meas_period: float = 0.1,
        imu_rate: float = 100.0,
    ):
        self.estimate = initial
        self.weights = weights
        self.noise = noise
        self.buffer = ReplayBuffer(buffer_span)
        self.gate_sigmas = gate_sigmas
        self.max_gate_rejects = max_gate_rejects
        self.meas_period = meas_period
        self.dropped_stale = 0
        self.dropped_gated = 0
        self._consecutive_rejects = 0
        self._recovering = False
        self._gate_pos = None
        self._gate_rot = None
        if min(noise.pose_pos_std, noise.pose_rot_std, noise.accel_std, noise.gyro_std) > 0:
            s_pos, s_rot = steady_state_innovation_stds(noise, imu_rate, 1.0 / meas_period)
            self._gate_pos = gate_sigmas * s_pos * math.sqrt(3.0)
            self._gate_rot = gate_sigmas * s_rot * math.sqrt(3.0)

    def predict(self, imu: ImuSample) -> NavEstimate:
        self.estimate = predict(self.estimate, imu)
        self.buffer.push(imu, self.estimate)
        return self.estimate

    def _blend(self, snap: NavEstimate, meas: PoseMeasurement) -> NavEstimate:
        w = self.weights
        innov_p = meas.pose.position - snap.pose.position
        p = snap.pose.position + w.position * innov_p
        v = snap.velocity + (w.velocity / self.meas_period) * innov_p
        q = partial_rotation(snap.pose.orientation, meas.pose.orientation, w.orientation)
        rot_innov = (snap.pose.orientation.conjugate() * meas.pose.orientation).as_rotvec()
        r_t = snap.pose.orientation.to_matrix().T
        accel_bias = snap.accel_bias - w.accel_bias * (r_t @ innov_p)
        gyro_bias = snap.gyro_bias - w.gyro_bias * rot_innov
        return NavEstimate(Pose(p, q, snap.stamp), v, accel_bias, gyro_bias, snap.stamp)

    def _gated(self, snap: NavEstimate, meas: PoseMeasurement) -> bool:
        if self._gate_pos is None:
            return False
        big_pos = np.linalg.norm(meas.pose.position - snap.pose.position) > self._gate_pos
        big_rot = snap.pose.orientation.angle_to(meas.pose.orientation) > self._gate_rot
        if not (big_pos or big_rot):
            self._consecutive_rejects = 0
            self._recovering = False
            return False
        if self._recovering or self._consecutive_rejects >= self.max_gate_rejects:
            self._recovering = True
            return False
        self._consecutive_rejects += 1
        return True

    def correct(self, meas: PoseMeasurement) -> NavEstimate:
        """Blend the snapshot at capture time, then re-apply interim IMU."""
        try:
            idx = self.buffer.anchor_index(meas.capture_stamp)
        except FilterError:
            self.dropped_stale += 1
            return self.estimate

        _, snap = self.buffer.entry(idx)
        if self._gated(snap, meas):
            self.dropped_gated += 1
            return self.estimate

        current = self._blend(snap, meas)
        for i in range(idx + 1, len(self.buffer)):
            imu, _ = self.buffer.entry(i)
            current = predict(current, imu)
            self.buffer.set_snapshot(i, current)
        self.estimate = current
        return self.estimate


def riccati_gain(F, Q, H, R, predicts_per_update: int = 1, max_iters: int = 100_000):
    """Converged Kalman gain and innovation covariance of a linear
    covariance recursion.

    Runs P <- F P F' + Q for `predicts_per_update` steps, then one
    measurement update, until the gain stops moving. Returns (K, S).
    Raises FilterError on non-convergence.
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    H = np.atleast_2d(np.asarray(H, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    n = F.shape[0]
    P = np.eye(n)
    K_prev = None
    for _ in range(max_iters):
        for _ in range(predicts_per_update):
            P = F @ P @ F.T + Q
        S = H @ P @ H.T + R
        K = P @ H.T @ np.linalg.inv(S)
        P = (np.eye(n) - K @ H) @ P
        if K_prev is not None and np.max(np.abs(K - K_prev)) < 1e-12:
            return K, S
        K_prev = K
    raise FilterError("steady-state gain recursion did not converge")


def _chains(noise: NoiseConfig, imu_rate: float, meas_rate: float):
    dt = 1.0 / imu_rate
    per_update = max(int(round(imu_rate / meas_rate)), 1)
    f_t = np.array([[1.0, dt, 0.0], [0.0, 1.0, -dt], [0.0, 0.0, 1.0]])
    q_t = np.diag([0.0, (noise.accel_std * dt) ** 2, noise.bias_walk_std**2 * dt])
    trans = riccati_gain(f_t, q_t, [[1.0, 0.0, 0.0]], [[noise.pose_pos_std**2]], per_update)
    f_r = np.array([[1.0, -dt], [0.0, 1.0]])
    q_r = np.diag([(noise.gyro_std * dt) ** 2, noise.bias_walk_std**2 * dt])
    rot = riccati_gain(f_r, q_r, [[1.0, 0.0]], [[noise.pose_rot_std**2]], per_update)
    return trans, rot


def steady_state_innovation_stds(
    noise: NoiseConfig, imu_rate: float = 100.0, meas_rate: float = 10.0
) -> tuple[float, float]:
    """Converged per-axis innovation sigmas (position [m], angle [rad])."""
    (_, s_t), (_, s_r) = _chains(noise, imu_rate, meas_rate)
    return math.sqrt(float(s_t[0, 0])), math.sqrt(float(s_r[0, 0]))


def steady_state_weights(
    noise: NoiseConfig = NoiseConfig(),
    imu_rate: float = 100.0,
    meas_rate: float = 10.0,
    bias_gain_clamp: float = 0.015,
) -> FusionWeights:
    """A priori fusion weights from per-axis steady-state Kalman gains.

    Translation uses a decoupled position/velocity/accel-bias chain
    observed in position; rotation uses an angle/gyro-bias chain observed
    in angle. Gains are mapped into [0, 1] weights; the bias gains keep
    their magnitude, clamped to `bias_gain_clamp` per update.
    """
    if min(noise.accel_std, noise.gyro_std, noise.pose_pos_std, noise.pose_rot_std) <= 0:
        raise ValueError("steady-state weights need strictly positive noise")
    (k_t, _), (k_r, _) = _chains(noise, imu_rate, meas_rate)
    meas_dt = 1.0 / meas_rate
    return FusionWeights(
        position=float(np.clip(k_t[0, 0], 0.0, 1.0)),
        velocity=float(np.clip(k_t[1, 0] * meas_dt, 0.0, 1.0)),
        orientation=float(np.clip(k_r[0, 0], 0.0, 1.0)),
        accel_bias=float(np.clip(abs(k_t[2, 0]), 0.0, bias_gain_clamp)),
        gyro_bias=float(np.clip(abs(k_r[1, 0]), 0.0, bias_gain_clamp)),
    )
