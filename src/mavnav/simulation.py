"""Deterministic hexacopter rigid-body simulation with sensor models.

Dynamics are semi-implicit Euler at a fixed internal step; actuation is
abstracted to collective thrust along body z plus three body torques,
clamped to the vehicle limits. Wind enters as a pure drag force
``drag * (wind - velocity)``. Sensors run on exact grids: IMU at 100 Hz
with a slowly random-walking bias, a pose sensor at 10 Hz whose
measurements arrive 100 ms after capture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Pose, Quat, Twist

GRAVITY = np.array([0.0, 0.0, -9.81])  # world frame, z up [m/s^2]
GRAVITY.flags.writeable = False
IMU_PERIOD = 0.01  # [s]
POSE_PERIOD = 0.1  # [s]
POSE_DELAY = 0.1  # capture to delivery [s]


@dataclass(frozen=True)
class VehicleParams:
    mass: float = 1.5  # [kg]
    inertia: tuple[float, float, float] = (0.03, 0.03, 0.05)  # diagonal [kg m^2]
    max_thrust: float = 40.0  # [N]
    max_torque: float = 4.0  # per axis [N m]
    drag: float = 0.25  # linear drag [N s/m]

    def __post_init__(self):
        if self.mass <= 0 or any(i <= 0 for i in self.inertia):
            raise ValueError("mass and inertia must be positive")

    @property
    def hover_thrust(self) -> float:
        return self.mass * -float(GRAVITY[2])


@dataclass
class VehicleState:
    pose: Pose = field(default_factory=Pose.identity)
    twist: Twist = field(default_factory=Twist)
    accel_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))
    gyro_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.accel_bias = np.asarray(self.accel_bias, dtype=float)
        self.gyro_bias = np.asarray(self.gyro_bias, dtype=float)


@dataclass(frozen=True)
class ImuSample:
    stamp: float
    specific_force: np.ndarray  # body frame [m/s^2]
    angular_rate: np.ndarray  # body frame [rad/s]


@dataclass(frozen=True)
class PoseMeasurement:
    capture_stamp: float
    delivery_stamp: float
    pose: Pose


@dataclass(frozen=True)
class WindProfile:
    constant: np.ndarray = field(default_factory=lambda: np.zeros(3))
    gusts: tuple = ()  # (start [s], duration [s], velocity 3-vector)

    def __post_init__(self):
        object.__setattr__(self, "constant", np.asarray(self.constant, dtype=float))
        gusts = tuple(
            (float(s), float(d), np.asarray(v, dtype=float)) for s, d, v in self.gusts
        )
        if any(d <= 0 for _, d, _ in gusts):
            raise ValueError("gust durations must be positive")
        if list(s for s, _, _ in gusts) != sorted(s for s, _, _ in gusts):
            raise ValueError("gusts must be sorted by start time")
        object.__setattr__(self, "gusts", gusts)

    def wind_at(self, t: float) -> np.ndarray:
        w = self.constant.copy()
        for start, duration, vel in self.gusts:
            if start <= t < start + duration:
                w += vel
        return w


@dataclass(frozen=True)
class NoiseConfig:
    accel_std: float = 0.02  # [m/s^2]
    gyro_std: float = 0.002  # [rad/s]
    bias_walk_std: float = 0.001  # per axis per sqrt(s), both bias sets
    pose_pos_std: float = 0.01  # [m]
    pose_rot_std: float = math.radians(0.2)  # [rad]

    def __post_init__(self):
        if min(self.accel_std, self.gyro_std, self.bias_walk_std) < 0:
            raise ValueError("noise std-devs must be non-negative")


def step_dynamics(
    state: VehicleState,
    thrust: float,
    torque,
    wind,
    dt: float,
    params: VehicleParams = VehicleParams(),
) -> VehicleState:
    """One semi-implicit Euler step of the rigid-body dynamics."""
    if not 0.0 < dt <= 0.02:
        raise ValueError(f"dt must be in (0, 0.02], got {dt}")
    torque = np.asarray(torque, dtype=float)
    wind = np.asarray(wind, dtype=float)
    if not (math.isfinite(thrust) and np.all(np.isfinite(torque)) and np.all(np.isfinite(wind))):
        raise ValueError("non-finite command or wind")

    thrust = min(max(thrust, 0.0), params.max_thrust)
    torque = np.clip(torque, -params.max_torque, params.max_torque)

    q = state.pose.orientation
    v = state.twist.linear
    w = state.twist.angular
    inertia = np.asarray(params.inertia)

    body_z = q.rotate(np.array([0.0, 0.0, 1.0]))
    force = thrust * body_z
    force = force + params.mass * GRAVITY
    force = force + params.drag * (wind - v)
    accel = force / params.mass

    w_dot = (torque - np.cross(w, inertia * w)) / inertia
    w_new = w + w_dot * dt
    v_new = v + accel * dt
    p_new = state.pose.position + v_new * dt
    q_new = (q * Quat.from_rotvec(w_new * dt)).normalized()

    return VehicleState(
        Pose(p_new, q_new, state.pose.stamp + dt),
        Twist(v_new, w_new),
        state.accel_bias,
        state.gyro_bias,
    )


def sample_imu(
    state: VehicleState,
    true_accel,
    noise: NoiseConfig,
    rng: np.random.Generator,
):
    """IMU reading at the state's stamp plus the bias random-walk step.

    Returns (ImuSample, new_accel_bias, new_gyro_bias). The specific
    force is the body-frame difference between true acceleration and
    gravity, corrupted by the current bias and white noise.
    """
    r_t = state.pose.orientation.to_matrix().T
    f = r_t @ (np.asarray(true_accel, dtype=float) - GRAVITY) + state.accel_bias
    w = state.twist.angular + state.gyro_bias
    if noise.accel_std > 0:
        f = f + rng.normal(0.0, noise.accel_std, 3)
    if noise.gyro_std > 0:
        w = w + rng.normal(0.0, noise.gyro_std, 3)
    if noise.bias_walk_std > 0:
        step = noise.bias_walk_std * math.sqrt(IMU_PERIOD)
        new_ab = state.accel_bias + rng.normal(0.0, step, 3)
        new_gb = state.gyro_bias + rng.normal(0.0, step, 3)
    else:
        new_ab = state.accel_bias.copy()
        new_gb = state.gyro_bias.copy()
    return ImuSample(state.pose.stamp, f, w), new_ab, new_gb


class PoseHistory:
    """Time-indexed pose buffer for the delayed sensor, keeping the last
    HORIZON seconds."""

    HORIZON = 2.0  # [s], well beyond POSE_DELAY

    def __init__(self):
        self._stamps: list[float] = []
        self._poses: list[Pose] = []

    def push(self, pose: Pose) -> None:
        self._stamps.append(pose.stamp)
        self._poses.append(pose)
        cutoff = pose.stamp - self.HORIZON
        drop = 0
        while drop < len(self._stamps) - 1 and self._stamps[drop + 1] <= cutoff:
            drop += 1
        if drop:
            del self._stamps[:drop]
            del self._poses[:drop]

    def at(self, t: float, tol: float = 1e-6) -> Pose:
        if not self._stamps or t < self._stamps[0] - tol or t > self._stamps[-1] + tol:
            raise LookupError(f"history does not cover t={t}")
        import bisect

        i = bisect.bisect_left(self._stamps, t)
        candidates = [j for j in (i - 1, i) if 0 <= j < len(self._stamps)]
        best = min(candidates, key=lambda j: abs(self._stamps[j] - t))
        if abs(self._stamps[best] - t) > tol:
            raise LookupError(f"no stored pose within {tol} of t={t}")
        return self._poses[best]


def sample_pose_sensor(
    history: PoseHistory,
    now: float,
    noise: NoiseConfig,
    rng: np.random.Generator,
) -> PoseMeasurement | None:
    """Delayed pose measurement, emitted only on the sensor's time grid."""
    ticks = now / POSE_PERIOD
    if abs(ticks - round(ticks)) > 1e-6:
        return None
    capture = now - POSE_DELAY
    if capture < -1e-9:
        return None
    truth = history.at(capture)
    pos = truth.position.copy()
    q = truth.orientation
    if noise.pose_pos_std > 0:
        pos = pos + rng.normal(0.0, noise.pose_pos_std, 3)
    if noise.pose_rot_std > 0:
        q = (q * Quat.from_rotvec(rng.normal(0.0, noise.pose_rot_std, 3))).normalized()
    return PoseMeasurement(capture, now, Pose(pos, q, capture))


class Simulator:
    """Fixed-step simulation loop with sensor emission on exact grids."""

    INTERNAL_DT = 0.001

    def __init__(
        self,
        params: VehicleParams = VehicleParams(),
        noise: NoiseConfig = NoiseConfig(),
        wind: WindProfile = WindProfile(),
        seed: int = 0,
        initial_state: VehicleState | None = None,
    ):
        self.params = params
        self.noise = noise
        self.wind = wind
        self.seed = seed
        ss = np.random.SeedSequence(seed)
        imu_ss, pose_ss = ss.spawn(2)
        self._rng_imu = np.random.default_rng(imu_ss)
        self._rng_pose = np.random.default_rng(pose_ss)
        self.state = initial_state or VehicleState()
        self.history = PoseHistory()
        self.history.push(self.state.pose)
        self._step_count = round(self.state.pose.stamp / self.INTERNAL_DT)
        self._imu_every = round(IMU_PERIOD / self.INTERNAL_DT)
        self._pose_every = round(POSE_PERIOD / self.INTERNAL_DT)

    @property
    def time(self) -> float:
        return self._step_count * self.INTERNAL_DT

    def step(self, thrust: float, torque):
        """Advance one internal step; returns (imu_sample, pose_measurement),
        either of which may be None off their sampling grids."""
        t = self.time
        v_before = self.state.twist.linear
        self.state = step_dynamics(
            self.state, thrust, torque, self.wind.wind_at(t), self.INTERNAL_DT, self.params
        )
        self._step_count += 1
        self.history.push(self.state.pose)

        imu = None
        meas = None
        if self._step_count % self._imu_every == 0:
            true_accel = (self.state.twist.linear - v_before) / self.INTERNAL_DT
            imu, ab, gb = sample_imu(self.state, true_accel, self.noise, self._rng_imu)
            self.state.accel_bias = ab
            self.state.gyro_bias = gb
        if self._step_count % self._pose_every == 0 and self.time >= POSE_DELAY:
            meas = sample_pose_sensor(self.history, self.time, self.noise, self._rng_pose)
        return imu, meas
