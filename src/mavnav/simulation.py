"""Deterministic hexacopter rigid-body simulation with sensor models.

The simulator advances one IMU tick per call with one classic RK4 step
under the held command, split at every gust edge inside the tick; the
quaternion is renormalized once per step. Actuation is abstracted to
collective thrust along body z plus three body torques, clamped to the
vehicle limits. Wind enters as a pure drag force
``drag * (wind - velocity)``. Sensors run on exact grids: IMU at 100 Hz
with a slowly random-walking bias, a pose sensor at 10 Hz whose
measurements arrive 100 ms after capture: each pose tick measures the
oldest entry of a delay line of the true poses of the last pose ticks.

The simulator carries the true state and the IMU biases as plain floats
from tick to tick and hands the IMU reading on as floats; a
`VehicleState` is built only when something reads `Simulator.state`.
The IMU's white noise and bias walk come from one block of standard
normal draws per NOISE_BLOCK ticks, scaled per noise vector: the same
numbers, bit for bit, as one `rng.normal(0, std, 3)` call per vector.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, fields

import numpy as np

from .geometry import Pose, Quat, Twist, quat_normalize, rotation_matrix

GRAVITY = np.array([0.0, 0.0, -9.81])  # world frame, z up [m/s^2]
GRAVITY.flags.writeable = False
_GX, _GY, _GZ = GRAVITY.tolist()
IMU_PERIOD = 0.01  # [s]
POSE_PERIOD = 0.1  # [s]
POSE_DELAY = 0.1  # capture to delivery [s]
NOISE_BLOCK = 10  # IMU ticks of noise drawn at once; 100 (9.6 kB a draw) raised peak RSS


def _require_finite_non_negative(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and non-negative, got {value}")


@dataclass(frozen=True)
class VehicleParams:
    mass: float = 1.5  # [kg]
    inertia: tuple[float, float, float] = (0.03, 0.03, 0.05)  # diagonal [kg m^2]
    max_thrust: float = 40.0  # [N]
    max_torque: float = 4.0  # per axis [N m]
    drag: float = 0.25  # linear drag [N s/m]

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.mass, *self.inertia)):
            raise ValueError("mass and inertia must be finite and positive")
        for name in ("max_thrust", "max_torque", "drag"):
            _require_finite_non_negative(name, getattr(self, name))

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
    specific_force: tuple  # body frame, 3 floats [m/s^2]
    angular_rate: tuple  # body frame, 3 floats [rad/s]


@dataclass(frozen=True)
class PoseMeasurement:
    capture_stamp: float
    delivery_stamp: float
    pose: Pose


@dataclass(frozen=True)
class WindProfile:
    """Constant wind plus gusts; velocities are held as float 3-tuples."""

    constant: tuple = (0.0, 0.0, 0.0)
    gusts: tuple = ()  # (start [s], duration [s], velocity 3-vector)

    def __post_init__(self):
        object.__setattr__(self, "constant", tuple(np.asarray(self.constant, dtype=float).tolist()))
        gusts = tuple((float(s), float(d), tuple(np.asarray(v, dtype=float).tolist()))
                      for s, d, v in self.gusts)
        # a NaN or infinite start or a NaN duration would never blow
        if not all(math.isfinite(s) and d > 0 for s, d, _ in gusts):
            raise ValueError("gust starts must be finite and durations positive")
        if list(s for s, _, _ in gusts) != sorted(s for s, _, _ in gusts):
            raise ValueError("gusts must be sorted by start time")
        object.__setattr__(self, "gusts", gusts)

    def wind_at(self, t: float) -> tuple:
        wx, wy, wz = self.constant
        for start, duration, (gx, gy, gz) in self.gusts:
            if start <= t < start + duration:
                wx, wy, wz = wx + gx, wy + gy, wz + gz
        return (wx, wy, wz)


@dataclass(frozen=True)
class NoiseConfig:
    accel_std: float = 0.02  # [m/s^2]
    gyro_std: float = 0.002  # [rad/s]
    bias_walk_std: float = 0.001  # per axis per sqrt(s), both bias sets
    pose_pos_std: float = 0.01  # [m]
    pose_rot_std: float = math.radians(0.2)  # [rad]

    def __post_init__(self):
        for f in fields(self):
            _require_finite_non_negative(f.name, getattr(self, f.name))


def _rk4_step(x: tuple, thrust: float, torque: tuple, wind, h: float, params) -> tuple:
    """One classic RK4 step of length h of the rigid-body dynamics on floats.

    x is the state (p, v, q, w) as 13 floats, q as (w, x, y, z); thrust
    and torque are the clamped command and, like `wind`, held over the
    step. Checks the wind before the step and the state after it, and
    renormalizes the quaternion once, at the end.
    """
    ux, uy, uz = wind
    if not (math.isfinite(ux) and math.isfinite(uy) and math.isfinite(uz)):
        raise ValueError("non-finite command or wind")
    m, drag = params.mass, params.drag
    ix, iy, iz = params.inertia
    tx, ty, tz = torque
    fx, fy, fz = m * _GX + drag * ux, m * _GY + drag * uy, m * _GZ + drag * uz
    ax, ay, az = tx / ix, ty / iy, tz / iz  # I^-1 tau
    ex, ey, ez = (iz - iy) / ix, (ix - iz) / iy, (iy - ix) / iz  # gyroscopic term

    def deriv(s):
        _, _, _, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz = s
        # body z in the world, R(q) e_z, as `quat_rotate` gives it
        bx, by = 2.0 * (qx * qz + qw * qy), 2.0 * (qy * qz - qw * qx)
        bz = 1.0 - 2.0 * (qx * qx + qy * qy)
        return (
            vx, vy, vz,
            (thrust * bx + fx - drag * vx) / m,
            (thrust * by + fy - drag * vy) / m,
            (thrust * bz + fz - drag * vz) / m,
            # q' = q (0, w) / 2
            -0.5 * (qx * wx + qy * wy + qz * wz),
            0.5 * (qw * wx + qy * wz - qz * wy),
            0.5 * (qw * wy - qx * wz + qz * wx),
            0.5 * (qw * wz + qx * wy - qy * wx),
            # w' = I^-1 (tau - w x I w)
            ax - ex * wy * wz, ay - ey * wz * wx, az - ez * wx * wy,
        )

    # stage states are lists: CPython 3.11 parks each freed tuple built by
    # `tuple(generator)` on its free list and never reuses it
    half = 0.5 * h
    k1 = deriv(x)
    k2 = deriv([a + half * b for a, b in zip(x, k1)])
    k3 = deriv([a + half * b for a, b in zip(x, k2)])
    k4 = deriv([a + h * b for a, b in zip(x, k3)])
    sixth = h / 6.0
    x = [a + sixth * (b1 + 2.0 * (b2 + b3) + b4) for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
    if not all(map(math.isfinite, x)):
        raise ValueError("vehicle state must stay finite")
    x[6:10] = quat_normalize(*x[6:10])
    return tuple(x)


def sample_pose_sensor(
    truth: Pose,
    now: float,
    noise: NoiseConfig,
    rng: np.random.Generator,
) -> PoseMeasurement:
    """Pose measurement of `truth`, captured POSE_DELAY before its delivery
    at `now`."""
    capture = now - POSE_DELAY
    pos = truth.position.copy()
    q = truth.orientation
    if noise.pose_pos_std > 0:
        pos = pos + rng.normal(0.0, noise.pose_pos_std, 3)
    if noise.pose_rot_std > 0:
        q = (q * Quat.from_rotvec(rng.normal(0.0, noise.pose_rot_std, 3))).normalized()
    return PoseMeasurement(capture, now, Pose(pos, q, capture))


class Simulator:
    """Rigid-body simulation stepped on the IMU grid, with sensor emission
    on exact grids.

    Each `step` integrates from the current stamp to the next IMU tick
    with one RK4 step per piece of the tick between gust edges. The true
    state is held as 13 floats and the IMU biases as two float 3-tuples
    between calls; `state` builds their `VehicleState` at the last tick
    when read, and `time` is its stamp.
    """

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
        self._edges = sorted({e for s, d, _ in wind.gusts for e in (s, s + d)})
        ss = np.random.SeedSequence(seed)
        imu_ss, pose_ss = ss.spawn(2)
        self._rng_imu = np.random.default_rng(imu_ss)
        self._rng_pose = np.random.default_rng(pose_ss)
        state = initial_state or VehicleState()
        self._state = state
        q = state.pose.orientation
        self._x = (*state.pose.position.tolist(), *state.twist.linear.tolist(),
                   q.w, q.x, q.y, q.z, *state.twist.angular.tolist())
        ax, ay, az = state.accel_bias.tolist()
        gx, gy, gz = state.gyro_bias.tolist()
        self._ab, self._gb = (ax, ay, az), (gx, gy, gz)
        # IMU noise per tick: accel and gyro white noise, then the accel and
        # gyro bias steps. A zero std draws nothing: its vector has no `rng.normal` call.
        walk = noise.bias_walk_std * math.sqrt(IMU_PERIOD)
        stds = (noise.accel_std, noise.gyro_std, noise.bias_walk_std, noise.bias_walk_std)
        self._drawn = [j for j, std in enumerate(stds) if std > 0]
        self._scale = np.array([noise.accel_std, noise.gyro_std, walk, walk])[self._drawn, None]
        self._noise, self._row = None, NOISE_BLOCK
        self._stamp = state.pose.stamp
        # the last IMU tick at or before the start; a start within 1 ns of a tick is on it
        tick = round(self._stamp / IMU_PERIOD)
        on_grid = abs(self._stamp - tick * IMU_PERIOD) < 1e-9
        self._tick = tick if on_grid else math.floor(self._stamp / IMU_PERIOD)
        # the pose grid is a subset of the IMU grid
        self._pose_every = round(POSE_PERIOD / IMU_PERIOD)
        # POSE_DELAY must be a whole number of POSE_PERIODs
        self._delay_line: deque[Pose] = deque(maxlen=round(POSE_DELAY / POSE_PERIOD))
        if on_grid and tick % self._pose_every == 0:
            self._delay_line.append(state.pose)

    @property
    def time(self) -> float:
        return self._stamp

    @property
    def position(self) -> tuple:
        """The true position at the last tick, as 3 floats."""
        return self._x[0:3]

    @property
    def state(self) -> VehicleState:
        if self._state is None:
            x = self._x
            self._state = VehicleState(
                Pose(np.array(x[0:3]), Quat(*x[6:10]), self._stamp),
                Twist(np.array(x[3:6]), np.array(x[10:13])),
                np.array(self._ab), np.array(self._gb),
            )
        return self._state

    def _draw_noise(self) -> np.ndarray:
        """The IMU noise of the next NOISE_BLOCK ticks, one row of 12 per
        tick in the order of `__init__`'s columns. A column whose std is 0
        holds -0.0, which added leaves every float as it is."""
        block = np.full((NOISE_BLOCK, 4, 3), -0.0)
        # rng.normal(0.0, std) returns 0.0 + std * z for a standard normal z, and
        # rng.normal(0.0, 1.0) returns z itself (+0.0 for -0.0): each value is
        # the one its vector's own call would return
        z = self._rng_imu.normal(0.0, 1.0, (NOISE_BLOCK, len(self._drawn), 3))
        z *= self._scale
        z += 0.0
        block[:, self._drawn] = z
        return block.reshape(NOISE_BLOCK, 12)

    def step(self, thrust: float, torque):
        """Hold the command from the current stamp to the next IMU tick;
        returns (imu_sample, pose_measurement), the latter None off the
        pose sensor's grid.

        The tick is one RK4 step, or one per piece when gust edges fall
        inside it. The IMU reads the tick's mean acceleration less gravity
        and the body rate at its end, in the body frame, plus the biases
        and white noise; then the biases take one random-walk step. A pose
        tick with a full delay line measures its oldest pose, then appends
        the current one, so no capture precedes the first pose on the grid.
        """
        params = self.params
        tx, ty, tz = map(float, torque)
        if not all(map(math.isfinite, (thrust, tx, ty, tz))):
            raise ValueError("non-finite command or wind")
        thrust = min(max(thrust, 0.0), params.max_thrust)
        lim = params.max_torque
        torque = (min(max(tx, -lim), lim), min(max(ty, -lim), lim), min(max(tz, -lim), lim))

        tick = self._tick + 1
        t0, t1 = self._stamp, tick * IMU_PERIOD
        cuts = [t0, *(e for e in self._edges if t0 < e < t1), t1]
        x0 = x = self._x
        for a, b in zip(cuts, cuts[1:]):
            x = _rk4_step(x, thrust, torque, self.wind.wind_at(a), b - a, params)

        block, row = self._noise, self._row
        if row == NOISE_BLOCK:
            block, row = self._draw_noise(), 0
        nfx, nfy, nfz, nwx, nwy, nwz, nax, nay, naz, ngx, ngy, ngz = block[row].tolist()
        dt = t1 - t0
        u = np.array([(x[3] - x0[3]) / dt - _GX, (x[4] - x0[4]) / dt - _GY,
                      (x[5] - x0[5]) / dt - _GZ])
        # a gemv rounds unlike per-row dots; the flat-built matrix is C-ordered like a nested list
        fx, fy, fz = (rotation_matrix(x[6], x[7], x[8], x[9]).T @ u).tolist()
        (abx, aby, abz), (gbx, gby, gbz) = self._ab, self._gb
        imu = ImuSample(t1, (fx + abx + nfx, fy + aby + nfy, fz + abz + nfz),
                        (x[10] + gbx + nwx, x[11] + gby + nwy, x[12] + gbz + nwz))
        # only a whole call moves the simulator: one that raises leaves it at its last tick
        self._x, self._tick, self._stamp, self._state = x, tick, t1, None
        self._noise, self._row = block, row + 1
        self._ab = (abx + nax, aby + nay, abz + naz)
        self._gb = (gbx + ngx, gby + ngy, gbz + ngz)
        meas = None
        if tick % self._pose_every == 0:
            line = self._delay_line
            if len(line) == line.maxlen:
                meas = sample_pose_sensor(line[0], t1, self.noise, self._rng_pose)
            line.append(Pose(np.array(x[0:3]), Quat(x[6], x[7], x[8], x[9]), t1))
        return imu, meas
