"""Closed-loop scenario wiring: simulation, estimation and control.

The loop advances the simulator one IMU tick at a time, feeds every IMU
sample to the filter, recomputes the control command at the IMU rate
from the latest estimate (the simulator holds it in between), and
applies delayed pose corrections as they arrive. Floats pass between the
layers on every tick: the simulator's IMU reading, the filter's
`NavState` and the controller's command; the simulator's `VehicleState`
is built only when read, and the loop does not read it. The log grows
as flat float buffers that become its arrays once, at the end.

Every run has one configuration: the default vehicle and sensor noise,
the gains `place_poles` derives for that vehicle, and the filter weights
and gate `steady_state` derives for that noise.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .control import Controller, place_poles
from .estimation import NavEstimate, NavFilter, steady_state
from .simulation import IMU_PERIOD, NoiseConfig, Simulator, VehicleParams, VehicleState, WindProfile
from .trajectory import QuinticSpline, RefPoint, eval_spline


@dataclass
class LoopLog:
    """Synchronized per-IMU-tick records of one closed-loop run: stamps and
    thrusts (n,), true, estimated and reference positions (n, 3)."""

    t: np.ndarray
    truth_pos: np.ndarray
    est_pos: np.ndarray
    ref_pos: np.ndarray
    thrust: np.ndarray

    def position_error(self) -> np.ndarray:
        return np.linalg.norm(self.truth_pos - self.ref_pos, axis=1)

    def estimate_error(self) -> np.ndarray:
        return np.linalg.norm(self.truth_pos - self.est_pos, axis=1)

    def times(self) -> np.ndarray:
        return self.t


def hover_ref_fn(position):
    target = np.asarray(position, dtype=float)
    z = np.zeros(3)

    def ref(t: float) -> RefPoint:
        return RefPoint(target, z, z, z, z, 0.0, 0.0, t)

    return ref


def spline_ref_fn(spline: QuinticSpline):
    def ref(t: float) -> RefPoint:
        return eval_spline(spline, t)

    return ref


def run_closed_loop(
    ref_fn,
    duration: float,
    wind: WindProfile = WindProfile(),
    seed: int = 0,
    initial_state: VehicleState | None = None,
) -> LoopLog:
    """Fly `ref_fn` for `duration` seconds; returns the synchronized log.

    Raises ValueError, before the first step, on a duration that is not
    finite and positive.
    """
    if not (math.isfinite(duration) and duration > 0):
        raise ValueError(f"duration must be finite and positive, got {duration}")
    params, noise = VehicleParams(), NoiseConfig()
    sim = Simulator(params, noise, wind, seed, initial_state)
    controller = Controller(place_poles(vehicle=params), params)
    filt = NavFilter(
        NavEstimate(pose=sim.state.pose, velocity=sim.state.twist.linear,
                    stamp=sim.state.pose.stamp),
        *steady_state(noise),
    )

    stamps, truth, est, refs, thrusts = (array("d") for _ in range(5))
    thrust, torque = params.hover_thrust, (0.0, 0.0, 0.0)
    t_end = sim.time + duration
    while sim.time < t_end - 1e-9:
        imu, meas = sim.step(thrust, torque)
        if sim.time > t_end + 1e-9:
            break  # this IMU tick lies past the end
        filt.predict(imu)
        if meas is not None:
            filt.correct(meas)
        nav = filt.state
        ref = ref_fn(imu.stamp)
        (wx, wy, wz), (bx, by, bz) = imu.angular_rate, nav.gyro_bias
        thrust, torque = controller.step(nav, ref, (wx - bx, wy - by, wz - bz), IMU_PERIOD)
        stamps.append(imu.stamp)
        truth.extend(sim.position)
        est.extend(nav.position)
        refs.extend(ref.position.tolist())
        thrusts.append(thrust)
    rows = [np.array(buf).reshape(-1, 3) for buf in (truth, est, refs)]
    return LoopLog(np.array(stamps), *rows, np.array(thrusts))


def run_hover(duration: float = 60.0, seed: int = 0) -> LoopLog:
    """Stationary hover at the origin."""
    return run_closed_loop(hover_ref_fn([0.0, 0.0, 0.0]), duration, seed=seed)


def run_wind_step(
    wind_speed: float = 3.0,
    onset: float = 5.0,
    duration: float = 15.0,
    seed: int = 0,
) -> LoopLog:
    """Hover through a lateral constant-wind step starting at `onset`."""
    wind = WindProfile(gusts=((onset, 1e6, [wind_speed, 0.0, 0.0]),))
    return run_closed_loop(hover_ref_fn([0.0, 0.0, 0.0]), duration, wind, seed)
