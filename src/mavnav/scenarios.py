"""Closed-loop scenario wiring: simulation, estimation and control.

The loop advances the simulator one IMU tick at a time, feeds every IMU
sample to the filter, recomputes the control command at the IMU rate
from the latest estimate (the simulator holds it in between), and
applies delayed pose corrections as they arrive.

Every run has one configuration: the default vehicle and sensor noise,
the gains `place_poles` derives for that vehicle, and the filter weights
and gate `steady_state` derives for that noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .control import Controller, place_poles
from .estimation import NavEstimate, NavFilter, steady_state
from .simulation import IMU_PERIOD, NoiseConfig, Simulator, VehicleParams, VehicleState, WindProfile
from .trajectory import QuinticSpline, RefPoint, eval_spline


@dataclass
class LoopLog:
    """Synchronized per-IMU-tick records of one closed-loop run."""

    t: list[float] = field(default_factory=list)
    truth_pos: list[np.ndarray] = field(default_factory=list)
    est_pos: list[np.ndarray] = field(default_factory=list)
    ref_pos: list[np.ndarray] = field(default_factory=list)
    thrust: list[float] = field(default_factory=list)

    def position_error(self) -> np.ndarray:
        return np.linalg.norm(np.array(self.truth_pos) - np.array(self.ref_pos), axis=1)

    def estimate_error(self) -> np.ndarray:
        return np.linalg.norm(np.array(self.truth_pos) - np.array(self.est_pos), axis=1)

    def times(self) -> np.ndarray:
        return np.array(self.t)


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
    """Fly `ref_fn` for `duration` seconds; returns the synchronized log."""
    params, noise = VehicleParams(), NoiseConfig()
    sim = Simulator(params, noise, wind, seed, initial_state)
    controller = Controller(place_poles(vehicle=params), params)
    filt = NavFilter(
        NavEstimate(pose=sim.state.pose, velocity=sim.state.twist.linear,
                    stamp=sim.state.pose.stamp),
        *steady_state(noise),
    )

    log = LoopLog()
    thrust, torque = params.hover_thrust, np.zeros(3)
    t_end = sim.time + duration
    while sim.time < t_end - 1e-9:
        imu, meas = sim.step(thrust, torque)
        if sim.time > t_end + 1e-9:
            break  # this IMU tick lies past the end
        filt.predict(imu)
        if meas is not None:
            filt.correct(meas)
        est = filt.estimate
        ref = ref_fn(imu.stamp)
        body_rate = np.asarray(imu.angular_rate) - est.gyro_bias
        thrust, torque = controller.step(est, ref, body_rate, IMU_PERIOD)
        log.t.append(imu.stamp)
        log.truth_pos.append(sim.state.pose.position)
        log.est_pos.append(est.pose.position.copy())
        log.ref_pos.append(ref.position.copy())
        log.thrust.append(thrust)
    return log


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
