import math
from collections import Counter

import numpy as np
import pytest

from mavnav import scenarios
from mavnav.control import Controller, place_poles
from mavnav.estimation import NavEstimate, NavFilter, NavState, _estimate_of, steady_state
from mavnav.geometry import Pose, Quat
from mavnav.metrics import recovery_time, rms
from mavnav.scenarios import (
    LoopLog, hover_ref_fn, run_closed_loop, run_hover, run_wind_step, spline_ref_fn,
)
from mavnav.simulation import (
    IMU_PERIOD, NoiseConfig, Simulator, VehicleParams, VehicleState, WindProfile,
)
from mavnav.trajectory import spline_from_path

# Bounds from a sweep of seeds 0-9 with the default noise and gains:
# 10 s hover position RMS 0.016-0.053 m, wind-step recovery 0-3.69 s.


LOG_FIELDS = ("t", "truth_pos", "est_pos", "ref_pos", "thrust")


def _loop_run_closed_loop(ref_fn, duration, wind=WindProfile(), seed=0, initial_state=None):
    """`run_closed_loop` on the layers' objects, as before floats passed
    between them: every tick reads the simulator's `VehicleState` and the
    filter's `NavEstimate`, and takes the body rate on numpy arrays."""
    params, noise = VehicleParams(), NoiseConfig()
    sim = Simulator(params, noise, wind, seed, initial_state)
    controller = Controller(place_poles(vehicle=params), params)
    filt = NavFilter(
        NavEstimate(pose=sim.state.pose, velocity=sim.state.twist.linear,
                    stamp=sim.state.pose.stamp),
        *steady_state(noise),
    )

    log = {name: [] for name in LOG_FIELDS}
    thrust, torque = params.hover_thrust, np.zeros(3)
    t_end = sim.time + duration
    while sim.time < t_end - 1e-9:
        imu, meas = sim.step(thrust, torque)
        if sim.time > t_end + 1e-9:
            break  # this IMU tick lies past the end
        filt.predict(imu)
        if meas is not None:
            filt.correct(meas)
        est = _estimate_of(filt.state)
        ref = ref_fn(imu.stamp)
        body_rate = np.asarray(imu.angular_rate) - est.gyro_bias
        thrust, torque = controller.step(NavState.of(est), ref, body_rate, IMU_PERIOD)
        log["t"].append(imu.stamp)
        log["truth_pos"].append(sim.state.pose.position)
        log["est_pos"].append(est.pose.position.copy())
        log["ref_pos"].append(ref.position.copy())
        log["thrust"].append(thrust)
    return LoopLog(**{name: np.array(rows) for name, rows in log.items()})


def assert_logs_equal(got: LoopLog, want: LoopLog):
    for name in LOG_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


# flight_gust's speed plan caps speed and acceleration at 1 m/s and 1 m/s^2
GUST_ROUTE = np.array([[0.0, 0.0, 1.0], [1.0, 0.5, 1.2], [2.0, 0.0, 1.0]])


def gusty_flight(run, seed: int) -> LoopLog:
    """A flight_gust-like flight: a turning spline with a crosswind gust
    from half its duration, off the IMU grid, then time to settle."""
    spline = spline_from_path(GUST_ROUTE, np.array([0.0, 2.347, 4.694]))
    wind = WindProfile(gusts=((0.5 * spline.duration, 1.0, (0.0, 4.0, 0.0)),))
    return run(spline_ref_fn(spline), 6.0, wind, seed, VehicleState(pose=Pose(GUST_ROUTE[0])))


@pytest.mark.parametrize("seed", range(10))
def test_gusty_flight_matches_per_object_loop(seed):
    assert_logs_equal(gusty_flight(run_closed_loop, seed), gusty_flight(_loop_run_closed_loop, seed))


def test_hover_and_wind_step_match_per_object_loop(monkeypatch):
    hover, wind = run_hover(5.0, seed=3), run_wind_step(duration=8.0, seed=4)
    monkeypatch.setattr(scenarios, "run_closed_loop", _loop_run_closed_loop)
    assert_logs_equal(hover, run_hover(5.0, seed=3))
    assert_logs_equal(wind, run_wind_step(duration=8.0, seed=4))


def test_start_off_the_imu_grid_matches_per_object_loop():
    start = VehicleState(pose=Pose(np.array([0.0, 0.0, 1.0]), Quat.identity(), 0.0055))
    args = (hover_ref_fn([0.5, -0.2, 1.0]), 3.0, WindProfile(), 5, start)
    got, want = run_closed_loop(*args), _loop_run_closed_loop(*args)
    assert got.t[0] == want.t[0] == 0.01 and len(got.t) == 300
    assert_logs_equal(got, want)


def test_reading_state_and_estimate_every_tick_changes_nothing(monkeypatch):
    """The simulator's `VehicleState` is built only when read; reading it
    on every tick moves no number. The filter keeps no estimate but its
    `NavState`, which the loop reads on every tick."""
    unread = gusty_flight(run_closed_loop, 7)
    step = Simulator.step

    def reading_step(self, thrust, torque):
        self.state
        out = step(self, thrust, torque)
        self.state
        return out

    monkeypatch.setattr(Simulator, "step", reading_step)
    assert_logs_equal(gusty_flight(run_closed_loop, 7), unread)


@pytest.mark.parametrize("duration", [math.nan, -1.0, 0.0, math.inf, -math.inf])
def test_duration_must_be_finite_and_positive(monkeypatch, duration):
    """Rejected before the first step: an infinite flight would never
    return, the others returned an empty log."""
    def no_flight(self, thrust, torque):
        raise AssertionError("the flight started")

    monkeypatch.setattr(Simulator, "step", no_flight)
    with pytest.raises(ValueError, match="duration"):
        run_closed_loop(hover_ref_fn([0.0, 0.0, 0.0]), duration)


def test_hover_position_rms():
    log = run_hover(duration=10.0, seed=0)
    assert len(log.t) == 1000
    assert rms(log.position_error()) < 0.08


def test_wind_step_recovery():
    onset = 5.0
    log = run_wind_step(wind_speed=3.0, onset=onset, duration=15.0, seed=0)
    err = log.position_error()
    assert err.max() > 0.1  # the gust pushes the vehicle out of the band
    rec = recovery_time(log.times(), err, onset, threshold=0.1)
    assert rec is not None and rec < 5.0


def test_loop_calls_each_entry_point_once_per_tick(monkeypatch):
    """perfbench's tracer times the loop's layers by patching these names."""
    calls = Counter()
    for owner, name, key in [(Simulator, "step", "sim"), (NavFilter, "predict", "predict"),
                             (NavFilter, "correct", "correct"), (Controller, "step", "control"),
                             (scenarios, "eval_spline", "ref")]:
        def counted(*args, _call=getattr(owner, name), _key=key, **kw):
            calls[_key] += 1
            return _call(*args, **kw)
        monkeypatch.setattr(owner, name, counted)
    spline = spline_from_path(np.array([[0.0, 0.0, 0.0], [1.0, 0.5, 0.0]]), np.array([0.0, 2.0]))
    log = run_closed_loop(spline_ref_fn(spline), 1.0)
    ticks = len(log.t)
    assert ticks == 100
    # one pose delivery per 0.1 s
    assert calls == Counter(sim=ticks, predict=ticks, control=ticks, ref=ticks, correct=10)
