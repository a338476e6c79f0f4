import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_geometry import from_rotvec_oracle, mul_oracle, normalized_oracle, rotate_oracle, wxyz

from mavnav.geometry import (
    Pose, Quat, Twist, cross3, quat_from_rotvec, quat_mul, quat_normalize, quat_rotate,
)
from mavnav.scenarios import run_closed_loop, spline_ref_fn
from mavnav.simulation import (
    GRAVITY,
    IMU_PERIOD,
    NOISE_BLOCK,
    ImuSample,
    NoiseConfig,
    Simulator,
    VehicleParams,
    VehicleState,
    WindProfile,
    _rk4_step,
    sample_pose_sensor,
)
from mavnav.trajectory import spline_from_path

PARAMS = VehicleParams()
NAN, INF = float("nan"), float("inf")
QUIET = NoiseConfig(accel_std=0, gyro_std=0, bias_walk_std=0, pose_pos_std=0, pose_rot_std=0)
GX, GY, GZ = GRAVITY.tolist()
ZERO = (0.0, 0.0, 0.0)
REST = (ZERO, ZERO, (1.0, 0.0, 0.0, 0.0), ZERO)  # (p, v, q, w) at rest at the origin, level


def rigid_step(p, v, q, w, thrust, torque, wind, dt, params=PARAMS):
    """One semi-implicit Euler step of the rigid-body dynamics on floats:
    the fast reference of `run_reference`.

    p, v, w, torque and wind are 3-sequences and q a (w, x, y, z)
    sequence of floats; returns the new (p, v, q, w) as tuples. Checks
    the command and wind before the step and the state after it, and
    rounds as `step_dynamics_oracle`'s numpy expressions do.
    """
    tx, ty, tz = torque
    ux, uy, uz = wind
    if not all(map(math.isfinite, (thrust, tx, ty, tz, ux, uy, uz))):
        raise ValueError("non-finite command or wind")
    thrust = min(max(thrust, 0.0), params.max_thrust)
    lim = params.max_torque
    tx, ty, tz = (min(max(tx, -lim), lim), min(max(ty, -lim), lim), min(max(tz, -lim), lim))

    mass, drag = params.mass, params.drag
    ix, iy, iz = params.inertia
    vx, vy, vz = v
    wx, wy, wz = w
    bx, by, bz = quat_rotate(q, (0.0, 0.0, 1.0))
    ax = (thrust * bx + mass * GX + drag * (ux - vx)) / mass
    ay = (thrust * by + mass * GY + drag * (uy - vy)) / mass
    az = (thrust * bz + mass * GZ + drag * (uz - vz)) / mass
    cx, cy, cz = cross3(w, (ix * wx, iy * wy, iz * wz))  # gyroscopic term
    w_new = (wx + (tx - cx) / ix * dt, wy + (ty - cy) / iy * dt, wz + (tz - cz) / iz * dt)
    v_new = (vx + ax * dt, vy + ay * dt, vz + az * dt)
    p_new = (p[0] + v_new[0] * dt, p[1] + v_new[1] * dt, p[2] + v_new[2] * dt)
    dq = quat_from_rotvec((w_new[0] * dt, w_new[1] * dt, w_new[2] * dt))
    # as `(q * dq).normalized()`: the product renormalizes, then the step again
    q_new = quat_normalize(*quat_normalize(*quat_mul(q, dq)))
    if not all(map(math.isfinite, (*p_new, *v_new, *q_new, *w_new))):
        raise ValueError("vehicle state must stay finite")
    return p_new, v_new, q_new, w_new


def state_floats(state: VehicleState) -> tuple:
    """(p, v, q, w) of a `VehicleState` as float sequences, q as (w, x, y, z)."""
    return (state.pose.position.tolist(), state.twist.linear.tolist(),
            wxyz(state.pose.orientation), state.twist.angular.tolist())


def step_dynamics_oracle(state, thrust, torque, wind, dt, params=PARAMS):
    """The rigid-body step as numpy 3-vector expressions, with the numpy
    quaternion oracles; returns (p, v, q, w), q a (w, x, y, z) tuple."""
    torque = np.clip(np.asarray(torque, dtype=float), -params.max_torque, params.max_torque)
    thrust = min(max(thrust, 0.0), params.max_thrust)
    q = wxyz(state.pose.orientation)
    v = state.twist.linear
    w = state.twist.angular
    inertia = np.asarray(params.inertia)

    force = thrust * rotate_oracle(q, [0.0, 0.0, 1.0])
    force = force + params.mass * GRAVITY
    force = force + params.drag * (np.asarray(wind, dtype=float) - v)
    accel = force / params.mass

    w_dot = (torque - np.cross(w, inertia * w)) / inertia
    w_new = w + w_dot * dt
    v_new = v + accel * dt
    p_new = state.pose.position + v_new * dt
    q_new = normalized_oracle(mul_oracle(q, from_rotvec_oracle(w_new * dt)))
    return p_new, v_new, q_new, w_new


def sample_imu(state, true_accel, noise, rng):
    """The IMU reading as numpy 3-vectors with one `rng.normal` call per
    noise vector: the oracle of `Simulator.step`'s reading and its noise
    blocks.

    Returns (ImuSample at the state's stamp, new accel bias, new gyro bias).
    The specific force is the body-frame difference between true
    acceleration and gravity, corrupted by the current bias and white noise.
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


def assert_matches_oracle(state, thrust, torque, wind, dt, params=PARAMS):
    """`rigid_step` from `state` equals the oracle bit for bit; returns its (p, v, q, w)."""
    out = rigid_step(*state_floats(state), thrust, np.asarray(torque, dtype=float).tolist(),
                     np.asarray(wind, dtype=float).tolist(), dt, params)
    p, v, q, w = step_dynamics_oracle(state, thrust, torque, wind, dt, params)
    assert np.array_equal(out[0], p)
    assert np.array_equal(out[1], v)
    assert np.array_equal(out[3], w)
    assert out[2] == q
    return out


def vec(lim):
    return st.tuples(*[st.floats(-lim, lim)] * 3).map(np.array)


orientations = st.one_of(
    st.tuples(*[st.floats(-1, 1)] * 4).filter(any).map(lambda t: Quat(*t).normalized()),
    st.tuples(*[st.floats(-1, 1)] * 4).map(lambda t: Quat(*t)),
    st.tuples(*[st.floats(-1, 1)] * 3).filter(any).map(lambda t: Quat(0.0, *t).normalized()),
)
rates = st.one_of(st.just(np.zeros(3)), vec(1e-10), vec(20.0))
commands = st.tuples(st.floats(-10.0, 60.0), st.one_of(st.just(np.zeros(3)), vec(8.0)))


class TestStepDynamics:
    """The Euler reference `rigid_step`: its physics, and its parity with
    the numpy oracle."""

    def test_hover_equilibrium(self):
        p, v, q, _ = rigid_step(*REST, PARAMS.hover_thrust, ZERO, ZERO, 0.01)
        np.testing.assert_allclose(p, 0.0, atol=1e-12)
        np.testing.assert_allclose(v, 0.0, atol=1e-12)
        assert Quat(*q).angle_to(Quat.identity()) < 1e-12

    def test_one_step_free_fall(self):
        _, v, _, _ = rigid_step(*REST, 0.0, ZERO, ZERO, 0.01, VehicleParams(drag=0.0))
        assert v[2] == pytest.approx(-0.0981, abs=1e-12)

    def test_wind_drag_one_step(self):
        dt = 0.01
        _, v, _, _ = rigid_step(*REST, PARAMS.hover_thrust, ZERO, (2.0, 0.0, 0.0), dt)
        expected = PARAMS.drag * 2.0 / PARAMS.mass * dt
        assert v[0] == pytest.approx(expected, rel=1e-12)

    def test_actuator_clamping(self):
        _, v, _, w = rigid_step(*REST, 1e6, (1e6, -1e6, 0.0), ZERO, 0.01)
        # acceleration bounded by clamped limits
        az_max = PARAMS.max_thrust / PARAMS.mass + GRAVITY[2]
        assert v[2] <= az_max * 0.01 + 1e-9
        assert abs(w[0]) <= PARAMS.max_torque / PARAMS.inertia[0] * 0.01 + 1e-9

    @given(vec(100.0), vec(20.0), orientations, rates, commands, vec(10.0),
           st.sampled_from([0.001, 0.01, 0.02]))
    @settings(max_examples=400, deadline=None)
    def test_kernel_matches_oracle(self, p, v, q, w, command, wind, dt):
        state = VehicleState(Pose(p, q, 0.25), Twist(v, w))
        assert_matches_oracle(state, command[0], command[1], wind, dt)

    def test_kernel_matches_oracle_on_each_branch(self):
        # clamped thrust and torque
        assert_matches_oracle(VehicleState(), 1e3, [9.0, -9.0, 4.5], [1.0, 2.0, 0.0], 0.01)
        assert_matches_oracle(VehicleState(), -5.0, [0.1, -0.2, 0.3], np.zeros(3), 0.01)
        # the first-order rotvec branch: an increment below 1e-12 rad
        tiny = VehicleState(twist=Twist(np.zeros(3), np.array([3e-10, -1e-10, 2e-10])))
        assert_matches_oracle(tiny, 14.0, np.zeros(3), np.zeros(3), 0.001)
        # a half turn with no increment: w == 0 exactly, and the canonical
        # sign makes the largest component positive
        half = VehicleState(pose=Pose(np.zeros(3), Quat(0.0, -0.6, 0.8, 0.0), 0.0))
        _, _, q, _ = assert_matches_oracle(half, 14.0, np.zeros(3), np.zeros(3), 0.01)
        assert q == (0.0, -0.6, 0.8, 0.0)
        flipped = VehicleState(pose=Pose(np.zeros(3), Quat(0.0, 0.0, -0.8, 0.6), 0.0))
        _, _, q, _ = assert_matches_oracle(flipped, 14.0, np.zeros(3), np.zeros(3), 0.01)
        assert q == (0.0, 0.0, 0.8, -0.6)


class TestImu:
    def test_stationary_specific_force(self):
        rng = np.random.default_rng(0)
        s = VehicleState()
        imu, ab, gb = sample_imu(s, np.zeros(3), QUIET, rng)
        np.testing.assert_allclose(imu.specific_force, [0, 0, 9.81], atol=1e-12)
        np.testing.assert_allclose(imu.angular_rate, 0.0, atol=1e-12)
        np.testing.assert_allclose(ab, 0.0)

    def test_zero_walk_keeps_bias(self):
        rng = np.random.default_rng(0)
        s = VehicleState(accel_bias=np.array([0.3, -0.1, 0.05]))
        for _ in range(100):
            imu, ab, gb = sample_imu(s, np.zeros(3), QUIET, rng)
            s.accel_bias = ab
        np.testing.assert_array_equal(s.accel_bias, [0.3, -0.1, 0.05])

    def test_bias_walk_variance_monte_carlo(self):
        walk = 0.01
        noise = NoiseConfig(accel_std=0, gyro_std=0, bias_walk_std=walk,
                            pose_pos_std=0, pose_rot_std=0)
        n_steps, n_trials = 100, 1000
        t = n_steps * IMU_PERIOD
        rng = np.random.default_rng(42)
        finals = np.empty(n_trials)
        for trial in range(n_trials):
            s = VehicleState()
            for _ in range(n_steps):
                _, ab, _ = sample_imu(s, np.zeros(3), noise, rng)
                s.accel_bias = ab
            finals[trial] = s.accel_bias[0]
        assert np.var(finals) == pytest.approx(walk**2 * t, rel=0.2)


class TestImuNoiseBlocks:
    @pytest.mark.parametrize("zero", [None, "accel_std", "gyro_std", "bias_walk_std"])
    def test_samples_equal_per_call_draws(self, zero):
        """Over two block boundaries, with every std set and with each IMU
        std at 0 in turn, the simulator's IMU samples and biases equal the
        oracle's per-call `rng.normal` draws bit for bit. A zero std draws
        nothing: the later draws stay aligned only if the simulator skips it
        too."""
        noise = NoiseConfig(**{"bias_walk_std": 0.05, **({zero: 0.0} if zero else {})})
        seed = 9
        start = VehicleState(accel_bias=[0.1, -0.2, 0.05], gyro_bias=[0.01, 0.02, -0.03])
        sim = Simulator(noise=noise, seed=seed, initial_state=start)
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])
        ab, gb = start.accel_bias, start.gyro_bias
        bits = lambda a: np.asarray(a, dtype=float).tobytes()
        for k in range(2 * NOISE_BLOCK + 17):
            before = sim.state
            imu, _ = sim.step(PARAMS.hover_thrust + 0.5 * math.sin(0.1 * k),
                              [0.01, -0.02 * math.cos(0.05 * k), 0.005])
            after = sim.state
            true_accel = ((after.twist.linear - before.twist.linear)
                          / (after.pose.stamp - before.pose.stamp))
            want, ab, gb = sample_imu(VehicleState(after.pose, after.twist, ab, gb), true_accel,
                                      noise, rng)
            assert imu.stamp == want.stamp
            assert bits(imu.specific_force) == bits(want.specific_force), k
            assert bits(imu.angular_rate) == bits(want.angular_rate), k
            assert bits(after.accel_bias) == bits(ab) and bits(after.gyro_bias) == bits(gb), k


class TestPoseSensor:
    TRUTH = Pose(np.array([0.9, 1.8, 0.0]), Quat.identity(), 0.9)

    def test_delay_is_100ms(self):
        meas = sample_pose_sensor(self.TRUTH, 1.0, QUIET, np.random.default_rng(0))
        assert meas.capture_stamp == pytest.approx(0.9, abs=1e-12)
        assert meas.delivery_stamp == 1.0

    def test_zero_noise_exact(self):
        meas = sample_pose_sensor(self.TRUTH, 1.0, QUIET, np.random.default_rng(0))
        np.testing.assert_allclose(meas.pose.position, [0.9, 1.8, 0.0], atol=1e-12)


class TestSimulator:
    def test_sensor_rates(self):
        sim = Simulator(noise=QUIET)
        n_imu = n_pose = 0
        hover = PARAMS.hover_thrust
        while sim.time < 2.0 - 1e-9:
            imu, meas = sim.step(hover, np.zeros(3))
            n_imu += imu is not None
            n_pose += meas is not None
        assert n_imu == 200
        assert n_pose == 20  # deliveries at 0.1 s .. 2.0 s

    def test_deterministic_streams(self):
        def run():
            sim = Simulator(seed=7)
            log = []
            while sim.time < 1.0 - 1e-9:
                imu, meas = sim.step(PARAMS.hover_thrust, np.zeros(3))
                if imu:
                    log.append(tuple(imu.specific_force))
                if meas:
                    log.append(tuple(meas.pose.position))
            return log

        assert run() == run()

    def test_step_lands_on_the_next_imu_tick(self):
        start = VehicleState(pose=Pose(np.zeros(3), Quat.identity(), 0.005))
        sim = Simulator(noise=QUIET, initial_state=start)
        imu, meas = sim.step(PARAMS.hover_thrust, np.zeros(3))
        assert sim.time == pytest.approx(0.01, abs=1e-12)
        assert imu.stamp == pytest.approx(0.01, abs=1e-12) and meas is None
        assert sim.state.pose.stamp == imu.stamp
        imu, _ = sim.step(PARAMS.hover_thrust, np.zeros(3))
        assert imu.stamp == pytest.approx(0.02, abs=1e-12)

    def test_off_grid_start_skips_captures_before_the_first_pose(self):
        start = VehicleState(pose=Pose(np.array([0.0, 0.0, 1.0]), Quat.identity(), 0.005))
        sim = Simulator(noise=QUIET, initial_state=start)
        captures = []
        while sim.time < 0.3 - 1e-9:
            _, meas = sim.step(PARAMS.hover_thrust, np.zeros(3))
            if meas is not None:
                captures.append(meas.capture_stamp)
        # the 0.1 s delivery would capture t = 0, before the flight began at 0.005 s
        assert captures == pytest.approx([0.1, 0.2], abs=1e-9)

    def test_off_grid_start_integrates_to_the_imu_grid(self):
        """A start between ticks integrates only the rest of the first tick,
        and the IMU, the simulator clock and the pose share the IMU grid."""
        start = VehicleState(pose=Pose(np.array([0.0, 0.0, 5.0]), Quat.identity(), 0.0055))
        sim = Simulator(VehicleParams(drag=0.0), QUIET, initial_state=start)
        deliveries = []
        for k in range(1, 31):
            imu, meas = sim.step(0.0, np.zeros(3))  # free fall
            assert imu.stamp == sim.time == sim.state.pose.stamp
            assert sim.time == pytest.approx(k * IMU_PERIOD, abs=1e-12)
            # free fall reads no specific force, also over the shorter first tick
            np.testing.assert_allclose(imu.specific_force, 0.0, atol=1e-9)
            if k == 1:
                assert sim.state.twist.linear[2] == pytest.approx(GRAVITY[2] * 0.0045, rel=1e-9)
            if meas is not None:
                assert meas.delivery_stamp == sim.time
                deliveries.append((meas.capture_stamp, meas.delivery_stamp))
        np.testing.assert_allclose(deliveries, [(0.1, 0.2), (0.2, 0.3)], rtol=0, atol=1e-12)

    def test_imu_reads_the_mean_acceleration_of_the_tick(self):
        """Drag slows a level flight; the IMU reads (v_end - v_start) / tick,
        not the acceleration at the tick's end."""
        start = VehicleState(twist=Twist(np.array([3.0, 0.0, 0.0]), np.zeros(3)))
        sim = Simulator(noise=QUIET, initial_state=start)
        v0 = sim.state.twist.linear
        imu, _ = sim.step(PARAMS.hover_thrust, np.zeros(3))
        mean = (sim.state.twist.linear - v0) / IMU_PERIOD
        np.testing.assert_allclose(imu.specific_force, mean - GRAVITY, rtol=0, atol=1e-12)

    def test_non_finite_wind_inside_a_tick_raises_and_keeps_the_tick(self):
        wind = WindProfile(gusts=((0.015, 1.0, [float("nan"), 0.0, 0.0]),))
        sim = Simulator(noise=QUIET, wind=wind)
        sim.step(PARAMS.hover_thrust, np.zeros(3))
        with pytest.raises(ValueError, match="non-finite"):
            sim.step(PARAMS.hover_thrust, np.zeros(3))
        assert sim.time == pytest.approx(0.01, abs=1e-12)
        assert sim.state.pose.stamp == pytest.approx(0.01, abs=1e-12)

    def test_non_finite_command_raises_and_keeps_the_tick(self):
        sim = Simulator(noise=QUIET)
        sim.step(PARAMS.hover_thrust, np.zeros(3))
        for thrust, torque in [(NAN, ZERO), (PARAMS.hover_thrust, (0.0, INF, 0.0))]:
            with pytest.raises(ValueError, match="non-finite"):
                sim.step(thrust, torque)
            assert sim.time == sim.state.pose.stamp == pytest.approx(0.01, abs=1e-12)
        sim.step(PARAMS.hover_thrust, np.zeros(3))  # the simulator goes on from where it was
        assert sim.time == pytest.approx(0.02, abs=1e-12)

    def test_history_holds_every_capture_stamp(self):
        """Each measurement is the true pose at its capture tick."""
        sim = Simulator(noise=QUIET)
        truth = {0: sim.state.pose}
        n_meas = 0
        while sim.time < 3.0 - 1e-9:
            t = sim.time
            thrust = PARAMS.hover_thrust + 0.5 * math.sin(3.0 * t)
            imu, meas = sim.step(thrust, [0.01 * math.cos(t), -0.01, 0.005])
            truth[round(imu.stamp / IMU_PERIOD)] = sim.state.pose
            if meas is not None:
                pose = truth[round(meas.capture_stamp / IMU_PERIOD)]
                assert meas.capture_stamp == pytest.approx(pose.stamp, abs=1e-9)
                assert np.array_equal(meas.pose.position, pose.position)
                assert meas.pose.orientation == pose.orientation
                n_meas += 1
        assert n_meas == 30

    def test_hover_drift_60s(self):
        sim = Simulator(noise=QUIET)
        hover = PARAMS.hover_thrust
        while sim.time < 60.0 - 1e-9:
            sim.step(hover, np.zeros(3))
        assert np.linalg.norm(sim.state.pose.position) < 1e-9
        assert np.linalg.norm(sim.state.twist.linear) < 1e-9

    def test_wind_profile_gusts(self):
        w = WindProfile(constant=[1, 0, 0], gusts=((2.0, 1.0, [0, 3, 0]),))
        np.testing.assert_array_equal(w.wind_at(1.0), [1, 0, 0])
        np.testing.assert_array_equal(w.wind_at(2.5), [1, 3, 0])
        np.testing.assert_array_equal(w.wind_at(3.5), [1, 0, 0])
        with pytest.raises(ValueError):
            WindProfile(gusts=((0.0, -1.0, [0, 0, 0]),))
        # gusts that could never blow
        for start, duration in [(NAN, 1.0), (INF, 1.0), (-INF, 1.0), (0.0, NAN), (0.0, 0.0)]:
            with pytest.raises(ValueError, match="gust"):
                WindProfile(gusts=((start, duration, [0, 3, 0]),))
        # a step that never ends, and a velocity the simulator rejects when it blows
        for duration, velocity in [(1e6, [3, 0, 0]), (INF, [3, 0, 0]), (1.0, [NAN, 0, 0])]:
            WindProfile(gusts=((5.0, duration, velocity),))
        np.testing.assert_array_equal(
            WindProfile(gusts=((5.0, INF, [3, 0, 0]),)).wind_at(1e9), [3, 0, 0])


def run_reference(state, thrust, torque, wind, t1, h=1e-5):
    """`state` carried to t1 by `rigid_step`s of about h, each piece
    between gust edges stepped on its own, under its wind; returns the
    (p, v, q, w) floats at t1."""
    x, torque = state_floats(state), np.asarray(torque, dtype=float).tolist()
    edges = [e for s, d, _ in wind.gusts for e in (s, s + d)]
    cuts = sorted({state.pose.stamp, t1, *(e for e in edges if state.pose.stamp < e < t1)})
    for a, b in zip(cuts, cuts[1:]):
        n = max(1, round((b - a) / h))
        for _ in range(n):
            x = rigid_step(*x, thrust, torque, wind.wind_at(a), (b - a) / n)
    return x


def record_flight(monkeypatch, wind, duration):
    """(state, thrust, torque) at every IMU tick of a closed-loop spline flight."""
    ticks = []
    step = Simulator.step

    def recording(self, thrust, torque):
        ticks.append((self.state, thrust, np.array(torque, dtype=float)))
        return step(self, thrust, torque)

    monkeypatch.setattr(Simulator, "step", recording)
    # flight_gust's speed plan caps speed and acceleration at 1 m/s and 1 m/s^2
    path = np.array([[0.0, 0.0, 1.0], [1.0, 0.5, 1.2], [2.0, 0.0, 1.0]])
    spline = spline_from_path(path, np.array([0.0, 2.347, 4.694]))
    start = VehicleState(pose=Pose(path[0]))
    run_closed_loop(spline_ref_fn(spline), duration, wind, seed=3, initial_state=start)
    return ticks


class TestRk4Step:
    def test_ticks_of_a_gusty_flight_match_a_fine_euler_reference(self, monkeypatch):
        """One tick is within 2e-7 m and 5e-7 m/s of 1000 Euler steps of
        10 us. The bound is the reference's own first-order error: on this
        flight it reaches 8.6e-8 m and 2.6e-7 m/s, and both double with
        20 us steps, while one RK4 tick is within 1e-11 m and 1e-10 m/s of
        100 RK4 steps of 0.1 ms."""
        # a flight_gust-like gust: from half the spline's duration, off the IMU grid
        wind = WindProfile(gusts=((2.347, 0.5, [0.0, 4.0, 0.0]),))
        ticks = record_flight(monkeypatch, wind, 3.0)
        assert len(ticks) == 300
        edge_ticks = [k for k, (s, _, _) in enumerate(ticks)
                      if any(s.pose.stamp < e < s.pose.stamp + IMU_PERIOD for e in (2.347, 2.847))]
        assert edge_ticks == [234, 284]
        dp = dv = 0.0
        for k in sorted({*range(0, 300, 3), *edge_ticks}):
            state, thrust, torque = ticks[k]
            sim = Simulator(noise=QUIET, wind=wind, initial_state=state)
            sim.step(thrust, torque)
            p, v, _, _ = run_reference(state, thrust, torque, wind, sim.time)
            dp = max(dp, np.abs(sim.state.pose.position - p).max())
            dv = max(dv, np.abs(sim.state.twist.linear - v).max())
        assert dp < 2e-7 and dv < 5e-7

    def test_fourth_order_convergence(self):
        """Over one tick, the error against 100 sub-steps falls about 16x
        per halving of the step."""
        q = np.array([0.9, 0.2, -0.3, 0.25]) / np.linalg.norm([0.9, 0.2, -0.3, 0.25])
        x0 = (0.1, -0.2, 1.0, 2.0, -1.0, 0.5, *q.tolist(), 8.0, -5.0, 3.0)

        def integrate(n):
            x = x0
            for _ in range(n):
                x = _rk4_step(x, 20.0, (0.5, -0.3, 0.2), (3.0, -2.0, 0.5), IMU_PERIOD / n, PARAMS)
            return np.array(x)

        ref = integrate(100)
        errs = [np.abs(integrate(n) - ref).max() for n in (1, 2, 4)]
        assert errs[0] > 1e-9  # well above rounding
        assert errs[0] / errs[1] >= 12 and errs[1] / errs[2] >= 12

    def test_short_gust_inside_one_tick(self):
        """A 3 ms gust inside one tick pushes the hovering vehicle by
        drag * gust * 3 ms / m. The drag's decay of that push within the
        tick is below 1e-3 of it."""
        gust = ((0.0132, 0.003, [2.0, 0.0, 0.0]),)
        calm, gusty = Simulator(noise=QUIET), Simulator(noise=QUIET, wind=WindProfile(gusts=gust))
        for _ in range(2):
            calm.step(PARAMS.hover_thrust, np.zeros(3))
            gusty.step(PARAMS.hover_thrust, np.zeros(3))
        dv = gusty.state.twist.linear - calm.state.twist.linear
        assert dv[0] == pytest.approx(PARAMS.drag * 2.0 * 0.003 / PARAMS.mass, rel=1e-3)
        assert dv[1] == dv[2] == 0.0

    @pytest.mark.parametrize("axis", range(3))
    def test_spin_about_a_principal_axis(self, axis):
        """A torque-free spin at 3 rad/s stays on the closed form
        q(t) = (cos(wt/2), sin(wt/2) axis). RK4 truncates the rotation's
        exponential after its fourth-order term, a phase error of
        (wh/2)^5 / 5! = 6.3e-12 per tick: 6.3e-10 after 100 ticks."""
        w = 3.0 * np.eye(3)[axis]
        sim = Simulator(noise=QUIET, initial_state=VehicleState(twist=Twist(np.zeros(3), w)))
        for _ in range(100):
            sim.step(0.0, np.zeros(3))
        half = 0.5 * 3.0 * sim.time
        q = sim.state.pose.orientation
        np.testing.assert_allclose([q.w, q.x, q.y, q.z],
                                   [math.cos(half), *(math.sin(half) * np.eye(3)[axis])],
                                   rtol=0, atol=1e-9)
        np.testing.assert_array_equal(sim.state.twist.angular, w)


@pytest.mark.parametrize(
    "field",
    ["accel_std", "gyro_std", "bias_walk_std", "pose_pos_std", "pose_rot_std"],
)
@pytest.mark.parametrize("value", [-0.01, NAN, INF])
def test_noise_config_rejects_negative_or_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        NoiseConfig(**{field: value})


@pytest.mark.parametrize(
    "bad",
    [{"mass": 0.0}, {"mass": NAN}, {"mass": INF}, {"inertia": (0.03, NAN, 0.05)},
     {"inertia": (0.03, 0.03, -0.05)}, {"max_thrust": -1.0}, {"max_thrust": NAN},
     {"max_torque": NAN}, {"max_torque": INF}, {"drag": -0.5}, {"drag": NAN}],
)
def test_vehicle_params_reject_values_that_void_the_model(bad):
    with pytest.raises(ValueError):
        VehicleParams(**bad)


def test_vehicle_params_allow_zero_limits_and_drag():
    p = VehicleParams(max_thrust=0.0, max_torque=0.0, drag=0.0)
    assert (p.max_thrust, p.max_torque, p.drag) == (0.0, 0.0, 0.0)
