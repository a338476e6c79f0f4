import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_geometry import from_rotvec_oracle, mul_oracle, normalized_oracle, rotate_oracle, wxyz
from test_simulation import orientations, rates, sample_imu, vec

from mavnav.estimation import (
    MAX_GATE_REJECTS,
    FilterError,
    FusionWeights,
    NavFilter,
    NavState,
    _imu_of,
    _predict,
    riccati_gain,
    steady_state,
)
from mavnav.geometry import Pose, Quat, quat_from_axis_angle
from mavnav.simulation import (
    GRAVITY,
    ImuSample,
    NoiseConfig,
    PoseMeasurement,
    Simulator,
    VehicleParams,
    VehicleState,
    sample_pose_sensor,
)

QUIET = NoiseConfig(accel_std=0, gyro_std=0, bias_walk_std=0, pose_pos_std=0, pose_rot_std=0)
GRAV = np.array([0.0, 0.0, -9.81])


def imu_at(t, f=(0.0, 0.0, 9.81), w=(0.0, 0.0, 0.0)):
    return ImuSample(t, np.asarray(f, dtype=float), np.asarray(w, dtype=float))


def predict(x: NavState, imu: ImuSample) -> NavState:
    """One Euler prediction of `x` on `imu`, as `NavFilter.predict` makes
    it: the filter's kernel, without the filter."""
    return _predict(x, *_imu_of(imu))


def predict_oracle(x, imu):
    """`predict` as numpy 3-vector expressions with the numpy quaternion
    oracles; returns (p, v, q), q a (w, x, y, z) tuple."""
    dt = imu.stamp - x.stamp
    rate = np.asarray(imu.angular_rate, dtype=float) - np.array(x.gyro_bias)
    q = normalized_oracle(mul_oracle(x.orientation, from_rotvec_oracle(rate * dt)))
    f = np.asarray(imu.specific_force, dtype=float) - np.array(x.accel_bias)
    v = np.array(x.velocity) + (rotate_oracle(q, f) + GRAVITY) * dt
    p = np.array(x.position) + v * dt
    return p, v, q


def assert_predict_matches_oracle(x, imu):
    out = predict(x, imu)
    p, v, q = predict_oracle(x, imu)
    assert np.array(out.position).tobytes() == p.tobytes()
    assert np.array(out.velocity).tobytes() == v.tobytes()
    assert tuple(out.orientation) == q
    assert out.stamp == imu.stamp
    assert out.accel_bias == x.accel_bias and out.gyro_bias == x.gyro_bias
    return out


class TestPredict:
    @given(vec(100.0), vec(20.0), orientations, vec(1.0), vec(0.1), vec(50.0), rates,
           st.sampled_from([0.001, 0.01, 0.02]))
    @settings(max_examples=400, deadline=None)
    def test_kernel_matches_oracle(self, p, v, q, accel_bias, gyro_bias, force, rate, dt):
        x = NavState(p.tolist(), v.tolist(), wxyz(q), accel_bias.tolist(), gyro_bias.tolist(), 0.25)
        assert_predict_matches_oracle(x, ImuSample(0.25 + dt, force, rate + gyro_bias))

    def test_kernel_matches_oracle_on_half_turns(self):
        # w == 0 exactly with no net increment, and the canonical sign makes
        # the largest component positive
        for q in [(0.0, -0.6, 0.8, 0.0), (0.0, 0.0, -0.8, 0.6), (0.0, 1.0, 0.0, 0.0)]:
            x = NavState((1.0, 1.0, 1.0), (1.0, 1.0, 1.0), q, gyro_bias=(0.1, -0.2, 0.3))
            out = assert_predict_matches_oracle(x, imu_at(0.01, w=[0.1, -0.2, 0.3]))
            w, *xyz = out.orientation
            assert w == 0.0 and max(xyz, key=abs) > 0
        # the first-order rotvec branch: an increment below 1e-12 rad
        assert_predict_matches_oracle(NavState(), imu_at(0.001, w=[3e-10, -1e-10, 2e-10]))

    def test_stationary_equilibrium(self):
        x = NavState()
        for k in range(1, 101):
            x = predict(x, imu_at(0.01 * k))
        np.testing.assert_allclose(x.position, 0.0, atol=1e-12)
        np.testing.assert_allclose(x.velocity, 0.0, atol=1e-12)

    def test_constant_accel_euler_sum(self):
        x = NavState()
        for k in range(1, 101):
            x = predict(x, imu_at(0.01 * k, f=(1.0, 0.0, 9.81)))
        assert x.velocity[0] == pytest.approx(1.0, abs=1e-12)
        assert x.position[0] == pytest.approx(0.505, abs=1e-12)

    def test_gyro_yaw_integration(self):
        x = NavState()
        rate = (0.0, 0.0, math.pi / 2)
        for k in range(1, 101):
            x = predict(x, imu_at(0.01 * k, w=rate))
        quarter_turn = Quat(*quat_from_axis_angle([0.0, 0.0, 1.0], math.pi / 2))
        assert Quat(*x.orientation).angle_to(quarter_turn) < math.radians(0.5)
        # oracle: same integration at dt = 1e-5
        q = Quat.identity()
        for _ in range(100000):
            q = (q * Quat.from_rotvec(np.array(rate) * 1e-5)).normalized()
        assert Quat(*x.orientation).angle_to(q) < math.radians(0.5)

    def test_non_monotonic_stamp_rejected(self):
        with pytest.raises(FilterError):
            predict(NavState(stamp=1.0), imu_at(0.5))

    @pytest.mark.parametrize("bad", [
        imu_at(0.06, f=(0.0, math.nan, 9.81)), imu_at(0.06, f=(math.inf, 0.0, 9.81)),
        imu_at(0.06, w=(0.0, 0.0, math.nan)), imu_at(0.06, w=(-math.inf, 0.0, 0.0)),
        imu_at(math.nan),
    ])
    def test_non_finite_sample_rejected_and_filter_unchanged(self, bad):
        filt = make_filter()
        for k in range(1, 6):
            filt.predict(imu_at(0.01 * k, w=(0.1, 0.0, 0.2)))
        before, buffer = filt.state, list(filt.buffer)
        with pytest.raises(ValueError):
            filt.predict(bad)
        assert filt.state is before
        assert list(filt.buffer) == buffer
        filt.predict(imu_at(0.06))  # the filter goes on from where it was
        assert filt.state.stamp == 0.06


def make_filter(weights=None, gate_stds=None, initial=NavState()):
    w = weights or FusionWeights(0.3, 0.05, 0.3, 0.01, 0.01)
    return NavFilter(initial, w, gate_stds)


class TestInitialState:
    @pytest.mark.parametrize("field", NavState._fields)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, field, value):
        """Every float of the initial state is checked: position, velocity,
        orientation, both biases and the stamp."""
        rest = getattr(NavState(), field)
        bad = value if field == "stamp" else (*rest[:-1], value)
        with pytest.raises(ValueError, match="initial state"):
            make_filter(initial=NavState()._replace(**{field: bad}))


class TestCorrect:
    def test_zero_innovation_equals_prediction(self):
        filt = make_filter()
        plain = NavState()
        for k in range(1, 31):
            filt.predict(imu_at(0.01 * k))
            plain = predict(plain, imu_at(0.01 * k))
        snap_pose = Pose(np.zeros(3), Quat.identity(), 0.2)
        meas = PoseMeasurement(0.2, 0.3, snap_pose)
        filt.correct(meas)
        out = filt.state
        np.testing.assert_allclose(out.position, plain.position, atol=1e-12)
        np.testing.assert_allclose(out.velocity, plain.velocity, atol=1e-12)
        assert Quat(*out.orientation).angle_to(Quat(*plain.orientation)) < 1e-12

    def test_full_trust_snaps_to_measurement(self):
        filt = NavFilter(NavState(), FusionWeights(1.0, 0.0, 1.0, 0.0, 0.0))
        for k in range(1, 31):
            filt.predict(imu_at(0.01 * k))
        target = Pose(
            np.array([0.4, -0.2, 0.1]), Quat(*quat_from_axis_angle([0.0, 0.0, 1.0], 0.3)), 0.3
        )
        filt.correct(PoseMeasurement(0.3, 0.3, target))
        out = filt.state
        np.testing.assert_allclose(out.position, target.position, atol=1e-9)
        assert Quat(*out.orientation).angle_to(target.orientation) < 1e-9

    def test_stale_measurement_dropped_and_counted(self):
        filt = make_filter()
        for k in range(1, 101):
            filt.predict(imu_at(0.01 * k))
        before = filt.state
        filt.correct(PoseMeasurement(0.1, 1.0, Pose(np.ones(3), Quat.identity(), 0.1)))
        assert filt.dropped_stale == 1
        assert filt.state is before

    def test_first_measurement_anchors_on_initial_estimate(self):
        """A measurement captured at the start stamp is blended into the
        initial estimate and replayed, as if it had arrived at once."""
        pose = Pose(
            np.array([0.2, -0.1, 0.05]), Quat(*quat_from_axis_angle([0.0, 0.0, 1.0], 0.1)), 0.0
        )
        delayed = make_filter()
        for k in range(1, 11):
            delayed.predict(imu_at(0.01 * k))
        delayed.correct(PoseMeasurement(0.0, 0.1, pose))
        immediate = make_filter()
        immediate.correct(PoseMeasurement(0.0, 0.0, pose))
        for k in range(1, 11):
            immediate.predict(imu_at(0.01 * k))
        assert delayed.dropped_stale == 0 and immediate.dropped_stale == 0
        np.testing.assert_allclose(delayed.state.position, immediate.state.position, atol=1e-12)
        np.testing.assert_allclose(delayed.state.velocity, immediate.state.velocity, atol=1e-12)
        assert delayed.state.position[0] > 0.05  # the measurement moved it

    def test_matches_full_history_refilter_oracle(self):
        """Replay correction == reprocessing the whole history offline."""
        rng = np.random.default_rng(3)
        w = FusionWeights(0.25, 0.04, 0.2, 0.015, 0.01)
        imus = []
        for k in range(1, 201):  # 2 s of wavy IMU data
            t = 0.01 * k
            f = np.array([0.3 * math.sin(t * 3), -0.2 * math.cos(t * 2), 9.81 + 0.1 * math.sin(t)])
            gyro = np.array([0.05 * math.sin(t), 0.04 * math.cos(t * 1.7), 0.3])
            imus.append(ImuSample(t, f, gyro))
        measurements = []
        for k in range(1, 19):
            t_cap = 0.1 * k
            pose = Pose(rng.normal(0, 0.3, 3), Quat.from_rotvec(rng.normal(0, 0.1, 3)), t_cap)
            measurements.append(PoseMeasurement(t_cap, t_cap + 0.1, pose))

        filt = NavFilter(NavState(), w)
        meas_iter = iter(measurements)
        pending = next(meas_iter, None)
        for imu in imus:
            filt.predict(imu)
            if pending and abs(imu.stamp - pending.delivery_stamp) < 1e-9:
                filt.correct(pending)
                pending = next(meas_iter, None)
        final = filt.state

        # oracle: offline pass applying each blend at its capture time
        def blend(x, meas):
            orientation = Quat(*x.orientation)
            innov = meas.pose.position - np.array(x.position)
            p = np.array(x.position) + w.position * innov
            v = np.array(x.velocity) + (w.velocity / 0.1) * innov
            rel = (orientation.conjugate() * meas.pose.orientation).normalized()
            step = Quat.from_rotvec(w.orientation * rel.as_rotvec())
            q = (orientation * step).normalized()
            rot_in = (orientation.conjugate() * meas.pose.orientation).as_rotvec()
            r_t = orientation.to_matrix().T
            ba = np.array(x.accel_bias) - w.accel_bias * (r_t @ innov)
            bg = np.array(x.gyro_bias) - w.gyro_bias * rot_in
            return NavState(p.tolist(), v.tolist(), wxyz(q), ba.tolist(), bg.tolist(), x.stamp)

        oracle = NavState()
        applied = [m for m in measurements if m.delivery_stamp <= imus[-1].stamp + 1e-9]
        mi = 0
        for imu in imus:
            oracle = predict(oracle, imu)
            while mi < len(applied) and abs(applied[mi].capture_stamp - imu.stamp) < 1e-9:
                oracle = blend(oracle, applied[mi])
                mi += 1

        np.testing.assert_allclose(final.position, oracle.position, atol=1e-9)
        np.testing.assert_allclose(final.velocity, oracle.velocity, atol=1e-9)
        np.testing.assert_allclose(final.accel_bias, oracle.accel_bias, atol=1e-9)
        assert Quat(*final.orientation).angle_to(Quat(*oracle.orientation)) < 1e-9


class TestInnovationGate:
    GATE_STDS = (0.01, 0.01)  # band: 5 * 0.01 * sqrt(3) = 0.087 m and rad
    WEIGHTS = FusionWeights(0.3, 0.0, 0.3, 0.0, 0.0)  # no velocity kick: p moves only on updates

    @staticmethod
    def _measure(filt, position, orientation=Quat.identity()):
        """Ten stationary IMU ticks, then a pose measurement at the new
        stamp; the estimate after it."""
        t0 = filt.state.stamp
        for k in range(1, 11):
            filt.predict(imu_at(t0 + 0.01 * k))
        t = filt.state.stamp
        pose = Pose(np.asarray(position, dtype=float), orientation, t)
        filt.correct(PoseMeasurement(t, t, pose))
        return filt.state

    @pytest.mark.parametrize(
        "outlier",
        [([1.0, 0.0, 0.0], Quat.identity()),
         ([0.0, 0.0, 0.0], Quat(*quat_from_axis_angle([0.0, 0.0, 1.0], 0.5)))],
        ids=["position_1m", "yaw_0.5rad"],
    )
    def test_single_outlier_dropped_and_counted(self, outlier):
        filt = make_filter(self.WEIGHTS, self.GATE_STDS)
        self._measure(filt, [0.01, 0.0, 0.0])  # inside the band: applied
        assert filt.state.position[0] == pytest.approx(0.003)
        out = self._measure(filt, *outlier)
        assert filt.dropped_gated == 1
        assert out.position[0] == pytest.approx(0.003)
        assert Quat(*out.orientation).angle_to(Quat.identity()) < 1e-12
        self._measure(filt, [0.01, 0.0, 0.0])  # the next good one is applied
        assert filt.dropped_gated == 1
        assert filt.state.position[0] == pytest.approx(0.0051)

    def test_persistent_offset_opens_then_closes_gate(self):
        filt = make_filter(self.WEIGHTS, self.GATE_STDS)
        offset = [1.0, 0.0, 0.0]
        for _ in range(MAX_GATE_REJECTS):
            self._measure(filt, offset)
        assert filt.dropped_gated == MAX_GATE_REJECTS
        np.testing.assert_array_equal(filt.state.position, np.zeros(3))
        # that many drops in a row mean the filter is off: the gate opens
        self._measure(filt, offset)
        assert filt.dropped_gated == MAX_GATE_REJECTS
        assert filt.state.position[0] == pytest.approx(0.3)
        # it stays open while the innovation (0.7, 0.49, ... m) is outside the band
        for _ in range(10):
            self._measure(filt, offset)
        assert filt.dropped_gated == MAX_GATE_REJECTS
        assert filt.state.position[0] == pytest.approx(1.0 - 0.7**11)
        # back inside the band the gate has closed: a lone outlier is dropped again
        before = filt.state.position
        self._measure(filt, [0.0, 0.0, 0.0])
        assert filt.dropped_gated == MAX_GATE_REJECTS + 1
        np.testing.assert_array_equal(filt.state.position, before)

    def test_without_gate_stds_nothing_is_gated(self):
        filt = make_filter(self.WEIGHTS)
        for k in range(20):
            target = 10.0 * (-1.0) ** k
            before = filt.state.position[0]
            out = self._measure(filt, [target, 0.0, 0.0], Quat(*quat_from_axis_angle([0, 0, 1], 3.0)))
            assert out.position[0] == pytest.approx(before + 0.3 * (target - before))
        assert filt.dropped_gated == 0

    @pytest.mark.parametrize(
        "stds", [(0.0, 0.01), (-0.01, 0.01), (float("nan"), 0.01), (0.01, float("inf"))]
    )
    def test_gate_stds_must_be_finite_and_positive(self, stds):
        with pytest.raises(ValueError, match="gate"):
            make_filter(self.WEIGHTS, stds)


class TestSteadyStateWeights:
    def test_scalar_matches_closed_form(self):
        k, _ = riccati_gain([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        s = (1.0 + math.sqrt(5.0)) / 2.0
        assert k[0, 0] == pytest.approx(s / (s + 1.0), abs=1e-6)

    def test_perfect_sensor_limit(self):
        noise = NoiseConfig(pose_pos_std=1e-9)
        w = steady_state(noise)[0]
        assert w.position > 0.999

    def test_perfect_model_limit(self):
        # position weight falls toward 0 as process noise shrinks
        levels = [1e-3, 1e-4, 1e-5, 1e-6]
        ws = [
            steady_state(NoiseConfig(accel_std=a, gyro_std=a, bias_walk_std=a * 1e-2))[0].position
            for a in levels
        ]
        assert all(b < a for a, b in zip(ws, ws[1:]))
        assert ws[-1] < 0.01

    def test_slow_chain_gain_is_the_fixed_point(self):
        # 4e5 updates of the recursion converge to 0.0029365301230; a stop on an absolute
        # 1e-12 change of the gain per update halts this slow chain early, at 0.0029466
        noise = NoiseConfig(accel_std=1e-6, gyro_std=1e-6, bias_walk_std=1e-8)
        assert steady_state(noise)[0].position == pytest.approx(0.0029365301230, rel=1e-9)

    def test_weights_in_range(self):
        w = steady_state(NoiseConfig())[0]
        for v in (w.position, w.velocity, w.orientation, w.accel_bias, w.gyro_bias):
            assert 0.0 <= v <= 1.0
        assert w.accel_bias <= 0.05 and w.gyro_bias <= 0.05

    @pytest.mark.parametrize(
        "field", ["position", "velocity", "orientation", "accel_bias", "gyro_bias"]
    )
    @pytest.mark.parametrize("value", [1.5, -0.1])
    def test_weight_validation(self, field, value):
        with pytest.raises(ValueError, match=field):
            FusionWeights(**{field: value})


def _drive_sensors(duration, noise, seed, truth_bias=None):
    """Stationary truth; yields (imu, meas) streams like the simulator."""
    rng = np.random.default_rng(seed)
    truth = VehicleState()
    if truth_bias is not None:
        truth.accel_bias = np.asarray(truth_bias, dtype=float)
    events = []
    n = int(round(duration / 0.01))
    for k in range(1, n + 1):
        t = k * 0.01
        truth.pose = Pose(truth.pose.position, truth.pose.orientation, t)
        imu, ab, gb = sample_imu(truth, np.zeros(3), noise, rng)
        truth.accel_bias, truth.gyro_bias = ab, gb
        meas = None
        if k % 10 == 0 and t >= 0.1:
            meas = sample_pose_sensor(truth.pose, t, noise, rng)
        events.append((imu, meas))
    return events, truth


class TestFilterBehaviour:
    def test_delay_equivalence_zero_noise(self):
        """After each correction the delayed filter matches a zero-delay
        filter that received the same measurements at their capture times."""
        sim = Simulator(noise=QUIET, seed=0)
        params = VehicleParams()
        imus = []
        by_capture = {}
        by_delivery = {}
        while sim.time < 3.0 - 1e-9:
            t = sim.time
            thrust = params.hover_thrust + 0.3 * math.sin(2.0 * t)
            torque = np.array([0.002 * math.sin(t), -0.002 * math.cos(1.3 * t), 0.001])
            imu, meas = sim.step(thrust, torque)
            if imu is not None:
                imus.append(imu)
            if meas is not None and meas.capture_stamp >= 0.1 - 1e-9:
                by_capture[round(meas.capture_stamp, 6)] = meas
                by_delivery[round(meas.delivery_stamp, 6)] = meas

        w = FusionWeights(0.3, 0.05, 0.3, 0.0, 0.0)
        delayed = NavFilter(NavState(), w)
        immediate = NavFilter(NavState(), w)
        compared = 0
        for imu in imus:
            delayed.predict(imu)
            immediate.predict(imu)
            key = round(imu.stamp, 6)
            if key in by_delivery:
                delayed.correct(by_delivery[key])
                np.testing.assert_allclose(delayed.state.position, immediate.state.position,
                                           atol=1e-6)
                compared += 1
            if key in by_capture:
                m = by_capture[key]
                immediate.correct(PoseMeasurement(m.capture_stamp, m.capture_stamp, m.pose))
        assert compared >= 25

    def test_bias_observability(self):
        noise = NoiseConfig()
        events, truth = _drive_sensors(30.0, noise, seed=5, truth_bias=[0.1, 0.0, 0.0])
        filt = NavFilter(NavState(), *steady_state(noise))
        for imu, meas in events:
            filt.predict(imu)
            if meas is not None:
                filt.correct(meas)
        assert filt.state.accel_bias[0] == pytest.approx(0.1, rel=0.2)

    def test_filter_beats_dead_reckoning(self):
        noise = NoiseConfig()
        events, _ = _drive_sensors(60.0, noise, seed=11)
        filt = NavFilter(NavState(), *steady_state(noise))
        dead = NavState()
        filt_err, dead_err = [], []
        for imu, meas in events:
            filt.predict(imu)
            dead = predict(dead, imu)
            if meas is not None:
                filt.correct(meas)
            filt_err.append(np.linalg.norm(filt.state.position))
            dead_err.append(np.linalg.norm(dead.position))
        rms = lambda e: math.sqrt(np.mean(np.square(e)))
        assert rms(filt_err) * 10.0 <= rms(dead_err)

    def test_orientation_unit_norm_many_predictions(self):
        rng = np.random.default_rng(2)
        x = NavState()
        rates = rng.normal(0, 0.5, (100_000, 3))
        for k in range(100_000):
            x = predict(x, imu_at(0.01 * (k + 1), w=rates[k]))
        assert abs(math.sqrt(sum(c * c for c in x.orientation)) - 1.0) < 1e-9
