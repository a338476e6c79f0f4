import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_geometry import wxyz
from test_simulation import orientations, vec

from mavnav.control import (
    Controller,
    ControllerGains,
    desired_attitude,
    integrator_chain_gains,
    place_poles,
)
from mavnav.estimation import NavState
from mavnav.geometry import Quat
from mavnav.simulation import GRAVITY, VehicleParams
from mavnav.trajectory import RefPoint

PARAMS = VehicleParams()
LEVEL = NavState()  # at rest at the origin, level


def float3(v) -> tuple:
    """A 3-vector as the float 3-tuple that `RefPoint` carries."""
    x, y, z = np.asarray(v, dtype=float).tolist()
    return (x, y, z)


def hover_ref(position=(0.0, 0.0, 0.0), heading=0.0):
    z = (0.0, 0.0, 0.0)
    return RefPoint(float3(position), z, z, heading, 0.0, 0.0)


def desired_attitude_oracle(f_vec, heading):
    z_b = f_vec / np.linalg.norm(f_vec)
    x_c = np.array([math.cos(heading), math.sin(heading), 0.0])
    y_b = np.cross(z_b, x_c)
    n = np.linalg.norm(y_b)
    if n < 1e-9:
        y_b = np.array([0.0, 1.0, 0.0])
        n = 1.0
    y_b = y_b / n
    x_b = np.cross(y_b, z_b)
    return np.column_stack([x_b, y_b, z_b])


def controller_step_oracle(ctl, nav, ref, body_rate, dt):
    """`Controller.step` as numpy 3-vector expressions, on a copy of the
    controller's state; returns (thrust, torque, integrator, r_des, freefall)."""
    g, p = ctl.gains, ctl.vehicle
    position, velocity = np.array(nav.position), np.array(nav.velocity)
    ref_p, ref_v, ref_a = map(np.array, (ref.position, ref.velocity, ref.accel))
    e_p = ref_p - position
    e_v = ref_v - velocity
    integrator = np.clip(np.array(ctl.integrator) + e_p * dt, -g.integrator_limit,
                         g.integrator_limit)
    kp = np.array([g.kp_planar, g.kp_planar, g.kp_vertical])
    kd = np.array([g.kd_planar, g.kd_planar, g.kd_vertical])
    a_cmd = ref_a + kp * e_p + kd * e_v + g.ki * integrator
    a_cmd = a_cmd + (p.drag / p.mass) * velocity
    f_vec = a_cmd - GRAVITY
    freefall = bool(np.linalg.norm(f_vec) < -0.1 * GRAVITY[2])
    r_des = ctl.last_r_des if freefall else desired_attitude_oracle(f_vec, ref.heading)

    w, x, y, z = nav.orientation
    r_est = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])
    thrust = p.mass * float(f_vec @ r_est[:, 2])
    thrust = min(max(thrust, 0.0), p.max_thrust)

    e_mat = r_des.T @ r_est - r_est.T @ r_des
    e_rot = 0.5 * np.array([e_mat[2, 1], e_mat[0, 2], e_mat[1, 0]])
    rate = np.asarray(body_rate, dtype=float)
    e_rate = rate - r_est.T @ np.array([0.0, 0.0, ref.heading_rate])
    c1 = np.array([g.att_stiffness, g.att_stiffness, g.kp_yaw])
    c2 = np.array([g.att_damping, g.att_damping, g.kd_yaw])
    inertia = np.asarray(p.inertia)
    torque = inertia * (-c1 * e_rot - c2 * e_rate) + np.cross(rate, inertia * rate)
    torque = np.clip(torque, -p.max_torque, p.max_torque)
    return thrust, torque, integrator, r_des, freefall


def assert_step_matches_oracle(ctl, nav, ref, body_rate, dt=0.01):
    """Steps `ctl` and checks every output and state bit against the oracle."""
    thrust, torque, integrator, r_des, freefall = controller_step_oracle(ctl, nav, ref, body_rate,
                                                                         dt)
    events = ctl.freefall_events
    out = ctl.step(nav, ref, body_rate, dt)
    bits = lambda a: np.asarray(a, dtype=float).tobytes()
    assert bits(out[0]) == bits(thrust)
    assert bits(out[1]) == bits(torque)
    assert bits(ctl.integrator) == bits(integrator)
    assert bits(ctl.last_r_des) == bits(r_des)
    assert ctl.freefall_events == events + freefall
    return out


def ref_point(position, velocity, accel, heading, heading_rate):
    return RefPoint(float3(position), float3(velocity), float3(accel), heading, heading_rate,
                    0.0)


class TestIntegratorChainGains:
    def test_double_pole_at_minus_two(self):
        np.testing.assert_allclose(integrator_chain_gains([-2, -2]), [4.0, 4.0])

    def test_distinct_poles(self):
        np.testing.assert_allclose(integrator_chain_gains([-1, -2]), [2.0, 3.0])

    def test_random_pole_sets_match_companion_eigenvalues(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            poles = -rng.uniform(0.5, 8.0, n)
            if n >= 2 and rng.random() < 0.5:  # include a conjugate pair
                re, im = -rng.uniform(0.5, 4), rng.uniform(0.5, 4)
                poles = np.concatenate([[complex(re, im), complex(re, -im)], poles[2:]])
            gains = integrator_chain_gains(poles)
            a = np.diag(np.ones(n - 1), 1)
            a[-1, :] = -gains
            np.testing.assert_allclose(
                np.sort_complex(np.linalg.eigvals(a)), np.sort_complex(np.asarray(poles, complex)),
                atol=1e-9,
            )

    def test_non_hurwitz_rejected(self):
        with pytest.raises(ValueError):
            integrator_chain_gains([1.0, -2.0])
        with pytest.raises(ValueError):
            place_poles(planar_poles=(0.5, -2.0))


class TestControlStep:
    def test_hover_equilibrium(self):
        ctl = Controller(place_poles(vehicle=PARAMS), PARAMS)
        thrust, torque = ctl.step(LEVEL, hover_ref(), np.zeros(3), 0.01)
        assert thrust == pytest.approx(PARAMS.mass * 9.81, abs=1e-9)
        np.testing.assert_allclose(torque, 0.0, atol=1e-9)

    def test_positive_x_error_tilts_body_z_forward(self):
        ctl = Controller(place_poles(vehicle=PARAMS), PARAMS)
        thrust, torque = ctl.step(LEVEL, hover_ref(position=(1.0, 0, 0)), np.zeros(3), 0.01)
        assert ctl.last_r_des[0, 2] > 0.0  # commanded body z leans toward +x
        assert torque[1] > 0.0  # positive pitch torque

    def test_freefall_singularity_holds_attitude(self):
        ctl = Controller(place_poles(vehicle=PARAMS), PARAMS)
        ctl.step(LEVEL, hover_ref(position=(1.0, 0, 0)), np.zeros(3), 0.01)
        held = ctl.last_r_des.copy()
        z = (0.0, 0.0, 0.0)
        falling = RefPoint(z, z, (0.0, 0.0, -9.81), 0.0, 0.0, 0.0)
        ctl.step(LEVEL, falling, np.zeros(3), 0.01)
        assert ctl.freefall_events == 1
        np.testing.assert_array_equal(ctl.last_r_des, held)

    def test_integrator_stays_clamped(self):
        gains = place_poles(vehicle=PARAMS, integrator_limit=0.5)
        ctl = Controller(gains, PARAMS)
        for _ in range(10000):
            ctl.step(LEVEL, hover_ref(position=(5.0, -5.0, 5.0)), np.zeros(3), 0.01)
        assert np.all(np.abs(ctl.integrator) <= 0.5 + 1e-12)

    def test_thrust_clamped(self):
        ctl = Controller(place_poles(vehicle=PARAMS), PARAMS)
        thrust, _ = ctl.step(NavState(position=(0.0, 0.0, -50.0)), hover_ref(), np.zeros(3), 0.01)
        assert thrust <= PARAMS.max_thrust

    def test_desired_attitude_orthonormal(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            f = rng.normal(size=3)
            f[2] = abs(f[2]) + 2.0
            r = desired_attitude(f / np.linalg.norm(f), rng.uniform(-math.pi, math.pi))
            np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


class TestControlKernel:
    @given(vec(20.0), vec(5.0), orientations, vec(20.0), vec(5.0), vec(10.0),
           st.floats(-4.0, 4.0), st.one_of(st.just(0.0), st.floats(-3.0, 3.0)), vec(10.0),
           vec(3.0))
    @settings(max_examples=400, deadline=None)
    def test_kernel_matches_oracle(self, p, v, q, rp, rv, ra, heading, heading_rate, rate, integ):
        ctl = Controller(place_poles(vehicle=PARAMS, integrator_limit=2.0), PARAMS)
        ctl.integrator = tuple(integ.tolist())
        nav = NavState(p.tolist(), v.tolist(), wxyz(q))
        ref = ref_point(rp, rv, ra, heading, heading_rate)
        for _ in range(3):  # the integrator and the held attitude carry over
            assert_step_matches_oracle(ctl, nav, ref, rate)

    def test_kernel_matches_oracle_on_each_branch(self):
        ctl = Controller(place_poles(vehicle=PARAMS, integrator_limit=0.5), PARAMS)
        # half turns: w == 0 exactly
        for q in [(0.0, -0.6, 0.8, 0.0), (0.0, 0.0, 0.0, 1.0), (0.0, 1.0, 0.0, 0.0)]:
            nav = NavState((0.3, -0.2, 0.1), orientation=q)
            ref = ref_point([1, 2, 0], [0, 0, 1], [0, 1, 0], 0.4, 0.2)
            assert_step_matches_oracle(ctl, nav, ref, [0.1, -0.3, 0.2])
        # freefall: the commanded force vanishes, the last attitude is held
        held = ctl.last_r_des.copy()
        falling = ref_point(np.zeros(3), np.zeros(3), GRAVITY, 1.0, 0.5)
        assert_step_matches_oracle(ctl, LEVEL, falling, [0.2, 0.0, 0.0])
        assert ctl.freefall_events == 1 and np.array_equal(ctl.last_r_des, held)
        # clamped thrust, both ends, and clamped torque on every axis
        thrust, torque = assert_step_matches_oracle(
            ctl, LEVEL, ref_point([0, 0, 50], [0, 0, 10], [0, 0, 30], 0.0, 0.0), [60, -60, 60])
        assert thrust == PARAMS.max_thrust and np.all(np.abs(torque) == PARAMS.max_torque)
        upside_down = NavState(orientation=(0.0, 1.0, 0.0, 0.0))
        thrust, _ = assert_step_matches_oracle(ctl, upside_down, hover_ref(), np.zeros(3))
        assert thrust == 0.0
        # thrust along the heading axis: world y is the fallback
        fresh = Controller(place_poles(vehicle=PARAMS), PARAMS)
        along_x = ref_point(np.zeros(3), np.zeros(3), [5.0, 0.0, -9.81], 0.0, 0.0)
        assert_step_matches_oracle(fresh, LEVEL, along_x, np.zeros(3))
        np.testing.assert_array_equal(fresh.last_r_des[:, 1], [0.0, 1.0, 0.0])
        # a saturated integrator
        for _ in range(200):
            assert_step_matches_oracle(ctl, LEVEL, hover_ref(position=(5.0, -5.0, 5.0)),
                                       np.zeros(3))
        assert ctl.integrator == (0.5, -0.5, 0.5)

    @pytest.mark.parametrize("where", ["position", "velocity", "ref_position", "ref_velocity",
                                       "ref_accel", "heading", "heading_rate", "body_rate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_input_rejected(self, where, value):
        ctl = Controller(place_poles(vehicle=PARAMS), PARAMS)
        ctl.step(LEVEL, hover_ref(position=(1.0, 0.0, 0.0)), np.zeros(3), 0.01)
        state = (ctl.integrator, ctl.last_r_des.copy(), ctl.freefall_events)
        bad = [0.0, value, 0.0]
        nav = NavState(position=bad if where == "position" else (0.0, 0.0, 0.0),
                       velocity=bad if where == "velocity" else (0.0, 0.0, 0.0))
        ref = ref_point(bad if where == "ref_position" else np.zeros(3),
                        bad if where == "ref_velocity" else np.zeros(3),
                        bad if where == "ref_accel" else np.zeros(3),
                        value if where == "heading" else 0.0,
                        value if where == "heading_rate" else 0.0)
        rate = bad if where == "body_rate" else np.zeros(3)
        with pytest.raises(ValueError, match="non-finite"):
            ctl.step(nav, ref, rate, 0.01)
        assert ctl.integrator == state[0] and ctl.freefall_events == state[2]
        np.testing.assert_array_equal(ctl.last_r_des, state[1])


class TestClosedLoopEigenvalues:
    def _closed_loop_jacobian(self, gains, params):
        """Central-difference Jacobian of the continuous closed loop about
        hover: state (p, v, rotvec, omega), truth feedback, no integrator."""
        ctl = Controller(gains, params)
        ref = hover_ref()
        inertia = np.asarray(params.inertia)
        g_vec = np.array([0.0, 0.0, -9.81])

        def deriv(x):
            p, v, rv, w = x[:3], x[3:6], x[6:9], x[9:12]
            q = Quat.from_rotvec(rv)
            ctl.integrator = np.zeros(3)
            thrust, torque = ctl.step(NavState(p.tolist(), v.tolist(), wxyz(q)), ref, w, 1e-6)
            r = q.to_matrix()
            dv = thrust * r[:, 2] / params.mass + g_vec - params.drag / params.mass * v
            dw = (torque - np.cross(w, inertia * w)) / inertia
            return np.concatenate([v, dv, w, dw])

        n = 12
        jac = np.zeros((n, n))
        eps = 1e-6
        for i in range(n):
            dx = np.zeros(n)
            dx[i] = eps
            jac[:, i] = (deriv(dx) - deriv(-dx)) / (2 * eps)
        return jac

    def test_eigenvalues_match_configured_poles(self):
        gains = place_poles(
            planar_poles=(-2.0, -2.5), attitude_poles=(-15.0, -16.0),
            vehicle=PARAMS, ki=0.0,
        )
        jac = self._closed_loop_jacobian(gains, PARAMS)
        eig = np.sort(np.linalg.eigvals(jac).real)
        expected = np.sort(
            [-2.0, -2.5, -15.0, -16.0] * 2  # two planar axes
            + [-2.0, -2.5]  # vertical
            + [-15.0, -16.0]  # yaw
        )
        imag = np.abs(np.linalg.eigvals(jac).imag)
        assert np.max(imag) < 0.05
        np.testing.assert_allclose(eig, expected, rtol=0.02)
