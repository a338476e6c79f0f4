import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mavnav.estimation import FusionWeights, NavEstimate, NavFilter
from mavnav.geometry import (
    Pose,
    Quat,
    compose,
    cross3,
    inverse,
    quat_from_axis_angle,
)
from mavnav.simulation import PoseMeasurement

RNG = np.random.default_rng(12345)


def random_quat(rng) -> Quat:
    v = rng.normal(size=4)
    return Quat(*v).normalized()


def random_pose(rng, stamp=0.0) -> Pose:
    return Pose(rng.normal(size=3) * 5.0, random_quat(rng), stamp)


def mat_oracle_compose(a: Pose, b: Pose) -> np.ndarray:
    # independent 4x4 homogeneous-matrix route
    return a.matrix() @ b.matrix()


unit_quats = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).filter(lambda t: sum(x * x for x in t) > 1e-4).map(lambda t: Quat(*t).normalized())
unit_axes = st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)).filter(
    lambda t: sum(x * x for x in t) > 1e-4
).map(lambda t: np.array(t) / np.linalg.norm(t))


# -- numpy oracles of the plain-float kernels ------------------------------
# Quaternion operations as numpy expressions on (w, x, y, z) tuples: np.cross
# for the rotation, np.linalg.norm for the norms. The kernels behind `Quat`
# and the simulator must match them bit for bit.


def normalized_oracle(q) -> tuple:
    w, x, y, z = q
    n = math.sqrt(w**2 + x**2 + y**2 + z**2)
    if n < 1e-12:
        return (1.0, 0.0, 0.0, 0.0)
    w, x, y, z = w / n, x / n, y / n, z / n
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    elif w == 0.0:
        comps = (x, y, z)
        lead = max(range(3), key=lambda i: (abs(comps[i]), -i))
        if comps[lead] < 0.0:
            x, y, z = -x, -y, -z
    return (w, x, y, z)


def mul_oracle(a, b) -> tuple:
    """Hamilton product, renormalized."""
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return normalized_oracle((
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ))


def rotate_oracle(q, v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    qv = np.array(q[1:])
    t = 2.0 * np.cross(qv, v)
    return v + q[0] * t + np.cross(qv, t)


def from_rotvec_oracle(rv) -> tuple:
    rv = np.asarray(rv, dtype=float)
    angle = float(np.linalg.norm(rv))
    if angle < 1e-12:
        return normalized_oracle((1.0, 0.5 * rv[0], 0.5 * rv[1], 0.5 * rv[2]))
    axis = rv / angle
    half = 0.5 * angle
    s = math.sin(half) / float(np.linalg.norm(axis))
    return normalized_oracle((math.cos(half), axis[0] * s, axis[1] * s, axis[2] * s))


def wxyz(q: Quat) -> tuple:
    return (q.w, q.x, q.y, q.z)


vec3 = st.tuples(*[st.floats(-1e3, 1e3)] * 3)
any_quat = st.tuples(*[st.floats(-2, 2)] * 4).map(lambda t: Quat(*t))
# half turns (w == 0) with every sign, and increments on both sides of the
# first-order branch of from_rotvec
half_turns = st.tuples(*[st.floats(-1, 1)] * 3).filter(lambda t: any(t)).map(
    lambda t: Quat(0.0, *t))
rotvecs = st.one_of(
    vec3, st.tuples(*[st.floats(-1e-12, 1e-12)] * 3), st.tuples(*[st.floats(-10, 10)] * 3))


class TestFloatKernels:
    @given(vec3, vec3)
    @settings(max_examples=300, deadline=None)
    def test_cross3_matches_np_cross(self, a, b):
        assert np.array_equal(cross3(a, b), np.cross(a, b))
        assert np.array_equal(cross3(np.array(a), np.array(b)), np.cross(a, b))

    @given(st.one_of(any_quat, half_turns, st.just(Quat(0.0, 0.0, 0.0, 0.0))))
    # a norm that `w * w + ...` rounds one ulp lower than `w**2 + ...`
    @example(Quat(0.49688105075161415, 0.06962652926561641, 0.29925244866351175,
                  -0.40871367419338345))
    @settings(max_examples=300, deadline=None)
    def test_normalized_matches_oracle(self, q):
        assert wxyz(q.normalized()) == normalized_oracle(wxyz(q))

    @given(st.one_of(any_quat, half_turns), st.one_of(any_quat, half_turns))
    @settings(max_examples=300, deadline=None)
    def test_mul_matches_oracle(self, a, b):
        assert wxyz(a * b) == mul_oracle(wxyz(a), wxyz(b))

    @given(st.one_of(any_quat, half_turns), vec3)
    @settings(max_examples=300, deadline=None)
    def test_rotate_matches_oracle(self, q, v):
        assert np.array_equal(q.rotate(v), rotate_oracle(wxyz(q), v))

    @given(rotvecs)
    @settings(max_examples=300, deadline=None)
    def test_from_rotvec_matches_oracle(self, rv):
        assert wxyz(Quat.from_rotvec(rv)) == from_rotvec_oracle(rv)

    def test_half_turn_sign_is_canonical(self):
        assert wxyz(Quat(0.0, -0.6, 0.8, 0.0).normalized()) == (0.0, -0.6, 0.8, 0.0)
        assert wxyz(Quat(0.0, 0.0, -0.8, 0.6).normalized()) == (0.0, 0.0, 0.8, -0.6)


class TestQuat:
    def test_normalized_unit_and_canonical(self):
        q = Quat(-0.3, 0.5, -0.7, 0.2).normalized()
        n = math.sqrt(q.w**2 + q.x**2 + q.y**2 + q.z**2)
        assert abs(n - 1.0) < 1e-9
        assert q.w >= 0.0

    def test_mul_matches_matrix_product(self):
        for _ in range(50):
            a, b = random_quat(RNG), random_quat(RNG)
            np.testing.assert_allclose(
                (a * b).to_matrix(), a.to_matrix() @ b.to_matrix(), atol=1e-12
            )

    def test_rotate_matches_matrix(self):
        for _ in range(50):
            q = random_quat(RNG)
            v = RNG.normal(size=3)
            np.testing.assert_allclose(q.rotate(v), q.to_matrix() @ v, atol=1e-12)

    def test_rotvec_roundtrip(self):
        for _ in range(50):
            rv = RNG.normal(size=3)
            rv *= RNG.uniform(0, 3.0) / np.linalg.norm(rv)
            np.testing.assert_allclose(Quat.from_rotvec(rv).as_rotvec(), rv, atol=1e-9)

    @given(unit_quats)
    @settings(max_examples=200, deadline=None)
    def test_norm_invariant(self, q):
        n = math.sqrt(q.w**2 + q.x**2 + q.y**2 + q.z**2)
        assert abs(n - 1.0) < 1e-9
        assert q.w >= 0.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            Quat(1.0, 0.0, bad, 0.0)

    @given(unit_quats)
    @settings(max_examples=200, deadline=None)
    def test_from_matrix_roundtrip(self, q):
        m = q.to_matrix()
        np.testing.assert_allclose(Quat.from_matrix(m).to_matrix(), m, atol=1e-12)

    @given(unit_axes, st.floats(-1e-9, 1e-9))
    @settings(max_examples=200, deadline=None)
    def test_from_matrix_near_half_turn(self, axis, eps):
        m = Quat(*quat_from_axis_angle(axis, math.pi + eps)).to_matrix()
        np.testing.assert_allclose(Quat.from_matrix(m).to_matrix(), m, atol=1e-12)

    @given(unit_axes)
    @settings(max_examples=200, deadline=None)
    def test_from_matrix_exact_half_turn(self, axis):
        m = 2.0 * np.outer(axis, axis) - np.eye(3)  # rotation by pi about axis
        q = Quat.from_matrix(m)
        assert q.w == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(q.to_matrix(), m, atol=1e-12)


class TestComposeInverse:
    def test_identity_compose(self):
        t = random_pose(RNG, stamp=2.5)
        out = compose(Pose.identity(), t)
        np.testing.assert_allclose(out.position, t.position, atol=1e-12)
        assert out.orientation.angle_to(t.orientation) < 1e-9
        assert out.stamp == 2.5

    def test_compose_inverse_is_identity(self):
        for _ in range(30):
            t = random_pose(RNG)
            out = compose(t, inverse(t))
            np.testing.assert_allclose(out.position, 0.0, atol=1e-9)
            assert out.orientation.angle_to(Quat.identity()) < 1e-9

    def test_inverse_identity(self):
        out = inverse(Pose.identity())
        np.testing.assert_allclose(out.position, 0.0, atol=1e-12)
        assert out.orientation.angle_to(Quat.identity()) < 1e-12

    def test_inverse_pure_translation(self):
        p = Pose(np.array([1.0, 2.0, 3.0]), Quat.identity(), 0.0)
        np.testing.assert_allclose(inverse(p).position, [-1.0, -2.0, -3.0], atol=1e-12)

    def test_double_inverse_matches_matrix_oracle(self):
        for _ in range(30):
            t = random_pose(RNG)
            back = inverse(inverse(t))
            np.testing.assert_allclose(back.position, t.position, atol=1e-9)
            assert back.orientation.angle_to(t.orientation) < 1e-9
            np.testing.assert_allclose(
                inverse(t).matrix(), np.linalg.inv(t.matrix()), atol=1e-9
            )

    def test_associativity_against_matrix_oracle(self):
        rng = np.random.default_rng(777)
        for _ in range(100):
            a, b, c = (random_pose(rng) for _ in range(3))
            left = compose(compose(a, b), c)
            right = compose(a, compose(b, c))
            np.testing.assert_allclose(left.position, right.position, atol=1e-9)
            assert left.orientation.angle_to(right.orientation) < 1e-9
            oracle = mat_oracle_compose(a, b) @ c.matrix()
            np.testing.assert_allclose(left.matrix(), oracle, atol=1e-9)

    def test_group_axioms(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            a = random_pose(rng)
            # identity element
            for side in (compose(a, Pose.identity(a.stamp)), compose(Pose.identity(), a)):
                np.testing.assert_allclose(side.position, a.position, atol=1e-9)
                assert side.orientation.angle_to(a.orientation) < 1e-9
            # inverse element, both sides
            for side in (compose(a, inverse(a)), compose(inverse(a), a)):
                np.testing.assert_allclose(side.position, 0.0, atol=1e-9)
                assert side.orientation.angle_to(Quat.identity()) < 1e-9


def blend_orientation(a: Quat, b: Quat, w: float) -> Quat:
    """Orientation of a `NavFilter` at `a` after it corrects with
    orientation weight `w` toward a measurement of `b` at the same stamp."""
    filt = NavFilter(NavEstimate(pose=Pose(np.zeros(3), a)), FusionWeights(0.0, 0.0, w, 0.0, 0.0))
    filt.correct(PoseMeasurement(0.0, 0.0, Pose(np.zeros(3), b)))
    return Quat(*filt.state.orientation)


class TestPartialRotation:
    """The filter's orientation blend: a turn by a fraction of the
    relative rotation along the shorter geodesic."""

    def test_endpoints(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b = random_quat(rng), random_quat(rng)
            assert blend_orientation(a, b, 0.0).angle_to(a) < 1e-9
            assert blend_orientation(a, b, 1.0).angle_to(b) < 1e-9

    def test_geodesic_midpoint(self):
        to = Quat(*quat_from_axis_angle([0, 0, 1], math.pi / 2))
        mid = blend_orientation(Quat.identity(), to, 0.5)
        expected = Quat(*quat_from_axis_angle([0, 0, 1], math.pi / 4))
        assert mid.angle_to(expected) < 1e-9

    def test_fraction_of_angle_axis_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            a, b = random_quat(rng), random_quat(rng)
            total = a.angle_to(b)
            if total < 1e-6:
                continue
            res = blend_orientation(a, b, 0.3)
            assert abs(a.angle_to(res) / total - 0.3) < 1e-9

    @given(unit_quats, st.floats(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_same_quat_fixed_point(self, q, w):
        assert blend_orientation(q, q, w).angle_to(q) < 1e-9

    @given(unit_quats, unit_quats, st.floats(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_never_long_arc(self, a, b, w):
        res = blend_orientation(a, b, w)
        assert a.angle_to(res) <= math.pi * w + 1e-9

    def test_antipodal_is_deterministic(self):
        a = Quat.identity()
        b = Quat(*quat_from_axis_angle([0.0, 1.0, 0.0], math.pi))
        r1 = blend_orientation(a, b, 0.5)
        r2 = blend_orientation(a, b, 0.5)
        assert r1 == r2
        assert abs(a.angle_to(r1) - math.pi / 2) < 1e-9
