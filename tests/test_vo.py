import math
from collections import Counter

import numpy as np
import pytest

from mavnav.geometry import Pose, Quat, compose, inverse, relative
from mavnav.vo import (
    InsufficientDataError,
    NoMotionEstimateError,
    RansacConfig,
    SceneConfig,
    StereoCalib,
    StereoObservation,
    camera_orientation,
    estimate_motion,
    gen_scene,
    project_stereo,
    quad_match,
    run_vo,
    triangulate,
)
from mavnav.vo import _gauss_newton, _residuals_and_jacobian


class TestSceneGeneration:
    def test_disparity_formula(self):
        calib = StereoCalib(focal=400.0, cx=376, cy=240, baseline=0.11)
        u_l, v, u_r = project_stereo(calib, np.array([0.0, 0.0, 5.0]))
        assert u_l - u_r == pytest.approx(400 * 0.11 / 5.0, abs=1e-12)

    def test_zero_noise_observations_reproject_exactly(self):
        scene = gen_scene(SceneConfig(n_frames=5), seed=3)
        calib = StereoCalib()
        for pose, frame in zip(scene.trajectory, scene.frames):
            r = pose.orientation.to_matrix()
            for obs in frame[:40]:
                p_cam = r.T @ (scene.landmarks[obs.feature_id] - pose.position)
                u_l, v, u_r = project_stereo(calib, p_cam)
                assert abs(u_l - obs.left[0]) < 1e-9
                assert abs(v - obs.left[1]) < 1e-9
                assert abs(u_r - obs.right[0]) < 1e-9

    def test_deterministic_per_seed(self):
        cfg = SceneConfig(n_frames=6, pixel_noise=0.4, outlier_rate=0.1, descriptor_noise=0.05)
        a = gen_scene(cfg, seed=9)
        b = gen_scene(cfg, seed=9)
        for fa, fb in zip(a.frames, b.frames):
            assert fa == fb

    def test_triangulation_roundtrip(self):
        calib = StereoCalib()
        p = np.array([1.2, -0.7, 8.0])
        u_l, v, u_r = project_stereo(calib, p)
        obs = StereoObservation(0, (u_l, v), (u_r, v), 0.0)
        np.testing.assert_allclose(triangulate(calib, obs), p, atol=1e-9)

    def test_too_few_landmarks_rejected(self):
        with pytest.raises(ValueError):
            SceneConfig(n_landmarks=10)


class TestHalfTurn:
    @pytest.mark.parametrize("forward", [(0.0, -1.0, 0.0), (-1.0, 0.0, 0.0)])
    def test_camera_orientation_columns(self, forward):
        f = np.array(forward)
        right = np.cross(f, [0.0, 0.0, 1.0])
        expected = np.column_stack([right, [0.0, 0.0, -1.0], f])
        np.testing.assert_allclose(camera_orientation(f).to_matrix(), expected, atol=1e-12)

    @pytest.mark.parametrize("axis", [(0, 1, -1), (1, -1, 0), (-1, 1, 1), (0, 0, 1)])
    def test_rotvec_roundtrips_half_turns(self, axis):
        a = np.array(axis, dtype=float) / np.linalg.norm(axis)
        m = 2.0 * np.outer(a, a) - np.eye(3)  # rotation by pi about a
        q = Quat.from_matrix(m)
        assert np.linalg.norm(q.as_rotvec()) == pytest.approx(math.pi)
        np.testing.assert_allclose(q.to_matrix(), m, atol=1e-12)


class TestQuadMatch:
    def test_noise_free_matches_all_common_features(self):
        scene = gen_scene(SceneConfig(n_frames=3), seed=4)
        prev, cur = scene.frames[0], scene.frames[1]
        matches = quad_match(prev, cur, bucket_cap=10**9)
        common = {o.feature_id for o in prev} & {o.feature_id for o in cur}
        assert len(matches) == len(common)
        for m in matches:
            assert prev[m.left_prev].feature_id == cur[m.left_cur].feature_id

    def test_corrupted_link_rejected(self):
        scene = gen_scene(SceneConfig(n_frames=3), seed=4)
        prev, cur = scene.frames[0], list(scene.frames[1])
        victim = prev[5].feature_id
        # corrupt the temporal link by cloning another feature's descriptor
        for i, o in enumerate(cur):
            if o.feature_id == victim:
                cur[i] = StereoObservation(o.feature_id, o.left, o.right, cur[0].descriptor)
                break
        matches = quad_match(prev, cur, bucket_cap=10**9)
        assert all(prev[m.left_prev].feature_id != victim for m in matches)
        for m in matches:  # and no false quads appear
            assert prev[m.left_prev].feature_id == cur[m.left_cur].feature_id

    def test_bucket_cap_spreads_matches(self):
        cfg = SceneConfig(n_landmarks=1000, n_frames=2, step=0.05, max_depth=60.0)
        scene = gen_scene(cfg, seed=6)
        prev, cur = scene.frames
        calib = StereoCalib()

        def per_cell(matches):
            return dict(Counter(
                (int(cur[m.left_cur].left[0] / (calib.width / 8)),
                 int(cur[m.left_cur].left[1] / (calib.height / 5)))
                for m in matches
            ))

        matches = quad_match(prev, cur, bucket_grid=(8, 5), bucket_cap=2)
        assert len(matches) <= 80  # 8 x 5 buckets x cap 2
        # every cell keeps as many as the cap allows; cells of this scene
        # that hold no candidate at all stay empty under any cap
        candidates = per_cell(quad_match(prev, cur, bucket_grid=(8, 5), bucket_cap=10**9))
        assert per_cell(matches) == {cell: min(2, k) for cell, k in candidates.items()}

    def test_empty_frames(self):
        assert quad_match([], []) == []


class TestEstimateMotion:
    def _frames(self, cfg, seed):
        scene = gen_scene(cfg, seed)
        return scene, scene.frames[0], scene.frames[1]

    def test_known_motion_recovered_exactly(self):
        cfg = SceneConfig(n_frames=2, step=0.1, yaw_rate=math.radians(2.0))
        scene, prev, cur = self._frames(cfg, seed=1)
        quads = quad_match(prev, cur)
        motion, inliers = estimate_motion(quads, prev, cur)
        truth = relative(scene.trajectory[0], scene.trajectory[1])
        assert np.linalg.norm(motion.position - truth.position) < 1e-6
        assert motion.orientation.angle_to(truth.orientation) < 1e-6
        assert len(inliers) == len(quads)

    def test_outliers_and_noise_stay_accurate(self):
        cfg = SceneConfig(
            n_frames=2, step=1.0, pixel_noise=0.3, outlier_rate=0.3, max_depth=40.0
        )
        scene, prev, cur = self._frames(cfg, seed=7)
        quads = quad_match(prev, cur)
        motion, _ = estimate_motion(quads, prev, cur, cfg=RansacConfig(seed=7))
        truth = relative(scene.trajectory[0], scene.trajectory[1])
        assert np.linalg.norm(motion.position - truth.position) < 0.02

    def test_insufficient_quads(self):
        scene, prev, cur = self._frames(SceneConfig(n_frames=2), seed=1)
        with pytest.raises(InsufficientDataError):
            estimate_motion([], prev, cur)

    def test_no_consensus_raises(self):
        cfg = SceneConfig(n_frames=2, outlier_rate=0.98)
        scene, prev, cur = self._frames(cfg, seed=3)
        quads = quad_match(prev, cur)
        if len(quads) < 3:
            pytest.skip("too few matches to even try")
        with pytest.raises(NoMotionEstimateError):
            estimate_motion(quads, prev, cur, cfg=RansacConfig(min_consensus=25, seed=1))

    def test_inliers_match_exhaustive_classification(self):
        cfg = SceneConfig(n_frames=2, step=0.4, pixel_noise=0.2, outlier_rate=0.2)
        scene, prev, cur = self._frames(cfg, seed=11)
        quads = quad_match(prev, cur)
        calib = StereoCalib()
        motion, inliers = estimate_motion(quads, prev, cur, calib, cfg=RansacConfig(seed=2))
        # independent route: classify every quad from the returned pose
        w = inverse(motion)
        r, t = w.orientation.to_matrix(), w.position
        points = np.array([triangulate(calib, prev[q.left_prev]) for q in quads])
        targets = np.array(
            [[cur[q.left_cur].left[0], cur[q.left_cur].left[1],
              cur[q.left_cur].right[0], cur[q.left_cur].right[1]] for q in quads]
        )
        res, _ = _residuals_and_jacobian(points, targets, calib, r, t, False)
        err = np.maximum(
            np.linalg.norm(res[:, :2], axis=1), np.linalg.norm(res[:, 2:], axis=1)
        )
        expected = set(np.nonzero(err <= 0.75)[0])
        assert set(inliers.tolist()) == expected

    def test_jacobian_matches_finite_differences(self):
        calib = StereoCalib()
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(100):
            points = rng.uniform([-4, -3, 2], [4, 3, 25], (6, 3))
            targets = rng.uniform([0, 0, 0, 0], [752, 480, 752, 480], (6, 4))
            r0 = Quat.from_rotvec(rng.normal(0, 0.2, 3)).to_matrix()
            t0 = rng.normal(0, 0.5, 3)
            _, jac = _residuals_and_jacobian(points, targets, calib, r0, t0)
            eps = 1e-6
            for i in range(6):
                xi = np.zeros(6)
                xi[i] = eps
                dr_p = Quat.from_rotvec(xi[3:]).to_matrix()
                dr_m = Quat.from_rotvec(-xi[3:]).to_matrix()
                rp, tp = dr_p @ r0, dr_p @ t0 + xi[:3]
                rm, tm = dr_m @ r0, dr_m @ t0 - xi[:3]
                res_p, _ = _residuals_and_jacobian(points, targets, calib, rp, tp, False)
                res_m, _ = _residuals_and_jacobian(points, targets, calib, rm, tm, False)
                fd = (res_p - res_m) / (2 * eps)
                scale = np.maximum(np.abs(fd), 1.0)
                worst = max(worst, float(np.max(np.abs(fd - jac[:, :, i]) / scale)))
        assert worst < 1e-5

    def test_gauss_newton_monotone_on_inlier_data(self):
        cfg = SceneConfig(n_frames=2, step=0.3, pixel_noise=0.4)
        scene, prev, cur = self._frames(cfg, seed=5)
        quads = quad_match(prev, cur)
        calib = StereoCalib()
        points = np.array([triangulate(calib, prev[q.left_prev]) for q in quads])
        targets = np.array(
            [[cur[q.left_cur].left[0], cur[q.left_cur].left[1],
              cur[q.left_cur].right[0], cur[q.left_cur].right[1]] for q in quads]
        )
        res0, _ = _residuals_and_jacobian(points, targets, calib, np.eye(3), np.zeros(3), False)
        r, t, cost = _gauss_newton(points, targets, calib, RansacConfig())
        assert math.isfinite(cost)
        assert cost <= float(np.sum(res0**2)) + 1e-9


class TestRunVo:
    def test_noise_free_loop_returns_to_start(self):
        cfg = SceneConfig(n_frames=40, step=0.5, closed_loop=True, max_depth=40.0)
        scene = gen_scene(cfg, seed=2)
        result = run_vo(scene)
        assert result.failures == 0
        # append the final increment back to the starting frame
        quads = quad_match(scene.frames[-1], scene.frames[0])
        motion, _ = estimate_motion(quads, scene.frames[-1], scene.frames[0])
        closed = compose(result.poses[-1], motion)
        drift = np.linalg.norm(closed.position - scene.trajectory[0].position)
        assert drift < 1e-4

    def test_pixel_mode_worse_than_subpixel(self):
        from mavnav.metrics import rel_trans_error

        cfg = SceneConfig(
            n_frames=50, step=1.6, pixel_noise=0.25, outlier_rate=0.1,
            max_depth=45.0, corridor_halfwidth=6.0,
        )
        scene = gen_scene(cfg, seed=20)
        sub = run_vo(scene, mode="subpixel")
        pix = run_vo(scene, mode="pixel")
        rep_sub = rel_trans_error(scene.trajectory, sub.poses)
        rep_pix = rel_trans_error(scene.trajectory, pix.poses)
        assert rep_pix.average > rep_sub.average
