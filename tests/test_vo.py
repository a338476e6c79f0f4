import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mavnav import vo
from mavnav.geometry import Pose, Quat, compose, inverse, relative
from mavnav.vo import (
    InsufficientDataError,
    NoMotionEstimateError,
    RansacConfig,
    SceneConfig,
    StereoCalib,
    StereoFrame,
    camera_orientation,
    estimate_motion,
    gen_scene,
    project_stereo,
    quad_match,
    run_vo,
)
from mavnav.vo import _draw_samples, _gauss_newton, _residuals, _triangulate

# the accuracy test's config
ACCURACY = SceneConfig(n_frames=2, step=1.0, pixel_noise=0.3, outlier_rate=0.3, max_depth=40.0)
# vo_corridor's scene (perfbench/workloads.py)
CORRIDOR = SceneConfig(n_landmarks=400, n_frames=40, step=0.25, yaw_rate=0.01,
                       pixel_noise=0.5, outlier_rate=0.1)
# the pixel-mode tests' scene
WIDE = SceneConfig(n_frames=50, step=1.6, pixel_noise=0.25, outlier_rate=0.1, max_depth=45.0,
                   corridor_halfwidth=6.0)
# on seed 1, nine of this scene's ten pairs fall short of STRICT's consensus
SHORT_OF_CONSENSUS = SceneConfig(n_frames=11, outlier_rate=0.7)
STRICT = RansacConfig(min_consensus=20, seed=1)


# -- scalar references -------------------------------------------------------
# The one-problem-at-a-time forms that the batched code in mavnav.vo
# replaced, kept as the oracles of its tests.


def _scalar_residuals_and_jacobian(xi_points, targets, calib, r_mat, t_vec, want_jacobian=True):
    """Stacked reprojection residuals (4 per point) of prev-frame points
    mapped into the current pair, and the Jacobian wrt the local
    (translation, rotation-vector) increment applied on the left."""
    n = xi_points.shape[0]
    p_c = xi_points @ r_mat.T + t_vec
    x, y, z = p_c[:, 0], p_c[:, 1], p_c[:, 2]
    z = np.maximum(z, 1e-9)
    f = calib.focal
    res = np.empty((n, 4))
    res[:, 0] = f * x / z + calib.cx - targets[:, 0]
    res[:, 1] = f * y / z + calib.cy - targets[:, 1]
    res[:, 2] = f * (x - calib.baseline) / z + calib.cx - targets[:, 2]
    res[:, 3] = f * y / z + calib.cy - targets[:, 3]
    if not want_jacobian:
        return res, None
    # d p_c / d xi = [I | -[p_c]x]
    jac = np.zeros((n, 4, 6))
    inv_z = 1.0 / z
    inv_z2 = inv_z * inv_z
    du = np.stack([f * inv_z, np.zeros(n), -f * x * inv_z2], axis=1)
    dv = np.stack([np.zeros(n), f * inv_z, -f * y * inv_z2], axis=1)
    dur = np.stack([f * inv_z, np.zeros(n), -f * (x - calib.baseline) * inv_z2], axis=1)
    cross = np.zeros((n, 3, 3))  # -[p_c]x, from d(dtheta x p)/d(dtheta)
    cross[:, 0, 1] = z
    cross[:, 0, 2] = -y
    cross[:, 1, 0] = -z
    cross[:, 1, 2] = x
    cross[:, 2, 0] = y
    cross[:, 2, 1] = -x
    dp = np.concatenate([np.broadcast_to(np.eye(3), (n, 3, 3)), cross], axis=2)  # (n,3,6)
    jac[:, 0, :] = np.einsum("nk,nkj->nj", du, dp)
    jac[:, 1, :] = np.einsum("nk,nkj->nj", dv, dp)
    jac[:, 2, :] = np.einsum("nk,nkj->nj", dur, dp)
    jac[:, 3, :] = jac[:, 1, :]
    return res, jac


def _scalar_gauss_newton(points, targets, calib, cfg: RansacConfig, weights=None, start=None,
                         stops=None):
    """Minimize summed squared reprojection error over SE(3) from `start`
    (r_mat, t_vec), the identity by default; returns (r_mat, t_vec, final
    cost). Step halving keeps the cost monotone.

    `stops`, if given, receives (iterations done, reason) with reason one
    of "step", "singular", "no halving" and "iterations"."""
    sw = None if weights is None else np.sqrt(weights)[:, None]

    def residuals(r_mat, t_vec, want_jacobian=False):
        res, jac = _scalar_residuals_and_jacobian(
            points, targets, calib, r_mat, t_vec, want_jacobian
        )
        if sw is None:
            return res, jac
        return sw * res, None if jac is None else sw[:, :, None] * jac

    r_mat, t_vec = (np.eye(3), np.zeros(3)) if start is None else start
    res, _ = residuals(r_mat, t_vec)
    cost = float(np.sum(res**2))
    stop = (cfg.max_gn_iters, "iterations")
    for it in range(cfg.max_gn_iters):
        res, jac = residuals(r_mat, t_vec, True)
        j_flat = jac.reshape(-1, 6)
        r_flat = res.reshape(-1)
        grad = j_flat.T @ r_flat
        h = j_flat.T @ j_flat
        try:
            step = np.linalg.solve(h + 1e-12 * np.eye(6), -grad)
        except np.linalg.LinAlgError:
            stop = (it, "singular")
            break
        scale = 1.0
        improved = False
        for _ in range(12):
            dr = Quat.from_rotvec(scale * step[3:]).to_matrix()
            r_new = dr @ r_mat
            t_new = dr @ t_vec + scale * step[:3]
            res_new, _ = residuals(r_new, t_new)
            cost_new = float(np.sum(res_new**2))
            if cost_new <= cost:
                r_mat, t_vec, cost = r_new, t_new, cost_new
                improved = True
                break
            scale *= 0.5
        if not improved:
            stop = (it, "no halving")
            break
        if np.max(np.abs(scale * step)) < cfg.step_tol:
            stop = (it + 1, "step")
            break
    if stops is not None:
        stops.append(stop)
    return r_mat, t_vec, cost


def _norm_pixel_error(res):
    """Worse of the two images' pixel distances, per point, by their norms."""
    return np.maximum(np.linalg.norm(res[..., :2], axis=-1), np.linalg.norm(res[..., 2:], axis=-1))


def _loop_estimate_motion(quads, prev_frame, cur_frame, calib=StereoCalib(), mode="subpixel",
                          cfg=RansacConfig()):
    """One pair's RANSAC and depth-weighted refit, each Gauss-Newton stage
    on this pair alone: the per-pair body that the staged pass over all
    pairs replaced."""
    threshold = cfg.threshold_px
    if threshold is None:
        threshold = 1.5 if mode == "pixel" else 0.75
    prev_px, targets = prev_frame.px[quads[:, 0]], cur_frame.px[quads[:, 1]]
    if mode == "pixel":
        prev_px, targets = np.round(prev_px), np.round(targets)
    kept = np.flatnonzero(np.isfinite(prev_px).all(axis=1) & np.isfinite(targets).all(axis=1)
                          & (prev_px[:, 0] > prev_px[:, 2]))
    if len(kept) < 3:
        raise InsufficientDataError(f"need >= 3 usable quad matches, got {len(kept)}")
    prev_px, targets = prev_px[kept], targets[kept]
    points = _triangulate(calib, prev_px)

    def refit_errors(r_mat, t_vec):
        (res,), (jac,) = _residuals(points, targets, calib, r_mat[None], t_vec[None], True)
        rotated = points @ r_mat.T
        dp_dd = -rotated * (points[:, 2:] / (calib.focal * calib.baseline))
        shift = np.einsum("nkj,nj->nk", jac[:, :, :3], dp_dd)
        g = np.maximum(np.hypot(shift[:, 0], shift[:, 1]), np.hypot(shift[:, 2], shift[:, 3]))
        scale = np.sqrt(1.0 + 2.0 * g**2)
        err = _norm_pixel_error(res)
        in_front = rotated[:, 2] + t_vec[2] > 0
        return err, np.where(in_front, err / scale, np.inf), scale

    rng = np.random.default_rng(cfg.seed)
    n = len(points)
    samples = np.array(
        [rng.choice(n, size=3, replace=False) for _ in range(cfg.iterations)], dtype=np.intp
    ).reshape(-1, 3)
    hyp_cfg = replace(cfg, max_gn_iters=min(cfg.max_gn_iters, vo._HYPOTHESIS_GN_ITERS),
                      step_tol=max(cfg.step_tol, vo._HYPOTHESIS_STEP_TOL))
    hyp_r, hyp_t, _ = _gauss_newton(points[samples], targets[samples], calib, hyp_cfg)
    res = _residuals(points, targets, calib, hyp_r[:, None], hyp_t[:, None])[0][:, 0]
    counts = np.sum(_norm_pixel_error(res) <= threshold, axis=1)
    # coincident or collinear samples get no consensus
    e1, e2 = np.swapaxes(points[samples[:, 1:]] - points[samples[:, :1]], 0, 1)
    flat = (np.linalg.norm(np.cross(e1, e2), axis=1)
            <= vo._DEGENERATE_AREA * np.maximum(np.sum(e1**2, axis=1), np.sum(e2**2, axis=1)))
    if flat.all():
        raise NoMotionEstimateError("every sample is coincident or collinear")
    counts[flat] = 0
    best_count = int(counts.max(initial=0))
    if best_count < max(cfg.min_consensus, 1):
        raise NoMotionEstimateError(f"consensus {best_count} below minimum {cfg.min_consensus}")
    best = int(np.argmax(counts))

    r_mat, t_vec = hyp_r[best], hyp_t[best]
    _, _, scale = refit_errors(r_mat, t_vec)
    mask = _norm_pixel_error(res[best]) <= threshold
    for _ in range(10):
        r_fit, t_fit, _ = _gauss_newton(
            points[mask][None], targets[mask][None], calib, cfg, (1.0 / scale[mask] ** 2)[None],
            (r_mat[None], t_vec[None]),
        )
        r_mat, t_vec = r_fit[0], t_fit[0]
        err, norm_err, scale = refit_errors(r_mat, t_vec)
        new_mask = norm_err <= threshold
        if int(new_mask.sum()) < cfg.min_consensus or np.array_equal(new_mask, mask):
            break
        mask = new_mask

    rel = inverse(Pose(t_vec, Quat.from_matrix(r_mat), 0.0))
    return Pose(rel.position, rel.orientation, 0.0), kept[err <= threshold]


def _loop_run_vo(scene, mode="subpixel", cfg=RansacConfig(), calib=StereoCalib()):
    """(poses, inlier counts, error names) of the frame-by-frame loop over
    _loop_estimate_motion."""
    poses = [scene.trajectory[0]]
    last_motion = Pose.identity()
    inliers, errors = [], []
    for k in range(1, len(scene.frames)):
        quads = quad_match(scene.frames[k - 1], scene.frames[k], calib)
        try:
            motion, kept = _loop_estimate_motion(quads, scene.frames[k - 1], scene.frames[k],
                                                 calib, mode, replace(cfg, seed=cfg.seed + k))
            last_motion = motion
            inliers.append(len(kept))
            errors.append(None)
        except vo.VoError as exc:
            motion = last_motion
            inliers.append(0)
            errors.append(type(exc).__name__)
        step = compose(poses[-1], motion)
        poses.append(Pose(step.position, step.orientation, float(k)))
    return poses, inliers, errors


def _non_finite_frame_scene():
    """A 5-frame scene whose frame 2 has no finite u pixel."""
    scene = gen_scene(SceneConfig(n_frames=5, step=0.3, pixel_noise=0.2), seed=5)
    px = scene.frames[2].px.copy()
    px[:, [0, 2]] = math.nan
    scene.frames[2] = replace(scene.frames[2], px=px)
    return scene


def _pose_bytes(poses):
    return [(p.position.tobytes(),
             np.array([p.orientation.w, p.orientation.x, p.orientation.y, p.orientation.z,
                       p.stamp]).tobytes()) for p in poses]


def _loop_gen_scene(config, seed, calib=StereoCalib()):
    """gen_scene's scene and the (ids, px, descriptors) of each of its
    frames from the per-landmark loop that the batched projection
    replaced. The loop runs on the scene's own trajectory and landmarks,
    with the generator advanced past their 3 * n_landmarks uniform draws."""
    scene = gen_scene(config, seed, calib)
    rng = np.random.default_rng(seed)
    rng.uniform(size=3 * config.n_landmarks)
    frames = []
    for pose in scene.trajectory:
        r_wc = pose.orientation.to_matrix()
        ids, px, descriptors = [], [], []
        for lid in range(config.n_landmarks):
            x, y, z = r_wc.T @ (scene.landmarks[lid] - pose.position)
            if not (config.min_depth <= z <= config.max_depth) or z <= 1e-6:
                continue
            u_l = calib.focal * x / z + calib.cx
            v = calib.focal * y / z + calib.cy
            u_r = calib.focal * (x - calib.baseline) / z + calib.cx
            if config.pixel_noise > 0:
                u_l += rng.normal(0, config.pixel_noise)
                v += rng.normal(0, config.pixel_noise)
                u_r += rng.normal(0, config.pixel_noise)
            if config.outlier_rate > 0 and rng.random() < config.outlier_rate:
                u_l += rng.uniform(-40, 40)
                v += rng.uniform(-25, 25)
                u_r += rng.uniform(-40, 40)
            if not (0 <= u_l < calib.width and 0 <= u_r < calib.width and 0 <= v < calib.height):
                continue
            if u_l - u_r <= 0.1:
                continue
            descriptor = float(lid)
            if config.descriptor_noise > 0:
                descriptor += rng.normal(0, config.descriptor_noise)
            ids.append(lid)
            px.append((float(u_l), float(v), float(u_r), float(v)))
            descriptors.append(descriptor)
        frames.append((np.array(ids, dtype=np.intp), np.array(px, dtype=float).reshape(-1, 4),
                       np.array(descriptors, dtype=float)))
    return scene, frames


def _loop_quad_match(prev_frame, cur_frame, calib=StereoCalib(), bucket_grid=(8, 5), bucket_cap=10):
    """Per-match bucketing loop over the mutual nearest descriptors."""
    if not len(prev_frame.ids) or not len(cur_frame.ids):
        return np.empty((0, 2), dtype=np.intp)
    d_prev, d_cur = prev_frame.descriptors, cur_frame.descriptors
    fwd = np.abs(d_prev[:, None] - d_cur[None, :]).argmin(axis=1)
    bwd = np.abs(d_cur[:, None] - d_prev[None, :]).argmin(axis=1)
    cell_w = calib.width / bucket_grid[0]
    cell_h = calib.height / bucket_grid[1]
    bucket_counts = {}
    matches = []
    for i, j in enumerate(fwd):
        if bwd[j] != i:
            continue  # loop not closed
        u, v = cur_frame.px[j, :2]
        cell = (min(int(u / cell_w), bucket_grid[0] - 1), min(int(v / cell_h), bucket_grid[1] - 1))
        if bucket_counts.get(cell, 0) >= bucket_cap:
            continue
        bucket_counts[cell] = bucket_counts.get(cell, 0) + 1
        matches.append((i, j))
    return np.array(matches, dtype=np.intp).reshape(-1, 2)


def _pixels(calib, quads, prev, cur):
    """Each quad's triangulated previous point and current pixels, one
    quad at a time."""
    points = np.array([_triangulate(calib, prev.px[a][None])[0] for a, _ in quads.tolist()])
    targets = np.array([cur.px[b] for _, b in quads.tolist()])
    return points, targets


def _gn_stack(seed, n_prob, k, noise, weighted, near_singular, singular):
    """Random 3D-2D problems (n_prob, k): points in front of the camera,
    targets projected under a small random motion plus pixel noise.
    `near_singular` lays problem 0's points about one ray through the
    camera centre, which leaves the rotation about that ray barely
    observable (cond(H) ~ 7e5 median, ~200 times a random layout's);
    `singular` makes the last problem one point repeated, whose normal
    equations are exactly singular."""
    rng = np.random.default_rng(seed)
    calib = StereoCalib()
    points = rng.uniform([-4, -3, 2], [4, 3, 25], (n_prob, k, 3))
    if near_singular:
        ray = rng.uniform([-0.3, -0.3, 1.0], [0.3, 0.3, 1.0])
        points[0] = ray / np.linalg.norm(ray) * rng.uniform(3, 20, (k, 1))
        points[0] += rng.normal(0, 0.03, (k, 3))
    if singular:
        points[-1] = [0.5, -0.25, 4.0]
    rots = np.array([Quat.from_rotvec(rng.normal(0, 0.05, 3)).to_matrix() for _ in range(n_prob)])
    trans = rng.normal(0, 0.3, (n_prob, 3))
    proj = np.stack([
        _scalar_residuals_and_jacobian(p, np.zeros((k, 4)), calib, r, t, False)[0]
        for p, r, t in zip(points, rots, trans)
    ])
    targets = proj + rng.normal(0, noise, proj.shape)
    weights = rng.uniform(0.2, 1.0, (n_prob, k)) if weighted else None
    if singular and weighted:
        weights[-1] = 1.0  # unequal weights would leave H singular only up to rounding
    return points, targets, weights


def _small_poses(seed, n_prob):
    """Random starts (r_mat (n_prob, 3, 3), t_vec (n_prob, 3)) near the
    identity, of the size of _gn_stack's motions."""
    rng = np.random.default_rng(seed)
    rots = np.array([Quat.from_rotvec(rng.normal(0, 0.05, 3)).to_matrix() for _ in range(n_prob)])
    return rots, rng.normal(0, 0.3, (n_prob, 3))


def _check_against_scalar(points, targets, weights, cfg, compare_pose, stops=None, start=None):
    calib = StereoCalib()
    r, t, cost = _gauss_newton(points, targets, calib, cfg, weights, start)
    for b in range(len(points)):
        w = None if weights is None else weights[b]
        s0 = None if start is None else (start[0][b], start[1][b])
        r0, t0, c0 = _scalar_gauss_newton(points[b], targets[b], calib, cfg, w, s0, stops)
        # a cost below 1e-12 px^2 is rounding residue of noise-free data
        np.testing.assert_allclose(cost[b], c0, rtol=1e-9, atol=1e-12)
        if compare_pose:
            np.testing.assert_allclose(r[b], r0, rtol=0, atol=1e-9)
            np.testing.assert_allclose(t[b], t0, rtol=0, atol=1e-9)


def _frame_bytes(arrays):
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


class TestSceneGeneration:
    def test_disparity_formula(self):
        calib = StereoCalib(focal=400.0, cx=376, cy=240, baseline=0.11)
        ((u_l, v, u_r),) = project_stereo(calib, np.array([[0.0, 0.0, 5.0]]))
        assert u_l - u_r == pytest.approx(400 * 0.11 / 5.0, abs=1e-12)

    def test_zero_noise_observations_reproject_exactly(self):
        scene = gen_scene(SceneConfig(n_frames=5), seed=3)
        calib = StereoCalib()
        for pose, frame in zip(scene.trajectory, scene.frames):
            r = pose.orientation.to_matrix()
            p_cam = np.array([r.T @ (scene.landmarks[i] - pose.position) for i in frame.ids])
            np.testing.assert_allclose(frame.px[:, :3], project_stereo(calib, p_cam),
                                       rtol=0, atol=1e-9)
            np.testing.assert_array_equal(frame.px[:, 3], frame.px[:, 1])

    @pytest.mark.parametrize(
        ("cfg", "seed"),
        [
            (SceneConfig(n_frames=5), 3),
            (SceneConfig(n_frames=6, pixel_noise=0.4, outlier_rate=0.1, descriptor_noise=0.05), 9),
            (SceneConfig(n_frames=3), 4),
            (SceneConfig(n_landmarks=1000, n_frames=2, step=0.05, max_depth=60.0), 6),
            (SceneConfig(n_frames=2, pixel_noise=0.5, outlier_rate=0.1, yaw_rate=0.01), 0),
            (SceneConfig(n_frames=2, step=0.6, descriptor_noise=0.4, outlier_rate=0.2), 1),
            (SceneConfig(n_landmarks=1000, n_frames=2, step=0.05, max_depth=60.0,
                         descriptor_noise=0.8), 2),
            (SceneConfig(n_frames=2, step=0.1, yaw_rate=math.radians(2.0)), 1),
            (ACCURACY, 10),
            (SceneConfig(n_frames=2, outlier_rate=0.98), 3),
            (SceneConfig(n_frames=2, step=0.4, pixel_noise=0.2, outlier_rate=0.2), 11),
            (SceneConfig(n_frames=2, step=0.3, pixel_noise=0.4), 5),
            (SceneConfig(n_frames=5, step=0.3, pixel_noise=0.2), 5),
            (SceneConfig(n_frames=40, step=0.5, closed_loop=True, max_depth=40.0), 2),
            (SceneConfig(n_frames=50, step=1.6, pixel_noise=0.25, outlier_rate=0.1,
                         max_depth=45.0, corridor_halfwidth=6.0), 20),
            *((CORRIDOR, seed) for seed in (101, 102, 103)),
        ],
    )
    def test_matches_per_landmark_loop(self, cfg, seed):
        """Every scene the VO tests and vo_corridor use is byte-equal to
        the per-landmark projection loop's."""
        scene, frames = _loop_gen_scene(cfg, seed)
        assert len(scene.frames) == len(frames) == cfg.n_frames
        for frame, expected in zip(scene.frames, frames):
            assert _frame_bytes((frame.ids, frame.px, frame.descriptors)) == _frame_bytes(expected)

    def test_deterministic_per_seed(self):
        cfg = SceneConfig(n_frames=6, pixel_noise=0.4, outlier_rate=0.1, descriptor_noise=0.05)
        a = gen_scene(cfg, seed=9)
        b = gen_scene(cfg, seed=9)
        for fa, fb in zip(a.frames, b.frames):
            assert (_frame_bytes((fa.ids, fa.px, fa.descriptors))
                    == _frame_bytes((fb.ids, fb.px, fb.descriptors)))

    def test_triangulation_roundtrip(self):
        calib = StereoCalib()
        p = np.array([[1.2, -0.7, 8.0]])
        ((u_l, v, u_r),) = project_stereo(calib, p)
        np.testing.assert_allclose(_triangulate(calib, np.array([[u_l, v, u_r, v]])), p,
                                   atol=1e-9)

    def test_too_few_landmarks_rejected(self):
        with pytest.raises(ValueError, match="^n_landmarks "):
            SceneConfig(n_landmarks=10)

    @pytest.mark.parametrize(
        ("cls", "kwargs", "field"),
        [
            (StereoCalib, {"focal": math.nan}, "focal"),
            (StereoCalib, {"baseline": 0.0}, "baseline"),
            (StereoCalib, {"width": 0}, "width"),
            (StereoCalib, {"cx": math.inf}, "cx"),
            (SceneConfig, {"n_frames": 0}, "n_frames"),
            (SceneConfig, {"step": math.nan}, "step"),
            (SceneConfig, {"corridor_halfwidth": -1.0}, "corridor_halfwidth"),
            (SceneConfig, {"min_depth": 0.0}, "min_depth"),
            (SceneConfig, {"min_depth": 5.0, "max_depth": 2.0}, "max_depth"),
            (SceneConfig, {"max_depth": math.inf}, "max_depth"),
            (SceneConfig, {"pixel_noise": math.nan}, "pixel_noise"),
            (SceneConfig, {"outlier_rate": 1.5}, "outlier_rate"),
            (SceneConfig, {"descriptor_noise": -0.1}, "descriptor_noise"),
            (RansacConfig, {"threshold_px": 0.0}, "threshold_px"),
            (RansacConfig, {"step_tol": math.nan}, "step_tol"),
            (RansacConfig, {"step_tol": -1e-9}, "step_tol"),
            (RansacConfig, {"iterations": 0}, "iterations"),
            (RansacConfig, {"iterations": -3}, "iterations"),
            (RansacConfig, {"iterations": 100.0}, "iterations"),
            (RansacConfig, {"max_gn_iters": 0}, "max_gn_iters"),
            (RansacConfig, {"max_gn_iters": 2.5}, "max_gn_iters"),
            (RansacConfig, {"min_consensus": 0}, "min_consensus"),
            (RansacConfig, {"min_consensus": -6}, "min_consensus"),
            (RansacConfig, {"min_consensus": 6.0}, "min_consensus"),
            (RansacConfig, {"seed": 1.5}, "seed"),
            (RansacConfig, {"seed": math.inf}, "seed"),
            (RansacConfig, {"seed": -2}, "seed"),
        ],
    )
    def test_invalid_config_names_the_field(self, cls, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} "):
            cls(**kwargs)


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
        assert matches.shape == (len(np.intersect1d(prev.ids, cur.ids)), 2)
        np.testing.assert_array_equal(prev.ids[matches[:, 0]], cur.ids[matches[:, 1]])

    def test_corrupted_link_rejected(self):
        scene = gen_scene(SceneConfig(n_frames=3), seed=4)
        prev, cur = scene.frames[0], scene.frames[1]
        victim = prev.ids[5]
        assert victim in cur.ids
        # corrupt the temporal link by cloning another feature's descriptor
        descriptors = cur.descriptors.copy()
        descriptors[cur.ids == victim] = descriptors[0]
        cur = replace(cur, descriptors=descriptors)
        matches = quad_match(prev, cur, bucket_cap=10**9)
        assert victim not in prev.ids[matches[:, 0]]
        # and no false quads appear
        np.testing.assert_array_equal(prev.ids[matches[:, 0]], cur.ids[matches[:, 1]])

    def test_bucket_cap_spreads_matches(self):
        cfg = SceneConfig(n_landmarks=1000, n_frames=2, step=0.05, max_depth=60.0)
        scene = gen_scene(cfg, seed=6)
        prev, cur = scene.frames
        calib = StereoCalib()

        def per_cell(matches):
            return dict(Counter(
                (int(u / (calib.width / 8)), int(v / (calib.height / 5)))
                for u, v in cur.px[matches[:, 1], :2].tolist()
            ))

        matches = quad_match(prev, cur, bucket_grid=(8, 5), bucket_cap=2)
        assert len(matches) <= 80  # 8 x 5 buckets x cap 2
        # every cell keeps as many as the cap allows; cells of this scene
        # that hold no candidate at all stay empty under any cap
        candidates = per_cell(quad_match(prev, cur, bucket_grid=(8, 5), bucket_cap=10**9))
        assert per_cell(matches) == {cell: min(2, k) for cell, k in candidates.items()}

    def test_empty_frames(self):
        empty = StereoFrame(np.empty(0, dtype=np.intp), np.empty((0, 4)), np.empty(0))
        for prev, cur in [(empty, empty), (empty, gen_scene(SceneConfig(n_frames=2), 4).frames[0])]:
            for matches in (quad_match(prev, cur), quad_match(cur, prev)):
                assert matches.shape == (0, 2) and matches.dtype == np.intp

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "cfg",
        [
            SceneConfig(n_frames=2, pixel_noise=0.5, outlier_rate=0.1, yaw_rate=0.01),
            SceneConfig(n_frames=2, step=0.6, descriptor_noise=0.4, outlier_rate=0.2),
            SceneConfig(n_landmarks=1000, n_frames=2, step=0.05, max_depth=60.0,
                        descriptor_noise=0.8),
        ],
    )
    def test_matches_per_match_loop(self, cfg, seed):
        prev, cur = gen_scene(cfg, seed).frames
        for grid, cap in [((8, 5), 10), ((8, 5), 2), ((3, 7), 1), ((8, 5), 0), ((8, 5), 10**9)]:
            quads = quad_match(prev, cur, bucket_grid=grid, bucket_cap=cap)
            expected = _loop_quad_match(prev, cur, bucket_grid=grid, bucket_cap=cap)
            assert quads.dtype == expected.dtype
            np.testing.assert_array_equal(quads, expected)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_current_pixel_is_not_matched(self, bad):
        scene = gen_scene(SceneConfig(n_frames=2), seed=4)
        prev, cur = scene.frames[0], scene.frames[1]
        px = cur.px.copy()
        px[3, 0] = bad
        matches = quad_match(prev, replace(cur, px=px), bucket_cap=10**9)
        common = np.intersect1d(prev.ids, np.delete(cur.ids, 3))
        assert len(matches) == len(common)
        assert 3 not in matches[:, 1]


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
        scene, prev, cur = self._frames(ACCURACY, seed=7)
        quads = quad_match(prev, cur)
        motion, _ = estimate_motion(quads, prev, cur, cfg=RansacConfig(seed=7))
        truth = relative(scene.trajectory[0], scene.trajectory[1])
        assert np.linalg.norm(motion.position - truth.position) < 0.02

    def test_accuracy_over_a_seed_sweep(self):
        """The config above on seeds 0-19: the median error stays near 0.01 m
        and the worst (seed 10) below 0.024 m."""
        errors = []
        for seed in range(20):
            scene, prev, cur = self._frames(ACCURACY, seed)
            motion, _ = estimate_motion(quad_match(prev, cur), prev, cur,
                                        cfg=RansacConfig(seed=seed))
            truth = relative(scene.trajectory[0], scene.trajectory[1])
            errors.append(np.linalg.norm(motion.position - truth.position))
        assert np.median(errors) < 0.0105
        assert max(errors) < 0.024

    def test_hypothesis_budget_keeps_the_winner(self, monkeypatch):
        """Hypotheses cut at _HYPOTHESIS_GN_ITERS give the pose and inliers
        of hypotheses run to max_gn_iters, on the accuracy config's seeds."""
        for seed in range(20):
            scene, prev, cur = self._frames(ACCURACY, seed)
            quads = quad_match(prev, cur)
            ransac = RansacConfig(seed=seed)
            motion, inliers = estimate_motion(quads, prev, cur, cfg=ransac)
            with monkeypatch.context() as m:
                m.setattr(vo, "_HYPOTHESIS_GN_ITERS", ransac.max_gn_iters)
                full, full_inliers = estimate_motion(quads, prev, cur, cfg=ransac)
            np.testing.assert_allclose(motion.position, full.position, rtol=0, atol=1e-9)
            np.testing.assert_array_equal(inliers, full_inliers)

    def test_hypothesis_tolerance_keeps_the_winner(self, monkeypatch):
        """Hypotheses cut at _HYPOTHESIS_STEP_TOL and _HYPOTHESIS_GN_ITERS
        give the inliers of hypotheses run to max_gn_iters with no step
        tolerance, and a position within the refit's rounding floor of
        1e-7 m, on the accuracy config's seeds and on every pair of
        vo_corridor seed 101."""
        corridor = gen_scene(CORRIDOR, 101).frames
        pairs = [(seed, *self._frames(ACCURACY, seed)[1:]) for seed in range(20)]
        pairs += [(k, prev, cur) for k, (prev, cur) in enumerate(zip(corridor, corridor[1:]), 1)]
        assert len(pairs) == 20 + 39
        for seed, prev, cur in pairs:
            quads = quad_match(prev, cur)
            ransac = RansacConfig(seed=seed)
            motion, inliers = estimate_motion(quads, prev, cur, cfg=ransac)
            with monkeypatch.context() as m:
                m.setattr(vo, "_HYPOTHESIS_GN_ITERS", ransac.max_gn_iters)
                m.setattr(vo, "_HYPOTHESIS_STEP_TOL", 0.0)
                full, full_inliers = estimate_motion(quads, prev, cur, cfg=ransac)
            np.testing.assert_allclose(motion.position, full.position, rtol=0, atol=1e-7)
            np.testing.assert_array_equal(inliers, full_inliers)

    def test_insufficient_quads(self):
        scene, prev, cur = self._frames(SceneConfig(n_frames=2), seed=1)
        with pytest.raises(InsufficientDataError):
            estimate_motion(np.empty((0, 2), dtype=np.intp), prev, cur)

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
        points, targets = _pixels(calib, quads, prev, cur)
        res, _ = _scalar_residuals_and_jacobian(points, targets, calib, r, t, False)
        expected = set(np.nonzero(_norm_pixel_error(res) <= 0.75)[0])
        assert set(inliers.tolist()) == expected

    def test_kernel_matches_scalar_residuals_for_every_pose(self):
        """Points shared by m poses, leading axes broadcast: every pose's
        residuals and Jacobian are the scalar form's."""
        calib = StereoCalib()
        rng = np.random.default_rng(4)
        points = rng.uniform([-4, -3, 2], [4, 3, 25], (5, 7, 3))
        targets = rng.uniform([0, 0, 0, 0], [752, 480, 752, 480], (5, 7, 4))
        r = np.array([[Quat.from_rotvec(rng.normal(0, 0.2, 3)).to_matrix() for _ in range(12)]
                      for _ in range(5)])
        t = rng.normal(0, 0.5, (5, 12, 3))
        res, jac = _residuals(points, targets, calib, r, t, True)
        assert res.shape == (5, 12, 7, 4) and jac.shape == (5, 12, 7, 4, 6)
        for b in range(5):
            for m in range(12):
                res0, jac0 = _scalar_residuals_and_jacobian(points[b], targets[b], calib,
                                                            r[b, m], t[b, m])
                np.testing.assert_allclose(res[b, m], res0, rtol=1e-12, atol=1e-9)
                np.testing.assert_allclose(jac[b, m], jac0, rtol=1e-12, atol=1e-9)

    def test_jacobian_matches_finite_differences(self):
        calib = StereoCalib()
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(100):
            points = rng.uniform([-4, -3, 2], [4, 3, 25], (6, 3))
            targets = rng.uniform([0, 0, 0, 0], [752, 480, 752, 480], (6, 4))
            r0 = Quat.from_rotvec(rng.normal(0, 0.2, 3)).to_matrix()
            t0 = rng.normal(0, 0.5, 3)
            _, (jac,) = _residuals(points, targets, calib, r0[None], t0[None], True)
            eps = 1e-6
            for i in range(6):
                xi = np.zeros(6)
                xi[i] = eps
                dr_p = Quat.from_rotvec(xi[3:]).to_matrix()
                dr_m = Quat.from_rotvec(-xi[3:]).to_matrix()
                rp, tp = dr_p @ r0, dr_p @ t0 + xi[:3]
                rm, tm = dr_m @ r0, dr_m @ t0 - xi[:3]
                (res_p,), _ = _residuals(points, targets, calib, rp[None], tp[None])
                (res_m,), _ = _residuals(points, targets, calib, rm[None], tm[None])
                fd = (res_p - res_m) / (2 * eps)
                scale = np.maximum(np.abs(fd), 1.0)
                worst = max(worst, float(np.max(np.abs(fd - jac[:, :, i]) / scale)))
        assert worst < 1e-5

    def test_gauss_newton_monotone_on_inlier_data(self):
        cfg = SceneConfig(n_frames=2, step=0.3, pixel_noise=0.4)
        scene, prev, cur = self._frames(cfg, seed=5)
        quads = quad_match(prev, cur)
        calib = StereoCalib()
        points, targets = _pixels(calib, quads, prev, cur)
        (res0,), _ = _residuals(points, targets, calib, np.eye(3)[None], np.zeros((1, 3)))
        _, _, (cost,) = _gauss_newton(points[None], targets[None], calib, RansacConfig())
        assert math.isfinite(cost)
        assert cost <= float(np.sum(res0**2)) + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_prob=st.integers(1, 6),
        k=st.integers(3, 8),
        noise=st.sampled_from([0.0, 0.3, 3.0]),
        weighted=st.booleans(),
        near_singular=st.booleans(),
        singular=st.booleans(),
        iters=st.sampled_from([1, 2, 3, 20]),
        step_tol=st.sampled_from([1e-9, 0.0]),
        warm=st.booleans(),
    )
    def test_batched_gauss_newton_matches_scalar_oracle(
        self, seed, n_prob, k, noise, weighted, near_singular, singular, iters, step_tol, warm
    ):
        """Every problem of a stack ends where the one-at-a-time GN ends.

        Costs agree to 1e-9 relative. Poses are compared to 1e-9 where they
        are determined to that level: on noise-free data, and within the
        first three iterations. Past that, noisy problems reach the floor
        of their cost, where accepted steps lower it by a few ulps; the two
        summation orders then stop at different points of that flat
        bottom, up to ~1e-7 m apart, at costs equal to ~1e-15 relative.
        A noise-free problem's floor is sharp; with step_tol 0, which never
        stops, it ends when no halving lowers its cost. Problems start at
        the identity, or at a small random pose (`warm`). The singular
        problem always starts at the identity: only there do its normal
        equations meet an exact zero pivot; elsewhere rounding leaves them
        nearly singular (cond ~1e17), and the two forms solve them apart.
        """
        points, targets, weights = _gn_stack(
            seed, n_prob, k, noise, weighted, near_singular, singular
        )
        start = None
        if warm:
            start = _small_poses(seed + 1, n_prob)
            if singular:
                start[0][-1], start[1][-1] = np.eye(3), 0.0
        cfg = replace(RansacConfig(), max_gn_iters=iters, step_tol=step_tol)
        _check_against_scalar(points, targets, weights, cfg, noise == 0.0 or iters <= 3,
                              start=start)

    def test_gn_stacks_cover_every_stop(self):
        """The stacks of the test above stop problems at different
        iterations, and for every reason: a step below step_tol, singular
        normal equations, a step that no halving accepts, and the iteration
        cap."""
        stops = []
        for seed in range(12):
            for noise, iters, step_tol in [(0.0, 20, 1e-9), (0.0, 20, 0.0), (0.3, 3, 1e-9)]:
                points, targets, weights = _gn_stack(seed, 4, 3 + seed % 4, noise,
                                                     seed % 3 == 0, seed % 2 == 0, seed % 4 == 0)
                cfg = replace(RansacConfig(), max_gn_iters=iters, step_tol=step_tol)
                _check_against_scalar(points, targets, weights, cfg, True, stops)
        assert {why for _, why in stops} == {"step", "singular", "no halving", "iterations"}
        assert len({it for it, why in stops if why == "step"}) >= 3

    def test_weighted_refit_matches_scalar_oracle(self):
        """B = 1 with per-point weights, as the refit calls it, on a real
        frame's quads, from the identity and from a pose near the optimum,
        as a refit round starts."""
        cfg = SceneConfig(n_frames=2, step=0.3, pixel_noise=0.4)
        scene, prev, cur = self._frames(cfg, seed=5)
        calib = StereoCalib()
        points, targets = _pixels(calib, quad_match(prev, cur), prev, cur)
        weights = np.random.default_rng(1).uniform(0.05, 1.0, len(points))
        near = _gauss_newton(points[None], targets[None], calib,
                             replace(RansacConfig(), max_gn_iters=2))[:2]
        for start in (None, near):
            for iters in (1, 2, 3):
                _check_against_scalar(points[None], targets[None], weights[None],
                                      replace(RansacConfig(), max_gn_iters=iters), True,
                                      start=start)
            _check_against_scalar(points[None], targets[None], weights[None], RansacConfig(),
                                  False, start=start)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.one_of(st.integers(3, 8), st.integers(60, 160)), min_size=1, max_size=5),
        noise=st.sampled_from([0.0, 0.3, 3.0]),
        singular=st.booleans(),
        iters=st.sampled_from([1, 3, 20]),
        warm=st.booleans(),
    )
    def test_padded_stack_matches_each_problem_alone(self, seed, sizes, noise, singular, iters,
                                                     warm):
        """Problems of mixed k, each padded to the longest with weight-0
        copies of its first row and given its k in `sizes`, end bit for bit
        where each ends as a stack of one. The long problems' normal
        equations run past the matrix product's block length once padded.
        The singular member (the last, if drawn) starts at the identity."""
        calib = StereoCalib()
        problems = [_gn_stack(seed + i, 1, k, noise, True, False, singular and i == len(sizes) - 1)
                    for i, k in enumerate(sizes)]
        starts = _small_poses(seed + len(sizes), len(sizes)) if warm else (
            np.tile(np.eye(3), (len(sizes), 1, 1)), np.zeros((len(sizes), 3)))
        if singular:
            starts[0][-1], starts[1][-1] = np.eye(3), 0.0
        k_max = max(sizes)
        points, targets = np.empty((len(sizes), k_max, 3)), np.empty((len(sizes), k_max, 4))
        weights = np.zeros((len(sizes), k_max))
        for b, ((p, t, w), k) in enumerate(zip(problems, sizes)):
            rows = np.r_[np.arange(k), np.zeros(k_max - k, dtype=int)]
            points[b], targets[b], weights[b, :k] = p[0][rows], t[0][rows], w[0]
        cfg = replace(RansacConfig(), max_gn_iters=iters)
        r, t, cost = _gauss_newton(points, targets, calib, cfg, weights, starts, np.array(sizes))
        for b, (p, tg, w) in enumerate(problems):
            r0, t0, c0 = _gauss_newton(p, tg, calib, cfg, w, (starts[0][b:b + 1],
                                                               starts[1][b:b + 1]))
            assert r[b].tobytes() == r0[0].tobytes()
            assert t[b].tobytes() == t0[0].tobytes()
            assert cost[b].tobytes() == c0[0].tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_quad_set_aside(self, bad):
        cfg = SceneConfig(n_frames=2, step=0.3, pixel_noise=0.2)
        scene, prev, cur = self._frames(cfg, seed=5)
        quads = quad_match(prev, cur)
        px = prev.px.copy()
        px[quads[7, 0], 2] = bad
        motion, inliers = estimate_motion(quads, replace(prev, px=px), cur)
        truth = relative(scene.trajectory[0], scene.trajectory[1])
        assert np.linalg.norm(motion.position - truth.position) < 0.02
        assert 7 not in inliers.tolist()
        assert len(inliers) > len(quads) // 2
        np.testing.assert_array_equal(prev.ids[quads[inliers, 0]], cur.ids[quads[inliers, 1]])

    @pytest.mark.parametrize("mode", ["subpixel", "pixel"])
    def test_all_non_finite_quads_raise(self, mode):
        scene, prev, cur = self._frames(SceneConfig(n_frames=2), seed=1)
        quads = quad_match(prev, cur)
        px = prev.px.copy()
        px[:, :2] = math.nan
        with pytest.raises(InsufficientDataError):
            estimate_motion(quads, replace(prev, px=px), cur, mode=mode)

    @pytest.mark.parametrize(
        "points",
        [
            np.tile([0.5, -0.3, 6.0], (20, 1)),
            np.array([0.5, -0.3, 6.0]) + np.linspace(-1.0, 1.0, 40)[:, None] * [1.0, 0.4, 2.0],
        ],
        ids=["coincident", "collinear"],
    )
    def test_degenerate_samples_raise(self, points):
        """Landmarks (camera frame) that are one point or lie on one line,
        seen exactly before and after a move of 0.1 m along the optical
        axis, leave the rotation free: every sample is degenerate and the
        pair fails instead of returning an arbitrary rotation."""
        calib = StereoCalib()

        def frame(p):
            u_l, v, u_r = project_stereo(calib, p).T
            return StereoFrame(np.arange(len(p)), np.column_stack([u_l, v, u_r, v]),
                               np.arange(len(p), dtype=float))

        prev, cur = frame(points), frame(points - [0.0, 0.0, 0.1])
        quads = np.repeat(np.arange(len(points))[:, None], 2, axis=1)
        with pytest.raises(NoMotionEstimateError, match="coincident or collinear"):
            estimate_motion(quads, prev, cur, calib)
        with pytest.raises(NoMotionEstimateError, match="coincident or collinear"):
            _loop_estimate_motion(quads, prev, cur, calib)

    def test_no_sample_of_the_sweeps_is_degenerate(self, monkeypatch):
        """The degenerate-sample rule flags nothing on the accuracy sweep
        or on vo_corridor seed 101, so it leaves their results as they
        were."""
        flagged = []

        def spy(samples):
            out = degenerate(samples)
            flagged.append(int(out.sum()))
            return out

        degenerate = vo._degenerate
        monkeypatch.setattr(vo, "_degenerate", spy)
        for seed in range(20):
            _, prev, cur = self._frames(ACCURACY, seed)
            estimate_motion(quad_match(prev, cur), prev, cur, cfg=RansacConfig(seed=seed))
        run_vo(gen_scene(CORRIDOR, 101))
        assert len(flagged) == 20 + 39 and sum(flagged) == 0


class TestDrawSamples:
    @pytest.mark.parametrize("n", [3, 4, 5, 7, 100, 257])
    def test_matches_choice(self, n):
        """One block of draws gives the samples of 100 `choice` calls, for
        every seed: n = 3 draws nothing for Floyd's first pick."""
        for seed in range(200):
            rng = np.random.default_rng(seed)
            expected = np.array([rng.choice(n, size=3, replace=False) for _ in range(100)])
            samples = _draw_samples(n, 100, seed)
            assert samples.dtype == np.intp
            np.testing.assert_array_equal(samples, expected)

    def test_rejected_draw_falls_back_to_choice(self):
        """For n = 3e9 a draw is rejected about once in three, so seed 0's
        block holds one and the samples come from `choice` itself."""
        n = 3 * 10**9
        span = np.array([n - 2, n - 1, n], dtype=np.uint64)
        u = np.random.default_rng(0).integers(0, 2**32, size=(100, 5), dtype=np.uint32)
        low = (u[:, :3].astype(np.uint64) * span) & 0xFFFFFFFF
        assert np.any(low < (2**32 - span) % span)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            expected = np.array([rng.choice(n, size=3, replace=False) for _ in range(100)])
            samples = _draw_samples(n, 100, seed)
            assert samples.dtype == np.intp
            np.testing.assert_array_equal(samples, expected)


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

        scene = gen_scene(WIDE, seed=20)
        sub = run_vo(scene, mode="subpixel")
        pix = run_vo(scene, mode="pixel")
        rep_sub = rel_trans_error(scene.trajectory, sub.poses)
        rep_pix = rel_trans_error(scene.trajectory, pix.poses)
        assert rep_pix.average > rep_sub.average

    def test_pixel_mode_sets_aside_zero_disparity_quads(self):
        """Rounding leaves some quads of this scene with no disparity; they
        are set aside rather than failing their frames."""
        assert run_vo(gen_scene(WIDE, seed=20), mode="pixel").failures == 0

    def test_non_finite_frame_counts_as_failures(self):
        result = run_vo(_non_finite_frame_scene())
        assert result.failures == 2  # frame 2 as current, then as previous
        assert result.errors == [None, "InsufficientDataError", "InsufficientDataError", None]
        assert result.inliers[1:3] == [0, 0] and min(result.inliers[::3]) >= 6
        assert len(result.poses) == 5
        assert all(np.all(np.isfinite(p.position)) for p in result.poses)

    @pytest.mark.parametrize(
        ("cfg", "seed", "mode", "ransac"),
        [
            *((CORRIDOR, seed, "subpixel", RansacConfig()) for seed in (101, 102, 103)),
            (WIDE, 20, "pixel", RansacConfig()),
            (SceneConfig(n_frames=40, step=0.5, closed_loop=True, max_depth=40.0), 2, "subpixel",
             RansacConfig()),
            (None, None, "subpixel", RansacConfig()),  # the non-finite frame
            (SHORT_OF_CONSENSUS, 1, "subpixel", STRICT),
        ],
    )
    def test_matches_per_pair_loop(self, cfg, seed, mode, ransac):
        """The staged pass over all pairs gives the poses, inlier counts and
        failures of estimating one pair at a time, bit for bit."""
        scene = _non_finite_frame_scene() if cfg is None else gen_scene(cfg, seed)
        result = run_vo(scene, mode, ransac)
        poses, inliers, errors = _loop_run_vo(scene, mode, ransac)
        assert _pose_bytes(result.poses) == _pose_bytes(poses)
        assert result.inliers == inliers
        assert result.errors == errors
        assert result.failures == sum(e is not None for e in errors)
        assert len(result.times_ms) == len(scene.frames) - 1

    def test_failing_scene_fails_nine_of_ten(self):
        result = run_vo(gen_scene(SHORT_OF_CONSENSUS, 1), cfg=STRICT)
        assert result.failures == 9
        assert set(result.errors) == {None, "NoMotionEstimateError"}

    def test_unknown_mode_rejected_before_any_pair(self):
        scene = gen_scene(SceneConfig(n_frames=1), seed=1)
        assert len(run_vo(scene).poses) == 1
        with pytest.raises(ValueError, match="unknown mode"):
            run_vo(scene, mode="bogus")
        prev, cur = gen_scene(SceneConfig(n_frames=2), seed=1).frames
        with pytest.raises(ValueError, match="unknown mode"):
            estimate_motion(quad_match(prev, cur), prev, cur, mode="bogus")
