"""Sparse stereo visual odometry on synthetic scenes.

Scenes are generated by projecting random landmarks through a rectified
pinhole stereo pair along a configurable trajectory; detection is
abstracted into per-frame stereo observations whose scalar descriptors
carry configurable ambiguity noise. Matching closes a loop across the
previous and current stereo pairs (mutual nearest descriptors; the
within-pair links are given by the rectified pairing), bucketing spreads
the survivors over the image, and frame-to-frame motion is estimated
with RANSAC over minimal 3-point samples refined by Gauss-Newton on the
summed squared reprojection error in both current images. The refit
weights each match by the inverse of its propagated depth uncertainty:
a point triangulated from one stereo pair has a depth error growing as
z^2, and the disparity variance is carried into the spread of its
predicted reprojection. Observations
are used as-is in subpixel mode and quantized to integer pixels first in
pixel mode.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .geometry import Pose, Quat, compose, inverse

CAM_DOWN = np.array([0.0, 0.0, -1.0])


class VoError(RuntimeError):
    pass


class InsufficientDataError(VoError):
    pass


class NoMotionEstimateError(VoError):
    pass


@dataclass(frozen=True)
class StereoCalib:
    focal: float = 450.0  # [px]
    cx: float = 376.0
    cy: float = 240.0
    baseline: float = 0.11  # [m]
    width: int = 752
    height: int = 480

    def __post_init__(self):
        if self.focal <= 0 or self.baseline <= 0:
            raise ValueError("focal length and baseline must be positive")


@dataclass(frozen=True)
class StereoObservation:
    feature_id: int
    left: tuple[float, float]
    right: tuple[float, float]
    descriptor: float


@dataclass(frozen=True)
class QuadMatch:
    """Indices into (left_prev, right_prev, left_cur, right_cur).

    Synthetic observations arrive stereo-paired, so the within-frame
    indices coincide; the temporal links close the matching loop.
    """

    left_prev: int
    right_prev: int
    left_cur: int
    right_cur: int


@dataclass(frozen=True)
class SceneConfig:
    n_landmarks: int = 400
    n_frames: int = 30
    step: float = 0.2  # forward motion per frame [m]
    yaw_rate: float = 0.0  # [rad/frame]
    corridor_halfwidth: float = 4.0
    corridor_height: float = 4.0
    min_depth: float = 1.0
    max_depth: float = 30.0
    pixel_noise: float = 0.0  # [px]
    outlier_rate: float = 0.0
    descriptor_noise: float = 0.0
    closed_loop: bool = False  # circular trajectory returning to start

    def __post_init__(self):
        if self.n_landmarks < 50:
            raise ValueError("need at least 50 landmarks")


@dataclass
class StereoScene:
    landmarks: np.ndarray
    trajectory: list[Pose]
    frames: list[list[StereoObservation]]
    config: SceneConfig
    seed: int


def camera_orientation(forward: np.ndarray) -> Quat:
    """Body-to-world quaternion for a z-forward, y-down camera."""
    f = forward / np.linalg.norm(forward)
    up = np.array([0.0, 0.0, 1.0])
    r = np.cross(f, up)
    n = np.linalg.norm(r)
    if n < 1e-9:
        r = np.array([1.0, 0.0, 0.0])
        n = 1.0
    r = r / n
    down = np.cross(f, r)
    return Quat.from_matrix(np.column_stack([r, down, f]))


def project_stereo(calib: StereoCalib, p_cam: np.ndarray):
    """(u_l, v_l, u_r, v_r) of a camera-frame point; None behind camera."""
    x, y, z = p_cam
    if z <= 1e-6:
        return None
    u_l = calib.focal * x / z + calib.cx
    v = calib.focal * y / z + calib.cy
    u_r = calib.focal * (x - calib.baseline) / z + calib.cx
    return u_l, v, u_r


def triangulate(calib: StereoCalib, obs: StereoObservation) -> np.ndarray:
    """Camera-frame 3D point from a rectified stereo observation."""
    disparity = obs.left[0] - obs.right[0]
    if disparity <= 0:
        raise VoError("non-positive disparity")
    z = calib.focal * calib.baseline / disparity
    x = (obs.left[0] - calib.cx) * z / calib.focal
    y = (obs.left[1] - calib.cy) * z / calib.focal
    return np.array([x, y, z])


def gen_scene(config: SceneConfig, seed: int, calib: StereoCalib = StereoCalib()) -> StereoScene:
    """Deterministic synthetic stereo scene.

    Landmarks fill a corridor (or ring, for closed-loop trajectories);
    every frame observes the landmarks visible in both cameras with
    optional pixel noise, outlier injection and descriptor ambiguity.
    """
    rng = np.random.default_rng(seed)
    n = config.n_frames
    poses = []
    if config.closed_loop:
        radius = n * config.step / (2.0 * math.pi)
        for k in range(n):
            ang = 2.0 * math.pi * k / n
            pos = np.array([radius * math.cos(ang), radius * math.sin(ang), 1.5])
            fwd = np.array([-math.sin(ang), math.cos(ang), 0.0])
            poses.append(Pose(pos, camera_orientation(fwd), float(k)))
        center = np.zeros(3)
        ring_r = radius + rng.uniform(2.0, config.corridor_halfwidth + 6.0, config.n_landmarks)
        ring_a = rng.uniform(0, 2 * math.pi, config.n_landmarks)
        landmarks = np.column_stack(
            [
                center[0] + ring_r * np.cos(ring_a),
                center[1] + ring_r * np.sin(ring_a),
                rng.uniform(0.0, config.corridor_height, config.n_landmarks),
            ]
        )
    else:
        yaw = 0.0
        pos = np.array([0.0, 0.0, 1.5])
        for k in range(n):
            fwd = np.array([math.cos(yaw), math.sin(yaw), 0.0])
            poses.append(Pose(pos.copy(), camera_orientation(fwd), float(k)))
            pos = pos + fwd * config.step
            yaw += config.yaw_rate
        length = n * config.step
        landmarks = np.column_stack(
            [
                rng.uniform(-2.0, length + config.max_depth, config.n_landmarks),
                rng.uniform(-config.corridor_halfwidth, config.corridor_halfwidth, config.n_landmarks),
                rng.uniform(0.0, config.corridor_height, config.n_landmarks),
            ]
        )

    frames = []
    for pose in poses:
        r_wc = pose.orientation.to_matrix()
        obs_list = []
        for lid in range(config.n_landmarks):
            p_cam = r_wc.T @ (landmarks[lid] - pose.position)
            if not (config.min_depth <= p_cam[2] <= config.max_depth):
                continue
            proj = project_stereo(calib, p_cam)
            if proj is None:
                continue
            u_l, v, u_r = proj
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
            obs_list.append(
                StereoObservation(lid, (float(u_l), float(v)), (float(u_r), float(v)), descriptor)
            )
        frames.append(obs_list)
    return StereoScene(landmarks, poses, frames, config, seed)


def quad_match(
    prev_frame: list[StereoObservation],
    cur_frame: list[StereoObservation],
    calib: StereoCalib = StereoCalib(),
    bucket_grid: tuple[int, int] = (8, 5),
    bucket_cap: int = 10,
) -> list[QuadMatch]:
    """Loop-closed temporal matching plus per-bucket retention.

    A candidate pair survives only if the descriptor chain
    prev -> cur -> prev returns to the starting observation (the
    within-pair stereo links are identities for rectified synthetic
    observations). At most `bucket_cap` matches are kept per image
    bucket, bucketed on the current left pixel.
    """
    if not prev_frame or not cur_frame:
        return []
    d_prev = np.array([o.descriptor for o in prev_frame])
    d_cur = np.array([o.descriptor for o in cur_frame])
    fwd = np.abs(d_prev[:, None] - d_cur[None, :]).argmin(axis=1)
    bwd = np.abs(d_cur[:, None] - d_prev[None, :]).argmin(axis=1)

    cell_w = calib.width / bucket_grid[0]
    cell_h = calib.height / bucket_grid[1]
    bucket_counts: dict[tuple[int, int], int] = {}
    matches = []
    for i, j in enumerate(fwd):
        if bwd[j] != i:
            continue  # loop not closed
        u, v = cur_frame[j].left
        cell = (min(int(u / cell_w), bucket_grid[0] - 1), min(int(v / cell_h), bucket_grid[1] - 1))
        if bucket_counts.get(cell, 0) >= bucket_cap:
            continue
        bucket_counts[cell] = bucket_counts.get(cell, 0) + 1
        matches.append(QuadMatch(i, i, int(j), int(j)))
    return matches


@dataclass(frozen=True)
class RansacConfig:
    iterations: int = 100
    threshold_px: float | None = None  # default 1.5 pixel mode, 0.75 subpixel
    min_consensus: int = 6
    max_gn_iters: int = 20
    grad_tol: float = 1e-9
    seed: int = 0


def _quantize(obs: StereoObservation) -> StereoObservation:
    return replace(
        obs,
        left=(float(round(obs.left[0])), float(round(obs.left[1]))),
        right=(float(round(obs.right[0])), float(round(obs.right[1]))),
    )


def _residuals_and_jacobian(xi_points, targets, calib, r_mat, t_vec, want_jacobian=True):
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


def _gauss_newton(points, targets, calib, cfg: RansacConfig, weights=None):
    """Minimize summed squared reprojection error over SE(3); returns
    (r_mat, t_vec, final cost). Step halving keeps the cost monotone.

    `weights` (one per point, default 1) scale each point's squared
    residuals; the refit in `estimate_motion` passes the inverse variance
    that the point's triangulated depth adds to its reprojection.
    """
    sw = None if weights is None else np.sqrt(weights)[:, None]

    def residuals(r_mat, t_vec, want_jacobian=False):
        res, jac = _residuals_and_jacobian(points, targets, calib, r_mat, t_vec, want_jacobian)
        if sw is None:
            return res, jac
        return sw * res, None if jac is None else sw[:, :, None] * jac

    r_mat = np.eye(3)
    t_vec = np.zeros(3)
    res, _ = residuals(r_mat, t_vec)
    cost = float(np.sum(res**2))
    for _ in range(cfg.max_gn_iters):
        res, jac = residuals(r_mat, t_vec, True)
        j_flat = jac.reshape(-1, 6)
        r_flat = res.reshape(-1)
        grad = j_flat.T @ r_flat
        if np.max(np.abs(grad)) < cfg.grad_tol:
            break
        h = j_flat.T @ j_flat
        try:
            step = np.linalg.solve(h + 1e-12 * np.eye(6), -grad)
        except np.linalg.LinAlgError:
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
            break
    return r_mat, t_vec, cost


def estimate_motion(
    quads: list[QuadMatch],
    prev_frame: list[StereoObservation],
    cur_frame: list[StereoObservation],
    calib: StereoCalib = StereoCalib(),
    mode: str = "subpixel",
    cfg: RansacConfig = RansacConfig(),
):
    """RANSAC + Gauss-Newton relative pose from quad matches.

    Consensus counts the quads within `threshold_px` of each 3-point
    hypothesis. The refit weights each quad by the inverse of the variance
    its triangulated depth adds to its reprojection, and re-classifies on
    the error normalized by that spread.

    Returns (pose, inlier_indices): `pose` is the current camera pose
    expressed in the previous camera frame, so concatenating the
    returned poses integrates the trajectory; the inliers are the quads
    within `threshold_px` pixels under that pose.
    """
    if mode not in ("pixel", "subpixel"):
        raise ValueError(f"unknown mode {mode!r}")
    if len(quads) < 3:
        raise InsufficientDataError(f"need >= 3 quad matches, got {len(quads)}")
    threshold = cfg.threshold_px
    if threshold is None:
        threshold = 1.5 if mode == "pixel" else 0.75

    prev_obs = [prev_frame[q.left_prev] for q in quads]
    cur_obs = [cur_frame[q.left_cur] for q in quads]
    if mode == "pixel":
        prev_obs = [_quantize(o) for o in prev_obs]
        cur_obs = [_quantize(o) for o in cur_obs]

    points = np.array([triangulate(calib, o) for o in prev_obs])
    targets = np.array([[o.left[0], o.left[1], o.right[0], o.right[1]] for o in cur_obs])

    def pixel_error(res):
        return np.maximum(np.linalg.norm(res[:, :2], axis=1), np.linalg.norm(res[:, 2:], axis=1))

    def inliers_for(r_mat, t_vec):
        res, _ = _residuals_and_jacobian(points, targets, calib, r_mat, t_vec, False)
        return pixel_error(res) <= threshold

    def refit_errors(r_mat, t_vec):
        """Pixel error of every quad; that error over s = sqrt(1 + 2 g^2),
        the factor by which the previous point's depth widens its spread
        (inf for a point behind the current camera); and s. Here g is the
        shift of the reprojection per pixel of previous disparity in the
        worse image; the disparity variance is twice the pixel variance."""
        res, jac = _residuals_and_jacobian(points, targets, calib, r_mat, t_vec)
        rotated = points @ r_mat.T
        # the translation columns of the Jacobian are d(res)/d(p_c), and a
        # triangulated point scales as 1/disparity: dX/dd = -X z / (f b)
        dp_dd = -rotated * (points[:, 2:] / (calib.focal * calib.baseline))
        shift = np.einsum("nkj,nj->nk", jac[:, :, :3], dp_dd)
        g = np.maximum(np.hypot(shift[:, 0], shift[:, 1]), np.hypot(shift[:, 2], shift[:, 3]))
        scale = np.sqrt(1.0 + 2.0 * g**2)
        err = pixel_error(res)
        in_front = rotated[:, 2] + t_vec[2] > 0
        return err, np.where(in_front, err / scale, np.inf), scale

    rng = np.random.default_rng(cfg.seed)
    n = len(quads)
    best_pose = None
    best_mask = None
    best_count = 0
    for _ in range(cfg.iterations):
        sample = rng.choice(n, size=3, replace=False)
        r_mat, t_vec, _ = _gauss_newton(points[sample], targets[sample], calib, cfg)
        mask = inliers_for(r_mat, t_vec)
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask
            best_pose = (r_mat, t_vec)
    if best_pose is None or best_count < cfg.min_consensus:
        raise NoMotionEstimateError(
            f"consensus {best_count} below minimum {cfg.min_consensus}"
        )

    # depth-weighted refit from the best hypothesis's inliers, re-classified
    # on the normalized error until the set stabilizes
    r_mat, t_vec = best_pose
    _, _, scale = refit_errors(r_mat, t_vec)
    mask = best_mask
    for _ in range(10):
        r_mat, t_vec, _ = _gauss_newton(
            points[mask], targets[mask], calib, cfg, 1.0 / scale[mask] ** 2
        )
        err, norm_err, scale = refit_errors(r_mat, t_vec)
        new_mask = norm_err <= threshold
        if int(new_mask.sum()) < cfg.min_consensus or np.array_equal(new_mask, mask):
            break
        mask = new_mask

    # W maps prev-camera to cur-camera coordinates; report cur-in-prev
    q = Quat.from_matrix(r_mat)
    w_pose = Pose(t_vec, q, 0.0)
    rel = inverse(w_pose)
    return Pose(rel.position, rel.orientation, 0.0), np.nonzero(err <= threshold)[0]


@dataclass
class VoResult:
    poses: list[Pose]
    times_ms: list[float]
    failures: int = 0


def run_vo(
    scene: StereoScene,
    mode: str = "subpixel",
    cfg: RansacConfig = RansacConfig(),
    calib: StereoCalib = StereoCalib(),
) -> VoResult:
    """Frame-to-frame odometry over a scene, no keyframing.

    The trajectory starts at the scene's first truth pose; when a frame's
    estimation fails the previous motion is held and counted.
    """
    poses = [scene.trajectory[0]]
    last_motion = Pose.identity()
    times_ms = []
    failures = 0
    for k in range(1, len(scene.frames)):
        t0 = time.perf_counter()
        quads = quad_match(scene.frames[k - 1], scene.frames[k], calib)
        try:
            motion, _ = estimate_motion(
                quads, scene.frames[k - 1], scene.frames[k], calib, mode,
                replace(cfg, seed=cfg.seed + k),
            )
            last_motion = motion
        except VoError:
            failures += 1
            motion = last_motion
        times_ms.append((time.perf_counter() - t0) * 1000.0)
        step = compose(poses[-1], motion)
        poses.append(Pose(step.position, step.orientation, float(k)))
    return VoResult(poses, times_ms, failures)
