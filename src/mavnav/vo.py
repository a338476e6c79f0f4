"""Sparse stereo visual odometry on synthetic scenes.

Scenes are generated by projecting random landmarks through a rectified
pinhole stereo pair along a configurable trajectory; detection is
abstracted into per-frame stereo observations whose scalar descriptors
carry configurable ambiguity noise. Matching closes a loop across the
previous and current stereo pairs (mutual nearest descriptors; the
within-pair links are given by the rectified pairing), and bucketing
spreads the survivors over the image.

Frame-to-frame motion follows the quad-matching, 3-point RANSAC and
Gauss-Newton odometry of Kitt, Geiger & Lategahn (2010). Every minimal
sample of a frame is drawn up front, and all hypotheses are refined from
the identity by one batched Gauss-Newton on the summed squared
reprojection error in both current images: one residual-and-Jacobian
kernel evaluates the whole (hypotheses, points) stack, the 6x6 normal
equations are solved as a stack, and the line search evaluates all 12
step halvings of every hypothesis at once, keeping the largest that does
not raise the cost. Every hypothesis is then scored against every quad
in one array. The refit runs the same Gauss-Newton on one problem and
weights each match by the inverse of its propagated depth uncertainty: a
point triangulated from one stereo pair has a depth error growing as
z^2, and the disparity variance is carried into the spread of its
predicted reprojection. Observations are used as-is in subpixel mode and
quantized to integer pixels first in pixel mode; quads with a pixel that
is not finite are set aside.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .geometry import Pose, Quat, compose, inverse, row_dot


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


def _triangulate(calib: StereoCalib, px: np.ndarray) -> np.ndarray:
    """Camera-frame 3D points (n, 3) from rectified stereo pixels (n, 4)
    laid out (u_left, v_left, u_right, v_right)."""
    disparity = px[:, 0] - px[:, 2]
    if np.any(disparity <= 0):
        raise VoError("non-positive disparity")
    z = calib.focal * calib.baseline / disparity
    x = (px[:, 0] - calib.cx) * z / calib.focal
    y = (px[:, 1] - calib.cy) * z / calib.focal
    return np.column_stack([x, y, z])


def triangulate(calib: StereoCalib, obs: StereoObservation) -> np.ndarray:
    """Camera-frame 3D point from a rectified stereo observation."""
    return _triangulate(calib, np.array([[*obs.left, *obs.right]], dtype=float))[0]


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
    observations). Matches are bucketed on the current left pixel, and
    each bucket keeps its first `bucket_cap` in previous-frame order. A
    match whose current left pixel is not finite has no bucket and is
    dropped.
    """
    if not prev_frame or not cur_frame:
        return []
    d_prev = np.array([o.descriptor for o in prev_frame])
    d_cur = np.array([o.descriptor for o in cur_frame])
    fwd = np.abs(d_prev[:, None] - d_cur[None, :]).argmin(axis=1)
    bwd = np.abs(d_cur[:, None] - d_prev[None, :]).argmin(axis=1)
    i = np.flatnonzero(bwd[fwd] == np.arange(len(prev_frame)))  # loop closed
    j = fwd[i]
    left = np.array([cur_frame[k].left for k in j.tolist()]).reshape(-1, 2)
    finite = np.isfinite(left).all(axis=1)
    i, j, left = i[finite], j[finite], left[finite]

    cell_size = (calib.width / bucket_grid[0], calib.height / bucket_grid[1])
    cell = np.minimum(np.trunc(left / cell_size), np.subtract(bucket_grid, 1))
    order = np.lexsort((cell[:, 1], cell[:, 0]))  # stable: match order within a cell
    c = cell[order]
    first = np.r_[True, np.any(c[1:] != c[:-1], axis=1)]
    run_start = np.maximum.accumulate(np.where(first, np.arange(len(c)), 0))
    rank = np.empty(len(c), dtype=np.int64)
    rank[order] = np.arange(len(c)) - run_start
    keep = rank < bucket_cap
    return [QuadMatch(a, a, b, b) for a, b in zip(i[keep].tolist(), j[keep].tolist())]


@dataclass(frozen=True)
class RansacConfig:
    iterations: int = 100
    threshold_px: float | None = None  # default 1.5 pixel mode, 0.75 subpixel
    min_consensus: int = 6
    max_gn_iters: int = 20
    grad_tol: float = 1e-9
    seed: int = 0


_HALVINGS = 0.5 ** np.arange(12)  # line-search step scales, largest first


def _residuals(points, targets, calib, r_mat, t_vec, want_jacobian=False):
    """Reprojection residuals (4 per point) of prev-frame points mapped
    into the current pair under each of m poses, and their Jacobian wrt
    the local (translation, rotation-vector) increment applied on the left.

    points (..., k, 3) and targets (..., k, 4) are shared by the m poses
    r_mat (..., m, 3, 3), t_vec (..., m, 3); leading axes broadcast. Gives
    residuals (..., m, k, 4) and a Jacobian (..., m, k, 4, 6), or None.
    """
    m = r_mat.shape[-3]
    # the m rotations side by side, so that the points meet all of them in
    # one matrix product
    p_c = points @ r_mat.swapaxes(-1, -3).swapaxes(-1, -2).reshape(r_mat.shape[:-3] + (3, 3 * m))
    p_c = np.swapaxes(p_c.reshape(p_c.shape[:-1] + (m, 3)), -3, -2) + t_vec[..., None, :]
    targets = targets[..., None, :, :]
    x, y = p_c[..., 0], p_c[..., 1]
    z = np.maximum(p_c[..., 2], 1e-9)
    f, b = calib.focal, calib.baseline
    v = f * y / z + calib.cy
    res = np.empty(z.shape + (4,))
    res[..., 0] = f * x / z + calib.cx - targets[..., 0]
    res[..., 1] = v - targets[..., 1]
    res[..., 2] = f * (x - b) / z + calib.cx - targets[..., 2]
    res[..., 3] = v - targets[..., 3]
    if not want_jacobian:
        return res, None
    # d p_c / d xi = [I | -[p_c]x], chained through the pinhole projection;
    # rows u, v, u_right, v. Products are formed in the order of the
    # (3,) x (3, 6) product they stand for, so each entry rounds as it did.
    inv_z = 1.0 / z
    inv_z2 = inv_z * inv_z
    fz = f * inv_z
    du_z = -f * x * inv_z2
    dv_z = -f * y * inv_z2
    dur_z = -f * (x - b) * inv_z2
    jac = np.zeros(res.shape + (6,))
    jac[..., 0, 0] = fz
    jac[..., 0, 2] = du_z
    jac[..., 0, 3] = du_z * y
    jac[..., 0, 4] = fz * z + du_z * -x
    jac[..., 0, 5] = fz * -y
    jac[..., 1, 1] = fz
    jac[..., 1, 2] = dv_z
    jac[..., 1, 3] = fz * -z + dv_z * y
    jac[..., 1, 4] = dv_z * -x
    jac[..., 1, 5] = fz * x
    jac[..., 2, 0] = fz
    jac[..., 2, 2] = dur_z
    jac[..., 2, 3] = dur_z * y
    jac[..., 2, 4] = fz * z + dur_z * -x
    jac[..., 2, 5] = fz * -y
    jac[..., 3, :] = jac[..., 1, :]
    return res, jac


def _halving_rotations(rotvec):
    """Rotation matrices (..., 12, 3, 3) of rotation vectors (..., 3)
    scaled by each of _HALVINGS, formed step for step as
    `Quat.from_rotvec(scale * rotvec).to_matrix()` forms them. Halving a
    vector halves its norm exactly and keeps its direction, so the norm
    and the axis are computed once."""
    angle = np.sqrt(row_dot(rotvec, rotvec))[..., None]
    some = angle >= 1e-12  # else every halving is below 1e-12 as well
    axis = rotvec / np.where(some, angle, 1.0)
    factor_n = np.where(some, np.sqrt(row_dot(axis, axis))[..., None], 1.0)
    angle = angle * _HALVINGS
    half = 0.5 * angle
    tiny = angle < 1e-12  # first-order quaternion, as in Quat.from_rotvec
    factor = np.sin(half) / factor_n
    w = np.where(tiny, 1.0, np.cos(half))
    x, y, z = (
        np.where(tiny, 0.5 * (_HALVINGS * rotvec[..., i, None]), axis[..., i, None] * factor)
        for i in range(3)
    )
    n = np.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / n, x / n, y / n, z / n
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz, wx, wy, wz = x * y, x * z, y * z, w * x, w * y, w * z
    return np.stack(
        [
            1 - 2 * (yy + zz), 2 * (xy - wz), 2 * (xz + wy),
            2 * (xy + wz), 1 - 2 * (xx + zz), 2 * (yz - wx),
            2 * (xz - wy), 2 * (yz + wx), 1 - 2 * (xx + yy),
        ],
        axis=-1,
    ).reshape(w.shape + (3, 3))


def _gauss_newton(points, targets, calib, cfg: RansacConfig, weights=None):
    """Minimize the summed squared reprojection error over SE(3), from the
    identity, for a stack of B independent problems of k points each.

    points (B, k, 3), targets (B, k, 4) and optional weights (B, k), which
    scale each point's squared residuals; returns r_mat (B, 3, 3), t_vec
    (B, 3) and the final costs (B,). A problem stops when its gradient is
    below `grad_tol`, its normal equations are singular, or no step scale
    of the line search lowers its cost. The line search tries all 12
    halvings of every step at once and keeps the largest scale that does
    not raise the cost, so the cost is monotone.
    """
    n_prob = len(points)
    sw = (np.ones(points.shape[:-1]) if weights is None else np.sqrt(weights))[:, None, :, None]
    r_mat = np.tile(np.eye(3), (n_prob, 1, 1))
    t_vec = np.zeros((n_prob, 3))
    res, _ = _residuals(points, targets, calib, r_mat[:, None], t_vec[:, None])
    cost = np.sum((sw * res) ** 2, axis=(-2, -1))[:, 0]
    active = np.arange(n_prob)
    for _ in range(cfg.max_gn_iters):
        if not len(active):
            break
        w = sw[active]
        res, jac = _residuals(points[active], targets[active], calib,
                              r_mat[active, None], t_vec[active, None], True)
        r_flat = (w * res).reshape(len(active), -1, 1)
        j_flat = (w[..., None] * jac).reshape(len(active), -1, 6)
        grad = (np.swapaxes(j_flat, 1, 2) @ r_flat)[..., 0]
        moving = ~(np.max(np.abs(grad), axis=1) < cfg.grad_tol)
        active, grad, j_flat = active[moving], grad[moving], j_flat[moving]
        h = np.swapaxes(j_flat, 1, 2) @ j_flat + 1e-12 * np.eye(6)
        try:
            step = np.linalg.solve(h, -grad[..., None])[..., 0]
        except np.linalg.LinAlgError:  # stop only the singular problems
            step = np.full_like(grad, np.nan)
            for i in range(len(h)):
                try:
                    step[i] = np.linalg.solve(h[i], -grad[i])
                except np.linalg.LinAlgError:
                    pass
            solved = ~np.isnan(step).any(axis=1)
            active, step = active[solved], step[solved]
        dr = _halving_rotations(step[:, 3:])  # (A, 12, 3, 3)
        r_new = dr @ r_mat[active, None]
        t_new = (dr @ t_vec[active, None, :, None])[..., 0] + _HALVINGS[:, None] * step[:, None, :3]
        res_new, _ = _residuals(points[active], targets[active], calib, r_new, t_new)
        cost_new = np.sum((sw[active] * res_new) ** 2, axis=(-2, -1))
        accepted = cost_new <= cost[active, None]
        rows = np.flatnonzero(accepted.any(axis=1))
        scale = np.argmax(accepted[rows], axis=1)  # first accepted = largest scale
        active = active[rows]
        r_mat[active] = r_new[rows, scale]
        t_vec[active] = t_new[rows, scale]
        cost[active] = cost_new[rows, scale]
    return r_mat, t_vec, cost


def _pixel_error(res):
    """Worse of the two images' pixel distances, per point."""
    return np.maximum(np.linalg.norm(res[..., :2], axis=-1), np.linalg.norm(res[..., 2:], axis=-1))


def estimate_motion(
    quads: list[QuadMatch],
    prev_frame: list[StereoObservation],
    cur_frame: list[StereoObservation],
    calib: StereoCalib = StereoCalib(),
    mode: str = "subpixel",
    cfg: RansacConfig = RansacConfig(),
):
    """RANSAC + Gauss-Newton relative pose from quad matches.

    Quads with a pixel that is not finite are set aside first. All
    `cfg.iterations` minimal 3-point samples are drawn up front and
    refined together by one batched Gauss-Newton from the identity; every
    hypothesis is then scored against every quad at once, and the first
    with the most quads within `threshold_px` wins. The refit weights each
    of its quads by the inverse of the variance that the quad's
    triangulated depth adds to its reprojection, re-classifies on the
    error normalized by that spread, and repeats until the set settles.

    Returns (pose, inlier_indices): `pose` is the current camera pose
    expressed in the previous camera frame, so concatenating the
    returned poses integrates the trajectory; the inliers index `quads`
    and are the quads within `threshold_px` pixels under that pose.
    Raises InsufficientDataError below 3 finite quads and
    NoMotionEstimateError below `cfg.min_consensus` inliers.
    """
    if mode not in ("pixel", "subpixel"):
        raise ValueError(f"unknown mode {mode!r}")
    threshold = cfg.threshold_px
    if threshold is None:
        threshold = 1.5 if mode == "pixel" else 0.75

    prev_px = np.array([(*prev_frame[q.left_prev].left, *prev_frame[q.left_prev].right)
                        for q in quads], dtype=float).reshape(-1, 4)
    targets = np.array([(*cur_frame[q.left_cur].left, *cur_frame[q.left_cur].right)
                        for q in quads], dtype=float).reshape(-1, 4)
    kept = np.flatnonzero(np.isfinite(prev_px).all(axis=1) & np.isfinite(targets).all(axis=1))
    if len(kept) < 3:
        raise InsufficientDataError(f"need >= 3 finite quad matches, got {len(kept)}")
    prev_px, targets = prev_px[kept], targets[kept]
    if mode == "pixel":
        prev_px, targets = np.round(prev_px), np.round(targets)
    points = _triangulate(calib, prev_px)

    def refit_errors(r_mat, t_vec):
        """Pixel error of every quad; that error over s = sqrt(1 + 2 g^2),
        the factor by which the previous point's depth widens its spread
        (inf for a point behind the current camera); and s. Here g is the
        shift of the reprojection per pixel of previous disparity in the
        worse image; the disparity variance is twice the pixel variance."""
        (res,), (jac,) = _residuals(points, targets, calib, r_mat[None], t_vec[None], True)
        rotated = points @ r_mat.T
        # the translation columns of the Jacobian are d(res)/d(p_c), and a
        # triangulated point scales as 1/disparity: dX/dd = -X z / (f b)
        dp_dd = -rotated * (points[:, 2:] / (calib.focal * calib.baseline))
        shift = np.einsum("nkj,nj->nk", jac[:, :, :3], dp_dd)
        g = np.maximum(np.hypot(shift[:, 0], shift[:, 1]), np.hypot(shift[:, 2], shift[:, 3]))
        scale = np.sqrt(1.0 + 2.0 * g**2)
        err = _pixel_error(res)
        in_front = rotated[:, 2] + t_vec[2] > 0
        return err, np.where(in_front, err / scale, np.inf), scale

    rng = np.random.default_rng(cfg.seed)
    n = len(points)
    samples = np.array(
        [rng.choice(n, size=3, replace=False) for _ in range(cfg.iterations)], dtype=np.intp
    ).reshape(-1, 3)
    hyp_r, hyp_t, _ = _gauss_newton(points[samples], targets[samples], calib, cfg)
    res = _residuals(points, targets, calib, hyp_r[:, None], hyp_t[:, None])[0][:, 0]
    counts = np.sum(_pixel_error(res) <= threshold, axis=1)
    best_count = int(counts.max(initial=0))
    if best_count < max(cfg.min_consensus, 1):
        raise NoMotionEstimateError(
            f"consensus {best_count} below minimum {cfg.min_consensus}"
        )
    best = int(np.argmax(counts))  # the first of the largest consensus

    # depth-weighted refit from the best hypothesis's inliers, re-classified
    # on the normalized error until the set stabilizes
    r_mat, t_vec = hyp_r[best], hyp_t[best]
    _, _, scale = refit_errors(r_mat, t_vec)
    mask = _pixel_error(res[best]) <= threshold
    for _ in range(10):
        r_fit, t_fit, _ = _gauss_newton(
            points[mask][None], targets[mask][None], calib, cfg, (1.0 / scale[mask] ** 2)[None]
        )
        r_mat, t_vec = r_fit[0], t_fit[0]
        err, norm_err, scale = refit_errors(r_mat, t_vec)
        new_mask = norm_err <= threshold
        if int(new_mask.sum()) < cfg.min_consensus or np.array_equal(new_mask, mask):
            break
        mask = new_mask

    # W maps prev-camera to cur-camera coordinates; report cur-in-prev
    q = Quat.from_matrix(r_mat)
    w_pose = Pose(t_vec, q, 0.0)
    rel = inverse(w_pose)
    return Pose(rel.position, rel.orientation, 0.0), kept[err <= threshold]


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
