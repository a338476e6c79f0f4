"""Sparse stereo visual odometry on synthetic scenes.

Scenes are generated by projecting random landmarks through a rectified
pinhole stereo pair along a configurable trajectory; detection is
abstracted into per-frame stereo observations whose scalar descriptors
carry configurable ambiguity noise. Matching closes a loop across the
previous and current stereo pairs (mutual nearest descriptors; the
within-pair links are given by the rectified pairing), and bucketing
spreads the survivors over the image.

Observations and matches are arrays. A `StereoFrame` holds one row per
observation: the landmark id (ground truth, which matching and
estimation never read), the pixels (u_left, v_left, u_right, v_right)
and the descriptor. Observations arrive stereo-paired, so a quad
(left_prev, right_prev, left_cur, right_cur) is one row in each frame,
and the quads of a frame pair are an (m, 2) integer array of (previous
row, current row).

Frame-to-frame motion follows the quad-matching, 3-point RANSAC and
Gauss-Newton odometry of Kitt, Geiger & Lategahn (2010). `run_vo`
estimates every frame pair of a scene in one staged pass, and
`estimate_motion` is that pass on one pair. Per pair, the usable quads
are triangulated and every minimal sample is drawn up front from the
pair's own generator, in one block of its outputs that gives the samples
of numpy's `choice` call for call. One batched Gauss-Newton then refines the
hypotheses of all pairs from the identity, on the summed squared
reprojection error in both current images: one residual-and-Jacobian
kernel evaluates the whole (hypotheses, points) stack, the 6x6 normal
equations are solved as a stack, and the line search tries every full
step at once and all 11 halvings of the steps that raised their cost,
keeping the largest scale that does not. A problem stops once its
applied step is below `step_tol`; a hypothesis, which only a count of
quads within the inlier threshold reads, stops at a step below 1e-4
already and runs at most 4 iterations. Each pair scores its hypotheses
against its quads in one array; a sample of coincident or collinear
points gets no consensus. The refit, run to `step_tol`, starts from a
pair's winning hypothesis and weights each match by the inverse of its
propagated depth uncertainty: a point
triangulated from one stereo pair has a depth error growing as z^2, and
the disparity variance is carried into the spread of its predicted
reprojection. Each refit round is one Gauss-Newton over every pair still
refitting, their inliers padded to the longest with rows of weight 0;
costs and normal equations are summed per problem over its own rows, so
a pair ends bit for bit where it would alone. Observations are used
as-is in subpixel mode and quantized to integer pixels first in pixel
mode; quads with a pixel that is not finite, or with no positive
previous disparity, are set aside.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .geometry import Pose, Quat, compose, inverse, row_dot


class VoError(RuntimeError):
    pass


class InsufficientDataError(VoError):
    pass


class NoMotionEstimateError(VoError):
    pass


def _validate(cfg, **checks: bool) -> None:
    """Raise a ValueError naming the first field of `cfg` that is not
    finite (None passes), else the first field whose check is False."""
    for name in (f.name for f in fields(cfg)):
        value = getattr(cfg, name)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    for name, ok in checks.items():
        if not ok:
            raise ValueError(f"{name} is out of range, got {getattr(cfg, name)}")


@dataclass(frozen=True)
class StereoCalib:
    focal: float = 450.0  # [px]
    cx: float = 376.0
    cy: float = 240.0
    baseline: float = 0.11  # [m]
    width: int = 752
    height: int = 480

    def __post_init__(self):
        _validate(self, focal=self.focal > 0, baseline=self.baseline > 0, width=self.width > 0,
                  height=self.height > 0)


@dataclass(frozen=True, eq=False)
class StereoFrame:
    ids: np.ndarray  # (n,) landmark indices
    px: np.ndarray  # (n, 4): u_left, v_left, u_right, v_right
    descriptors: np.ndarray  # (n,)


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
        _validate(self, n_landmarks=self.n_landmarks >= 50, n_frames=self.n_frames >= 1,
                  corridor_halfwidth=self.corridor_halfwidth > 0,
                  corridor_height=self.corridor_height > 0, min_depth=self.min_depth > 0,
                  max_depth=self.max_depth >= self.min_depth, pixel_noise=self.pixel_noise >= 0,
                  outlier_rate=0 <= self.outlier_rate <= 1,
                  descriptor_noise=self.descriptor_noise >= 0)


@dataclass
class StereoScene:
    landmarks: np.ndarray
    trajectory: list[Pose]
    frames: list[StereoFrame]
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


def _pinhole(calib: StereoCalib, x, y, z):
    """(u_l, v, u_r) of camera-frame coordinates; the rectified pair shares v."""
    f = calib.focal
    return f * x / z + calib.cx, f * y / z + calib.cy, f * (x - calib.baseline) / z + calib.cx


def project_stereo(calib: StereoCalib, p_cam: np.ndarray) -> np.ndarray:
    """Rows (u_l, v, u_r) of camera-frame points (n, 3) in front of the
    camera."""
    return np.column_stack(_pinhole(calib, *p_cam.T))


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
        p_cam = (landmarks - pose.position) @ pose.orientation.to_matrix()
        z = p_cam[:, 2]
        seen = np.flatnonzero((config.min_depth <= z) & (z <= config.max_depth) & (z > 1e-6))
        rows = []  # landmark id, u_l, v, u_r, v, descriptor
        # the draws go landmark by landmark: numpy's normal sampler takes a
        # variable number of raw draws, so a batched draw would change them
        for lid, (u_l, v, u_r) in zip(seen.tolist(), project_stereo(calib, p_cam[seen]).tolist()):
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
            rows.append((lid, u_l, v, u_r, v, descriptor))
        rows = np.array(rows).reshape(-1, 6)
        frames.append(StereoFrame(rows[:, 0].astype(np.intp), rows[:, 1:5], rows[:, 5]))
    return StereoScene(landmarks, poses, frames, config, seed)


def quad_match(
    prev_frame: StereoFrame,
    cur_frame: StereoFrame,
    calib: StereoCalib = StereoCalib(),
    bucket_grid: tuple[int, int] = (8, 5),
    bucket_cap: int = 10,
) -> np.ndarray:
    """Loop-closed temporal matching plus per-bucket retention.

    A candidate pair survives only if the descriptor chain
    prev -> cur -> prev returns to the starting observation (the
    within-pair stereo links are identities for rectified synthetic
    observations). Matches are bucketed on the current left pixel, and
    each bucket keeps its first `bucket_cap` in previous-frame order. A
    match whose current left pixel is not finite has no bucket and is
    dropped. Returns the quads as an (m, 2) array of (previous row,
    current row).
    """
    if not len(prev_frame.ids) or not len(cur_frame.ids):
        return np.empty((0, 2), dtype=np.intp)
    # |a - b| and |b - a| are the same float, so one matrix serves both ways
    dist = np.abs(prev_frame.descriptors[:, None] - cur_frame.descriptors[None, :])
    fwd, bwd = dist.argmin(axis=1), dist.argmin(axis=0)
    i = np.flatnonzero(bwd[fwd] == np.arange(len(fwd)))  # loop closed
    j = fwd[i]
    left = cur_frame.px[j, :2]
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
    return np.column_stack([i[keep], j[keep]])


@dataclass(frozen=True)
class RansacConfig:
    """`max_gn_iters` caps each refit round's Gauss-Newton; the hypotheses
    run at most `_HYPOTHESIS_GN_ITERS` of them. A Gauss-Newton problem
    stops after an applied step whose largest component is below
    `step_tol` (metres for translation, radians for rotation), or for a
    hypothesis below `_HYPOTHESIS_STEP_TOL` if that is larger."""

    iterations: int = 100
    threshold_px: float | None = None  # default 1.5 pixel mode, 0.75 subpixel
    min_consensus: int = 6
    max_gn_iters: int = 20
    step_tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        def count(value):
            return isinstance(value, (int, np.integer)) and value >= 1

        _validate(self, iterations=count(self.iterations),
                  threshold_px=self.threshold_px is None or self.threshold_px > 0,
                  min_consensus=count(self.min_consensus), max_gn_iters=count(self.max_gn_iters),
                  step_tol=self.step_tol >= 0,
                  seed=isinstance(self.seed, (int, np.integer)) and self.seed >= 0)


_HALVINGS = 0.5 ** np.arange(12)  # line-search step scales, largest first

# Iteration budget and step tolerance of the hypothesis stage. Only a count
# of quads within the inlier threshold reads a hypothesis, and after a
# Gauss-Newton step below 1e-4 the error left is O(1e-8) m or rad. On
# vo_corridor seed 101, 95 % of the 3-point samples whose quads lie within
# 3 px of the true motion stop on this tolerance within 4 iterations, against
# 54 % of those with an outlier. Run to `max_gn_iters` with no tolerance
# instead, 26 of its 3,900 hypotheses reach another consensus and no frame's
# winner changes; the refit polishes the winner to `step_tol`.
_HYPOTHESIS_GN_ITERS = 4
_HYPOTHESIS_STEP_TOL = 1e-4


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
    res = np.empty(z.shape + (4,))
    res[..., 0], res[..., 1], res[..., 2] = _pinhole(calib, x, y, z)
    res[..., 3] = res[..., 1]
    res -= targets
    if not want_jacobian:
        return res, None
    # d p_c / d xi = [I | -[p_c]x], chained through the pinhole projection;
    # rows u, v, u_right, v. Products are formed in the order of the
    # (3,) x (3, 6) product they stand for, so each entry rounds as it did.
    f, b = calib.focal, calib.baseline
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


def _halving_rotations(rotvec, halvings):
    """Rotation matrices (..., h, 3, 3) of rotation vectors (..., 3)
    scaled by each of the h `halvings` (powers of two), formed step for
    step as `Quat.from_rotvec(scale * rotvec).to_matrix()` forms them.
    Halving a vector halves its norm exactly and keeps its direction, so
    the norm and the axis are computed once."""
    angle = np.sqrt(row_dot(rotvec, rotvec))[..., None]
    some = angle >= 1e-12  # else every halving is below 1e-12 as well
    axis = rotvec / np.where(some, angle, 1.0)
    factor_n = np.where(some, np.sqrt(row_dot(axis, axis))[..., None], 1.0)
    angle = angle * halvings
    half = 0.5 * angle
    tiny = angle < 1e-12  # first-order quaternion, as in Quat.from_rotvec
    factor = np.sin(half) / factor_n
    w = np.where(tiny, 1.0, np.cos(half))
    x, y, z = (
        np.where(tiny, 0.5 * (halvings * rotvec[..., i, None]), axis[..., i, None] * factor)
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


def _row_sums(sq, sizes):
    """Sums over the last two axes of sq (B, ..., k, 4), each problem b over
    its first sizes[b] points only (all k when sizes is None). A sum's
    rounding depends on how many terms it runs over, even when the extra
    ones are zeros, so padding is left out of it."""
    if sizes is None:
        return np.sum(sq, axis=(-2, -1))
    sums = [np.sum(s[..., :n, :], axis=(-2, -1)) for s, n in zip(sq, sizes)]
    return np.array(sums).reshape(sq.shape[:-2])


def _normal_equations(r_flat, j_flat, sizes):
    """Gradient (B, 6) and Gauss-Newton matrix (B, 6, 6) of stacked residual
    rows r_flat (B, 4k, 1) and Jacobian rows j_flat (B, 4k, 6), each problem
    over the rows of its first sizes[b] points (all when sizes is None): the
    matrix product splits long sums into blocks by their total length."""
    if sizes is None:
        jt = np.swapaxes(j_flat, 1, 2)
        return (jt @ r_flat)[..., 0], jt @ j_flat
    grad, h = np.empty((len(sizes), 6)), np.empty((len(sizes), 6, 6))
    for b, n in enumerate(4 * sizes):
        jt = np.swapaxes(j_flat[b:b + 1, :n], 1, 2)
        grad[b], h[b] = (jt @ r_flat[b:b + 1, :n])[0, :, 0], (jt @ j_flat[b:b + 1, :n])[0]
    return grad, h


def _gauss_newton(points, targets, calib, cfg: RansacConfig, weights=None, start=None, sizes=None):
    """Minimize the summed squared reprojection error over SE(3) for a
    stack of B independent problems of k points each.

    points (B, k, 3), targets (B, k, 4), optional weights (B, k), which
    scale each point's squared residuals, and an optional start (r_mat
    (B, 3, 3), t_vec (B, 3)), the identity by default; returns r_mat
    (B, 3, 3), t_vec (B, 3) and the final costs (B,). Problems of fewer
    points are padded to k with finite rows of weight 0 and give their
    point counts as `sizes` (B,): their costs and normal equations are then
    summed over their own points alone, so each ends bit for bit where it
    ends unpadded. A problem stops after an applied step whose largest
    component is below `step_tol`, when its normal equations are
    singular, when no step scale of the line search lowers its cost, or
    after `max_gn_iters` iterations. The line search keeps the largest of
    the 12 halvings of a step that does not raise the cost, so the cost is
    monotone: it evaluates the full step of every problem, then the 11
    shorter ones at once for the problems whose full step raised it.
    """
    n_prob = len(points)
    sw = None if weights is None else np.sqrt(weights)[:, None, :, None]

    def squared(p, res):  # weighted, in place; unit weights skipped as x * 1.0 == x
        if sw is not None:
            res *= sw[p]
        return np.square(res, out=res)

    if start is None:
        r_mat, t_vec = np.tile(np.eye(3), (n_prob, 1, 1)), np.zeros((n_prob, 3))
    else:
        r_mat, t_vec = np.array(start[0], dtype=float), np.array(start[1], dtype=float)
    res, _ = _residuals(points, targets, calib, r_mat[:, None], t_vec[:, None])
    cost = _row_sums(squared(slice(None), res), sizes)[:, 0]
    active = np.arange(n_prob)
    for _ in range(cfg.max_gn_iters):
        if not len(active):
            break
        n = None if sizes is None else sizes[active]
        res, jac = _residuals(points[active], targets[active], calib,
                              r_mat[active, None], t_vec[active, None], True)
        if sw is not None:
            res *= sw[active]
            jac *= sw[active, ..., None]
        grad, h = _normal_equations(res.reshape(len(active), -1, 1),
                                    jac.reshape(len(active), -1, 6), n)
        h = h + 1e-12 * np.eye(6)
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
        r_new = np.empty((len(active), len(_HALVINGS), 3, 3))
        t_new = np.empty((len(active), len(_HALVINGS), 3))
        cost_new = np.full((len(active), len(_HALVINGS)), np.nan)

        def take_steps(rows, scales):
            """Poses and costs of the problems active[rows] at the given
            scales of their steps."""
            p, d = active[rows], _halving_rotations(step[rows, 3:], _HALVINGS[scales])
            r_new[rows, scales] = d @ r_mat[p, None]
            t_new[rows, scales] = ((d @ t_vec[p, None, :, None])[..., 0]
                                   + _HALVINGS[scales, None] * step[rows, None, :3])
            res_new, _ = _residuals(points[p], targets[p], calib,
                                    r_new[rows, scales], t_new[rows, scales])
            cost_new[rows, scales] = _row_sums(squared(p, res_new),
                                               None if sizes is None else sizes[p])

        take_steps(np.arange(len(active)), slice(0, 1))
        raised = np.flatnonzero(~(cost_new[:, 0] <= cost[active]))
        if len(raised):
            take_steps(raised, slice(1, None))
        accepted = cost_new <= cost[active, None]
        rows = np.flatnonzero(accepted.any(axis=1))
        scale = np.argmax(accepted[rows], axis=1)  # first accepted = largest scale
        active = active[rows]
        r_mat[active] = r_new[rows, scale]
        t_vec[active] = t_new[rows, scale]
        cost[active] = cost_new[rows, scale]
        applied = _HALVINGS[scale, None] * np.abs(step[rows])
        active = active[np.max(applied, axis=1) >= cfg.step_tol]
    return r_mat, t_vec, cost


def _pixel_error(res):
    """Worse of the two images' pixel distances, per point. The square
    root is correctly rounded and monotone, so taking it after the larger
    squared distance gives each image's `np.linalg.norm` bit for bit."""
    sq = res * res
    return np.sqrt(np.maximum(sq[..., 0] + sq[..., 1], sq[..., 2] + sq[..., 3]))


def _refit_errors(points, targets, calib, r_mat, t_vec):
    """Per problem of points (B, n, 3), targets (B, n, 4) under the poses
    r_mat (B, 3, 3), t_vec (B, 3): the pixel error of every quad; that
    error over s = sqrt(1 + 2 g^2), the factor by which the previous
    point's depth widens its spread (inf for a point behind the current
    camera); and s. Here g is the shift of the reprojection per pixel of
    previous disparity in the worse image; the disparity variance is twice
    the pixel variance."""
    res, jac = _residuals(points, targets, calib, r_mat[:, None], t_vec[:, None], True)
    res, jac = res[:, 0], jac[:, 0]
    rotated = points @ np.swapaxes(r_mat, -1, -2)
    # the translation columns of the Jacobian are d(res)/d(p_c), and a
    # triangulated point scales as 1/disparity: dX/dd = -X z / (f b)
    dp_dd = -rotated * (points[..., 2:] / (calib.focal * calib.baseline))
    shift = np.einsum("bnkj,bnj->bnk", jac[..., :3], dp_dd)
    g = np.maximum(np.hypot(shift[..., 0], shift[..., 1]), np.hypot(shift[..., 2], shift[..., 3]))
    scale = np.sqrt(1.0 + 2.0 * g**2)
    err = _pixel_error(res)
    in_front = rotated[..., 2] + t_vec[:, None, 2] > 0
    return err, np.where(in_front, err / scale, np.inf), scale


def _threshold(mode: str, cfg: RansacConfig) -> float:
    """The inlier threshold [px] of `mode`; an unknown mode raises."""
    if mode not in ("pixel", "subpixel"):
        raise ValueError(f"unknown mode {mode!r}")
    if cfg.threshold_px is None:
        return 1.5 if mode == "pixel" else 0.75
    return cfg.threshold_px


# Hypothesis problems per Gauss-Newton call: the stack of every pair's
# samples runs in groups of this size, to bound its memory.
_HYPOTHESIS_GROUP = 500

# A sample is degenerate when the area spanned by its edges e1, e2 from its
# first point, |e1 x e2|, is at most this fraction of max(|e1|^2, |e2|^2):
# coincident or collinear points, which leave the rotation about their line
# free. The smallest ratio of any sample on vo_corridor seeds 101-110 is
# 1.4e-3.
_DEGENERATE_AREA = 1e-6


def _degenerate(samples):
    """Whether each sample of triangulated points (..., 3, 3) is coincident
    or collinear (see `_DEGENERATE_AREA`)."""
    e1, e2 = samples[..., 1, :] - samples[..., 0, :], samples[..., 2, :] - samples[..., 0, :]
    area = np.cross(e1, e2)
    return (np.sqrt(row_dot(area, area))
            <= _DEGENERATE_AREA * np.maximum(row_dot(e1, e1), row_dot(e2, e2)))


def _draw_samples(n: int, count: int, seed: int) -> np.ndarray:
    """The (count, 3) intp rows that `count` calls of
    `default_rng(seed).choice(n, 3, replace=False)` give, from one block of
    the generator's 32-bit outputs.

    For 3 of n, `choice` runs Floyd's algorithm (for j = n-3, n-2, n-1 draw
    v on [0, j], taking j instead when v is already chosen) and then swaps
    slot 2 with a draw on [0, 2] and slot 1 with a draw on [0, 1]. A draw
    on [0, r] takes one output u and gives (u (r+1)) >> 32 (Lemire 2019);
    one on [0, 0] takes none. Lemire's method redraws when the low 32 bits
    of u (r+1) fall below (2^32 - 1 - r) mod (r+1); if any draw of the
    block would, or if n >= 2^32, the samples come from `choice` itself.
    """
    if n < 2**32:
        # r + 1 of each draw on [0, r]; Floyd's first, on [0, 0] when n == 3,
        # takes no output
        span = np.array([n - 2, n - 1, n, 3, 2][1 if n == 3 else 0:], dtype=np.uint64)
        u = np.random.default_rng(seed).integers(0, 2**32, size=(count, len(span)), dtype=np.uint32)
        m = u.astype(np.uint64) * span
        low, threshold = m % 2**32, (2**32 - span) % span
        # compared as intp, whose loop the pass already runs: numpy's unsigned
        # comparison would map about 64 kB more of its code into memory
        if not np.any(low.astype(np.intp) < threshold.astype(np.intp)):
            v = np.zeros((count, 5), dtype=np.intp)
            v[:, 5 - len(span):] = m >> 32
            a = v[:, 0]
            b = np.where(v[:, 1] == a, n - 2, v[:, 1])
            c = np.where((v[:, 2] == a) | (v[:, 2] == b), n - 1, v[:, 2])
            out = np.column_stack([a, b, c])
            rows = np.arange(count)
            for slot, other in ((2, v[:, 3]), (1, v[:, 4])):
                swapped = out[rows, other]
                out[rows, other] = out[:, slot]
                out[:, slot] = swapped
            return out
    rng = np.random.default_rng(seed)
    return np.array([rng.choice(n, size=3, replace=False) for _ in range(count)], dtype=np.intp)


def _winners(usable, calib: StereoCalib, threshold: float, cfg: RansacConfig) -> list:
    """The hypothesis stage of `_estimate_pairs` on its `usable` pairs: each
    pair's winning rotation, translation and inlier mask, or the
    NoMotionEstimateError it fails with. The stage's arrays are freed on
    return, before the refit allocates its own."""
    hyp_points = np.concatenate([points[samples] for _, _, points, _, samples in usable])
    hyp_targets = np.concatenate([targets[samples] for _, _, _, targets, samples in usable])
    hyp_cfg = replace(cfg, max_gn_iters=min(cfg.max_gn_iters, _HYPOTHESIS_GN_ITERS),
                      step_tol=max(cfg.step_tol, _HYPOTHESIS_STEP_TOL))
    hyps = [_gauss_newton(hyp_points[i:i + _HYPOTHESIS_GROUP],
                          hyp_targets[i:i + _HYPOTHESIS_GROUP], calib, hyp_cfg)
            for i in range(0, len(hyp_points), _HYPOTHESIS_GROUP)]
    hyp_r = np.concatenate([h[0] for h in hyps]).reshape(len(usable), cfg.iterations, 3, 3)
    hyp_t = np.concatenate([h[1] for h in hyps]).reshape(len(usable), cfg.iterations, 3)
    winners = []
    for (_, _, points, targets, samples), r_mats, t_vecs in zip(usable, hyp_r, hyp_t):
        res = _residuals(points, targets, calib, r_mats[:, None], t_vecs[:, None])[0][:, 0]
        degenerate = _degenerate(points[samples])
        counts = np.where(degenerate, 0, np.sum(_pixel_error(res) <= threshold, axis=1))
        best = int(np.argmax(counts))  # the first of the largest consensus
        if degenerate.all():
            winners.append(NoMotionEstimateError(
                f"all {cfg.iterations} samples are coincident or collinear points"))
        elif counts[best] < cfg.min_consensus:
            winners.append(NoMotionEstimateError(
                f"consensus {counts[best]} below minimum {cfg.min_consensus}"))
        else:  # copies, which do not hold on to the stage's arrays
            winners.append((r_mats[best].copy(), t_vecs[best].copy(),
                            _pixel_error(res[best]) <= threshold))
    return winners


def _estimate_pairs(pairs, calib: StereoCalib, mode: str, cfg: RansacConfig) -> list:
    """estimate_motion of each (quads, prev_frame, cur_frame, seed) of
    `pairs`, each stage run over all pairs at once: a pair's result is its
    (pose, inliers), or the VoError it failed with. Each pair's samples are
    drawn in one block by `_draw_samples`, equal to `choice`'s, and its
    degenerate samples score no consensus. The hypotheses run in
    groups of `_HYPOTHESIS_GROUP`; a pair leaves the refit once its inlier
    set settles or falls below `cfg.min_consensus`, or after 10 rounds.
    """
    threshold = _threshold(mode, cfg)
    out: list = [None] * len(pairs)
    usable = []  # (pair, kept quads, their points, their targets, samples)
    for p, (quads, prev_frame, cur_frame, seed) in enumerate(pairs):
        prev_px, targets = prev_frame.px[quads[:, 0]], cur_frame.px[quads[:, 1]]
        if mode == "pixel":
            prev_px, targets = np.round(prev_px), np.round(targets)
        kept = np.flatnonzero(np.isfinite(prev_px).all(axis=1) & np.isfinite(targets).all(axis=1)
                              & (prev_px[:, 0] > prev_px[:, 2]))
        if len(kept) < 3:
            out[p] = InsufficientDataError(f"need >= 3 usable quad matches, got {len(kept)}")
            continue
        samples = _draw_samples(len(kept), cfg.iterations, seed)
        usable.append((p, kept, _triangulate(calib, prev_px[kept]), targets[kept], samples))
    if not usable:
        return out

    refit = []  # (pair, kept quads, points, targets, best rotation, translation, inliers)
    for (p, kept, points, targets, _), best in zip(usable, _winners(usable, calib, threshold, cfg)):
        if isinstance(best, VoError):
            out[p] = best
        else:
            refit.append((p, kept, points, targets, *best))
    if not refit:
        return out

    # The depth-weighted refit starts from each pair's best hypothesis and
    # its inliers, and each round from the poses the last one ended at. The
    # pairs' quads are padded to the longest with copies of their first,
    # which no inlier set takes in.
    ids, kept, points, targets, r_mat, t_vec, mask = zip(*refit)
    n = np.array([len(k) for k in kept])
    valid = np.arange(n.max()) < n[:, None]
    flat = np.r_[0, np.cumsum(n)[:-1]][:, None] + np.where(valid, np.arange(n.max()), 0)
    points, targets = np.concatenate(points)[flat], np.concatenate(targets)[flat]
    mask = np.concatenate(mask)[flat] & valid
    r_mat, t_vec = np.stack(r_mat), np.stack(t_vec)
    _, _, scale = _refit_errors(points, targets, calib, r_mat, t_vec)
    err = np.empty(valid.shape)
    live = np.arange(len(refit))
    for _ in range(10):
        if not len(live):
            break
        inliers = mask[live]
        sizes = inliers.sum(axis=1)
        # each pair's inliers in order, then copies of its first at weight 0
        real = np.arange(sizes.max()) < sizes[:, None]
        rows = np.argsort(~inliers, axis=1, kind="stable")[:, :sizes.max()]
        rows = np.where(real, rows, rows[:, :1])
        weights = np.where(real, 1.0 / np.take_along_axis(scale[live], rows, 1) ** 2, 0.0)
        r_mat[live], t_vec[live], _ = _gauss_newton(
            np.take_along_axis(points[live], rows[..., None], 1),
            np.take_along_axis(targets[live], rows[..., None], 1), calib, cfg, weights,
            (r_mat[live], t_vec[live]), sizes,
        )
        err[live], norm_err, scale[live] = _refit_errors(points[live], targets[live], calib,
                                                         r_mat[live], t_vec[live])
        new = (norm_err <= threshold) & valid[live]
        mask[live] = new
        settled = (new.sum(axis=1) < cfg.min_consensus) | np.all(new == inliers, axis=1)
        live = live[~settled]

    for p, quads, r, t, e, count in zip(ids, kept, r_mat, t_vec, err, n):
        # W maps prev-camera to cur-camera coordinates; report cur-in-prev
        rel = inverse(Pose(t, Quat.from_matrix(r), 0.0))
        out[p] = Pose(rel.position, rel.orientation, 0.0), quads[e[:count] <= threshold]
    return out


def estimate_motion(
    quads: np.ndarray,
    prev_frame: StereoFrame,
    cur_frame: StereoFrame,
    calib: StereoCalib = StereoCalib(),
    mode: str = "subpixel",
    cfg: RansacConfig = RansacConfig(),
):
    """RANSAC + Gauss-Newton relative pose from quad matches: the staged
    pass of `run_vo` (see the module docstring) on one pair.

    Quads with a pixel that is not finite, or (after pixel-mode rounding)
    with no positive previous disparity, are set aside first. All
    `cfg.iterations` minimal 3-point samples are refined from the identity
    for at most 4 iterations (`_HYPOTHESIS_GN_ITERS`), each stopping after
    a step below 1e-4 (`_HYPOTHESIS_STEP_TOL`) or `cfg.step_tol`, whichever
    is larger, and the first with the most quads within `threshold_px`
    wins. The depth-weighted refit starts from it, runs to `cfg.step_tol`,
    re-classifies on the error normalized by each quad's spread, and
    repeats from the last pose until the set settles.

    `quads` is quad_match's (m, 2) array of (previous row, current row).
    Returns (pose, inlier_indices): `pose` is the current camera pose
    expressed in the previous camera frame, so concatenating the
    returned poses integrates the trajectory; the inliers index rows of
    `quads` and are the quads within `threshold_px` pixels under that
    pose.
    Raises InsufficientDataError below 3 usable quads, and
    NoMotionEstimateError below `cfg.min_consensus` inliers or when every
    sample is of coincident or collinear points.
    """
    (out,) = _estimate_pairs([(quads, prev_frame, cur_frame, cfg.seed)], calib, mode, cfg)
    if isinstance(out, VoError):
        raise out
    return out


@dataclass
class VoResult:
    """`inliers[k - 1]` counts the inliers of the motion from frame k - 1 to
    frame k (0 when it failed), and `errors[k - 1]` names the VoError class
    it failed with (None when it did not)."""

    poses: list[Pose]
    times_ms: list[float]
    inliers: list[int]
    errors: list[str | None]

    @property
    def failures(self) -> int:
        return sum(e is not None for e in self.errors)


def run_vo(
    scene: StereoScene,
    mode: str = "subpixel",
    cfg: RansacConfig = RansacConfig(),
    calib: StereoCalib = StereoCalib(),
) -> VoResult:
    """Frame-to-frame odometry over a scene, no keyframing.

    Every frame pair is matched, and all pairs are estimated together in
    one staged pass (`estimate_motion` on each pair gives the same motion;
    pair k draws its samples with seed `cfg.seed + k`). The trajectory
    starts at the scene's first truth pose; when a pair's estimation fails
    the previous motion is held and counted. `times_ms` holds each pair's
    equal share of the pass.
    """
    _threshold(mode, cfg)
    t0 = time.perf_counter()
    frames = scene.frames
    pairs = [(quad_match(prev, cur, calib), prev, cur, cfg.seed + k)
             for k, (prev, cur) in enumerate(zip(frames, frames[1:]), 1)]
    poses = [scene.trajectory[0]]
    last_motion = Pose.identity()
    inliers, errors = [], []
    for k, out in enumerate(_estimate_pairs(pairs, calib, mode, cfg), 1):
        if isinstance(out, VoError):
            motion = last_motion
            inliers.append(0)
            errors.append(type(out).__name__)
        else:
            motion, kept = out
            last_motion = motion
            inliers.append(len(kept))
            errors.append(None)
        step = compose(poses[-1], motion)
        poses.append(Pose(step.position, step.orientation, float(k)))
    share = (time.perf_counter() - t0) * 1000.0 / max(len(pairs), 1)
    return VoResult(poses, [share] * len(pairs), inliers, errors)
