"""Evaluation protocols: collision-check confusion sweep with MCC,
relative translational drift over fixed trajectory distances, and RMS
summaries of closed-loop logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Pose, relative
from .grid import OccupancyGrid

REL_ERROR_DISTANCES = (2.0, 5.0, 10.0, 15.0, 20.0, 25.0, 60.0, 75.0)


@dataclass(frozen=True)
class CollisionConfusion:
    """Counts of the four collision-check outcomes of a box sweep."""

    correct_collision: float
    missed_collision: float
    correct_free: float
    false_collision: float

    @property
    def total(self) -> float:
        return (
            self.correct_collision
            + self.missed_collision
            + self.correct_free
            + self.false_collision
        )

    def percentages(self) -> "CollisionConfusion":
        counts = (self.correct_collision, self.missed_collision, self.correct_free,
                  self.false_collision)
        if not all(math.isfinite(c) and c >= 0 for c in counts):
            raise ValueError(f"counts must be finite and non-negative, got {counts}")
        t = self.total
        if t <= 0:
            raise ValueError("empty confusion")
        return CollisionConfusion(*(100.0 * c / t for c in counts))


def mcc_from_confusion(conf: CollisionConfusion) -> float:
    """Matthews correlation coefficient; 0 when any margin is empty.

    Scale-invariant, so counts and percentages give the same value.
    """
    tp = conf.correct_collision
    tn = conf.correct_free
    fp = conf.false_collision
    fn = conf.missed_collision
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom <= 0:
        return 0.0
    return float((tp * tn - fp * fn) / math.sqrt(denom))


def _window_any(mask: np.ndarray, window: tuple[int, int, int]) -> np.ndarray:
    """Any-true over every fully-contained box window, via integral image."""
    pad = np.zeros(tuple(s + 1 for s in mask.shape), dtype=np.int64)
    pad[1:, 1:, 1:] = mask.astype(np.int64)
    cum = pad.cumsum(axis=0).cumsum(axis=1).cumsum(axis=2)
    wx, wy, wz = window
    nx, ny, nz = mask.shape
    if wx > nx or wy > ny or wz > nz:
        raise ValueError("bounding box larger than the grid")
    a = cum[wx:, wy:, wz:]
    b = cum[:-wx, wy:, wz:]
    c = cum[wx:, :-wy, wz:]
    d = cum[wx:, wy:, :-wz]
    e = cum[:-wx, :-wy, wz:]
    f = cum[:-wx, wy:, :-wz]
    g = cum[wx:, :-wy, :-wz]
    h = cum[:-wx, :-wy, :-wz]
    sums = a - b - c - d + e + f + g - h
    return sums > 0


def mcc_eval(gt: OccupancyGrid, est: OccupancyGrid, bbox_dims=(0.6, 0.6, 0.4)):
    """Sweep an MAV bounding box through both grids simultaneously.

    At every voxel position a collision check (any occupied or unknown
    voxel inside the box) runs in both grids; the ground-truth grid is
    the reference. Returns (CollisionConfusion in percent, MCC).
    """
    if gt.dims != est.dims or gt.resolution != est.resolution:
        raise ValueError("grids must share dimensions and resolution")
    if not np.allclose(gt.origin, est.origin):
        raise ValueError("grids must share an origin")

    res = gt.resolution
    window = tuple(max(1, int(round(d / res))) for d in bbox_dims)
    gt_hit = _window_any(gt.obstacle_mask(), window)
    est_hit = _window_any(est.obstacle_mask(), window)
    tp = int(np.sum(gt_hit & est_hit))
    fn = int(np.sum(gt_hit & ~est_hit))
    tn = int(np.sum(~gt_hit & ~est_hit))
    fp = int(np.sum(~gt_hit & est_hit))
    counts = CollisionConfusion(tp, fn, tn, fp)
    return counts.percentages(), mcc_from_confusion(counts)


@dataclass(frozen=True)
class RelErrorReport:
    """Per-distance relative translational error [%] and their average."""

    errors: dict[float, float]
    average: float
    complete: bool  # False when the trajectory was too short for all distances


def rel_trans_error(gt_poses: list[Pose], est_poses: list[Pose]) -> RelErrorReport:
    """Translational drift per trajectory distance, averaged over starts.

    For every start index and distance d of REL_ERROR_DISTANCES, the
    first later pose at ground truth arc length >= d closes a relative-pose
    pair in both trajectories; the error is the translation norm of the
    discrepancy between the two relative transforms, as a percentage of d.
    Rotation is ignored.
    """
    if len(gt_poses) != len(est_poses):
        raise ValueError("trajectories must have the same length")
    if len(gt_poses) < 2:
        raise ValueError("trajectories too short")
    pos = np.array([p.position for p in gt_poses])
    arc = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(pos, axis=0), axis=1))])

    per_distance: dict[float, list[float]] = {d: [] for d in REL_ERROR_DISTANCES}
    n = len(gt_poses)
    for d in REL_ERROR_DISTANCES:
        targets = arc + d - 1e-9
        js = np.searchsorted(arc, targets)
        for i in range(n):
            j = js[i]
            if j >= n:
                break
            rel_gt = relative(gt_poses[i], gt_poses[j])
            rel_est = relative(est_poses[i], est_poses[j])
            err = relative(rel_est, rel_gt)
            per_distance[d].append(100.0 * float(np.linalg.norm(err.position)) / d)
    errors = {d: float(np.mean(v)) for d, v in per_distance.items() if v}
    if not errors:
        raise ValueError("trajectory shorter than the smallest distance")
    average = float(np.mean(list(errors.values())))
    return RelErrorReport(errors, average, complete=len(errors) == len(REL_ERROR_DISTANCES))


def rms(values) -> float:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("empty window")
    return float(np.sqrt(np.mean(np.square(values))))


def recovery_time(times, errors, onset: float, threshold: float = 0.1):
    """First instant after `onset` when the error re-enters and stays
    within `threshold`; 0 if it never left, None if it never recovers."""
    times = np.asarray(times, dtype=float)
    errors = np.asarray(errors, dtype=float)
    sel = times >= onset
    t, e = times[sel], errors[sel]
    if t.size == 0:
        raise ValueError("empty window")
    inside = e < threshold
    if np.all(inside):
        return 0.0
    # last index outside the band; recovery begins just after it
    last_out = int(np.nonzero(~inside)[0][-1])
    if last_out + 1 >= len(t):
        return None
    return float(t[last_out + 1] - onset)
