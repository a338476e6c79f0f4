"""Seeded room world: box room with pillars, stereo keyframes, ground truth.

The room interior is the box ``[0, size]``; walls, floor and ceiling are
its faces and each pillar is a floor-to-ceiling box inside it. Surface
points are sampled uniformly over every face that borders free space.
Keyframes sit on a loop around the room centre, looking alternately
out at the walls and in across the room, tilted up or down; each
observes the surface points inside its stereo frustum that no pillar
hides, with the triangulation noise of a rectified stereo pair: radial
sigma ``d^2 * sigma_px / (f * b)`` and lateral sigma ``d * sigma_px / f``
at depth ``d``. A fixed number of all these observations is kept, so that
every seed gives the mapping layers the same amount of work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mavnav.geometry import Pose
from mavnav.grid import FREE, OCCUPIED, OccupancyGrid
from mavnav.reconstruction import Keyframe
from mavnav.vo import StereoCalib, camera_orientation

ROOM_SIZE = (6.0, 5.0, 2.5)  # interior [m]
RESOLUTION = 0.25  # voxel edge [m]
MARGIN = 0.5  # solid wall thickness kept around the interior in the grids [m]
CAM_CLEARANCE = 0.6  # least distance from a keyframe to a pillar face [m]
BOUNDS = (-MARGIN * np.ones(3), np.array(ROOM_SIZE) + MARGIN)  # of the grids
N_PILLARS = 2
PILLAR_HALF = 0.3  # half footprint edge [m]
POINT_DENSITY = 12.0  # surface points per m^2
N_KEYFRAMES = 12
N_OBSERVATIONS = 1000  # kept out of all the keyframes' observations
LOOP_FRAC = 0.33  # keyframe loop semi-axes as a share of the room extent
CAM_HEIGHT = 1.25  # [m]
TILT = 0.6  # alternating up/down view slope of the keyframes
PIXEL_NOISE = 0.3  # stereo matching noise [px]
MAX_DEPTH = 6.0  # [m]
CALIB = StereoCalib()

Box = tuple[np.ndarray, np.ndarray]  # (lo, hi) corners


@dataclass
class Room:
    pillars: list[Box]
    surface: np.ndarray  # noise-free surface samples (n, 3)
    keyframes: list[Keyframe]


def _keyframe_positions(rng) -> np.ndarray:
    size = np.array(ROOM_SIZE)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    a = phase + 2.0 * math.pi * np.arange(N_KEYFRAMES) / N_KEYFRAMES
    radii = LOOP_FRAC * size[:2]
    pos = np.empty((N_KEYFRAMES, 3))
    pos[:, 0] = 0.5 * size[0] + radii[0] * np.cos(a)
    pos[:, 1] = 0.5 * size[1] + radii[1] * np.sin(a)
    pos[:, 2] = CAM_HEIGHT
    return pos


def _place_pillars(cams: np.ndarray, rng) -> list[Box]:
    """Pillars inside the keyframe loop, alternately left and right of the
    centre, each at least CAM_CLEARANCE from every keyframe."""
    size = np.array(ROOM_SIZE)
    centre = 0.5 * size[:2]
    pillars = []
    for i in range(N_PILLARS):
        side = 1.0 if i % 2 else -1.0
        for _ in range(1000):
            c = centre + np.array([side * rng.uniform(0.5, 0.9), rng.uniform(-0.4, 0.4)])
            if np.min(np.linalg.norm(cams[:, :2] - c, axis=1)) >= PILLAR_HALF + CAM_CLEARANCE:
                break
        else:
            raise ValueError("no room for the pillars")
        lo = np.array([c[0] - PILLAR_HALF, c[1] - PILLAR_HALF, 0.0])
        hi = np.array([c[0] + PILLAR_HALF, c[1] + PILLAR_HALF, size[2]])
        pillars.append((lo, hi))
    return pillars


def _layout(rng) -> tuple[np.ndarray, list[Box]]:
    cams = _keyframe_positions(rng)
    return cams, _place_pillars(cams, rng)


def make_pillars(seed: int) -> list[Box]:
    """The pillars of the seed's room, the same as ``make_room(seed).pillars``,
    without generating its surface or observations."""
    return _layout(np.random.default_rng(seed))[1]


def _face_samples(lo, hi, axis, value, density, rng) -> np.ndarray:
    """Uniform samples on the axis-aligned rectangle {x[axis] = value} of a box."""
    others = [a for a in range(3) if a != axis]
    area = float(np.prod([hi[a] - lo[a] for a in others]))
    n = max(int(round(area * density)), 1)
    pts = np.empty((n, 3))
    pts[:, axis] = value
    for a in others:
        pts[:, a] = rng.uniform(lo[a], hi[a], n)
    return pts


def _occluded(cam, pts, pillars) -> np.ndarray:
    """Segment cam -> point passes through the inside of a pillar (slab test)."""
    d = pts - cam
    hidden = np.zeros(len(pts), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo, hi in pillars:
            lo_s, hi_s = lo + 1e-6, hi - 1e-6
            t0 = (lo_s - cam) / d
            t1 = (hi_s - cam) / d
            t_near = np.nanmax(np.minimum(t0, t1), axis=1)
            t_far = np.nanmin(np.maximum(t0, t1), axis=1)
            hidden |= (t_near < t_far) & (t_far > 0.0) & (t_near < 1.0 - 1e-6)
    return hidden


def observe(surface, pose: Pose, pillars, rng) -> np.ndarray:
    """World-frame stereo triangulations of the visible surface points."""
    r_wc = pose.orientation.to_matrix()
    p_cam = (surface - pose.position) @ r_wc
    z = p_cam[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u_l = CALIB.focal * p_cam[:, 0] / z + CALIB.cx
        v = CALIB.focal * p_cam[:, 1] / z + CALIB.cy
        u_r = CALIB.focal * (p_cam[:, 0] - CALIB.baseline) / z + CALIB.cx
    seen = (
        (z > 0.3) & (z < MAX_DEPTH)
        & (u_l >= 0) & (u_l < CALIB.width) & (u_r >= 0)
        & (v >= 0) & (v < CALIB.height)
    )
    seen &= ~_occluded(pose.position, surface, pillars)
    p = p_cam[seen]
    d = p[:, 2:3]
    ray = p / np.linalg.norm(p, axis=1, keepdims=True)
    sigma_r = d**2 * PIXEL_NOISE / (CALIB.focal * CALIB.baseline)
    sigma_l = d * PIXEL_NOISE / CALIB.focal
    lateral = rng.normal(0.0, 1.0, p.shape)
    lateral -= np.sum(lateral * ray, axis=1, keepdims=True) * ray
    noisy = p + sigma_l * lateral + sigma_r * rng.normal(0.0, 1.0, (len(p), 1)) * ray
    return noisy @ r_wc.T + pose.position


def make_room(seed: int) -> Room:
    rng = np.random.default_rng(seed)
    size = np.array(ROOM_SIZE)
    cams, pillars = _layout(rng)
    zero = np.zeros(3)
    faces = [_face_samples(zero, size, a, v, POINT_DENSITY, rng)
             for a in range(3) for v in (0.0, size[a])]
    for lo, hi in pillars:
        faces += [_face_samples(lo, hi, a, v, POINT_DENSITY, rng)
                  for a in range(2) for v in (lo[a], hi[a])]
    surface = np.vstack(faces)
    # drop floor and ceiling samples under a pillar's footprint
    covered = np.zeros(len(surface), dtype=bool)
    for lo, hi in pillars:
        covered |= np.all((surface[:, :2] > lo[:2]) & (surface[:, :2] < hi[:2]), axis=1) & (
            (surface[:, 2] == 0.0) | (surface[:, 2] == size[2]))
    surface = surface[~covered]

    centre = np.array([0.5 * size[0], 0.5 * size[1], CAM_HEIGHT])
    poses, seen = [], []
    for k, pos in enumerate(cams):
        out = (pos - centre) / np.linalg.norm(pos - centre)
        tilt = (TILT if (k // 2) % 2 else -TILT) + rng.uniform(-0.1, 0.1)
        look = (out if k % 2 == 0 else -out) + np.array([0.0, 0.0, tilt])
        poses.append(Pose(pos, camera_orientation(look), float(k)))
        seen.append(observe(surface, poses[-1], pillars, rng))
    # keep exactly n_observations, so that every seed maps the same amount
    owner = np.repeat(np.arange(len(seen)), [len(p) for p in seen])
    if len(owner) < N_OBSERVATIONS:
        raise ValueError(f"only {len(owner)} observations for {N_OBSERVATIONS}")
    keep = np.zeros(len(owner), dtype=bool)
    keep[rng.choice(len(owner), N_OBSERVATIONS, replace=False)] = True
    points = np.vstack(seen)
    keyframes = [Keyframe(pose, points[keep & (owner == k)]) for k, pose in enumerate(poses)]
    return Room(pillars, surface, keyframes)


def grid_geometry():
    """Origin and dims of the grids over BOUNDS (as `rasterize`)."""
    lo, hi = BOUNDS
    dims = tuple(int(np.ceil((hi[i] - lo[i]) / RESOLUTION - 1e-9)) for i in range(3))
    return lo, dims


def ground_truth_grid(pillars: list[Box]) -> OccupancyGrid:
    """Solid everywhere but the room interior, with the pillars solid again."""
    lo, dims = grid_geometry()
    gt = OccupancyGrid(lo, RESOLUTION, dims)
    gt.fill_box(lo, lo + np.array(dims) * RESOLUTION, OCCUPIED)
    gt.fill_box(np.zeros(3), np.array(ROOM_SIZE), FREE)
    for p_lo, p_hi in pillars:
        gt.fill_box(p_lo, p_hi, OCCUPIED)
    return gt
