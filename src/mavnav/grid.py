"""Voxel occupancy grid with clamped log-odds updates and ray integration.

Voxel (i, j, k) covers the half-open world box
``origin + res*[i, i+1) x [j, j+1) x [k, k+1)``. A voxel that has never
been updated is unknown; once touched it is occupied iff its log-odds
exceeds the occupancy threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .geometry import Pose, point_rows

FREE = 0
OCCUPIED = 1
UNKNOWN = 2


@dataclass(frozen=True)
class LogOddsParams:
    """Sensor-update model for the grid; defaults are the usual octree values."""

    p_hit: float = 0.7
    p_miss: float = 0.4
    l_min: float = -2.0
    l_max: float = 3.5
    occ_thresh: float = 0.0

    def __post_init__(self):
        if not (all(math.isfinite(getattr(self, f.name)) for f in fields(self))
                and 0.0 < self.p_miss < 0.5 < self.p_hit < 1.0
                and self.l_min <= self.occ_thresh < self.l_max):
            raise ValueError("need finite values, 0 < p_miss < 0.5 < p_hit < 1 and "
                             f"l_min <= occ_thresh < l_max, got {self}")

    @property
    def l_occ(self) -> float:
        return math.log(self.p_hit / (1.0 - self.p_hit))

    @property
    def l_free(self) -> float:
        return math.log(self.p_miss / (1.0 - self.p_miss))


class OccupancyGrid:
    """Axis-aligned voxel grid of free/occupied/unknown states."""

    params = LogOddsParams()

    def __init__(self, origin, resolution: float, dims):
        if not (np.isfinite(resolution) and resolution > 0):
            raise ValueError(f"resolution must be finite and positive, got {resolution}")
        self.origin = np.asarray(origin, dtype=float)
        self.resolution = float(resolution)
        self.dims = tuple(int(d) for d in dims)
        if any(d <= 0 for d in self.dims):
            raise ValueError("dims must be positive")
        self.log_odds = np.zeros(self.dims, dtype=float)
        self.touched = np.zeros(self.dims, dtype=bool)

    # -- indexing ------------------------------------------------------

    def world_to_index(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.floor((pts - self.origin) / self.resolution).astype(int)

    def index_to_center(self, idx) -> np.ndarray:
        idx = np.atleast_2d(np.asarray(idx, dtype=float))
        return np.squeeze(self.origin + (idx + 0.5) * self.resolution)

    def in_bounds(self, idx) -> np.ndarray:
        idx = np.atleast_2d(idx)
        return np.all((idx >= 0) & (idx < np.array(self.dims)), axis=1)

    # -- state views ---------------------------------------------------

    def states(self) -> np.ndarray:
        out = np.full(self.dims, UNKNOWN, dtype=np.uint8)
        occ = self.touched & (self.log_odds > self.params.occ_thresh)
        out[self.touched] = FREE
        out[occ] = OCCUPIED
        return out

    def obstacle_mask(self) -> np.ndarray:
        """Voxels a vehicle may not enter: occupied or unknown."""
        return self.states() != FREE

    # -- direct state editing (scene construction) ---------------------

    def set_states(self, states: np.ndarray) -> None:
        states = np.asarray(states)
        if states.shape != self.dims:
            raise ValueError("state array shape mismatch")
        self.touched = states != UNKNOWN
        self.log_odds = np.zeros(self.dims, dtype=float)
        self.log_odds[states == OCCUPIED] = self.params.l_max
        self.log_odds[states == FREE] = self.params.l_min

    def fill_box(self, lo, hi, state: int) -> None:
        """Set every voxel whose center lies in the closed world box [lo, hi]."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        i0 = np.maximum(np.ceil((lo - self.origin) / self.resolution - 0.5), 0).astype(int)
        i1 = np.minimum(
            np.floor((hi - self.origin) / self.resolution - 0.5), np.array(self.dims) - 1
        ).astype(int)
        if np.any(i1 < i0):
            return
        sl = tuple(slice(a, b + 1) for a, b in zip(i0, i1))
        if state == UNKNOWN:
            self.touched[sl] = False
            self.log_odds[sl] = 0.0
        else:
            self.touched[sl] = True
            self.log_odds[sl] = self.params.l_max if state == OCCUPIED else self.params.l_min

    def copy(self) -> "OccupancyGrid":
        g = OccupancyGrid(self.origin, self.resolution, self.dims)
        g.log_odds = self.log_odds.copy()
        g.touched = self.touched.copy()
        return g

    def _update(self, missed: np.ndarray, hit: np.ndarray) -> None:
        """Log-odds update of one scan on flat voxel indices (repeats
        allowed): each voxel changes once, by l_occ if it is in `hit` and
        by l_free otherwise, clamped."""
        p = self.params
        free = np.clip(np.take(self.log_odds, missed) + p.l_free, p.l_min, p.l_max)
        occ = np.clip(np.take(self.log_odds, hit) + p.l_occ, p.l_min, p.l_max)
        np.put(self.log_odds, missed, free)
        np.put(self.log_odds, hit, occ)  # written last: a hit wins over a miss
        np.put(self.touched, missed, True)
        np.put(self.touched, hit, True)


def _flat_index(grid: OccupancyGrid, cells: np.ndarray) -> np.ndarray:
    """Flat index of each column of the (3, m) float voxel indices `cells`,
    -1 where it lies outside the grid."""
    nx, ny, nz = grid.dims
    x, y, z = cells
    inside = (x >= 0) & (x < nx) & (y >= 0) & (y < ny) & (z >= 0) & (z < nz)
    return np.where(inside, (x * ny + y) * nz + z, -1.0).astype(np.intp)


def _walk(grid: OccupancyGrid, g0: np.ndarray, g1: np.ndarray):
    """Voxels crossed by every segment g0[:, r] -> g1[:, r], in grid units.

    Parametric voxel-boundary walk (Amanatides & Woo 1987) over all rays
    at once: the crossing parameters t of each ray with the grid planes,
    plus t = 0 and t = 1, sorted and merged where equal (a ray through a
    voxel edge or corner crosses several planes at one t); each segment
    between consecutive t lies in the voxel of its midpoint. Every plane
    lies between the endpoints, so its t rounds into [0, 1]. Planes outside
    [0, dims] bound only out-of-grid voxels, so each ray's plane range is
    clipped to the grid and a far endpoint costs no more than a near one.

    Returns (passed, end): `passed` are the flat indices of the in-grid
    voxels each ray passes before its end voxel, ray by ray and in order
    along each ray, with consecutive repeats merged; `end` is the flat
    index of each ray's end voxel, -1 outside the grid.
    """
    n = g0.shape[1]
    d = g1 - g0
    first = np.maximum(np.ceil(np.minimum(g0, g1)), 0.0)
    last = np.minimum(np.floor(np.maximum(g0, g1)), np.array(grid.dims, dtype=float)[:, None])
    count = np.where(d != 0.0, np.maximum(last - first + 1.0, 0.0), 0.0).astype(np.intp).ravel()
    # one entry per (axis, ray, plane), as rasterize enumerates its pairs
    pair = np.repeat(np.arange(3 * n), count)
    rank = np.arange(len(pair)) - np.repeat(np.cumsum(count) - count, count)
    t = np.concatenate([np.zeros(n), np.ones(n), (first.ravel()[pair] + rank - g0.ravel()[pair])
                        / d.ravel()[pair]])
    ray = np.concatenate([np.arange(n), np.arange(n), pair % n])
    # sort by (ray, t): rank by t, then sort the exact integer keys (ray, rank)
    by_t = np.argsort(t)
    bits = len(t).bit_length()
    key = np.sort((ray[by_t] << bits) | np.arange(len(t)))
    ray, t = key >> bits, t[by_t[key & ((1 << bits) - 1)]]
    distinct = np.ones(len(t), dtype=bool)
    distinct[1:] = (ray[1:] != ray[:-1]) | (t[1:] != t[:-1])
    t, ray = t[distinct], ray[distinct]

    seg = ray[1:] == ray[:-1]
    mids = 0.5 * (t[:-1] + t[1:])[seg]
    ray = ray[:-1][seg]
    passed = _flat_index(grid, np.floor(np.take(g0, ray, axis=1) + mids * np.take(d, ray, axis=1)))
    end = _flat_index(grid, np.floor(g1))
    keep = (passed >= 0) & (passed != end[ray])
    passed, ray = passed[keep], ray[keep]
    # crossings that coincide but round apart leave a sliver segment in a neighbour's voxel
    new = np.ones(len(ray), dtype=bool)
    new[1:] = (ray[1:] != ray[:-1]) | (passed[1:] != passed[:-1])
    return passed[new], end


def integrate_scan(grid: OccupancyGrid, origin: Pose, hits) -> OccupancyGrid:
    """Log-odds update for one range scan: rays from `origin` to each hit point.

    Every voxel is updated at most once per scan; endpoint (hit) updates
    win over pass-through (miss) updates. Mutates and returns `grid`.
    """
    hits = point_rows(hits, "hit points")
    if not len(hits):
        return grid
    g0 = (origin.position - grid.origin) / grid.resolution
    g1 = ((hits - grid.origin) / grid.resolution).T
    passed, end = _walk(grid, np.broadcast_to(g0[:, None], g1.shape), g1)
    grid._update(passed, end[end >= 0])
    return grid
