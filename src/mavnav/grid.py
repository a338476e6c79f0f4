"""Voxel occupancy grid with clamped log-odds updates and ray integration.

Voxel (i, j, k) covers the half-open world box
``origin + res*[i, i+1) x [j, j+1) x [k, k+1)``. A voxel that has never
been updated is unknown; once touched it is occupied iff its log-odds
exceeds the occupancy threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Pose

FREE = 0
OCCUPIED = 1
UNKNOWN = 2

_STATE_CHARS = {FREE: "F", OCCUPIED: "O", UNKNOWN: "U"}
_CHAR_STATES = {v: k for k, v in _STATE_CHARS.items()}


@dataclass(frozen=True)
class LogOddsParams:
    """Sensor-update model for the grid; defaults are the usual octree values."""

    p_hit: float = 0.7
    p_miss: float = 0.4
    l_min: float = -2.0
    l_max: float = 3.5
    occ_thresh: float = 0.0

    @property
    def l_occ(self) -> float:
        return math.log(self.p_hit / (1.0 - self.p_hit))

    @property
    def l_free(self) -> float:
        return math.log(self.p_miss / (1.0 - self.p_miss))


class OccupancyGrid:
    """Axis-aligned voxel grid of free/occupied/unknown states."""

    def __init__(self, origin, resolution: float, dims, params: LogOddsParams | None = None):
        if not (np.isfinite(resolution) and resolution > 0):
            raise ValueError(f"resolution must be finite and positive, got {resolution}")
        self.origin = np.asarray(origin, dtype=float)
        self.resolution = float(resolution)
        self.dims = tuple(int(d) for d in dims)
        if any(d <= 0 for d in self.dims):
            raise ValueError("dims must be positive")
        self.params = params or LogOddsParams()
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

    def state_at(self, point) -> int:
        idx = self.world_to_index(point)[0]
        if not self.in_bounds(idx)[0]:
            return UNKNOWN
        if not self.touched[tuple(idx)]:
            return UNKNOWN
        return OCCUPIED if self.log_odds[tuple(idx)] > self.params.occ_thresh else FREE

    def obstacle_mask(self) -> np.ndarray:
        """Voxels a vehicle may not enter: occupied or unknown."""
        return self.states() != FREE

    # -- direct state editing (scene construction, file load) ----------

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
        g = OccupancyGrid(self.origin, self.resolution, self.dims, self.params)
        g.log_odds = self.log_odds.copy()
        g.touched = self.touched.copy()
        return g

    def _update(self, idx: np.ndarray, delta: float) -> None:
        if idx.size == 0:
            return
        flat = tuple(idx.T)
        self.log_odds[flat] = np.clip(
            self.log_odds[flat] + delta, self.params.l_min, self.params.l_max
        )
        self.touched[flat] = True


def traverse_ray(grid: OccupancyGrid, start, end):
    """Voxels crossed by the segment start->end, in order, via parametric DDA.

    Returns (passed, hit): `passed` excludes the voxel containing `end`;
    `hit` is the end voxel index or None when it lies outside the grid.
    Out-of-grid voxels along the way are dropped.
    """
    g0 = (np.asarray(start, dtype=float) - grid.origin) / grid.resolution
    g1 = (np.asarray(end, dtype=float) - grid.origin) / grid.resolution
    d = g1 - g0
    ts = [np.array([0.0, 1.0])]
    for ax in range(3):
        if d[ax] == 0.0:
            continue
        lo, hi = sorted((g0[ax], g1[ax]))
        first = math.ceil(lo)
        last = math.floor(hi)
        if last < first:
            continue
        planes = np.arange(first, last + 1, dtype=float)
        ts.append((planes - g0[ax]) / d[ax])
    t = np.unique(np.concatenate(ts))
    t = t[(t >= 0.0) & (t <= 1.0)]
    mids = 0.5 * (t[:-1] + t[1:])
    cells = np.floor(g0[None, :] + mids[:, None] * d[None, :]).astype(int)
    end_idx = np.floor(g1).astype(int)
    keep = grid.in_bounds(cells) & ~np.all(cells == end_idx, axis=1)
    # consecutive duplicates can appear when a crossing lands exactly on t=0/1
    passed = cells[keep]
    if passed.shape[0] > 1:
        dedup = np.ones(passed.shape[0], dtype=bool)
        dedup[1:] = np.any(passed[1:] != passed[:-1], axis=1)
        passed = passed[dedup]
    hit = end_idx if grid.in_bounds(end_idx[None, :])[0] else None
    return passed, hit


def integrate_scan(grid: OccupancyGrid, origin: Pose, hits) -> OccupancyGrid:
    """Log-odds update for one range scan: rays from `origin` to each hit point.

    Every voxel is updated at most once per scan; endpoint (hit) updates
    win over pass-through (miss) updates. Mutates and returns `grid`.
    """
    hits = np.atleast_2d(np.asarray(hits, dtype=float))
    if not np.all(np.isfinite(hits)):
        raise ValueError("hit points must be finite")
    start = origin.position
    free_cells = []
    occ_cells = []
    for h in hits:
        passed, hit = traverse_ray(grid, start, h)
        if passed.size:
            free_cells.append(passed)
        if hit is not None:
            occ_cells.append(hit)
    occ = np.unique(np.array(occ_cells), axis=0) if occ_cells else np.empty((0, 3), int)
    if free_cells:
        free = np.unique(np.vstack(free_cells), axis=0)
        if occ.size:
            occ_set = {tuple(c) for c in occ}
            free = np.array([c for c in free if tuple(c) not in occ_set], dtype=int)
    else:
        free = np.empty((0, 3), int)
    grid._update(free.reshape(-1, 3), grid.params.l_free)
    grid._update(occ.reshape(-1, 3), grid.params.l_occ)
    return grid


# -- canonical file format ---------------------------------------------


def _rle_encode(states_slab: np.ndarray) -> str:
    flat = states_slab.reshape(-1)
    tokens = []
    run_val = int(flat[0])
    run_len = 1
    for v in flat[1:]:
        if int(v) == run_val:
            run_len += 1
        else:
            tokens.append(f"{run_len}{_STATE_CHARS[run_val]}")
            run_val = int(v)
            run_len = 1
    tokens.append(f"{run_len}{_STATE_CHARS[run_val]}")
    return " ".join(tokens)


def save_grid(grid: OccupancyGrid, path) -> None:
    """Canonical text format: header, then one run-length line per x-slab.

    Within a slab the ny*nz states are ordered y-major (z fastest).
    """
    states = grid.states()
    nx, ny, nz = grid.dims
    with open(path, "w") as f:
        ox, oy, oz = (float(v) for v in grid.origin)
        f.write("OCCGRID 1\n")
        f.write(f"res {float(grid.resolution)!r}\n")
        f.write(f"origin {ox!r} {oy!r} {oz!r}\n")
        f.write(f"dims {nx} {ny} {nz}\n")
        f.write("data\n")
        for i in range(nx):
            f.write(_rle_encode(states[i]) + "\n")


def load_grid(path, params: LogOddsParams | None = None) -> OccupancyGrid:
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f]
    if not lines or lines[0] != "OCCGRID 1":
        raise ValueError(f"{path}: not an OCCGRID 1 file")
    header = {}
    i = 1
    while i < len(lines) and lines[i] != "data":
        key, _, rest = lines[i].partition(" ")
        header[key] = rest
        i += 1
    if i == len(lines):
        raise ValueError(f"{path}: missing data section")
    res = float(header["res"])
    origin = np.array([float(v) for v in header["origin"].split()])
    dims = tuple(int(v) for v in header["dims"].split())
    grid = OccupancyGrid(origin, res, dims, params)
    nx, ny, nz = dims
    states = np.empty(dims, dtype=np.uint8)
    slabs = lines[i + 1 :]
    if len([s for s in slabs if s]) != nx:
        raise ValueError(f"{path}: expected {nx} slab lines")
    for xi, line in enumerate(s for s in slabs if s):
        flat = np.empty(ny * nz, dtype=np.uint8)
        pos = 0
        for token in line.split():
            count, ch = int(token[:-1]), token[-1]
            flat[pos : pos + count] = _CHAR_STATES[ch]
            pos += count
        if pos != ny * nz:
            raise ValueError(f"{path}: slab {xi} has {pos} states, expected {ny * nz}")
        states[xi] = flat.reshape(ny, nz)
    grid.set_states(states)
    return grid
