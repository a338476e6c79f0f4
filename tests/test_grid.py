import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mavnav.geometry import Pose
from mavnav.grid import (
    FREE,
    OCCUPIED,
    UNKNOWN,
    LogOddsParams,
    OccupancyGrid,
    _walk,
    integrate_scan,
)


grid_dims = st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))


def fresh(dims=(20, 20, 20), res=0.2, origin=(0, 0, 0)):
    return OccupancyGrid(origin, res, dims)


def traverse_ray(grid, start, end):
    """Voxels crossed by the segment start->end, in order, as `_walk` finds
    them for one ray: the walk `integrate_scan` runs on every ray at once.

    Returns (passed, hit): `passed` excludes the voxel containing `end`;
    `hit` is the end voxel index or None when it lies outside the grid.
    Out-of-grid voxels along the way are dropped.
    """
    g = (np.array([start, end], dtype=float) - grid.origin) / grid.resolution
    passed, end_flat = _walk(grid, g[0][:, None], g[1][:, None])
    hit = np.array(np.unravel_index(end_flat[0], grid.dims)) if end_flat[0] >= 0 else None
    return np.column_stack(np.unravel_index(passed, grid.dims)), hit


def _traverse_ray_loop(grid, start, end):
    """Oracle: one ray by the scalar parametric DDA over every plane it crosses."""
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


def _integrate_scan_loop(grid, origin, hits):
    """Oracle: `integrate_scan` as one scalar ray walk per hit and a tuple set."""
    start = origin.position
    free_cells = []
    occ_cells = []
    for h in np.asarray(hits, dtype=float).reshape(-1, 3):
        passed, hit = _traverse_ray_loop(grid, start, h)
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
    for cells, delta in ((free, grid.params.l_free), (occ, grid.params.l_occ)):
        idx = tuple(cells.reshape(-1, 3).T)
        updated = np.clip(grid.log_odds[idx] + delta, grid.params.l_min, grid.params.l_max)
        grid.log_odds[idx] = updated
        grid.touched[idx] = True
    return grid


def brute_force_cells(grid, start, end, n=20001):
    """Oracle: voxels containing dense samples along the open segment."""
    t = np.linspace(0.0, 1.0, n)[1:-1]
    pts = np.asarray(start) + t[:, None] * (np.asarray(end) - np.asarray(start))
    idx = grid.world_to_index(pts)
    idx = idx[grid.in_bounds(idx)]
    return {tuple(c) for c in idx}


class TestTraverseRay:
    def test_single_ray_states(self):
        g = fresh()
        integrate_scan(g, Pose.identity(), [[2.5, 0.1, 0.1]])
        s = g.states()
        end = g.world_to_index([2.5, 0.1, 0.1])[0]
        assert s[tuple(end)] == OCCUPIED
        assert s[3, 0, 0] == FREE
        assert s[5, 5, 5] == UNKNOWN

    def test_matches_dense_sampling_oracle(self):
        rng = np.random.default_rng(8)
        g = fresh()
        for _ in range(40):
            a = rng.uniform(0.05, 3.95, size=3)
            b = rng.uniform(0.05, 3.95, size=3)
            passed, hit = traverse_ray(g, a, b)
            got = {tuple(c) for c in passed}
            if hit is not None:
                got.add(tuple(hit))
            assert got == brute_force_cells(g, a, b) | {tuple(g.world_to_index(b)[0])}

    def test_axis_aligned_ray(self):
        g = fresh()
        passed, hit = traverse_ray(g, [0.1, 0.1, 0.1], [1.1, 0.1, 0.1])
        assert [tuple(c) for c in passed] == [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 0)]
        assert tuple(hit) == (5, 0, 0)


class TestIntegrateScan:
    def test_saturation_clamp(self):
        g = fresh()
        for _ in range(100):
            integrate_scan(g, Pose.identity(), [[1.5, 0.1, 0.1]])
        end = tuple(g.world_to_index([1.5, 0.1, 0.1])[0])
        assert g.log_odds[end] == g.params.l_max

    def test_free_clamp(self):
        g = fresh()
        for _ in range(100):
            integrate_scan(g, Pose.identity(), [[3.9, 0.1, 0.1]])
        assert g.log_odds[5, 0, 0] == g.params.l_min

    @pytest.mark.parametrize("hits", [[], np.empty((0, 3))])
    def test_empty_scan_is_a_no_op(self, hits):
        g = fresh()
        integrate_scan(g, Pose.identity(), [[2.5, 0.1, 0.1]])
        before = g.log_odds.copy()
        assert integrate_scan(g, Pose.identity(), hits) is g
        assert np.array_equal(g.log_odds, before)

    @pytest.mark.parametrize("hits", [[1.5, 0.1, 0.1], np.zeros((2, 2)), np.zeros((4, 3, 1)), [[]]])
    def test_rejects_shapes_other_than_n_by_3(self, hits):
        with pytest.raises(ValueError, match=r"\(n, 3\)"):
            integrate_scan(fresh(), Pose.identity(), hits)

    def test_hit_beats_miss_within_scan(self):
        # two rays in one scan: one ends in a voxel the other passes through
        g = fresh()
        integrate_scan(g, Pose.identity(), [[1.5, 0.1, 0.1], [3.5, 0.1, 0.1]])
        hit_voxel = tuple(g.world_to_index([1.5, 0.1, 0.1])[0])
        assert g.log_odds[hit_voxel] == pytest.approx(g.params.l_occ)
        assert g.states()[hit_voxel] == OCCUPIED

    def test_box_scans_match_analytic_shell(self):
        res = 0.2
        g = OccupancyGrid((0, 0, 0), res, (30, 30, 30))
        lo = np.array([1.05, 1.05, 1.05])
        hi = np.array([3.07, 2.69, 2.33])
        spacing = 0.02
        scans = []
        for ax in range(3):
            u, v = [a for a in range(3) if a != ax]
            us = np.arange(lo[u], hi[u] + 1e-9, spacing)
            vs = np.arange(lo[v], hi[v] + 1e-9, spacing)
            uu, vv = np.meshgrid(us, vs)
            for face_val, cam_val in ((lo[ax], 0.15), (hi[ax], 5.85)):
                hits = np.zeros((uu.size, 3))
                hits[:, ax] = face_val
                hits[:, u] = uu.ravel()
                hits[:, v] = vv.ravel()
                cam = np.array([2.0, 2.0, 2.0])
                cam[ax] = cam_val
                scans.append((Pose(cam), hits))
        for origin, hits in scans:
            integrate_scan(g, origin, hits)
        occupied = set(map(tuple, np.argwhere(g.states() == OCCUPIED)))

        # analytic oracle: voxel AABB intersects the closed box but is not
        # contained in its open interior
        shell = set()
        for i in range(30):
            for j in range(30):
                for k in range(30):
                    vlo = np.array([i, j, k]) * res
                    vhi = vlo + res
                    intersects = np.all(vlo <= hi) and np.all(vhi >= lo)
                    inside = np.all(vlo >= lo) and np.all(vhi <= hi)
                    if intersects and not inside:
                        shell.add((i, j, k))
        assert occupied == shell


    def test_far_hits_and_outside_start_match_loop(self):
        # far hits cross ~4e5 planes per axis; the batched walk clips them to the grid
        g = fresh()
        ref = g.copy()
        starts = [[-3.0, 1.0, 2.0], [2.0, 2.0, 2.0], [5.5, -0.7, 9.0]]
        hits = np.array([
            [1e5, 1.3, 0.7], [-1e5, -2e4, 3e4], [2.1, 1e5, 1e5], [-6e4, 5e4, -8e4],
            [1.3, 2.7, 0.9], [30.0, -4.0, 2.2],
        ])
        for start in starts:
            integrate_scan(g, Pose(np.array(start)), hits)
            _integrate_scan_loop(ref, Pose(np.array(start)), hits)
        assert g.touched.any()
        assert np.array_equal(g.log_odds, ref.log_odds)
        assert np.array_equal(g.touched, ref.touched)


def _random_hits(rng, grid, sensor, far):
    """Hits of one scan from `sensor`, mixing every kind of ray the walk must get right."""
    dims = np.array(grid.dims)
    size = dims * grid.resolution
    n = 5
    anywhere = grid.origin + rng.uniform(-1.0, 2.0, (n, 3)) * size
    # voxel corners, points on the half-voxel lattice, then voxel edges
    corners = grid.origin + rng.integers(-2, dims + 3, (n, 3)) * grid.resolution
    halves = grid.origin + rng.integers(-4, 2 * dims + 5, (n, 3)) * (0.5 * grid.resolution)
    edges = corners.copy()
    edges[np.arange(n), rng.integers(0, 3, n)] += rng.uniform(-1.0, 1.0, n) * grid.resolution
    # axis-aligned, some ending on a plane
    axis_aligned = np.repeat(sensor[None, :], 2 * n, axis=0)
    length = np.concatenate([rng.uniform(-1.5, 1.5, n) * size.max(),
                             rng.integers(-8, 9, n) * grid.resolution])
    axis_aligned[np.arange(2 * n), rng.integers(0, 3, 2 * n)] += length
    direction = rng.normal(size=(2, 3))
    far_hits = sensor + far * direction / np.linalg.norm(direction, axis=1, keepdims=True)
    hits = np.vstack([anywhere, corners, halves, edges, axis_aligned, far_hits, sensor[None, :]])
    duplicates = hits[rng.integers(0, len(hits), 4)]
    return rng.permutation(np.vstack([hits, duplicates]))


@given(
    res=st.sampled_from([0.2, 0.25, 0.5, 1.0]),
    dims=grid_dims,
    grid_origin=st.sampled_from([(0.0, 0.0, 0.0), (-0.5, 0.25, -1.0)]),
    sensor_kind=st.sampled_from(["inside", "outside", "corner"]),
    far=st.sampled_from([20.0, 1e3, 1e4]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_integrate_scan_matches_per_hit_loop(res, dims, grid_origin, sensor_kind, far, seed):
    rng = np.random.default_rng(seed)
    g = OccupancyGrid(grid_origin, res, dims)
    # a grid already updated in places, some voxels near the clamps
    g.log_odds = rng.choice([g.params.l_min, -0.3, 0.0, 0.4, g.params.l_max], size=dims)
    g.touched = rng.random(dims) < 0.5
    ref = g.copy()
    size = np.array(dims) * res
    for _ in range(2):
        if sensor_kind == "inside":
            sensor = g.origin + rng.uniform(0.0, 1.0, 3) * size
        elif sensor_kind == "outside":
            sensor = g.origin + rng.choice([-1.0, 2.0], 3) * rng.uniform(0.2, 1.0, 3) * size
        else:
            sensor = g.origin + rng.integers(-1, np.array(dims) + 2, 3) * res
        hits = _random_hits(rng, g, sensor, far)
        for h in hits:
            passed, hit = traverse_ray(g, sensor, h)
            passed_ref, hit_ref = _traverse_ray_loop(g, sensor, h)
            assert np.array_equal(passed, passed_ref)
            assert (hit is None and hit_ref is None) or np.array_equal(hit, hit_ref)
        integrate_scan(g, Pose(sensor), hits)
        _integrate_scan_loop(ref, Pose(sensor), hits)
        assert np.array_equal(g.log_odds, ref.log_odds)
        assert np.array_equal(g.touched, ref.touched)


class TestStates:
    def test_thresholds_consistent(self):
        g = fresh()
        g.log_odds[1, 1, 1] = 0.01
        g.touched[1, 1, 1] = True
        g.log_odds[1, 1, 2] = 0.0
        g.touched[1, 1, 2] = True
        s = g.states()
        assert s[1, 1, 1] == OCCUPIED
        assert s[1, 1, 2] == FREE
        assert s[0, 0, 0] == UNKNOWN

    def test_fill_box(self):
        g = fresh()
        g.fill_box([0.0, 0.0, 0.0], [0.61, 0.61, 0.21], OCCUPIED)
        s = g.states()
        assert s[0, 0, 0] == OCCUPIED and s[2, 2, 0] == OCCUPIED
        assert s[3, 0, 0] == UNKNOWN


@pytest.mark.parametrize("res", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
def test_rejects_resolution_not_finite_and_positive(res):
    with pytest.raises(ValueError, match="resolution"):
        OccupancyGrid((0, 0, 0), res, (4, 4, 4))


@pytest.mark.parametrize(
    "bad",
    [
        {"p_hit": 0.4},  # a hit would free its voxel
        {"p_hit": 0.5},  # a hit would carry no evidence
        {"p_hit": 1.0},  # infinite log-odds
        {"p_miss": 0.6},  # a pass-through would mark its voxel occupied
        {"p_miss": 0.0},  # infinite log-odds
        {"l_min": 3.5, "l_max": -2.0},  # clamp inverted
        {"occ_thresh": 3.5},  # no voxel could ever be occupied
        {"occ_thresh": -2.5},  # every touched voxel occupied
        {"p_hit": float("nan")},
        {"l_min": float("-inf")},
        {"l_max": float("inf")},
        {"occ_thresh": float("nan")},
    ],
)
def test_log_odds_params_reject_inverted_or_void_model(bad):
    with pytest.raises(ValueError):
        LogOddsParams(**bad)


def test_log_odds_params_accept_threshold_at_lower_clamp():
    assert LogOddsParams(occ_thresh=-2.0).occ_thresh == -2.0
