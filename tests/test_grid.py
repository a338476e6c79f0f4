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
    integrate_scan,
    load_grid,
    save_grid,
    traverse_ray,
)


def fresh(dims=(20, 20, 20), res=0.2, origin=(0, 0, 0)):
    return OccupancyGrid(origin, res, dims)


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


grid_dims = st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))


class TestFileFormat:
    @given(grid_dims, st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_random_states(self, tmp_path_factory, dims, seed):
        rng = np.random.default_rng(seed)
        g = OccupancyGrid((0.5, -1.0, 2.25), 0.25, dims)
        g.set_states(rng.integers(0, 3, size=dims).astype(np.uint8))
        path = tmp_path_factory.mktemp("grids") / "g.occgrid"
        save_grid(g, path)
        back = load_grid(path)
        assert back.dims == g.dims
        assert back.resolution == g.resolution
        np.testing.assert_array_equal(back.origin, g.origin)
        np.testing.assert_array_equal(back.states(), g.states())

    def test_save_is_bit_exact_deterministic(self, tmp_path):
        g = fresh(dims=(4, 3, 2))
        g.fill_box([0, 0, 0], [0.5, 0.5, 0.5], OCCUPIED)
        p1, p2 = tmp_path / "a", tmp_path / "b"
        save_grid(g, p1)
        save_grid(g, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().startswith("OCCGRID 1\n")

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad"
        p.write_text("NOTAGRID\n")
        with pytest.raises(ValueError):
            load_grid(p)
