import itertools

import numpy as np
import pytest

from mavnav.delaunay import OUTER, TetMesh, tetrahedralize
from mavnav.geometry import Pose, Quat
from mavnav.grid import FREE, OCCUPIED, UNKNOWN
from mavnav.reconstruction import (
    CutWeights,
    Keyframe,
    build_cut_problem,
    extract_surface,
    label_and_extract,
    label_tets,
    rasterize,
    select_keyframes,
    walk_ray,
)


def brute_force_labeling(problem):
    """Enumerate every labeling of the cut problem; (min energy, labeling)."""
    n = problem.n_nodes
    best_e, best = float("inf"), None
    for bits in itertools.product([False, True], repeat=n):
        e = problem.energy(np.array(bits))
        if e < best_e:
            best_e, best = e, bits
    return best_e, best


class TestSelectKeyframes:
    def test_static_stream(self):
        poses = [Pose(np.zeros(3), Quat.identity(), 0.1 * i) for i in range(50)]
        assert len(select_keyframes(poses, 0.3, np.radians(10))) == 1

    def test_large_translation_steps(self):
        poses = [Pose(np.array([0.6 * i, 0, 0]), Quat.identity(), float(i)) for i in range(10)]
        assert len(select_keyframes(poses, 0.3, np.radians(10))) == 10

    def test_rotation_only_steps(self):
        rot = np.radians(15)
        poses = [Pose(np.zeros(3), Quat.from_yaw(rot * i), float(i)) for i in range(10)]
        assert len(select_keyframes(poses, 0.3, np.radians(10))) == 10

    def test_empty_stream(self):
        assert select_keyframes([], 0.3, 0.1) == []

    def test_bad_thresholds(self):
        with pytest.raises(ValueError):
            select_keyframes([], 0.0, 0.1)


def _wall_scene():
    """Camera inside the hull looking at a small wall with points behind it."""
    near = [[-0.5, -0.8, -0.6], [-0.5, 1.9, 1.6]]
    wall = [[2.0, 0.5, 0.3], [2.0, 1.4, 0.35], [2.0, 0.9, 1.3]]
    far = [[2.8, -0.7, -0.9], [2.8, 1.3, 2.0]]
    pts = np.array(near + wall + far)
    cam = Pose(np.array([0.3, 0.8, 0.5]))
    return pts, np.array(wall), cam, [Keyframe(cam, np.array(wall))]


class TestGraphCut:
    def test_no_rays_all_inside(self):
        pts = np.random.default_rng(2).uniform(0, 1, (6, 3))
        mesh = tetrahedralize(pts)
        with pytest.warns(UserWarning):
            mesh, surface = label_and_extract(mesh, [])
        assert all(lbl == TetMesh.INSIDE for lbl in mesh.labels.values())
        assert surface.triangles == []

    def test_wall_scene_matches_brute_force(self):
        pts, wall, cam, keyframes = _wall_scene()
        mesh = tetrahedralize(pts)
        n_finite = len(mesh.finite_tet_ids())
        assert n_finite <= 15, f"test scene too large: {n_finite} tets"
        weights = CutWeights(alpha_vis=1.0, alpha_behind=5.0, lambda_qual=0.1)
        problem, energy = label_tets(mesh, keyframes, weights)
        oracle_e, _ = brute_force_labeling(problem)
        assert energy == pytest.approx(oracle_e, abs=1e-9)

        # every tet along a visibility ray is labeled outside, the tet
        # just behind each wall point inside
        for wp in wall:
            for t in np.linspace(0.05, 0.97, 12):
                probe = cam.position + t * (wp - cam.position)
                tid = mesh.locate(probe)
                if mesh.is_finite(tid):
                    assert mesh.labels[tid] == TetMesh.OUTSIDE
            d = wp - cam.position
            d = d / np.linalg.norm(d)
            tid = mesh.locate(wp + 0.2 * d)
            assert mesh.labels[tid] == TetMesh.INSIDE

        # surface stays near the wall plane (within one circumradius)
        surface = extract_surface(mesh)
        assert surface.triangles
        max_r = max(mesh.circumsphere(t)[1] for t in mesh.finite_tet_ids())
        for tri in surface.triangles:
            for v in tri:
                assert abs(surface.vertices[v][0] - 2.0) <= max_r + 1e-9

    def test_random_instances_energy_optimal(self):
        rng = np.random.default_rng(23)
        checked = 0
        for trial in range(12):
            pts = rng.uniform(0, 2, size=(7, 3))
            try:
                mesh = tetrahedralize(pts)
            except ValueError:
                continue
            if len(mesh.finite_tet_ids()) > 15:
                continue
            cam = Pose(rng.uniform(-2, 0, size=3))
            kf = Keyframe(cam, pts)
            problem, energy = label_tets(mesh, [kf])
            oracle_e, _ = brute_force_labeling(problem)
            assert energy == pytest.approx(oracle_e, abs=1e-9), f"trial {trial}"
            labels_outside = np.array(
                [
                    mesh.labels[tid] == TetMesh.OUTSIDE
                    for tid, node in sorted(problem.node_of_tet.items())
                    if node < problem.outer_node and mesh.is_finite(tid)
                ]
            )
            checked += 1
        assert checked >= 6

    def test_ray_walk_reaches_target(self):
        pts = np.random.default_rng(4).uniform(0, 3, size=(40, 3))
        mesh = tetrahedralize(pts)
        ok = 0
        for vid in mesh.input_vertex_ids[:20]:
            crossed, terminal, behind = walk_ray(mesh, [-1.0, -0.7, -0.9], vid)
            if terminal is not None:
                assert vid in mesh.tets[terminal]
                ok += 1
        assert ok >= 18

    def test_ray_from_outside_crosses_outer_once(self):
        from scipy.spatial import ConvexHull

        pts = np.random.default_rng(4).uniform(0, 3, size=(40, 3))
        mesh = tetrahedralize(pts)
        on_hull = set(ConvexHull(mesh.points).vertices.tolist())
        reached = 0
        for vid in range(len(mesh.points)):
            crossed, terminal, behind = walk_ray(mesh, [-1.0, -0.7, -0.9], vid)
            assert crossed[0] == OUTER and crossed.count(OUTER) == 1
            if terminal is None:
                continue
            assert vid in mesh.tets[terminal]
            if vid not in on_hull:  # interior target: the walk enters the hull
                assert crossed[-1] == terminal and len(crossed) >= 2
            reached += 1
        assert reached >= 36


class TestRasterize:
    def _cube_mesh_all_inside(self):
        corners = np.array(
            [[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], dtype=float
        )
        mesh = tetrahedralize(corners)
        for tid in mesh.tets:
            mesh.labels[tid] = TetMesh.INSIDE if mesh.is_finite(tid) else TetMesh.OUTSIDE
        return mesh

    def test_unit_cube_matches_analytic_voxelization(self):
        mesh = self._cube_mesh_all_inside()
        surface = extract_surface(mesh)
        assert surface.watertight
        res = 0.25
        lo = np.array([-0.375, -0.375, -0.375])
        hi = np.array([1.375, 1.375, 1.375])
        grid = rasterize(mesh, surface, res, (lo, hi))
        states = grid.states()

        for i in range(grid.dims[0]):
            for j in range(grid.dims[1]):
                for k in range(grid.dims[2]):
                    vlo = lo + np.array([i, j, k]) * res
                    vhi = vlo + res
                    center = 0.5 * (vlo + vhi)
                    touches_cube = np.all(vlo <= 1.0) and np.all(vhi >= 0.0)
                    inside_open = np.all(vlo > 0.0) and np.all(vhi < 1.0)
                    crosses_boundary = touches_cube and not inside_open
                    center_in_cube = np.all(center > 0.0) and np.all(center < 1.0)
                    if crosses_boundary or center_in_cube:
                        expected = OCCUPIED
                    else:
                        expected = UNKNOWN  # outside hull, no outside-labeled tets
                    assert states[i, j, k] == expected, (i, j, k)

    def test_empty_surface_all_inside_fills_hull(self):
        mesh = self._cube_mesh_all_inside()
        from mavnav.reconstruction import SurfaceMesh

        grid = rasterize(mesh, SurfaceMesh(mesh.points, []), 0.25, ((-0.375,) * 3, (1.375,) * 3))
        states = grid.states()
        center_idx = grid.world_to_index([0.5, 0.5, 0.5])[0]
        assert states[tuple(center_idx)] == OCCUPIED
        assert (states == FREE).sum() == 0

    def test_voxel_outside_hull_unknown(self):
        mesh = self._cube_mesh_all_inside()
        surface = extract_surface(mesh)
        grid = rasterize(mesh, surface, 0.25, ((-2.1, -2.1, -2.1), (3.1, 3.1, 3.1)))
        assert grid.state_at([-1.8, -1.8, -1.8]) == UNKNOWN
