import numpy as np
import pytest

from mavnav.delaunay import (
    FACET_OPP,
    OUTER,
    DegeneracyError,
    TetMesh,
    orient3d,
    tetrahedralize,
)


def circumsphere_violations(mesh: TetMesh, tol: float = 1e-6) -> int:
    """Oracle route: circumcenter by linear solve, then vectorized distances.

    Counts (tet, point) pairs where a point sits strictly inside a finite
    tet's circumsphere by more than `tol` (relative to the radius).
    """
    bad = 0
    for tid in mesh.finite_tet_ids():
        center, radius = mesh.circumsphere(tid)
        d = np.linalg.norm(mesh.points - center, axis=1)
        bad += int(np.sum(d < radius * (1.0 - tol) - tol))
    return bad


class TestPredicates:
    def test_orient_sign(self):
        a, b, c, d = [0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]
        assert orient3d(a, b, c, d) > 0
        assert orient3d(a, c, b, d) < 0


class TestTetrahedralize:
    def test_minimal_four_points(self):
        mesh = tetrahedralize([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert len(mesh.finite_tet_ids()) == 1
        assert mesh.points.shape == (4, 3)

    def test_duplicate_merged(self):
        mesh = tetrahedralize(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1e-9]]
        )
        assert mesh.points.shape == (4, 3)
        assert mesh.input_vertex_ids[4] == mesh.input_vertex_ids[0]

    def test_too_few_points(self):
        with pytest.raises(DegeneracyError):
            tetrahedralize([[0, 0, 0], [1, 0, 0], [0, 1, 0]])

    def test_coplanar_rejected(self):
        pts = np.random.default_rng(1).uniform(size=(20, 2))
        flat = np.column_stack([pts, np.zeros(20)])
        with pytest.raises(DegeneracyError):
            tetrahedralize(flat)

    def test_cube_corners_empty_circumsphere(self):
        corners = np.array(
            [[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], dtype=float
        )
        mesh = tetrahedralize(corners)
        assert circumsphere_violations(mesh) == 0
        # cube volume must be exactly tiled
        vol = sum(
            abs(orient3d(*(mesh.verts[v] for v in mesh.tets[t]))) / 6.0
            for t in mesh.finite_tet_ids()
        )
        assert vol == pytest.approx(1.0, rel=1e-6)

    def test_random_clouds_are_delaunay(self):
        rng = np.random.default_rng(7)
        for n in (10, 40, 120):
            pts = rng.uniform(-5, 5, size=(n, 3))
            mesh = tetrahedralize(pts)
            assert circumsphere_violations(mesh) == 0

    def test_adjacency_consistent(self):
        pts = np.random.default_rng(3).normal(size=(50, 3))
        mesh = tetrahedralize(pts)
        # every interior facet shared by exactly two mutually-linked tets
        for tid, nbs in mesh.neighbors.items():
            for k, nb in enumerate(nbs):
                if nb == OUTER:
                    continue
                assert tid in mesh.neighbors[nb]
                f = FACET_OPP[k]
                tri = {mesh.tets[tid][i] for i in f}
                assert tri < set(mesh.tets[nb]) | tri
                back = mesh.neighbors[nb].index(tid)
                fb = FACET_OPP[back]
                assert {mesh.tets[nb][i] for i in fb} == tri

    def test_locate_returns_containing_tet(self):
        from scipy.spatial import ConvexHull

        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 4, size=(80, 3))
        mesh = tetrahedralize(pts)
        # hull planes: n.q + c < 0 inside
        eqs = ConvexHull(pts).equations
        queries = rng.uniform(-1, 5, size=(400, 3))
        depth = np.max(queries @ eqs[:, :3].T + eqs[:, 3], axis=1)
        inside, outside = queries[depth < -1e-3], queries[depth > 1e-3]
        assert len(inside) > 50 and len(outside) > 50
        for q in inside:
            tid = mesh.locate(q)
            vs = mesh.tets[tid]
            for k in range(4):
                f = FACET_OPP[k]
                o = orient3d(
                    mesh.verts[vs[f[0]]], mesh.verts[vs[f[1]]], mesh.verts[vs[f[2]]], q
                )
                assert o >= -1e-9
        assert all(mesh.locate(q) == OUTER for q in outside)
        assert np.all(mesh.locate(outside) == OUTER)

    def test_near_duplicate_clusters(self):
        """~300 landmarks seen 8 times each with 1e-4 isotropic noise: the
        repeated observations are near-duplicates just above MERGE_RADIUS."""
        from scipy.spatial import ConvexHull

        rng = np.random.default_rng(0)
        landmarks = rng.uniform(0, 5, size=(300, 3))
        pts = np.vstack([landmarks + rng.normal(0.0, 1e-4, landmarks.shape) for _ in range(8)])
        mesh = tetrahedralize(pts)
        assert mesh.points.shape == (2400, 3)
        assert circumsphere_violations(mesh) == 0
        vol = sum(
            abs(orient3d(*(mesh.verts[v] for v in mesh.tets[t]))) / 6.0
            for t in mesh.finite_tet_ids()
        )
        assert vol == pytest.approx(ConvexHull(pts).volume, rel=1e-6)

    def test_volume_tiles_hull(self):
        rng = np.random.default_rng(13)
        pts = rng.uniform(0, 2, size=(100, 3))
        mesh = tetrahedralize(pts)
        from scipy.spatial import ConvexHull

        vol = sum(
            abs(orient3d(*(mesh.verts[v] for v in mesh.tets[t]))) / 6.0
            for t in mesh.finite_tet_ids()
        )
        assert vol == pytest.approx(ConvexHull(pts).volume, rel=1e-6)
