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


def circumsphere(mesh: TetMesh, tid: int):
    """Center and radius of a tet's circumsphere, solved from the three
    bisector planes."""
    a, b, c, d = mesh.verts[mesh.tets[tid]]
    m = 2.0 * np.array([b - a, c - a, d - a])
    rhs = np.array([b @ b - a @ a, c @ c - a @ a, d @ d - a @ a])
    center = np.linalg.solve(m, rhs)
    return center, float(np.linalg.norm(a - center))


def circumsphere_violations(mesh: TetMesh, tol: float = 1e-6) -> int:
    """Oracle route: circumcenter by linear solve, then vectorized distances.

    Counts (tet, point) pairs where a point sits strictly inside a finite
    tet's circumsphere by more than `tol` (relative to the radius).
    """
    bad = 0
    for tid in mesh.finite_tet_ids():
        center, radius = circumsphere(mesh, tid)
        d = np.linalg.norm(mesh.points - center, axis=1)
        bad += int(np.sum(d < radius * (1.0 - tol) - tol))
    return bad


class TestPredicates:
    def test_orient_sign(self):
        a, b, c, d = [0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]
        assert orient3d(a, b, c, d) > 0
        assert orient3d(a, c, b, d) < 0
        # a stack of tetrahedra gives each one's value
        stack = orient3d(np.array([a, a]), np.array([b, c]), np.array([c, b]), np.array([d, d]))
        assert stack.tolist() == [orient3d(a, b, c, d), orient3d(a, c, b, d)]


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
        tets, neighbors = mesh.tets.tolist(), mesh.neighbors.tolist()
        # every interior facet shared by exactly two mutually-linked tets
        for tid, nbs in enumerate(neighbors):
            for k, nb in enumerate(nbs):
                if nb == OUTER:
                    continue
                assert tid in neighbors[nb]
                f = FACET_OPP[k]
                tri = {tets[tid][i] for i in f}
                assert tri < set(tets[nb]) | tri
                back = neighbors[nb].index(tid)
                fb = FACET_OPP[back]
                assert {tets[nb][i] for i in fb} == tri
        # facets() lists each interior facet once and every hull facet
        t, k = mesh.facets()
        n_hull = np.count_nonzero(mesh.neighbors == OUTER)
        assert 2 * len(t) == 4 * len(mesh.tets) + n_hull
        assert len(set(zip(t.tolist(), k.tolist()))) == len(t)

    def test_find_vertex_of_one_point_or_many(self):
        pts = np.random.default_rng(6).uniform(0, 1, size=(30, 3))
        mesh = tetrahedralize(pts)
        assert mesh.find_vertex(pts[7]) == mesh.input_vertex_ids[7]
        assert mesh.find_vertex(pts).tolist() == mesh.input_vertex_ids
        assert mesh.find_vertex(np.empty((0, 3))).shape == (0,)
        with pytest.raises(KeyError):
            mesh.find_vertex(np.vstack([pts[:3], [[2.0, 2.0, 2.0]]]))

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
