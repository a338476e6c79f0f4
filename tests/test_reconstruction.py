import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_delaunay import circumsphere

from mavnav import reconstruction
from mavnav.delaunay import FACET_OPP, OUTER, TetMesh, orient3d, tetrahedralize
from mavnav.geometry import Pose, row_dot
from mavnav.grid import FREE, OCCUPIED, UNKNOWN
from mavnav.reconstruction import (
    NO_TET,
    CutWeights,
    Keyframe,
    SurfaceMesh,
    _tri_box_overlaps,
    extract_surface,
    label_tets,
    rasterize,
    walk_rays,
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
            label_tets(mesh, [])
        assert np.all(mesh.labels == TetMesh.INSIDE)
        assert extract_surface(mesh).triangles == []

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
                if tid != OUTER:
                    assert mesh.labels[tid] == TetMesh.OUTSIDE
            d = wp - cam.position
            d = d / np.linalg.norm(d)
            tid = mesh.locate(wp + 0.2 * d)
            assert mesh.labels[tid] == TetMesh.INSIDE

        # surface stays near the wall plane (within one circumradius)
        surface = extract_surface(mesh)
        assert surface.triangles
        max_r = max(circumsphere(mesh, t)[1] for t in mesh.finite_tet_ids())
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
            outside = np.zeros(problem.n_nodes, dtype=bool)
            for tid, node in problem.node_of_tet.items():
                outside[node] = mesh.labels[tid] == TetMesh.OUTSIDE
            assert problem.energy(outside) == pytest.approx(oracle_e, abs=1e-9), f"trial {trial}"
            checked += 1
        assert checked >= 6

    def test_node_of_tet_is_the_identity_plus_outer(self):
        mesh = tetrahedralize(np.random.default_rng(5).uniform(0, 1, (30, 3)))
        problem, _ = label_tets(mesh, [Keyframe(Pose(np.full(3, -1.0)), mesh.points)])
        n = len(mesh.tets)
        want = {**{tid: tid for tid in range(n)}, OUTER: n}
        got = problem.node_of_tet
        assert list(got.items()) == list(want.items()) and list(got) == list(want)
        assert got == want and len(got) == len(got.items()) == n + 1
        assert (OUTER, n) in got.items() and (OUTER, 0) not in got.items()
        assert got[np.int64(3)] == 3 and got[np.intp(OUTER)] == n
        for tid in (n, NO_TET, 0.5):
            with pytest.raises(KeyError):
                got[tid]

    def test_empty_scan_labels_all_inside(self):
        mesh = tetrahedralize(np.random.default_rng(2).uniform(0, 1, (6, 3)))
        kf = Keyframe(Pose(np.array([0.5, 0.5, 0.5])), [])
        assert kf.points.shape == (0, 3)
        with pytest.warns(UserWarning, match="no visibility rays"):
            problem, energy = label_tets(mesh, [kf])
        assert problem.n_rays == 0 and energy == 0.0
        assert np.all(mesh.labels == TetMesh.INSIDE)

    @pytest.mark.parametrize("points", [np.zeros(3), np.zeros((2, 2)), np.zeros((4, 3, 1)), [[]]])
    def test_keyframe_rejects_shapes_other_than_n_by_3(self, points):
        with pytest.raises(ValueError, match=r"\(n, 3\)"):
            Keyframe(Pose(np.zeros(3)), points)

    def test_ray_walk_reaches_target(self):
        pts = np.random.default_rng(4).uniform(0, 3, size=(40, 3))
        mesh = tetrahedralize(pts)
        vids = np.array(mesh.input_vertex_ids[:20])
        ray, tet, terminal, behind = walk_rays(mesh, np.tile([-1.0, -0.7, -0.9], (20, 1)), vids)
        reached = terminal != NO_TET
        assert np.all(np.any(mesh.tets[terminal[reached]] == vids[reached, None], axis=1))
        assert np.count_nonzero(reached) >= 18
        assert np.all(behind[~reached] == NO_TET)
        assert set(ray.tolist()) == set(np.flatnonzero(reached).tolist())

    def test_ray_from_outside_crosses_outer_once(self):
        from scipy.spatial import ConvexHull

        pts = np.random.default_rng(4).uniform(0, 3, size=(40, 3))
        mesh = tetrahedralize(pts)
        on_hull = set(ConvexHull(mesh.points).vertices.tolist())
        vids = np.arange(len(mesh.points))
        ray, tet, terminal, _ = walk_rays(mesh, np.tile([-1.0, -0.7, -0.9], (len(vids), 1)), vids)
        reached = np.flatnonzero(terminal != NO_TET)
        for vid in reached:
            crossed = tet[ray == vid].tolist()  # in walk order
            assert crossed[0] == OUTER and crossed.count(OUTER) == 1
            assert vid in mesh.tets[terminal[vid]]
            if vid not in on_hull:  # interior target: the walk enters the hull
                assert crossed[-1] == terminal[vid] and len(crossed) >= 2
        assert len(reached) >= 36


class TestRasterize:
    def _cube_mesh_all_inside(self):
        corners = np.array(
            [[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], dtype=float
        )
        mesh = tetrahedralize(corners)
        for tid in mesh.finite_tet_ids():
            mesh.labels[tid] = TetMesh.INSIDE
        mesh.labels[OUTER] = TetMesh.OUTSIDE
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
        grid = rasterize(mesh, SurfaceMesh(mesh.points, []), 0.25, ((-0.375,) * 3, (1.375,) * 3))
        states = grid.states()
        center_idx = grid.world_to_index([0.5, 0.5, 0.5])[0]
        assert states[tuple(center_idx)] == OCCUPIED
        assert (states == FREE).sum() == 0

    def test_voxel_outside_hull_unknown(self):
        mesh = self._cube_mesh_all_inside()
        surface = extract_surface(mesh)
        grid = rasterize(mesh, surface, 0.25, ((-2.1, -2.1, -2.1), (3.1, 3.1, 3.1)))
        assert grid.states()[tuple(grid.world_to_index([-1.8, -1.8, -1.8])[0])] == UNKNOWN


# -- surface oracle ------------------------------------------------------


def _extract_surface_loop(mesh):
    """(triangles, watertight) of `extract_surface`, one facet at a time:
    the oracle of the array version."""
    tris = []
    for tid, vs in enumerate(mesh.tets.tolist()):
        for k, nb in enumerate(mesh.neighbors[tid].tolist()):
            if nb != OUTER and nb < tid:  # each interior facet once
                continue
            if mesh.labels[tid] == mesh.labels[nb]:
                continue
            f = FACET_OPP[k]
            tris.append((vs[f[0]], vs[f[1]], vs[f[2]]))
    edge_count: dict[frozenset, int] = {}
    for t in tris:
        for e in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            edge_count[frozenset(e)] = edge_count.get(frozenset(e), 0) + 1
    return tris, bool(tris) and all(c == 2 for c in edge_count.values())


@pytest.mark.parametrize("outer", [TetMesh.OUTSIDE, TetMesh.INSIDE])
@pytest.mark.parametrize("seed", [0, 1, 2, 5, 9])
def test_extract_surface_matches_facet_loop(seed, outer):
    mesh, _ = _random_labelled_mesh(seed)
    mesh.labels[OUTER] = outer
    surface = extract_surface(mesh)
    assert (surface.triangles, surface.watertight) == _extract_surface_loop(mesh)


def test_extract_surface_matches_facet_loop_on_cube():
    mesh = TestRasterize()._cube_mesh_all_inside()
    surface = extract_surface(mesh)
    assert (surface.triangles, surface.watertight) == _extract_surface_loop(mesh)
    assert surface.watertight and len(surface.triangles) == 12


# -- ray-walk oracle -----------------------------------------------------


def _segment_exits_facet(verts, tri, origin, target, eps: float) -> bool:
    a, b, c = (verts[v] for v in tri)
    if orient3d(a, b, c, target) >= -eps:
        return False
    s1 = orient3d(origin, target, a, b)
    s2 = orient3d(origin, target, b, c)
    s3 = orient3d(origin, target, c, a)
    return (s1 >= -eps and s2 >= -eps and s3 >= -eps) or (
        s1 <= eps and s2 <= eps and s3 <= eps
    )


def _hull_entry(mesh, tets, verts, origin, target, target_vid: int, eps: float):
    """Where the segment from `origin`, outside the hull, to `target` meets
    the hull: (tet, False) for the tet whose hull facet it enters through,
    (tet, True) for a tet whose hull facet it touches only at the target,
    (None, False) for a grazing segment."""
    touched = None
    for tid, k in np.argwhere(mesh.neighbors == OUTER).tolist():
        tri = [tets[tid][i] for i in FACET_OPP[k]]
        if _segment_exits_facet(verts, tri, target, origin, eps):
            if target_vid not in tri:
                return tid, False
            if touched is None:
                touched = tid
    return touched, touched is not None


def _behind(mesh, origin, target, end: int):
    d = np.subtract(target, origin)
    norm = float(np.linalg.norm(d))
    if norm == 0.0:
        return None
    behind = mesh.locate(np.add(target, d * (1e-6 / norm)))
    return None if behind == end else behind


def walk_ray(mesh, origin, target_vid: int):
    """(crossed_tids, terminal_tid, behind_tid) of one ray, walked one tet
    and one facet test at a time: the oracle of `walk_rays`."""
    tets, neighbors = mesh.tets.tolist(), mesh.neighbors.tolist()
    verts = [tuple(v) for v in mesh.verts.tolist()]
    origin = (float(origin[0]), float(origin[1]), float(origin[2]))
    target = verts[target_vid]
    eps = mesh._orient_eps
    crossed = [mesh.locate(origin)]
    prev = None
    if crossed[0] == OUTER:
        entry, touched = _hull_entry(mesh, tets, verts, origin, target, target_vid, eps)
        if entry is None:
            return crossed, None, None
        if touched:
            return crossed, entry, _behind(mesh, origin, target, OUTER)
        prev = OUTER
        crossed.append(entry)

    tid = crossed[-1]
    for _ in range(1_000_000):
        vs = tets[tid]
        exit_slot = None
        for k in range(4):
            if neighbors[tid][k] == prev:
                continue
            f = FACET_OPP[k]
            tri = (vs[f[0]], vs[f[1]], vs[f[2]])
            if target_vid in tri:
                continue
            if _segment_exits_facet(verts, tri, origin, target, eps):
                exit_slot = k
                break
        if exit_slot is None:
            break
        nb = neighbors[tid][exit_slot]
        if nb == OUTER:
            break
        prev = tid
        tid = nb
        crossed.append(tid)
    else:
        raise RuntimeError("ray walk did not terminate")

    if target_vid not in tets[tid]:
        return crossed, None, None  # grazing ray
    return crossed, tid, _behind(mesh, origin, target, tid)


_snapped = st.one_of(
    st.floats(-4.0, 4.0, allow_nan=False),
    st.integers(-4, 4).map(lambda m: m * 0.5),  # ties: repeated and coplanar points
)
_points = st.tuples(_snapped, _snapped, _snapped).map(np.array)


@settings(max_examples=500, deadline=None)
@given(_points, _points, _points, _points, st.sampled_from(["free", "c=d", "a=c", "b=c"]))
def test_orient3d_antisymmetric_in_its_last_two_points(a, b, c, d, tie):
    # the walk reads orient3d(a, b, d, c) as -orient3d(a, b, c, d); they
    # agree exactly (a zero may differ in sign, which no test compares)
    c = {"free": c, "c=d": d, "a=c": a, "b=c": b}[tie]
    assert orient3d(a, b, d, c) == -orient3d(a, b, c, d)
    # and the determinant of the differences rounds as orient3d does
    want = orient3d(a, b, c, d)
    got = reconstruction._det(*(np.asarray(x - a)[:, None] for x in (b, c, d)))[0]
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_edge_tables_reproduce_facet_opp():
    edges = reconstruction._EDGES.tolist()
    for k, (a, b, c) in enumerate(FACET_OPP):
        directed = [edges[e] if sign > 0 else edges[e][::-1] for e, sign
                    in zip(reconstruction._FACET_EDGES[k], reconstruction._FACET_SIGNS[k])]
        assert directed == [[a, b], [b, c], [c, a]]
        assert reconstruction._SIDE_A[k] == a
        assert edges[reconstruction._SIDE_B[k]] == [a, b]
        assert edges[reconstruction._SIDE_C[k]] == [a, c]
    assert sorted(map(tuple, edges)) == list(itertools.combinations(range(4), 2))


@st.composite
def _ray_fans(draw):
    """(mesh, camera): a random mesh and one camera inside its hull,
    outside it, on a mesh vertex (a zero-length ray to that vertex, and
    rays that start on facets), or on a facet's centroid or an edge's
    midpoint, where the facet tests tie."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mesh = tetrahedralize(rng.uniform(0.0, 2.0, size=(draw(st.integers(5, 30)), 3)))
    kind = draw(st.sampled_from(["inside", "outside", "vertex", "facet", "edge"]))
    corners = mesh.verts[mesh.tets[draw(st.integers(0, len(mesh.tets) - 1))]]
    if kind == "inside":  # a convex combination of the vertices
        cam = rng.dirichlet(np.ones(len(mesh.verts))) @ mesh.verts
    elif kind == "outside":
        d = rng.normal(size=3)
        cam = 1.0 + d * (draw(st.floats(1.8, 6.0)) / np.linalg.norm(d))
    else:
        cam = corners[: {"vertex": 1, "edge": 2, "facet": 3}[kind]].mean(axis=0)
    return mesh, cam


def _walks(mesh, cam):
    """Per target vertex, (crossed, terminal, behind) from the batched walk
    and from the oracle, crossed as the oracle lists it for a reached
    target and empty for a grazing one."""
    vids = np.arange(len(mesh.verts))
    ray, tet, terminal, behind = walk_rays(mesh, np.tile(cam, (len(vids), 1)), vids)
    got, want = [], []
    for vid in vids:
        t, b = terminal[vid], behind[vid]
        got.append((tet[ray == vid].tolist(),
                    None if t == NO_TET else int(t), None if b == NO_TET else int(b)))
        crossed, t, b = walk_ray(mesh, cam, vid)
        want.append((crossed if t is not None else [], t, b))
    return got, want


@settings(max_examples=150, deadline=None)
@given(_ray_fans())
def test_batched_walk_matches_scalar_walk(fan):
    mesh, cam = fan
    got, want = _walks(mesh, cam)
    assert got == want


@pytest.mark.parametrize(
    "kind, case",
    [("inside", "walked"), ("outside", "walked"), ("outside", "touched"),
     ("vertex", "zero-length")],
)
def test_batched_walk_covers_each_case(kind, case, monkeypatch):
    # fixed fans on which the oracle takes the named branch: a walk to the
    # target, a target on the hull touched from outside, a zero-length ray;
    # the hull-entry pairs split into many blocks
    monkeypatch.setattr(reconstruction, "_PAIR_BLOCK", 7)
    seen = set()
    for seed in range(4):
        rng = np.random.default_rng(seed)
        mesh = tetrahedralize(rng.uniform(0.0, 2.0, size=(25, 3)))
        cam = {"inside": rng.dirichlet(np.ones(len(mesh.verts))) @ mesh.verts,
               "outside": np.array([-2.0, -1.5, 3.5]),
               "vertex": mesh.verts[seed]}[kind]
        got, want = _walks(mesh, cam)
        assert got == want
        for vid, (crossed, t, b) in enumerate(want):
            if crossed == [OUTER] and t is not None:
                seen.add("touched")
            elif np.array_equal(cam, mesh.verts[vid]) and t is not None and b is None:
                seen.add("zero-length")
            elif t is not None and len(crossed) > 1:
                seen.add("walked")
    assert case in seen


# -- rasterization oracles -----------------------------------------------


def _tri_box_overlap(v0, v1, v2, center, half) -> bool:
    """Separating-axis test between a triangle and an axis-aligned box,
    one pair at a time: the oracle of the batched `_tri_box_overlaps`."""
    v0 = v0 - center
    v1 = v1 - center
    v2 = v2 - center
    # box face axes
    for ax in range(3):
        lo = min(v0[ax], v1[ax], v2[ax])
        hi = max(v0[ax], v1[ax], v2[ax])
        if lo > half[ax] or hi < -half[ax]:
            return False
    e0, e1, e2 = v1 - v0, v2 - v1, v0 - v2
    # triangle normal axis
    n = np.cross(e0, e1)
    d = float(n @ v0)
    r = float(half @ np.abs(n))
    if abs(d) > r:
        return False
    # nine edge cross-product axes
    for e in (e0, e1, e2):
        for ax in range(3):
            axis = np.zeros(3)
            axis[ax] = 1.0
            a = np.cross(e, axis)
            if not np.any(a):
                continue
            p0, p1, p2 = float(a @ v0), float(a @ v1), float(a @ v2)
            r = float(half @ np.abs(a))
            if min(p0, p1, p2) > r or max(p0, p1, p2) < -r:
                return False
    return True


def _rasterize_loop(mesh, surface, resolution, bounds):
    """`rasterize(...).states()` with the surface voxelized one voxel at a
    time by the scalar oracle; the tet labels come from `rasterize` with
    no triangles."""
    lo = np.asarray(bounds[0], dtype=float)
    grid = rasterize(mesh, SurfaceMesh(surface.vertices, []), resolution, bounds)
    states = grid.states()
    half = np.full(3, 0.5 * resolution)
    for tri in surface.triangles:
        pts = surface.vertices[list(tri)]
        tlo = np.floor((pts.min(axis=0) - lo) / resolution).astype(int)
        thi = np.floor((pts.max(axis=0) - lo) / resolution).astype(int)
        tlo = np.maximum(tlo, 0)
        thi = np.minimum(thi, np.array(grid.dims) - 1)
        for i in range(tlo[0], thi[0] + 1):
            for j in range(tlo[1], thi[1] + 1):
                for k in range(tlo[2], thi[2] + 1):
                    center = lo + (np.array([i, j, k]) + 0.5) * resolution
                    if _tri_box_overlap(pts[0], pts[1], pts[2], center, half):
                        states[i, j, k] = OCCUPIED
    return states


@st.composite
def _tri_box_pairs(draw):
    """(triangles, box centers, half) of one voxel grid. Vertices are often
    snapped onto voxel faces, edges and corners, where the tests tie; some
    triangles have an edge along a box axis or are zero-area."""
    res = draw(st.sampled_from([0.25, 0.2, 0.3]))
    coord = st.one_of(
        st.floats(-1.0, 1.0, allow_nan=False),
        st.integers(-6, 6).map(lambda m: m * res / 2),  # voxel faces and mid-planes
    )
    tris, centers = [], []
    for _ in range(draw(st.integers(1, 12))):
        v0, v1, v2 = (np.array(draw(st.tuples(coord, coord, coord))) for _ in range(3))
        shape = draw(st.sampled_from(["free", "axis_edge", "repeated", "point", "collinear"]))
        if shape == "axis_edge":  # v1 - v0 along one box axis
            v1 = np.where(np.arange(3) == draw(st.integers(0, 2)), v1, v0)
        elif shape == "repeated":
            v2 = v0.copy()
        elif shape == "point":
            v1, v2 = v0.copy(), v0.copy()
        elif shape == "collinear":
            v2 = v0 + draw(st.sampled_from([-1.0, 0.5, 2.0])) * (v1 - v0)
        ijk = np.array(draw(st.tuples(*[st.integers(-3, 2)] * 3)))
        tris.append([v0, v1, v2])
        centers.append((ijk + 0.5) * res)
    return np.array(tris), np.array(centers), np.full(3, 0.5 * res)


def _random_labelled_mesh(seed, labels="random"):
    """A random mesh labelled at random, or every finite tet INSIDE (OUTER
    OUTSIDE) or OUTSIDE (OUTER INSIDE): either way the hull is the surface."""
    rng = np.random.default_rng(seed)
    mesh = tetrahedralize(rng.uniform(0.0, 2.0, size=(30, 3)))
    if labels == "random":
        for tid in mesh.finite_tet_ids():
            mesh.labels[tid] = TetMesh.INSIDE if rng.random() < 0.5 else TetMesh.OUTSIDE
        mesh.labels[OUTER] = TetMesh.OUTSIDE
    else:
        inside = labels == "all_inside"
        mesh.labels[:] = TetMesh.INSIDE if inside else TetMesh.OUTSIDE
        mesh.labels[OUTER] = TetMesh.OUTSIDE if inside else TetMesh.INSIDE
    return mesh, extract_surface(mesh)


_WINDOWS = {
    "whole": ((-0.35, -0.35, -0.35), (2.35, 2.35, 2.35)),  # holds the whole surface
    "cut": ((0.55, -0.35, 0.8), (1.45, 2.35, 1.4)),  # cuts through it
    "outside": ((2.6, -3.0, 0.0), (3.5, -2.1, 2.0)),  # wholly outside: past x, before y
}
_RASTER_CASES = [(w, labels) for labels in ("random", "all_inside", "all_outside") for w in _WINDOWS]


def _window_id(window, labels):
    return window if labels == "random" else f"{labels}-{window}"


class TestRasterizeOracles:
    def test_row_dot_rounds_as_one_dimensional_matmul(self):
        # the batched test is bit-identical to the scalar one only if its
        # dot products round as the scalar `a @ b` does
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(2, 2000, 3))
        assert row_dot(a, b).tolist() == [float(x @ y) for x, y in zip(a, b)]

    @settings(max_examples=200, deadline=None)
    @given(_tri_box_pairs())
    def test_batched_sat_matches_scalar(self, pairs):
        tris, centers, half = pairs
        want = [_tri_box_overlap(t[0], t[1], t[2], c, half) for t, c in zip(tris, centers)]
        assert _tri_box_overlaps(tris, centers, half).tolist() == want

    # all INSIDE: every voxel whose centre is in the hull is occupied before
    # any triangle is tested; all OUTSIDE: none is
    @pytest.mark.parametrize("window, labels", _RASTER_CASES,
                             ids=[_window_id(w, labels) for w, labels in _RASTER_CASES])
    def test_rasterize_matches_per_voxel_loop(self, window, labels):
        mesh, surface = _random_labelled_mesh(5, labels)
        assert surface.triangles
        want = _rasterize_loop(mesh, surface, 0.3, _WINDOWS[window])
        np.testing.assert_array_equal(rasterize(mesh, surface, 0.3, _WINDOWS[window]).states(), want)


@pytest.mark.parametrize(
    "resolution, bounds",
    [
        (0.0, ((0, 0, 0), (1, 1, 1))),
        (-0.25, ((0, 0, 0), (1, 1, 1))),
        (float("nan"), ((0, 0, 0), (1, 1, 1))),
        (float("inf"), ((0, 0, 0), (1, 1, 1))),
        (0.25, ((0, float("nan"), 0), (1, 1, 1))),
        (0.25, ((0, 0, 0), (1, 1, float("inf")))),
        (0.25, ((0, 0, 0), (1, 0, 1))),  # hi == lo on y
        (0.25, ((0, 0, 0), (1, 1, -1))),  # hi < lo on z
    ],
)
def test_rasterize_rejects_bad_resolution_or_bounds(resolution, bounds):
    mesh, surface = _random_labelled_mesh(5)
    with pytest.raises(ValueError, match="resolution|bounds"):
        rasterize(mesh, surface, resolution, bounds)
