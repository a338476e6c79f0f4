"""Sparse multi-view surface reconstruction on a Delaunay tetrahedralization.

Visibility rays (camera center to observed point) vote tetrahedra they
cross toward "outside" and the tetrahedron just behind each observed
point toward "inside". A constant-capacity smoothness term on shared
facets completes an s-t cut problem whose exact minimum labels every
tetrahedron; facets separating differently-labeled tetrahedra form the
reconstructed surface, which is finally rasterized to an occupancy grid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .delaunay import FACET_OPP, OUTER, TetMesh, orient3d
from .geometry import Pose
from .grid import FREE, OCCUPIED, UNKNOWN, LogOddsParams, OccupancyGrid
from .maxflow import FlowNetwork


@dataclass
class Keyframe:
    """Camera pose plus the world-frame points it observed."""

    pose: Pose
    points: np.ndarray

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if not np.all(np.isfinite(self.points)):
            raise ValueError("keyframe points must be finite")


def select_keyframes(poses, trans_thresh: float, rot_thresh: float) -> list[Pose]:
    """Poses whose motion since the last selected pose exceeds either
    threshold. The first pose is always selected; empty in, empty out."""
    if trans_thresh <= 0 or rot_thresh <= 0:
        raise ValueError("thresholds must be positive")
    selected: list[Pose] = []
    for pose in poses:
        if not selected:
            selected.append(pose)
            continue
        last = selected[-1]
        dt = float(np.linalg.norm(pose.position - last.position))
        dr = last.orientation.angle_to(pose.orientation)
        if dt > trans_thresh or dr > rot_thresh:
            selected.append(pose)
    return selected


@dataclass(frozen=True)
class CutWeights:
    alpha_vis: float = 1.0
    alpha_behind: float = 5.0
    lambda_qual: float = 0.5


@dataclass
class SurfaceMesh:
    """Triangles between inside and outside tetrahedra, indexing mesh.points."""

    vertices: np.ndarray
    triangles: list[tuple[int, int, int]] = field(default_factory=list)
    watertight: bool = False


@dataclass
class CutProblem:
    """s-t cut instance over finite tets plus one outer (infinite) node."""

    node_of_tet: dict[int, int]
    outer_node: int
    source_caps: np.ndarray  # outside affinity per node
    sink_caps: np.ndarray  # inside affinity per node
    edges: list[tuple[int, int, float]]  # undirected smoothness arcs
    n_rays: int = 0

    @property
    def n_nodes(self) -> int:
        return self.outer_node + 1

    def energy(self, outside: np.ndarray) -> float:
        """Cut energy of an arbitrary labeling (True = outside)."""
        outside = np.asarray(outside, dtype=bool)
        e = float(self.source_caps[~outside].sum() + self.sink_caps[outside].sum())
        for u, v, w in self.edges:
            if outside[u] != outside[v]:
                e += w
        return e


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


def _hull_entry(mesh: TetMesh, origin, target, target_vid: int, eps: float):
    """Where the segment from `origin`, outside the hull, to `target` meets
    the hull: (tet, False) for the tet whose hull facet it enters through,
    (tet, True) for a tet whose hull facet it touches only at the target,
    (None, False) for a grazing segment. The segment enters a tet where
    the reversed segment exits it."""
    touched = None
    for tid, k in mesh.hull_facets:
        vs = mesh.tets[tid]
        tri = tuple(vs[i] for i in FACET_OPP[k])
        if _segment_exits_facet(mesh.verts, tri, target, origin, eps):
            if target_vid not in tri:
                return tid, False
            if touched is None:
                touched = tid
    return touched, touched is not None


def _behind(mesh: TetMesh, origin, target, end: int):
    """Tet (or OUTER) one step past `target` on the ray from `origin`;
    None when that is `end`, where the segment ends."""
    d = np.subtract(target, origin)
    norm = float(np.linalg.norm(d))
    if norm == 0.0:
        return None
    behind = mesh.locate(np.add(target, d * (1e-6 / norm)))
    return None if behind == end else behind


def walk_ray(mesh: TetMesh, origin, target_vid: int):
    """Tets crossed by the segment from `origin` to mesh vertex `target_vid`.

    Returns (crossed_tids, terminal_tid, behind_tid). A camera outside
    the hull puts OUTER first in `crossed_tids`, once. The terminal tet
    holds the target and ends `crossed_tids`, except for a segment that
    stays outside the hull and touches it only at the target: that
    segment crosses OUTER alone. `behind_tid` is the tet (or OUTER)
    entered one step past the target point, or None when that is where
    the segment ends. For a grazing ray that misses the target both are
    None.
    """
    origin = (float(origin[0]), float(origin[1]), float(origin[2]))
    target = mesh.verts[target_vid]
    eps = mesh._orient_eps
    crossed = [mesh.locate(origin)]
    prev = None
    if crossed[0] == OUTER:
        entry, touched = _hull_entry(mesh, origin, target, target_vid, eps)
        if entry is None:
            return crossed, None, None
        if touched:
            return crossed, entry, _behind(mesh, origin, target, OUTER)
        prev = OUTER
        crossed.append(entry)

    tid = crossed[-1]
    for _ in range(1_000_000):
        vs = mesh.tets[tid]
        exit_slot = None
        for k in range(4):
            if mesh.neighbors[tid][k] == prev:
                continue
            f = FACET_OPP[k]
            tri = (vs[f[0]], vs[f[1]], vs[f[2]])
            if target_vid in tri:
                continue
            if _segment_exits_facet(mesh.verts, tri, origin, target, eps):
                exit_slot = k
                break
        if exit_slot is None:
            break
        nb = mesh.neighbors[tid][exit_slot]
        if nb == OUTER:
            break
        prev = tid
        tid = nb
        crossed.append(tid)
    else:
        raise RuntimeError("ray walk did not terminate")

    if target_vid not in mesh.tets[tid]:
        return crossed, None, None  # grazing ray; caller skips it
    return crossed, tid, _behind(mesh, origin, target, tid)


def build_cut_problem(mesh: TetMesh, keyframes, weights: CutWeights = CutWeights()) -> CutProblem:
    """Accumulate visibility affinities and smoothness arcs for the cut.

    Every keyframe point must already be a mesh vertex (the mesh is built
    from the union of keyframe observations).
    """
    node_of_tet = {tid: i for i, tid in enumerate(mesh.finite_tet_ids())}
    outer = len(node_of_tet)
    node_of_tet[OUTER] = outer

    source = np.zeros(outer + 1)
    sink = np.zeros(outer + 1)
    n_rays = 0
    for kf in keyframes:
        cam = kf.pose.position
        for point in kf.points:
            vid = mesh.find_vertex(point)
            crossed, terminal, behind = walk_ray(mesh, cam, vid)
            if terminal is None:
                continue
            n_rays += 1
            for tid in crossed:
                source[node_of_tet[tid]] += weights.alpha_vis
            if behind is not None:
                sink[node_of_tet[behind]] += weights.alpha_behind

    edges = []
    for tid, nbs in mesh.neighbors.items():
        for nb in nbs:
            if nb == OUTER or tid < nb:  # each facet once
                edges.append((node_of_tet[tid], node_of_tet[nb], weights.lambda_qual))
    return CutProblem(node_of_tet, outer, source, sink, edges, n_rays)


def label_tets(mesh: TetMesh, keyframes, weights: CutWeights = CutWeights()):
    """Solve the cut exactly and write inside/outside labels onto the mesh.

    Returns (problem, energy). With no usable visibility rays every tet
    is labeled inside (and a warning is issued).
    """
    problem = build_cut_problem(mesh, keyframes, weights)
    if problem.n_rays == 0:
        warnings.warn("no visibility rays; labeling every tetrahedron inside")
        for tid in problem.node_of_tet:
            mesh.labels[tid] = TetMesh.INSIDE
        return problem, 0.0

    net = FlowNetwork(problem.n_nodes)
    for v in range(problem.n_nodes):
        if problem.source_caps[v] > 0:
            net.add_source_cap(v, float(problem.source_caps[v]))
        if problem.sink_caps[v] > 0:
            net.add_sink_cap(v, float(problem.sink_caps[v]))
    for u, v, w in problem.edges:
        net.add_edge(u, v, w, w)
    energy = net.solve()
    outside = net.min_cut_source_side()
    for tid, node in problem.node_of_tet.items():
        mesh.labels[tid] = TetMesh.OUTSIDE if outside[node] else TetMesh.INSIDE
    return problem, energy


def extract_surface(mesh: TetMesh) -> SurfaceMesh:
    """Facets separating differently-labeled tets (hull facets included,
    against OUTER's label), as point-index triangles."""
    tris = []
    for tid, vs in mesh.tets.items():
        for k, nb in enumerate(mesh.neighbors[tid]):
            if nb != OUTER and nb < tid:  # each interior facet once
                continue
            if mesh.labels.get(tid) == mesh.labels.get(nb):
                continue
            f = FACET_OPP[k]
            tris.append((vs[f[0]], vs[f[1]], vs[f[2]]))
    edge_count: dict[frozenset, int] = {}
    for t in tris:
        for e in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            edge_count[frozenset(e)] = edge_count.get(frozenset(e), 0) + 1
    watertight = bool(tris) and all(c == 2 for c in edge_count.values())
    return SurfaceMesh(mesh.points, tris, watertight)


def label_and_extract(mesh: TetMesh, keyframes, weights: CutWeights = CutWeights()):
    """Full labeling + surface extraction; returns (mesh, surface)."""
    label_tets(mesh, keyframes, weights)
    return mesh, extract_surface(mesh)


# -- rasterization -------------------------------------------------------


def _tri_box_overlap(v0, v1, v2, center, half) -> bool:
    """Separating-axis test between a triangle and an axis-aligned box."""
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


def rasterize(
    mesh: TetMesh,
    surface: SurfaceMesh,
    resolution: float,
    bounds,
    params: LogOddsParams | None = None,
) -> OccupancyGrid:
    """Occupancy grid from a labeled tetrahedralization.

    Voxel centers in inside-labeled tets are occupied, in outside-labeled
    tets free, outside the convex hull unknown; any voxel intersecting a
    surface triangle is occupied regardless.
    """
    lo = np.asarray(bounds[0], dtype=float)
    hi = np.asarray(bounds[1], dtype=float)
    dims = tuple(int(np.ceil((hi[i] - lo[i]) / resolution - 1e-9)) for i in range(3))
    grid = OccupancyGrid(lo, resolution, dims, params)

    # state per tet id; OUTER (-1) reads the last entry, which stays UNKNOWN
    state_of_tet = np.full(len(mesh.tets) + 1, UNKNOWN, dtype=np.uint8)
    for tid, label in mesh.labels.items():
        if mesh.is_finite(tid):
            state_of_tet[tid] = OCCUPIED if label == TetMesh.INSIDE else FREE
    centers = lo + (np.indices(dims).reshape(3, -1).T + 0.5) * resolution
    states = state_of_tet[mesh.locate(centers)].reshape(dims)

    half = np.full(3, 0.5 * resolution)
    for tri in surface.triangles:
        pts = surface.vertices[list(tri)]
        tlo = np.floor((pts.min(axis=0) - lo) / resolution).astype(int)
        thi = np.floor((pts.max(axis=0) - lo) / resolution).astype(int)
        tlo = np.maximum(tlo, 0)
        thi = np.minimum(thi, np.array(dims) - 1)
        for i in range(tlo[0], thi[0] + 1):
            for j in range(tlo[1], thi[1] + 1):
                for k in range(tlo[2], thi[2] + 1):
                    center = lo + (np.array([i, j, k]) + 0.5) * resolution
                    if _tri_box_overlap(pts[0], pts[1], pts[2], center, half):
                        states[i, j, k] = OCCUPIED

    grid.set_states(states)
    return grid
