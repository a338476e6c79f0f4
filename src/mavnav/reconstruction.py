"""Sparse multi-view surface reconstruction on a Delaunay tetrahedralization.

Visibility rays (camera center to observed point) vote tetrahedra they
cross toward "outside" and the tetrahedron just behind each observed
point toward "inside". All rays are walked through the mesh together,
one tet per step, by array-wide facet exit tests (`walk_rays`). A
constant-capacity smoothness term on shared facets completes an s-t cut
problem whose exact minimum labels every tetrahedron; facets separating
differently-labeled tetrahedra form the reconstructed surface, which is
finally rasterized to an occupancy grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .delaunay import FACET_OPP, OUTER, TetMesh, orient3d
from .geometry import Pose, row_dot
from .grid import FREE, OCCUPIED, UNKNOWN, LogOddsParams, OccupancyGrid
from .maxflow import FlowNetwork


@dataclass
class Keyframe:
    """Camera pose plus the world-frame points it observed."""

    pose: Pose
    points: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        self.points = points.reshape(0, 3) if points.shape == (0,) else points
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError(f"keyframe points must be an (n, 3) array, got shape {points.shape}")
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


# Every cut weight is a whole multiple of this quantum, so that the cut
# runs on exact integer capacities.
CUT_QUANTUM = 0.01


@dataclass(frozen=True)
class CutWeights:
    """Per-ray outside vote, inside vote behind each point, and facet
    smoothness. Each must be a non-negative multiple of `CUT_QUANTUM`."""

    alpha_vis: float = 1.0
    alpha_behind: float = 5.0
    lambda_qual: float = 0.5

    def __post_init__(self):
        for f in fields(self):
            w = getattr(self, f.name)
            q = w / CUT_QUANTUM
            if not (math.isfinite(w) and w >= 0 and math.isclose(q, round(q), rel_tol=1e-9)):
                raise ValueError(f"{f.name} must be a non-negative multiple of {CUT_QUANTUM}: {w}")


@dataclass
class SurfaceMesh:
    """Triangles between inside and outside tetrahedra, indexing mesh.points."""

    vertices: np.ndarray
    triangles: list[tuple[int, int, int]] = field(default_factory=list)
    watertight: bool = False


@dataclass
class CutProblem:
    """s-t cut instance over finite tets plus one outer (infinite) node.
    Node ids are tet ids, the outer node last, where OUTER (-1) indexes."""

    node_of_tet: dict[int, int]
    outer_node: int
    source_caps: np.ndarray  # outside affinity per node
    sink_caps: np.ndarray  # inside affinity per node
    edges: np.ndarray  # (m, 2) undirected smoothness arcs
    edge_cap: float  # capacity of every smoothness arc
    n_rays: int = 0

    @property
    def n_nodes(self) -> int:
        return self.outer_node + 1

    def energy(self, outside: np.ndarray) -> float:
        """Cut energy of an arbitrary labeling (True = outside)."""
        outside = np.asarray(outside, dtype=bool)
        e = float(self.source_caps[~outside].sum() + self.sink_caps[outside].sum())
        cut = np.count_nonzero(outside[self.edges[:, 0]] != outside[self.edges[:, 1]])
        return e + cut * self.edge_cap


# Walk result of a ray with no tet there: no terminal tet for a grazing
# ray, no tet behind the target where the segment ends.
NO_TET = -2

# (ray, hull facet) pairs per block of the hull-entry test, which bounds
# the size of its pair arrays.
_PAIR_BLOCK = 4096


def _exits(a, b, c, origin, target, eps: float) -> np.ndarray:
    """Whether the segment from `origin` to `target` leaves through
    triangle (a, b, c), seen from the side its tet lies on; over the
    last axis, broadcasting the rest."""
    s = np.stack([orient3d(origin, target, p, q) for p, q in ((a, b), (b, c), (c, a))])
    through = np.all(s >= -eps, axis=0) | np.all(s <= eps, axis=0)
    return (orient3d(a, b, c, target) < -eps) & through


def _hull_entries(mesh: TetMesh, origins, targets, vids, eps: float):
    """(tet, touched) per segment from `origins`, outside the hull, to mesh
    vertices `vids` at `targets`: the tet whose hull facet it enters
    through, the first in (tet, slot) order; else the first whose hull
    facet it touches only at the target (touched); else NO_TET. A segment
    enters where the reversed one exits. The (ray, hull facet) pairs are
    tested `_PAIR_BLOCK` at a time."""
    ht, hk = np.nonzero(mesh.neighbors == OUTER)
    tris = mesh.tets[ht[:, None], np.array(FACET_OPP)[hk]]
    n_pairs, hits = len(vids) * len(ht), [np.empty(0, dtype=np.intp)]
    for start in range(0, n_pairs, _PAIR_BLOCK):
        pair = np.arange(start, min(start + _PAIR_BLOCK, n_pairs))
        ray, f = np.divmod(pair, len(ht))
        a, b, c = (mesh.verts[tris[f, i]] for i in range(3))
        hits.append(pair[_exits(a, b, c, targets[ray], origins[ray], eps)])
    ray, f = np.divmod(np.concatenate(hits), len(ht))
    touched = np.any(tris[f] == vids[ray, None], axis=1)
    order = np.lexsort((f, touched, ray))  # per ray, entering facets first
    first = order[np.unique(ray[order], return_index=True)[1]]
    tet, is_touched = np.full(len(vids), NO_TET), np.zeros(len(vids), dtype=bool)
    tet[ray[first]], is_touched[ray[first]] = ht[f[first]], touched[first]
    return tet, is_touched


def walk_rays(mesh: TetMesh, origins, vids):
    """Tets crossed by the segments from `origins` (n, 3) to mesh vertices
    `vids` (n,), all walked together one tet per step.

    Returns (ray, tet, terminal, behind). The pairs (ray[j], tet[j]) list
    in walk order the tets crossed by each ray that reaches its target;
    from outside the hull, OUTER first, once. The terminal tet holds the
    target and is crossed last, except by a segment that touches the hull
    only at the target: that one crosses OUTER alone. `behind` is the tet
    (or OUTER) one step past the target, NO_TET where the segment ends
    there. A grazing ray crosses nothing; its terminal and behind are
    NO_TET. Each step leaves every ray's tet through the first facet
    that the segment exits, skipping the facet back to the previous tet
    and those holding the target vertex. Raises RuntimeError for a walk
    that does not terminate.
    """
    origins = np.asarray(origins, dtype=float).reshape(-1, 3)
    vids = np.asarray(vids, dtype=np.intp)
    targets, eps, n = mesh.verts[vids], mesh._orient_eps, len(vids)
    cams, cam_of_ray = np.unique(origins, axis=0, return_inverse=True)
    tid = mesh.locate(cams)[cam_of_ray.reshape(-1)].astype(np.intp)
    steps = [(np.arange(n), tid.copy())]  # (ray, tet) crossed, step by step
    out = np.flatnonzero(tid == OUTER)
    prev, touched = np.full(n, NO_TET), np.zeros(n, dtype=bool)
    tid[out], touched[out] = _hull_entries(mesh, origins[out], targets[out], vids[out], eps)
    prev[out] = OUTER
    active = np.flatnonzero((tid >= 0) & ~touched)
    entered = np.intersect1d(active, out)
    steps.append((entered, tid[entered]))
    for _ in range(1_000_000):
        if not active.size:
            break
        tri = mesh.tets[tid[active]][:, np.array(FACET_OPP)]  # (rays, 4 facets, 3)
        v, nb = mesh.verts[tri], mesh.neighbors[tid[active]]
        exits = _exits(v[..., 0, :], v[..., 1, :], v[..., 2, :],
                       origins[active, None], targets[active, None], eps)
        exits &= (nb != prev[active, None]) & ~np.any(tri == vids[active, None, None], axis=2)
        nxt = nb[np.arange(len(active)), np.argmax(exits, axis=1)]
        go = exits.any(axis=1) & (nxt != OUTER)
        active = active[go]
        prev[active], tid[active] = tid[active], nxt[go]
        steps.append((active, nxt[go]))
    else:
        raise RuntimeError("ray walk did not terminate")

    holds = np.any(mesh.tets[tid] == vids[:, None], axis=1) & (tid >= 0)
    d = targets - origins
    norm = np.sqrt(row_dot(d, d))
    past = np.flatnonzero(holds & (norm != 0.0))
    hit = mesh.locate(targets[past] + d[past] * (1e-6 / norm[past])[:, None])
    behind = np.full(n, NO_TET)
    behind[past] = np.where(hit == np.where(touched, OUTER, tid)[past], NO_TET, hit)
    ray, tet = (np.concatenate(x) for x in zip(*steps))
    return ray[holds[ray]], tet[holds[ray]], np.where(holds, tid, NO_TET), behind


def build_cut_problem(mesh: TetMesh, keyframes, weights: CutWeights = CutWeights()) -> CutProblem:
    """Accumulate visibility affinities and smoothness arcs for the cut.

    Every keyframe point must already be a mesh vertex (the mesh is built
    from the union of keyframe observations). The rays of all keyframes
    are walked together.
    """
    n = len(mesh.tets)
    none = [np.empty((0, 3))]
    points = np.concatenate([kf.points for kf in keyframes] + none)
    origins = np.concatenate(
        [np.broadcast_to(kf.pose.position, kf.points.shape) for kf in keyframes] + none
    )
    _, crossed, terminal, behind = walk_rays(mesh, origins, mesh.find_vertex(points))

    # node = tet id; OUTER (-1) wraps to the last node, n
    def votes(tids, weight):
        return np.bincount(tids % (n + 1), minlength=n + 1) * weight

    t, k = mesh.facets()
    nb = mesh.neighbors[t, k]
    edges = np.stack([t, np.where(nb == OUTER, n, nb)], axis=1)
    node_of_tet = {**{tid: tid for tid in range(n)}, OUTER: n}
    source = votes(crossed, weights.alpha_vis)
    sink = votes(behind[behind != NO_TET], weights.alpha_behind)
    n_rays = int(np.count_nonzero(terminal != NO_TET))
    return CutProblem(node_of_tet, n, source, sink, edges, weights.lambda_qual, n_rays)


def label_tets(mesh: TetMesh, keyframes, weights: CutWeights = CutWeights()):
    """Solve the cut exactly and write inside/outside labels onto the mesh.

    Returns (problem, energy). With no usable visibility rays every tet
    is labeled inside (and a warning is issued).
    """
    problem = build_cut_problem(mesh, keyframes, weights)
    if problem.n_rays == 0:
        warnings.warn("no visibility rays; labeling every tetrahedron inside")
        mesh.labels[:] = TetMesh.INSIDE
        return problem, 0.0

    def quanta(caps):
        return np.rint(np.asarray(caps) / CUT_QUANTUM).astype(np.int64)

    src, snk, w = (quanta(c) for c in (problem.source_caps, problem.sink_caps, problem.edge_cap))
    net = FlowNetwork(src, snk, problem.edges, w)
    energy = net.solve() * CUT_QUANTUM
    mesh.labels[:] = np.where(net.min_cut_source_side(), TetMesh.OUTSIDE, TetMesh.INSIDE)
    return problem, energy


def extract_surface(mesh: TetMesh) -> SurfaceMesh:
    """Facets separating differently-labeled tets (hull facets included,
    against OUTER's label), as point-index triangles."""
    t, k = mesh.facets()
    keep = mesh.labels[t] != mesh.labels[mesh.neighbors[t, k]]
    t, k = t[keep], k[keep]
    tris = mesh.tets[t[:, None], np.array(FACET_OPP)[k]]
    edges = np.sort(tris[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2), axis=1)
    counts = np.unique(edges, axis=0, return_counts=True)[1]
    watertight = bool(len(tris)) and bool(np.all(counts == 2))
    return SurfaceMesh(mesh.points, list(map(tuple, tris.tolist())), watertight)


# -- rasterization -------------------------------------------------------


# Triangles per batch of the triangle-box test, which bounds the size of
# its pair arrays. On map_room (~24k pairs) one batch over all pairs raised
# the benchmark's peak RSS from 83 to 102 MB, blocks of 64 triangles by
# 0.8 MB (median); blocks of 32 (~500 pairs) add 0.3 MB, for ~9 ms more per
# pass than 64.
_TRI_BLOCK = 32


def _apart(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Whether the projections p[..., 0, :], p[..., 1, :], p[..., 2, :] of
    a triangle's vertices lie strictly outside [-r, r]."""
    lo = np.minimum(np.minimum(p[..., 0, :], p[..., 1, :]), p[..., 2, :])
    hi = np.maximum(np.maximum(p[..., 0, :], p[..., 1, :]), p[..., 2, :])
    return (lo > r) | (hi < -r)


def _tri_box_overlaps(tris: np.ndarray, centers: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Separating-axis test (Akenine-Moeller 2001) of triangles against
    axis-aligned boxes, pair by pair.

    `tris` is (n, 3, 3), one triangle's vertices per pair; `centers` is
    (n, 3) box centers; `half` the (3,) half-extent shared by every box.
    Returns a bool (n,) mask of the overlapping pairs. Touching counts as
    overlap: an axis separates only when the projections are strictly
    apart, so an all-zero edge axis (edge parallel to a box axis) never
    separates.
    """
    v = tris - centers[:, None, :]
    edges = np.roll(v, -1, axis=1) - v  # v1 - v0, v2 - v1, v0 - v2
    # box face axes, then the triangle normal axis
    n = np.cross(edges[:, 0], edges[:, 1])
    hit = ~np.any(_apart(v, half), axis=1)
    hit &= np.abs(row_dot(n, v[:, 0])) <= row_dot(np.abs(n), half)
    # nine edge axes e x unit_k on the pairs left
    idx = np.flatnonzero(hit)
    v, e = v[idx], edges[idx]
    ex, ey, ez = e[..., 0], e[..., 1], e[..., 2]
    a = np.zeros((len(idx), 3, 3, 3))  # pair, edge, unit axis k, component
    a[:, :, 0, 1], a[:, :, 0, 2] = ez, -ey  # e x x = (0, e_z, -e_y)
    a[:, :, 1, 0], a[:, :, 1, 2] = -ez, ex  # e x y = (-e_z, 0, e_x)
    a[:, :, 2, 0], a[:, :, 2, 1] = ey, -ex  # e x z = (e_y, -e_x, 0)
    a = a.reshape(-1, 9, 3)
    p = row_dot(a[:, None], v[:, :, None])  # (pairs, 3 vertices, 9 axes)
    hit[idx] = ~np.any(_apart(p, row_dot(np.abs(a), half)), axis=1)
    return hit


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
    surface triangle is occupied regardless. That intersection is the
    13-axis separating-axis triangle-box test (Akenine-Moeller 2001),
    evaluated as array operations over every (triangle, voxel) pair of
    the triangles' bounding boxes, `_TRI_BLOCK` triangles at a time so
    that the pair arrays do not raise the process's peak RSS.

    Raises ValueError unless `resolution` is finite and positive and
    `bounds` = (lo, hi) are finite with hi > lo on every axis.
    """
    lo = np.asarray(bounds[0], dtype=float)
    hi = np.asarray(bounds[1], dtype=float)
    if not (np.isfinite(resolution) and resolution > 0):
        raise ValueError(f"resolution must be finite and positive, got {resolution}")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)) and np.all(hi > lo)):
        raise ValueError(f"bounds must be finite with hi > lo, got {lo}, {hi}")
    dims = tuple(int(np.ceil((hi[i] - lo[i]) / resolution - 1e-9)) for i in range(3))
    grid = OccupancyGrid(lo, resolution, dims, params)

    # state per tet id; OUTER (-1) reads the last entry, which stays UNKNOWN
    state_of_tet = np.where(mesh.labels == TetMesh.INSIDE, OCCUPIED, FREE).astype(np.uint8)
    state_of_tet[OUTER] = UNKNOWN
    centers = lo + (np.indices(dims).reshape(3, -1).T + 0.5) * resolution
    states = state_of_tet[mesh.locate(centers)].reshape(dims)

    half = np.full(3, 0.5 * resolution)
    tris = surface.vertices[np.asarray(surface.triangles, dtype=np.intp).reshape(-1, 3)]
    for start in range(0, len(tris), _TRI_BLOCK):
        block = tris[start : start + _TRI_BLOCK]
        # each triangle's voxel range, clipped to the grid; may be empty
        tlo = np.floor((block.min(axis=1) - lo) / resolution).astype(int)
        thi = np.floor((block.max(axis=1) - lo) / resolution).astype(int)
        tlo, thi = np.maximum(tlo, 0), np.minimum(thi, np.array(dims) - 1)
        size = np.maximum(thi - tlo + 1, 0)
        count = size.prod(axis=1)
        tri = np.repeat(np.arange(len(block)), count)
        # pair's rank within its triangle's range, unravelled row-major
        rank = np.arange(len(tri)) - np.repeat(np.cumsum(count) - count, count)
        ny, nz = size[tri, 1], size[tri, 2]
        ijk = tlo[tri] + np.stack([rank // (ny * nz), rank // nz % ny, rank % nz], axis=1)
        box_centers = lo + (ijk + 0.5) * resolution
        ijk = ijk[_tri_box_overlaps(block[tri], box_centers, half)]
        states[ijk[:, 0], ijk[:, 1], ijk[:, 2]] = OCCUPIED

    grid.set_states(states)
    return grid
