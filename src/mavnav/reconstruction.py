"""Sparse multi-view surface reconstruction on a Delaunay tetrahedralization.

Visibility rays (camera center to observed point) vote tetrahedra they
cross toward "outside" and the tetrahedron just behind each observed
point toward "inside". All rays are walked through the mesh together,
one tet per step, by array-wide facet exit tests (`walk_rays`). A
constant-capacity smoothness term on shared facets completes an s-t cut
problem whose exact minimum labels every tetrahedron; facets separating
differently-labeled tetrahedra form the reconstructed surface. The
occupancy grid takes each voxel's state from the label of the tet at the
voxel's center alone: occupied inside, free outside, unknown off the hull.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass, field, fields
from itertools import chain

import numpy as np

from .delaunay import FACET_OPP, OUTER, TetMesh, orient3d
from .geometry import Pose, point_rows, row_dot
from .grid import FREE, OCCUPIED, UNKNOWN, LogOddsParams, OccupancyGrid
from .maxflow import FlowNetwork


@dataclass
class Keyframe:
    """Camera pose plus the world-frame points it observed."""

    pose: Pose
    points: np.ndarray

    def __post_init__(self):
        self.points = point_rows(self.points, "keyframe points")


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


class _NodeOfTet(Mapping):
    """Node id per tet id: the identity on the n finite tets, n for OUTER,
    in that order. Entries are made on demand: as a dict, the ~6,200 tets
    of a room map held about 0.5 MB through the cut, where a map_room
    pass reaches its peak RSS."""

    def __init__(self, n: int):
        self.n = n

    def __getitem__(self, tid):
        if tid == OUTER:
            return self.n
        if isinstance(tid, (int, np.integer)) and 0 <= tid < self.n:
            return int(tid)
        raise KeyError(tid)

    def __iter__(self):
        return chain(range(self.n), (OUTER,))

    def __len__(self):
        return self.n + 1

    def items(self):
        return _NodeOfTetItems(self)


class _NodeOfTetItems(ItemsView):
    def __iter__(self):  # as fast as a dict's items, where the base calls __getitem__
        n = self._mapping.n
        return chain(zip(range(n), range(n)), ((OUTER, n),))


@dataclass
class CutProblem:
    """s-t cut instance over finite tets plus one outer (infinite) node.
    Node ids are tet ids, the outer node last, where OUTER (-1) indexes."""

    node_of_tet: Mapping[int, int]
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


# A tet's 6 edges (i, j), i < j, by vertex slot. Facet k of FACET_OPP,
# (a, b, c), has the directed edges (a, b), (b, c), (c, a): edges
# _FACET_EDGES[k], reversed where _FACET_SIGNS[k] is -1. Its facet-side
# test takes b - a and c - a from edges _SIDE_B[k] and _SIDE_C[k], all
# directed from a = slot _SIDE_A[k].
_EDGES = np.array(((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
_FACET_EDGES = np.array(((4, 5, 3), (1, 5, 2), (2, 4, 0), (0, 3, 1)))
_FACET_SIGNS = np.array(((1.0, -1.0, -1.0), (1.0, 1.0, -1.0), (1.0, -1.0, -1.0), (1.0, 1.0, -1.0)))
_SIDE_A, _SIDE_B, _SIDE_C = np.array((1, 0, 0, 0)), np.array((4, 1, 2, 0)), np.array((3, 2, 0, 1))


def _det(b, c, d):
    """b . (c x d), coordinates on the first axis, rounded exactly as
    `orient3d(a, b', c', d')` rounds it from b = b' - a, c = c' - a and
    d = d' - a."""
    return (b[0] * (c[1] * d[2] - c[2] * d[1])
            - b[1] * (c[0] * d[2] - c[2] * d[0])
            + b[2] * (c[0] * d[1] - c[1] * d[0]))


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
    that the segment exits, skipping the facet back to the previous tet.
    A facet that holds the target vertex never passes the exit test: the
    target lies on its plane to within rounding, far inside eps, so it is
    not strictly on the facet's far side. Raises RuntimeError for a walk
    that does not terminate.

    A step orients the segment against each of the tet's 6 edges once,
    not against each facet's 3 edges (12 in all): products commute and
    rounding to nearest is symmetric under negation, so
    orient3d(o, t, q, p) is -orient3d(o, t, p, q) exactly, and each facet
    reads its directed edges with a sign. The facet-side test takes
    b - a and c - a from the same edge vectors. Every test rounds as it
    would facet by facet, so the walk is unchanged.
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
    # coordinates first, then tet slot or edge, then ray
    vt, ot, tt = (np.ascontiguousarray(x.T) for x in (mesh.verts, origins, targets))
    dt = tt - ot
    for _ in range(1_000_000):
        if not active.size:
            break
        tv, nb = mesh.tets[tid[active]].T, mesh.neighbors[tid[active]].T  # (4, rays)
        v = vt[:, tv]
        w = v - ot[:, None, active]  # each vertex from the origin
        edge = _det(dt[:, None, active], w[:, _EDGES[:, 0]], w[:, _EDGES[:, 1]])  # (6, rays)
        s = edge[_FACET_EDGES] * _FACET_SIGNS[..., None]  # (4 facets, 3 directed edges, rays)
        exits = np.all(s >= -eps, axis=1) | np.all(s <= eps, axis=1)
        # target on the far side of each facet (a, b, c): orient3d(a, b, c, target) < -eps
        d = v[:, _EDGES[:, 1]] - v[:, _EDGES[:, 0]]
        exits &= _det(d[:, _SIDE_B], d[:, _SIDE_C], tt[:, None, active] - v[:, _SIDE_A]) < -eps
        exits &= nb != prev[active]
        nxt = nb[np.argmax(exits, axis=0), np.arange(len(active))]
        go = exits.any(axis=0) & (nxt != OUTER)
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
    source = votes(crossed, weights.alpha_vis)
    sink = votes(behind[behind != NO_TET], weights.alpha_behind)
    n_rays = int(np.count_nonzero(terminal != NO_TET))
    return CutProblem(_NodeOfTet(n), n, source, sink, edges, weights.lambda_qual, n_rays)


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
    edges = np.sort(tris[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2), axis=1).astype(np.int64)
    counts = np.unique(edges[:, 0] * len(mesh.points) + edges[:, 1], return_counts=True)[1]
    watertight = bool(len(tris)) and bool(np.all(counts == 2))
    return SurfaceMesh(mesh.points, list(map(tuple, tris.tolist())), watertight)


# -- rasterization -------------------------------------------------------


def rasterize(
    mesh: TetMesh,
    surface: SurfaceMesh,
    resolution: float,
    bounds,
    params: LogOddsParams | None = None,
) -> OccupancyGrid:
    """Occupancy grid from a labeled tetrahedralization, by the cut's
    labels alone: a voxel is occupied when its center lies in an
    inside-labeled tet, free in an outside-labeled one, and unknown
    outside the convex hull.

    `surface` is not read. It stays in the signature because callers
    (`perfbench/workloads.py`) pass the later arguments by position.

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
    grid.set_states(state_of_tet[mesh.locate(centers)].reshape(dims))
    return grid
