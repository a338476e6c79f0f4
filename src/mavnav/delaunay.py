"""3D Delaunay tetrahedralization on Qhull (`scipy.spatial.Delaunay`).

Everything outside the convex hull is one region, `OUTER` (-1, Qhull's
value for "no neighbour"): `locate` returns it for points outside the
hull, and it is the neighbour across every hull facet. Vertex ids are
rows of `TetMesh.points`. Determinism on degenerate inputs (cospherical
or coplanar point sets) comes from a fixed, index-keyed
micro-perturbation of every vertex, far below the point-merge radius.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import Delaunay, cKDTree

MERGE_RADIUS = 1e-6
_JITTER_REL = 1e-9
_JITTER_SEED = 0x5EED5

OUTER = -1

# facet opposite vertex slot i, ordered so orient3d(facet, tet[i]) > 0
FACET_OPP = ((1, 3, 2), (0, 2, 3), (0, 3, 1), (0, 1, 2))


class DegeneracyError(ValueError):
    """Fewer than 4 unique points, or all points coplanar."""


def orient3d(a, b, c, d):
    """Positive iff tetrahedron (a, b, c, d) is positively oriented.

    Coordinates are on the last axis; the leading axes broadcast, so one
    call tests a whole stack of tetrahedra.
    """
    a, b, c, d = (np.asarray(p, dtype=float) for p in (a, b, c, d))
    bax, bay, baz = b[..., 0] - a[..., 0], b[..., 1] - a[..., 1], b[..., 2] - a[..., 2]
    cax, cay, caz = c[..., 0] - a[..., 0], c[..., 1] - a[..., 1], c[..., 2] - a[..., 2]
    dax, day, daz = d[..., 0] - a[..., 0], d[..., 1] - a[..., 1], d[..., 2] - a[..., 2]
    return (
        bax * (cay * daz - caz * day)
        - bay * (cax * daz - caz * dax)
        + baz * (cax * day - cay * dax)
    )


class TetMesh:
    """Positively oriented tetrahedralization with adjacency, point
    mapping and label storage.

    Tet ids are 0..n-1. `tets` is an (n, 4) array of vertex ids and
    `neighbors[tid, k]` the tet across the facet opposite slot k, `OUTER`
    on the hull. `verts` holds the (jittered) vertex coordinates the
    tets were built on. `labels` is a uint8 array of n + 1 INSIDE or
    OUTSIDE values, OUTER's last, so `labels[tid]` reads every id; it
    starts all OUTSIDE.
    """

    INSIDE = 1
    OUTSIDE = 0

    def __init__(self, points: np.ndarray, input_vertex_ids: list[int]):
        scale = max(float(np.linalg.norm(np.ptp(points, axis=0))), 1.0)
        rng = np.random.default_rng(_JITTER_SEED)
        verts = points + rng.uniform(-1.0, 1.0, size=points.shape) * (_JITTER_REL * scale)
        self.points = points  # deduped originals
        self.verts = verts  # jittered, as triangulated
        self.input_vertex_ids = input_vertex_ids
        self._delaunay = Delaunay(verts)
        simplices = self._delaunay.simplices.copy()
        neighbors = self._delaunay.neighbors.copy()
        a, b, c, d = (verts[simplices[:, i]] for i in range(4))
        flip = np.einsum("ij,ij->i", b - a, np.cross(c - a, d - a)) < 0
        simplices[flip, :2] = simplices[flip, 1::-1]
        neighbors[flip, :2] = neighbors[flip, 1::-1]
        self.tets, self.neighbors = simplices, neighbors
        self.labels = np.full(len(simplices) + 1, TetMesh.OUTSIDE, dtype=np.uint8)
        self._orient_eps = 1e-14 * scale**3
        self._tree = cKDTree(points)

    # -- queries ---------------------------------------------------------

    def finite_tet_ids(self) -> range:
        return range(len(self.tets))

    def facets(self):
        """(tet ids, slots) of every facet once: each interior facet from
        its lower tet id, every hull facet from its one finite tet, in
        row-major order."""
        nb = self.neighbors
        return np.nonzero((nb == OUTER) | (np.arange(len(nb))[:, None] < nb))

    def find_vertex(self, point, radius: float = MERGE_RADIUS):
        """Vertex id of the mesh point nearest `point`; for an (n, 3) array
        of points, an array of n ids.

        Raises KeyError when a point has no mesh vertex within `radius`.
        """
        point = np.asarray(point, dtype=float)
        dist, vid = self._tree.query(point)
        far = np.flatnonzero(np.atleast_1d(dist) > radius)
        if far.size:
            bad = point.reshape(-1, 3)[far[0]]
            raise KeyError(f"no mesh vertex within {radius} of {bad}")
        return int(vid) if point.ndim == 1 else vid

    def locate(self, p):
        """Id of the tet containing point p, or OUTER outside the hull.

        For an (n, 3) array of points, an array of n ids.
        """
        tids = self._delaunay.find_simplex(np.asarray(p, dtype=float))
        return int(tids) if tids.ndim == 0 else tids


def _dedupe(points: np.ndarray, radius: float):
    """First-wins merge of points closer than `radius`. Returns unique
    points and, per input row, the index of the unique point it joined."""
    rep = np.arange(len(points))
    # a pair (i, j), i < j, merges j into i when i is still a unique point
    # and j has not joined an earlier one
    for i, j in sorted(cKDTree(points).query_pairs(radius)):
        if rep[i] == i and rep[j] == j:
            rep[j] = i
    keep = rep == np.arange(len(points))
    return points[keep], (np.cumsum(keep) - 1)[rep].tolist()


def tetrahedralize(points, merge_radius: float = MERGE_RADIUS) -> TetMesh:
    """Delaunay tetrahedralization of a 3D point set.

    Raises DegeneracyError when fewer than 4 unique points remain after
    merging, or when the unique points are (near-)coplanar.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != 3 or not np.all(np.isfinite(pts)):
        raise ValueError("points must be a finite (n, 3) array")
    unique, mapping = _dedupe(pts, merge_radius)
    if unique.shape[0] < 4:
        raise DegeneracyError(f"need >= 4 unique points, got {unique.shape[0]}")
    centered = unique - unique.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[2] < 1e-9 * max(sv[0], 1.0):
        raise DegeneracyError("points are coplanar")
    return TetMesh(unique, mapping)
