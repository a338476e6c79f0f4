"""Roadmap route planning over occupancy grids.

A Euclidean distance transform (unknown counts as obstacle) and a
probabilistic roadmap are precomputed once per map. One batched kernel
gives every straight segment its clearance and its cost, which penalizes
length, low obstacle clearance and altitude change. Queries run scipy's
Dijkstra, shorten the raw path under a bounded cost increase, and attach
a curvature-limited speed plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .geometry import row_dot
from .grid import FREE, OccupancyGrid


class PlanningError(RuntimeError):
    pass


class UnreachableError(PlanningError):
    pass


@dataclass(frozen=True)
class PlannerConfig:
    lambda_prox: float = 2.0
    d_safe: float = 1.5
    lambda_alt: float = 1.5
    shorten_budget: float = 0.1  # allowed relative cost increase
    clearance_radius: float = 0.4  # MAV bounding radius [m]
    goal_connect_count: int = 10

    def __post_init__(self):
        # clearance_radius > 0, so that a sample outside the map (distance 0)
        # is never clear; d_safe > 0, as the proximity penalty divides by it
        for name, ok, rule in (
            ("lambda_prox", self.lambda_prox >= 0, ">= 0"),
            ("d_safe", self.d_safe > 0, "> 0"),
            ("lambda_alt", self.lambda_alt >= 0, ">= 0"),
            ("shorten_budget", self.shorten_budget >= 0, ">= 0"),
            ("clearance_radius", self.clearance_radius > 0, "> 0"),
            ("goal_connect_count", isinstance(self.goal_connect_count, (int, np.integer))
             and self.goal_connect_count >= 1, "an integer >= 1"),
        ):
            value = getattr(self, name)
            if not (ok and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and {rule}, got {value}")


@dataclass
class ProximityMap:
    """Per-voxel Euclidean distance [m] to the nearest obstacle voxel."""

    origin: np.ndarray
    resolution: float
    distances: np.ndarray

    def distance_at(self, points) -> np.ndarray:
        """Distance at each point; 0 outside the map. Raises ValueError for
        a non-finite point."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        # one contiguous row per axis: about twice as fast below as strided columns
        i, j, k = np.ascontiguousarray(np.floor((pts - self.origin) / self.resolution).T)
        nx, ny, nz = self.distances.shape
        inside = (i >= 0) & (i < nx) & (j >= 0) & (j < ny) & (k >= 0) & (k < nz)
        flat = np.where(inside, (i * ny + j) * nz + k, 0).astype(np.intp)
        return np.where(inside, self.distances.take(flat), 0.0)


def build_proximity_map(grid: OccupancyGrid, clamp: float) -> ProximityMap:
    """Exact EDT of the obstacle set (occupied or unknown), clamped."""
    obstacle = grid.obstacle_mask()
    if obstacle.all():
        dist = np.zeros(grid.dims)
    elif not obstacle.any():
        dist = np.full(grid.dims, clamp)
    else:
        dist = ndimage.distance_transform_edt(~obstacle) * grid.resolution
    return ProximityMap(grid.origin.copy(), grid.resolution, np.minimum(dist, clamp))


@dataclass
class Roadmap:
    vertices: np.ndarray
    edges: np.ndarray  # (m, 2) vertex pairs i < j
    weights: np.ndarray  # (m,)


@dataclass
class PlannedPath:
    waypoints: np.ndarray
    cost: float
    speeds: np.ndarray | None = None
    times: np.ndarray | None = None


def _segments(prox: ProximityMap, p, q, cfg: PlannerConfig) -> tuple[np.ndarray, np.ndarray]:
    """Clearance and cost of every straight segment p[i] -> q[i], each
    sampled once at half resolution. It is clear when every sample keeps
    cfg.clearance_radius; its cost is midpoint-discretized:

        cost = integral of 1 + l_prox * max(0, d_safe - d(x)) / d_safe ds
               + l_alt * |dz|
    """
    p, q = np.broadcast_arrays(np.atleast_2d(np.asarray(p, dtype=float)),
                               np.atleast_2d(np.asarray(q, dtype=float)))
    if not (np.isfinite(p).all() and np.isfinite(q).all()):
        raise ValueError("segment endpoints must be finite")
    d = q - p
    length = np.sqrt(row_dot(d, d))
    n = np.maximum(np.ceil(length / (0.5 * prox.resolution)), 1).astype(int)
    seg = np.repeat(np.arange(len(d)), n + 1)
    first = np.cumsum(n + 1) - (n + 1)
    k = np.arange(len(seg)) - first[seg]  # sample's rank within its segment
    t = k * (1.0 / n)[seg]  # as np.linspace computes it, last sample exactly 1
    t[k == n[seg]] = 1.0
    pts = p[seg] + t[:, None] * d[seg]
    clear = np.minimum.reduceat(prox.distance_at(pts), first) >= cfg.clearance_radius

    inner = np.flatnonzero(k < n[seg])
    mids = 0.5 * (pts[inner] + pts[inner + 1])
    penalty = np.maximum(0.0, cfg.d_safe - prox.distance_at(mids)) / cfg.d_safe
    ds = length / n
    cost = length + cfg.lambda_prox * np.add.reduceat(penalty, np.cumsum(n) - n) * ds
    # a segment whose length rounds to 0 costs 0, whatever its dz
    return clear, np.where(length > 0, cost + cfg.lambda_alt * np.abs(d[:, 2]), 0.0)


def segment_clear(grid: OccupancyGrid, prox: ProximityMap, p, q, cfg: PlannerConfig) -> bool:
    """Straight segment keeps MAV clearance; `prox` is the proximity map of `grid`."""
    return bool(_segments(prox, p, q, cfg)[0][0])


def path_cost(prox: ProximityMap, waypoints, cfg: PlannerConfig) -> float:
    wps = np.asarray(waypoints, dtype=float)
    return float(np.sum(_segments(prox, wps[:-1], wps[1:], cfg)[1])) if len(wps) > 1 else 0.0


# Candidate edges per _segments call: bounds the sample arrays of build_roadmap
_PAIR_BLOCK = 256


def build_roadmap(
    grid: OccupancyGrid,
    prox: ProximityMap,
    n_samples: int,
    connect_radius: float,
    seed: int,
    cfg: PlannerConfig = PlannerConfig(),
) -> Roadmap:
    """Uniform rejection sampling of cleared free space plus radius
    connection with straight-line collision checks. Deterministic per seed."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not (math.isfinite(connect_radius) and connect_radius > 0):
        raise ValueError(f"connect_radius must be finite and positive, got {connect_radius}")
    rng = np.random.default_rng(seed)
    lo = grid.origin
    hi = grid.origin + np.array(grid.dims) * grid.resolution
    states = grid.states()
    vertices = np.empty((0, 3))
    for _ in range(1000):
        p = rng.uniform(lo, hi, (n_samples, 3))
        idx = grid.world_to_index(p)
        free = states[idx[:, 0], idx[:, 1], idx[:, 2]] == FREE
        vertices = np.vstack([vertices, p[free & (prox.distance_at(p) >= cfg.clearance_radius)]])
        if len(vertices) >= n_samples:
            break
    if not len(vertices):
        raise PlanningError("no free space to sample")
    vertices = vertices[:n_samples]

    pairs = cKDTree(vertices).query_pairs(connect_radius, output_type="ndarray")
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    clear = np.zeros(len(pairs), dtype=bool)
    weights = np.zeros(len(pairs))
    for s in range(0, len(pairs), _PAIR_BLOCK):
        block = pairs[s : s + _PAIR_BLOCK]
        clear[s : s + _PAIR_BLOCK], weights[s : s + _PAIR_BLOCK] = _segments(
            prox, vertices[block[:, 0]], vertices[block[:, 1]], cfg)
    return Roadmap(vertices, pairs[clear], weights[clear])


def _links(prox: ProximityMap, vertices, end, into: bool, cfg: PlannerConfig):
    """(vertex ids, costs) of the cfg.goal_connect_count vertices nearest
    `end` whose segment from `end` (into it, if `into`) is clear, nearest
    first. Vertices are checked in that order, 2 * goal_connect_count at a
    time, up to the block that completes the count: `_segments` computes
    each row on its own, so the links and costs are those of checking
    every vertex."""
    k = cfg.goal_connect_count
    order = np.argsort(np.linalg.norm(vertices - end, axis=1))
    ids, costs = [np.empty(0, dtype=order.dtype)], [np.empty(0)]
    for s in range(0, len(order), 2 * k):
        block = order[s : s + 2 * k]
        p, q = (vertices[block], end) if into else (end, vertices[block])
        clear, cost = _segments(prox, p, q, cfg)
        ids.append(block[clear])
        costs.append(cost[clear])
        if sum(map(len, ids)) >= k:
            break
    return np.concatenate(ids)[:k], np.concatenate(costs)[:k]


def plan_path(
    rm: Roadmap,
    grid: OccupancyGrid,
    prox: ProximityMap,
    start,
    goal,
    cfg: PlannerConfig = PlannerConfig(),
) -> PlannedPath:
    """Cost-minimal waypoint route from start to goal through the roadmap,
    which each joins at its goal_connect_count nearest clear links."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import dijkstra

    start = np.asarray(start, dtype=float)
    goal = np.asarray(goal, dtype=float)
    if not (np.isfinite(start).all() and np.isfinite(goal).all()):
        raise ValueError("start and goal must be finite")
    for name, d in zip(("start", "goal"), prox.distance_at([start, goal])):
        if d < cfg.clearance_radius:
            raise PlanningError(f"{name} position is not in cleared free space")

    clear, cost = _segments(prox, start, goal, cfg)
    direct = cost[0] if clear[0] else math.inf

    n = len(rm.vertices)
    s_id, g_id = n, n + 1
    from_start, w_start = _links(prox, rm.vertices, start, False, cfg)
    to_goal, w_goal = _links(prox, rm.vertices, goal, True, cfg)
    e = rm.edges
    rows = np.concatenate([e[:, 0], e[:, 1], np.full(len(from_start), s_id), to_goal])
    cols = np.concatenate([e[:, 1], e[:, 0], from_start, np.full(len(to_goal), g_id)])
    w = np.concatenate([rm.weights, rm.weights, w_start, w_goal])
    # csr_array keeps the stored zero of a zero-length link, and csgraph reads it as an edge
    graph = csr_array((w, (rows, cols)), shape=(n + 2, n + 2))
    dist, prev = dijkstra(graph, indices=s_id, return_predecessors=True)
    best = float(dist[g_id])
    if math.isfinite(direct) and direct <= best:
        return PlannedPath(np.array([start, goal]), float(direct))
    if not math.isfinite(best):
        raise UnreachableError("no collision-free route through the roadmap")
    chain = [prev[g_id]]
    while chain[-1] != s_id:
        chain.append(prev[chain[-1]])
    return PlannedPath(np.vstack([start, rm.vertices[chain[-2::-1]], goal]), best)


def shorten_path(
    path: PlannedPath,
    grid: OccupancyGrid,
    prox: ProximityMap,
    cfg: PlannerConfig = PlannerConfig(),
) -> PlannedPath:
    """Iterative waypoint elision under a bounded total-cost increase.

    A skip-ahead is accepted only if it stays collision-free and the
    whole path's cost does not exceed (1 + budget) x the input cost.
    """
    wps = np.array(path.waypoints, dtype=float)
    budget = (1.0 + cfg.shorten_budget) * path_cost(prox, wps, cfg)
    changed = True
    while changed:
        changed = False
        i = 0
        legs = _segments(prox, wps[:-1], wps[1:], cfg)[1]
        while i < len(wps) - 2:
            skips = np.arange(len(wps) - 1, i + 1, -1)  # farthest first
            clear, cost = _segments(prox, wps[i], wps[skips], cfg)
            for j, c in zip(skips[clear], cost[clear]):
                if np.sum(np.concatenate([legs[:i], [c], legs[j:]])) <= budget + 1e-12:
                    wps = np.concatenate([wps[: i + 1], wps[j:]])
                    legs = _segments(prox, wps[:-1], wps[1:], cfg)[1]
                    changed = True
                    break
            i += 1
    return PlannedPath(wps, path_cost(prox, wps, cfg))


def _curvature(a, b, c) -> float:
    """Curvature of the circumscribed circle through three waypoints."""
    la = np.linalg.norm(b - a)
    lb = np.linalg.norm(c - b)
    lc = np.linalg.norm(c - a)
    area2 = np.linalg.norm(np.cross(b - a, c - a))  # twice the triangle area
    if area2 < 1e-12 or la * lb * lc < 1e-12:
        return 0.0
    return float(2.0 * area2 / (la * lb * lc))


def speed_plan(
    path: PlannedPath, v_max: float, a_lat_max: float, a_lon_max: float
) -> PlannedPath:
    """Curvature-capped speeds with a forward/backward acceleration pass.

    Segment times assume constant acceleration (speed linear in time),
    so dt = 2 d / (v_i + v_j); endpoints are pinned to speed 0.
    """
    wps = np.asarray(path.waypoints, dtype=float)
    n = len(wps)
    if n < 2:
        raise ValueError("need at least 2 waypoints")
    seg = np.linalg.norm(np.diff(wps, axis=0), axis=1)
    v = np.full(n, v_max)
    for i in range(1, n - 1):
        k = _curvature(wps[i - 1], wps[i], wps[i + 1])
        if k > 0.0:
            v[i] = min(v[i], math.sqrt(a_lat_max / k))
    v[0] = 0.0
    v[-1] = 0.0
    for i in range(1, n):
        v[i] = min(v[i], math.sqrt(v[i - 1] ** 2 + 2.0 * a_lon_max * seg[i - 1]))
    for i in range(n - 2, -1, -1):
        v[i] = min(v[i], math.sqrt(v[i + 1] ** 2 + 2.0 * a_lon_max * seg[i]))
    times = np.zeros(n)
    for i in range(n - 1):
        vsum = v[i] + v[i + 1]
        if vsum < 1e-9:
            dt = 2.0 * math.sqrt(seg[i] / a_lon_max)  # rest-to-rest segment
        else:
            dt = 2.0 * seg[i] / vsum
        times[i + 1] = times[i] + dt
    return replace(path, speeds=v, times=times)
