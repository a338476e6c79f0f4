"""Roadmap route planning over occupancy grids.

A Euclidean distance transform (unknown counts as obstacle) and a
probabilistic roadmap are precomputed once per map; queries then run
Dijkstra under an edge cost that penalizes length, low obstacle
clearance and altitude change, shorten the raw path under a bounded
cost increase, and attach a curvature-limited speed plan.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

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


@dataclass
class ProximityMap:
    """Per-voxel Euclidean distance [m] to the nearest obstacle voxel."""

    origin: np.ndarray
    resolution: float
    distances: np.ndarray
    clamp: float

    def distance_at(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        idx = np.floor((pts - self.origin) / self.resolution).astype(int)
        inside = np.all((idx >= 0) & (idx < np.array(self.distances.shape)), axis=1)
        out = np.zeros(len(idx))
        if np.any(inside):
            ii = idx[inside]
            out[inside] = self.distances[ii[:, 0], ii[:, 1], ii[:, 2]]
        return out if out.size > 1 else float(out[0])


def build_proximity_map(grid: OccupancyGrid, clamp: float) -> ProximityMap:
    """Exact EDT of the obstacle set (occupied or unknown), clamped."""
    obstacle = grid.obstacle_mask()
    if obstacle.all():
        dist = np.zeros(grid.dims)
    elif not obstacle.any():
        dist = np.full(grid.dims, clamp)
    else:
        dist = ndimage.distance_transform_edt(~obstacle) * grid.resolution
    return ProximityMap(grid.origin.copy(), grid.resolution, np.minimum(dist, clamp), clamp)


@dataclass
class Roadmap:
    vertices: np.ndarray
    adjacency: dict[int, list[tuple[int, float]]]
    seed: int
    edges: list[tuple[int, int, float]] = field(default_factory=list)


@dataclass
class PlannedPath:
    waypoints: np.ndarray
    cost: float
    speeds: np.ndarray | None = None
    times: np.ndarray | None = None


def _segment_samples(p, q, step: float) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    n = max(int(math.ceil(np.linalg.norm(q - p) / step)), 1)
    t = np.linspace(0.0, 1.0, n + 1)
    return p[None, :] + t[:, None] * (q - p)[None, :]


def segment_clear(grid: OccupancyGrid, prox: ProximityMap, p, q, cfg: PlannerConfig) -> bool:
    """Straight segment keeps MAV clearance, sampled at half-resolution."""
    pts = _segment_samples(p, q, 0.5 * grid.resolution)
    if not np.all(grid.in_bounds(grid.world_to_index(pts))):
        return False
    d = np.atleast_1d(prox.distance_at(pts))
    return bool(np.all(d >= cfg.clearance_radius))


def edge_cost(prox: ProximityMap, p, q, cfg: PlannerConfig) -> float:
    """Length plus clearance and altitude penalties, midpoint-discretized:

        cost = integral of 1 + l_prox * max(0, d_safe - d(x)) / d_safe ds
               + l_alt * |dz|
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    length = float(np.linalg.norm(q - p))
    if length == 0.0:
        return 0.0
    pts = _segment_samples(p, q, 0.5 * prox.resolution)
    mids = 0.5 * (pts[:-1] + pts[1:])
    ds = length / len(mids)
    d = np.atleast_1d(prox.distance_at(mids))
    penalty = np.maximum(0.0, cfg.d_safe - d) / cfg.d_safe
    return length + cfg.lambda_prox * float(penalty.sum()) * ds + cfg.lambda_alt * abs(
        float(q[2] - p[2])
    )


def path_cost(prox: ProximityMap, waypoints, cfg: PlannerConfig) -> float:
    wps = np.asarray(waypoints, dtype=float)
    return sum(edge_cost(prox, wps[i], wps[i + 1], cfg) for i in range(len(wps) - 1))


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
    rng = np.random.default_rng(seed)
    lo = grid.origin
    hi = grid.origin + np.array(grid.dims) * grid.resolution
    states = grid.states()
    samples = []
    for _ in range(1000 * n_samples):
        if len(samples) == n_samples:
            break
        p = rng.uniform(lo, hi)
        idx = tuple(grid.world_to_index(p)[0])
        if states[idx] != FREE:
            continue
        if prox.distance_at(p) < cfg.clearance_radius:
            continue
        samples.append(p)
    if not samples:
        raise PlanningError("no free space to sample")
    vertices = np.array(samples)

    adjacency: dict[int, list[tuple[int, float]]] = {i: [] for i in range(len(vertices))}
    edges = []
    tree = cKDTree(vertices)
    for i, j in sorted(tree.query_pairs(connect_radius)):
        if not segment_clear(grid, prox, vertices[i], vertices[j], cfg):
            continue
        w = edge_cost(prox, vertices[i], vertices[j], cfg)
        adjacency[i].append((j, w))
        adjacency[j].append((i, w))
        edges.append((i, j, w))
    return Roadmap(vertices, adjacency, seed, edges)


def _dijkstra(adjacency, n, start: int, goal: int):
    dist = [math.inf] * n
    prev = [-1] * n
    dist[start] = 0.0
    heap = [(0.0, start)]
    while heap:
        d, u = heapq.heappop(heap)
        if u == goal:
            break
        if d > dist[u]:
            continue
        for v, w in adjacency.get(u, ()):
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, prev


def plan_path(
    rm: Roadmap,
    grid: OccupancyGrid,
    prox: ProximityMap,
    start,
    goal,
    cfg: PlannerConfig = PlannerConfig(),
) -> PlannedPath:
    """Cost-minimal waypoint route from start to goal through the roadmap."""
    start = np.asarray(start, dtype=float)
    goal = np.asarray(goal, dtype=float)
    for name, p in (("start", start), ("goal", goal)):
        if prox.distance_at(p) < cfg.clearance_radius:
            raise PlanningError(f"{name} position is not in cleared free space")

    if segment_clear(grid, prox, start, goal, cfg):
        direct = edge_cost(prox, start, goal, cfg)
    else:
        direct = math.inf

    n = len(rm.vertices)
    s_id, g_id = n, n + 1
    adjacency = {i: list(v) for i, v in rm.adjacency.items()}
    adjacency[s_id] = []
    adjacency[g_id] = []
    order = np.argsort(np.linalg.norm(rm.vertices - start, axis=1))
    connected = 0
    for vi in order:
        if connected >= cfg.goal_connect_count:
            break
        if segment_clear(grid, prox, start, rm.vertices[vi], cfg):
            w = edge_cost(prox, start, rm.vertices[vi], cfg)
            adjacency[s_id].append((int(vi), w))
            connected += 1
    order = np.argsort(np.linalg.norm(rm.vertices - goal, axis=1))
    connected = 0
    for vi in order:
        if connected >= cfg.goal_connect_count:
            break
        if segment_clear(grid, prox, rm.vertices[vi], goal, cfg):
            w = edge_cost(prox, rm.vertices[vi], goal, cfg)
            adjacency[int(vi)].append((g_id, w))
            connected += 1

    dist, prev = _dijkstra(adjacency, n + 2, s_id, g_id)
    best = dist[g_id]
    if math.isfinite(direct) and direct <= best:
        return PlannedPath(np.array([start, goal]), direct)
    if not math.isfinite(best):
        raise UnreachableError("no collision-free route through the roadmap")
    chain = [g_id]
    while chain[-1] != s_id:
        chain.append(prev[chain[-1]])
    chain.reverse()
    wps = [start] + [rm.vertices[i] for i in chain[1:-1]] + [goal]
    return PlannedPath(np.array(wps), best)


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
    wps = [np.asarray(w, dtype=float) for w in path.waypoints]
    budget = (1.0 + cfg.shorten_budget) * path_cost(prox, wps, cfg)
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(wps) - 2:
            for j in range(len(wps) - 1, i + 1, -1):
                if j == i + 1:
                    break
                if not segment_clear(grid, prox, wps[i], wps[j], cfg):
                    continue
                candidate = wps[: i + 1] + wps[j:]
                if path_cost(prox, candidate, cfg) <= budget + 1e-12:
                    wps = candidate
                    changed = True
                    break
            i += 1
    return PlannedPath(np.array(wps), path_cost(prox, wps, cfg))


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
