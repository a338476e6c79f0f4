import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from mavnav import planning
from mavnav.geometry import row_dot
from mavnav.grid import FREE, OCCUPIED, OccupancyGrid
from mavnav.planning import (
    PlannedPath,
    PlannerConfig,
    PlanningError,
    ProximityMap,
    Roadmap,
    UnreachableError,
    _links,
    _segments,
    build_proximity_map,
    build_roadmap,
    path_cost,
    plan_path,
    segment_clear,
    shorten_path,
    speed_plan,
)


# The scalar sampler, clearance test and edge cost the planner used before
# its batched kernel `_segments`: the oracles that the kernel must match.


def _segment_samples(p, q, step: float) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    n = max(int(math.ceil(np.linalg.norm(q - p) / step)), 1)
    t = np.linspace(0.0, 1.0, n + 1)
    return p[None, :] + t[:, None] * (q - p)[None, :]


def _segment_clear_loop(grid: OccupancyGrid, prox: ProximityMap, p, q, cfg: PlannerConfig) -> bool:
    """Straight segment keeps MAV clearance, sampled at half-resolution."""
    pts = _segment_samples(p, q, 0.5 * grid.resolution)
    if not np.all(grid.in_bounds(grid.world_to_index(pts))):
        return False
    d = np.atleast_1d(prox.distance_at(pts))
    return bool(np.all(d >= cfg.clearance_radius))


def _edge_cost_loop(prox: ProximityMap, p, q, cfg: PlannerConfig) -> float:
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


def _segments_gather(prox: ProximityMap, p, q, cfg: PlannerConfig) -> tuple[np.ndarray, np.ndarray]:
    """`_segments` with each sample's endpoint, direction and step gathered
    per sample, and the midpoints from two gathers of the inner samples:
    the oracle of the row-repeat kernel, which must match it byte for byte."""
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


def _shorten_path_loop(path: PlannedPath, prox: ProximityMap, cfg: PlannerConfig) -> PlannedPath:
    """`shorten_path` costing every leg again after each elision and at the
    start of each pass: the oracle of the kept legs."""
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


def _assert_same_shortening(path: PlannedPath, grid: OccupancyGrid, prox: ProximityMap,
                            cfg: PlannerConfig) -> PlannedPath:
    out = shorten_path(path, grid, prox, cfg)
    want = _shorten_path_loop(path, prox, cfg)
    assert out.waypoints.tobytes() == want.waypoints.tobytes()
    assert type(out.cost) is float and out.cost == want.cost
    return out


def _distance_at_per_axis(prox: ProximityMap, points) -> np.ndarray:
    """The distance lookup with a 3-D index and a per-row bounds test: the
    oracle of the flat lookup in `distance_at`."""
    idx = np.floor((points - prox.origin) / prox.resolution).astype(int)
    inside = np.all((idx >= 0) & (idx < np.array(prox.distances.shape)), axis=1)
    out = np.zeros(len(idx))
    ii = idx[inside]
    out[inside] = prox.distances[ii[:, 0], ii[:, 1], ii[:, 2]]
    return out


def _links_eager(prox: ProximityMap, vertices, end, into: bool, cfg: PlannerConfig):
    """`_links` by checking every vertex, then keeping the first
    goal_connect_count clear links: the oracle of the nearest-first blocks."""
    order = np.argsort(np.linalg.norm(vertices - end, axis=1))
    p, q = (vertices[order], end) if into else (end, vertices[order])
    clear, cost = _segments(prox, p, q, cfg)
    k = cfg.goal_connect_count
    return order[clear][:k], cost[clear][:k]


def free_grid(dims=(20, 20, 20), res=0.5, origin=(0, 0, 0)):
    g = OccupancyGrid(origin, res, dims)
    g.set_states(np.full(dims, FREE, dtype=np.uint8))
    return g


class TestProximityMap:
    def test_single_occupied_voxel(self):
        g = free_grid(dims=(9, 9, 9), res=0.25)
        states = g.states()
        states[4, 4, 4] = OCCUPIED
        g.set_states(states)
        prox = build_proximity_map(g, clamp=10.0)
        assert prox.distances[4, 4, 4] == 0.0
        assert prox.distances[5, 4, 4] == pytest.approx(0.25)
        assert prox.distances[5, 5, 4] == pytest.approx(0.25 * math.sqrt(2))

    def test_fully_free_clamped(self):
        g = free_grid(dims=(6, 6, 6))
        prox = build_proximity_map(g, clamp=2.0)
        assert np.all(prox.distances == 2.0)

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(99)
        dims = (20, 20, 20)
        g = OccupancyGrid((0, 0, 0), 0.3, dims)
        states = np.where(rng.random(dims) < 0.04, OCCUPIED, FREE).astype(np.uint8)
        states[rng.random(dims) < 0.02] = 2  # some unknown voxels
        g.set_states(states)
        prox = build_proximity_map(g, clamp=100.0)

        obstacle = np.argwhere(g.obstacle_mask())
        assert len(obstacle)
        idx = np.argwhere(np.ones(dims, dtype=bool))
        # brute force: min over obstacle voxels of index-space distance
        d2 = ((idx[:, None, :] - obstacle[None, :, :]) ** 2).sum(axis=2).min(axis=1)
        oracle = np.sqrt(d2.astype(float)).reshape(dims) * 0.3
        np.testing.assert_array_equal(prox.distances, oracle)

        # distance_at as the per-axis lookup reads it: points in the grid,
        # and on each face points on it, just either side of it and far past it
        lo, hi = g.origin, g.origin + np.array(dims) * 0.3
        pts = [lo + rng.random((200, 3)) * (hi - lo)]
        for axis in range(3):
            for x in (lo[axis], np.nextafter(lo[axis], -np.inf), -1e6,
                      hi[axis], np.nextafter(hi[axis], np.inf), np.nextafter(hi[axis], -np.inf), 1e6):
                p = lo + rng.random((5, 3)) * (hi - lo)
                p[:, axis] = x
                pts.append(p)
        pts = np.concatenate(pts)
        want = _distance_at_per_axis(prox, pts)
        assert prox.distance_at(pts).tobytes() == want.tobytes()
        assert 0 < np.count_nonzero(want) < len(pts)

    def test_lipschitz_between_neighbors(self):
        g = free_grid(dims=(12, 12, 12), res=0.4)
        states = g.states()
        states[2:4, 5:8, 3:6] = OCCUPIED
        g.set_states(states)
        prox = build_proximity_map(g, clamp=50.0)
        d = prox.distances
        step = 0.4 * math.sqrt(3) + 1e-9
        for ax in range(3):
            diff = np.abs(np.diff(d, axis=ax))
            assert diff.max() <= step

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_distance_at_rejects_non_finite_points(self, bad, axis):
        prox = build_proximity_map(free_grid(dims=(4, 4, 4)), clamp=2.0)
        pts = np.ones((3, 3))
        pts[1, axis] = bad
        with pytest.raises(ValueError, match="finite"):
            prox.distance_at(pts)

    def test_distance_at_returns_array(self):
        prox = build_proximity_map(free_grid(dims=(4, 4, 4)), clamp=2.0)
        assert prox.distance_at([1.0, 1.0, 1.0]).shape == (1,)
        assert prox.distance_at([[1.0, 1.0, 1.0], [9.0, 9.0, 9.0]]).tolist() == [2.0, 0.0]


# an obstacle grid whose origin and resolution are not round numbers
_ORIGIN, _RES, _DIMS = np.array([-0.5, 0.2, 0.1]), 0.3, (12, 10, 8)


def _oracle_world():
    rng = np.random.default_rng(7)
    g = OccupancyGrid(_ORIGIN, _RES, _DIMS)
    states = np.where(rng.random(_DIMS) < 0.06, OCCUPIED, FREE).astype(np.uint8)
    states[rng.random(_DIMS) < 0.02] = 2  # unknown
    g.set_states(states)
    return g, build_proximity_map(g, clamp=2.0)


@st.composite
def _segment_rows(draw):
    """(m, 2, 3) segment endpoints of mixed lengths: anywhere in a box 1 m
    beyond the grid, of zero length, or axis-parallel on voxel faces."""
    top = _ORIGIN + np.array(_DIMS) * _RES

    def point():
        return np.array([draw(st.floats(lo - 1.0, hi + 1.0)) for lo, hi in zip(_ORIGIN, top)])

    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["any", "zero", "face"]))
        if kind == "face":
            p = _ORIGIN + _RES * np.array([draw(st.integers(0, n)) for n in _DIMS], dtype=float)
            q = p.copy()
            q[draw(st.integers(0, 2))] += _RES * draw(st.integers(-8, 8))
        else:
            p = point()
            q = p if kind == "zero" else point()
        rows.append((p, q))
    return np.array(rows)


@settings(max_examples=300, deadline=None)
@given(_segment_rows(), st.sampled_from([0.1, 0.3, 0.5]))
def test_segments_match_scalar_oracles(rows, radius):
    g, prox = _oracle_world()
    cfg = PlannerConfig(clearance_radius=radius)
    clear, cost = _segments(prox, rows[:, 0], rows[:, 1], cfg)
    assert clear.tolist() == [_segment_clear_loop(g, prox, p, q, cfg) for p, q in rows]
    want = [_edge_cost_loop(prox, p, q, cfg) for p, q in rows]
    np.testing.assert_allclose(cost, want, rtol=1e-12, atol=0)
    gather = _segments_gather(prox, rows[:, 0], rows[:, 1], cfg)
    assert [clear.tobytes(), cost.tobytes()] == [x.tobytes() for x in gather]


def test_segments_of_an_empty_batch():
    _, prox = _oracle_world()
    empty = np.empty((0, 3))
    clear, cost = _segments(prox, empty, empty, PlannerConfig())
    assert (clear.dtype, clear.shape, cost.dtype, cost.shape) == (bool, (0,), float, (0,))
    gather = _segments_gather(prox, empty, empty, PlannerConfig())
    assert [clear.tobytes(), cost.tobytes()] == [x.tobytes() for x in gather]


def test_segments_end_exactly_on_q():
    # 49 * (1 / 49) rounds below 1: a last sample at that t would land in
    # the voxel before q, short of the slab's clearance shell that q is in
    g = free_grid(dims=(32, 8, 8), res=0.25)
    states = g.states()
    states[26:, :, :] = OCCUPIED
    g.set_states(states)
    prox = build_proximity_map(g, clamp=10.0)
    cfg = PlannerConfig(clearance_radius=0.3)
    p, q = np.array([[0.125, 1.0, 1.0]]), np.array([[6.25, 1.0, 1.0]])  # n = 6.125 / 0.125 = 49
    assert 49 * (1.0 / 49) < 1.0
    assert prox.distance_at(q)[0] < cfg.clearance_radius <= prox.distance_at(np.nextafter(q, 0))[0]
    clear, cost = _segments(prox, p, q, cfg)
    assert clear.tolist() == [_segment_clear_loop(g, prox, p[0], q[0], cfg)] == [False]
    gather = _segments_gather(prox, p, q, cfg)
    assert [clear.tobytes(), cost.tobytes()] == [x.tobytes() for x in gather]


def _roadmap_block():
    """(prox, p, q, cfg) of the first full `_PAIR_BLOCK` of candidate
    pairs of a roadmap sampled on a cluttered grid, as build_roadmap
    orders and checks them."""
    rng = np.random.default_rng(3)
    dims = (24, 24, 8)
    g = OccupancyGrid((0, 0, 0), 0.5, dims)
    g.set_states(np.where(rng.random(dims) < 0.05, OCCUPIED, FREE).astype(np.uint8))
    prox = build_proximity_map(g, clamp=10.0)
    cfg = PlannerConfig(clearance_radius=0.3)
    rm = build_roadmap(g, prox, 200, 1.5, seed=3, cfg=cfg)
    pairs = cKDTree(rm.vertices).query_pairs(1.5, output_type="ndarray")
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))][: planning._PAIR_BLOCK]
    assert len(pairs) == planning._PAIR_BLOCK
    return prox, rm.vertices[pairs[:, 0]], rm.vertices[pairs[:, 1]], cfg


def test_segments_of_a_roadmap_block_match_gather():
    prox, p, q, cfg = _roadmap_block()
    clear, cost = _segments(prox, p, q, cfg)
    assert 0 < np.count_nonzero(clear) < len(clear)
    gather = _segments_gather(prox, p, q, cfg)
    assert [clear.tobytes(), cost.tobytes()] == [x.tobytes() for x in gather]


def test_segments_peak_memory_not_above_gather():
    # a roadmap block's sample arrays set flight_gust's process peak
    prox, p, q, cfg = _roadmap_block()
    peaks = []
    for kernel in (_segments, _segments_gather):
        kernel(prox, p, q, cfg)  # warm up
        tracemalloc.start()
        try:
            kernel(prox, p, q, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1], peaks


class TestInputValidation:
    def setup_method(self):
        self.g = free_grid(dims=(8, 8, 8))
        self.prox = build_proximity_map(self.g, clamp=10.0)

    @pytest.mark.parametrize("radius", [math.nan, 0.0, -1.0, math.inf])
    def test_roadmap_rejects_bad_connect_radius(self, radius):
        with pytest.raises(ValueError, match="connect_radius"):
            build_roadmap(self.g, self.prox, 10, radius, seed=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_plan_path_rejects_non_finite_ends(self, bad):
        rm = build_roadmap(self.g, self.prox, 10, 2.0, seed=0)
        with pytest.raises(ValueError, match="finite"):
            plan_path(rm, self.g, self.prox, [1.0, bad, 1.0], [3.0, 3.0, 3.0])
        with pytest.raises(ValueError, match="finite"):
            plan_path(rm, self.g, self.prox, [1.0, 1.0, 1.0], [3.0, 3.0, bad])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_segment_clear_rejects_non_finite_ends(self, bad):
        with pytest.raises(ValueError, match="finite"):
            segment_clear(self.g, self.prox, [1.0, 1.0, 1.0], [bad, 1.0, 1.0], PlannerConfig())

    @pytest.mark.parametrize("radius", [0.0, -0.1, math.nan, math.inf])
    def test_config_rejects_bad_clearance_radius(self, radius):
        with pytest.raises(ValueError, match="clearance_radius"):
            PlannerConfig(clearance_radius=radius)

    @pytest.mark.parametrize("field, value", [
        ("d_safe", 0.0), ("d_safe", -1.0), ("d_safe", math.nan), ("d_safe", math.inf),
        ("lambda_prox", -0.5), ("lambda_prox", math.nan), ("lambda_prox", math.inf),
        ("lambda_alt", -0.5), ("lambda_alt", math.nan), ("lambda_alt", math.inf),
        ("shorten_budget", -1.0), ("shorten_budget", math.nan), ("shorten_budget", math.inf),
        ("goal_connect_count", 0), ("goal_connect_count", -3), ("goal_connect_count", 2.5),
    ])
    def test_config_rejects_each_bad_field_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            PlannerConfig(**{field: value})

    def test_config_accepts_zero_weights_and_budget(self):
        cfg = PlannerConfig(lambda_prox=0.0, lambda_alt=0.0, shorten_budget=0.0,
                            goal_connect_count=1)
        assert path_cost(self.prox, [[1.0, 1.0, 1.0], [1.0, 1.0, 2.0]], cfg) == 1.0


class TestRoadmap:
    def test_free_map_fully_connected(self):
        g = free_grid(dims=(16, 16, 16), res=0.5)
        prox = build_proximity_map(g, clamp=10.0)
        rm = build_roadmap(g, prox, n_samples=40, connect_radius=4.0, seed=3)
        assert len(rm.vertices) == 40
        # union-find reachability oracle
        parent = list(range(40))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in rm.edges:
            parent[find(i)] = find(j)
        assert len({find(i) for i in range(40)}) == 1

    def test_wall_splits_components(self):
        g = free_grid(dims=(20, 10, 10), res=0.5)
        states = g.states()
        states[9:11, :, :] = OCCUPIED  # solid wall, no opening
        g.set_states(states)
        prox = build_proximity_map(g, clamp=10.0)
        rm = build_roadmap(g, prox, n_samples=60, connect_radius=3.5, seed=5)
        sides = {0: 0, 1: 0}
        parent = list(range(len(rm.vertices)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in rm.edges:
            parent[find(i)] = find(j)
        comps = {find(i) for i in range(len(rm.vertices))}
        for v in rm.vertices:
            sides[int(v[0] > 5.0)] += 1
        assert sides[0] > 0 and sides[1] > 0
        assert len(comps) == 2

    def test_deterministic_for_seed(self):
        g = free_grid()
        prox = build_proximity_map(g, clamp=10.0)
        rm1 = build_roadmap(g, prox, 25, 3.0, seed=11)
        rm2 = build_roadmap(g, prox, 25, 3.0, seed=11)
        np.testing.assert_array_equal(rm1.vertices, rm2.vertices)
        np.testing.assert_array_equal(rm1.edges, rm2.edges)
        np.testing.assert_array_equal(rm1.weights, rm2.weights)

    def test_no_free_space_error(self):
        g = OccupancyGrid((0, 0, 0), 0.5, (5, 5, 5))
        g.set_states(np.full((5, 5, 5), OCCUPIED, dtype=np.uint8))
        prox = build_proximity_map(g, clamp=5.0)
        with pytest.raises(PlanningError):
            build_roadmap(g, prox, 10, 2.0, seed=0)


def edge_roadmap(verts, edges):
    """Roadmap over verts from a list of (i, j, weight) edges."""
    pairs = np.array([(i, j) for i, j, _ in edges], dtype=int).reshape(-1, 2)
    return Roadmap(verts, pairs, np.array([w for _, _, w in edges], dtype=float))


def lattice_roadmap(prox, cfg, xs, ys, z):
    """4-connected lattice roadmap with the planner's own edge costs."""
    verts = np.array([[x, y, z] for x in xs for y in ys])
    index = {(i, j): i * len(ys) + j for i in range(len(xs)) for j in range(len(ys))}
    edges = []
    for i in range(len(xs)):
        for j in range(len(ys)):
            for di, dj in ((1, 0), (0, 1)):
                if i + di < len(xs) and j + dj < len(ys):
                    a, b = index[(i, j)], index[(i + di, j + dj)]
                    edges.append((a, b, path_cost(prox, [verts[a], verts[b]], cfg)))
    return edge_roadmap(verts, edges)


def floyd_warshall(n, edges):
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for i, j, w in edges:
        d[i, j] = min(d[i, j], w)
        d[j, i] = min(d[j, i], w)
    for k in range(n):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d


def route_cost_oracle(rm, g, prox, start, goal, cfg):
    """Floyd-Warshall over the roadmap plus the terminal links the scalar
    planner made: the goal_connect_count nearest vertices with a clear
    segment, and the straight segment if it is clear."""
    n = len(rm.vertices)
    edges = [(i, j, w) for (i, j), w in zip(rm.edges, rm.weights)]
    for node, end in ((n, start), (n + 1, goal)):
        linked = 0
        for vi in np.argsort(np.linalg.norm(rm.vertices - end, axis=1)):
            p, q = (start, rm.vertices[vi]) if node == n else (rm.vertices[vi], goal)
            if linked < cfg.goal_connect_count and _segment_clear_loop(g, prox, p, q, cfg):
                edges.append((node, vi, _edge_cost_loop(prox, p, q, cfg)))
                linked += 1
    if _segment_clear_loop(g, prox, start, goal, cfg):
        edges.append((n, n + 1, _edge_cost_loop(prox, start, goal, cfg)))
    return floyd_warshall(n + 2, edges)[n, n + 1]


class TestPlanPath:
    def test_empty_map_straight_segment(self):
        g = free_grid(dims=(20, 20, 8))
        prox = build_proximity_map(g, clamp=10.0)
        rm = build_roadmap(g, prox, 30, 4.0, seed=2)
        p = plan_path(rm, g, prox, [1, 1, 1], [8, 8, 2.5])
        assert p.waypoints.shape == (2, 3)
        np.testing.assert_allclose(p.waypoints[0], [1, 1, 1])
        np.testing.assert_allclose(p.waypoints[-1], [8, 8, 2.5])

    def _corridor_world(self):
        # 10 x 5 m world, wall at y ~ 2.5 with a narrow gap hugging the left
        # outer wall and a wide gap on the right; route lengths are equal
        g = OccupancyGrid((0, 0, 0), 0.5, (20, 10, 3))
        states = np.full((20, 10, 3), FREE, dtype=np.uint8)
        states[:, 4:6, :] = OCCUPIED
        states[1:2, 4:6, :] = FREE  # narrow gap at x ~ 0.75, next to outer wall
        states[0:1, :, :] = OCCUPIED  # left outer wall
        states[15:18, 4:6, :] = FREE  # wide gap at x ~ 7.5-9
        g.set_states(states)
        return g

    def test_high_clearance_corridor_wins(self):
        cfg = PlannerConfig(clearance_radius=0.2)
        g = self._corridor_world()
        prox = build_proximity_map(g, clamp=10.0)
        xs = np.arange(0.75, 9.8, 0.5)
        ys = np.arange(0.75, 4.8, 0.5)
        rm = lattice_roadmap(prox, cfg, xs, ys, 0.75)
        # drop lattice vertices inside obstacles
        keep = [i for i, v in enumerate(rm.vertices) if prox.distance_at(v) >= 0.2]
        remap = {old: new for new, old in enumerate(keep)}
        verts = rm.vertices[keep]
        edges = [
            (remap[i], remap[j], w)
            for (i, j), w in zip(rm.edges, rm.weights)
            if i in remap and j in remap and segment_clear(g, prox, rm.vertices[i], rm.vertices[j], cfg)
        ]
        rm = edge_roadmap(verts, edges)

        start, goal = np.array([5.25, 0.75, 0.75]), np.array([5.25, 4.25, 0.75])
        path = plan_path(rm, g, prox, start, goal, cfg)
        # exhaustive-optimum oracle over the same graph (plus terminal links)
        assert path.waypoints[:, 0].max() > 5.5, "should detour via the wide right gap"
        # every waypoint keeps decent clearance
        for w in path.waypoints:
            assert prox.distance_at(w) >= 0.2

    def test_cost_is_graph_optimal(self):
        cfg = PlannerConfig(clearance_radius=0.2)
        g = self._corridor_world()
        prox = build_proximity_map(g, clamp=10.0)
        verts = np.array(
            [[1.2, 1.0, 0.75], [1.2, 4.0, 0.75], [8.2, 1.0, 0.75], [8.2, 4.0, 0.75],
             [5.0, 1.0, 0.75], [5.0, 4.0, 0.75]]
        )
        edges = []
        for i in range(len(verts)):
            for j in range(i + 1, len(verts)):
                if segment_clear(g, prox, verts[i], verts[j], cfg):
                    edges.append((i, j, _edge_cost_loop(prox, verts[i], verts[j], cfg)))
        rm = edge_roadmap(verts, edges)
        start, goal = np.array([4.6, 1.0, 0.75]), np.array([4.6, 4.0, 0.75])
        path = plan_path(rm, g, prox, start, goal, cfg)

        # oracle: Floyd-Warshall over the same graph with terminal nodes
        n = len(verts)
        all_edges = list(edges)
        for vi in range(n):
            if segment_clear(g, prox, start, verts[vi], cfg):
                all_edges.append((n, vi, _edge_cost_loop(prox, start, verts[vi], cfg)))
            if segment_clear(g, prox, verts[vi], goal, cfg):
                all_edges.append((vi, n + 1, _edge_cost_loop(prox, verts[vi], goal, cfg)))
        if segment_clear(g, prox, start, goal, cfg):
            all_edges.append((n, n + 1, _edge_cost_loop(prox, start, goal, cfg)))
        oracle = floyd_warshall(n + 2, all_edges)[n, n + 1]
        assert path.cost == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("on_vertex", [False, True])
    def test_cost_is_graph_optimal_on_sampled_roadmaps(self, seed, on_vertex):
        rng = np.random.default_rng(seed)
        dims = (16, 12, 6)
        g = OccupancyGrid((0, 0, 0), 0.5, dims)
        g.set_states(np.where(rng.random(dims) < 0.05, OCCUPIED, FREE).astype(np.uint8))
        prox = build_proximity_map(g, clamp=10.0)
        # with one link per end, a start on a vertex links only through its
        # zero-length segment to that vertex
        cfg = PlannerConfig(clearance_radius=0.3, goal_connect_count=1 if on_vertex else 4)
        rm = build_roadmap(g, prox, 40, 2.5, seed=seed, cfg=cfg)
        if on_vertex:
            ends = rm.vertices
        else:
            ends = rng.uniform(0.0, 0.5 * np.array(dims), (200, 3))
            ends = ends[prox.distance_at(ends) >= cfg.clearance_radius]
        # the first pair of ends with a blocked straight segment and a route
        for a, b in rng.integers(len(ends), size=(200, 2)):
            start, goal = ends[a], ends[b]
            if _segment_clear_loop(g, prox, start, goal, cfg):
                continue
            oracle = route_cost_oracle(rm, g, prox, start, goal, cfg)
            if math.isfinite(oracle):
                break
        else:
            pytest.fail("no pair of ends with a blocked straight segment and a route")
        path = plan_path(rm, g, prox, start, goal, cfg)
        assert path.cost == pytest.approx(oracle, rel=1e-9)
        assert len(path.waypoints) > 2
        _assert_same_shortening(path, g, prox, cfg)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 4, 17])
    def test_nearest_first_links_match_eager_links(self, seed, k, monkeypatch):
        # links are checked 2k at a time; with k = 17, some ends have fewer
        # than k clear links, found only by checking every block
        rng = np.random.default_rng(seed)
        dims = (16, 12, 6)
        g = OccupancyGrid((0, 0, 0), 0.5, dims)
        g.set_states(np.where(rng.random(dims) < 0.08, OCCUPIED, FREE).astype(np.uint8))
        prox = build_proximity_map(g, clamp=10.0)
        cfg = PlannerConfig(clearance_radius=0.3, goal_connect_count=k)
        rm = build_roadmap(g, prox, 40, 2.5, seed=seed, cfg=cfg)
        ends = rng.uniform(0.0, 0.5 * np.array(dims), (120, 3))
        ends = ends[prox.distance_at(ends) >= cfg.clearance_radius]

        def plan(start, goal):
            try:
                return plan_path(rm, g, prox, start, goal, cfg)
            except UnreachableError:
                return None

        seen = set()
        for start, goal in zip(ends[::2], ends[1::2]):
            for end, into in ((start, False), (goal, True)):
                got = _links(prox, rm.vertices, end, into, cfg)
                want = _links_eager(prox, rm.vertices, end, into, cfg)
                assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
                seen.add("fewer than k" if len(want[0]) < k else "k")
            got = plan(start, goal)
            with monkeypatch.context() as m:
                m.setattr(planning, "_links", _links_eager)
                want = plan(start, goal)
            if want is None:
                assert got is None
                continue
            assert got.waypoints.tobytes() == want.waypoints.tobytes()
            assert got.cost == want.cost
            seen.add("direct" if len(want.waypoints) == 2 else "roadmap")
        assert {"direct", "roadmap", "k"} <= seen
        assert k != 17 or "fewer than k" in seen

    def test_altitude_bump_avoided(self):
        g = free_grid(dims=(16, 16, 16), res=0.5)
        prox = build_proximity_map(g, clamp=10.0)
        start, goal = np.array([1.0, 3.0, 1.0]), np.array([5.0, 3.0, 1.0])
        level_via = np.array([3.0, 5.0, 1.0])
        bump_via = np.array([3.0, 3.0, 3.0])
        verts = np.array([level_via, bump_via])
        cfg = PlannerConfig(goal_connect_count=2)
        rm = edge_roadmap(verts, [])
        # force the roadmap route by blocking the straight segment
        states = g.states()
        states[7:9, 5:7, 1:4] = OCCUPIED
        g.set_states(states)
        prox = build_proximity_map(g, clamp=10.0)
        path = plan_path(rm, g, prox, start, goal, cfg)
        assert len(path.waypoints) == 3
        np.testing.assert_allclose(path.waypoints[1], level_via)

    def test_unreachable(self):
        g = self._corridor_world()
        states = g.states()
        states[:, 4:6, :] = OCCUPIED  # close every gap
        g.set_states(states)
        prox = build_proximity_map(g, clamp=10.0)
        cfg = PlannerConfig(clearance_radius=0.2)
        rm = build_roadmap(g, prox, 30, 3.0, seed=1, cfg=cfg)
        from mavnav.planning import UnreachableError

        with pytest.raises(UnreachableError):
            plan_path(rm, g, prox, [5, 1, 0.75], [5, 4, 0.75], cfg)


class TestShortenPath:
    ZIGZAG = np.array(
        [[1, 1, 1], [2, 3, 1], [3, 1, 1], [4, 3, 1], [5, 1, 1], [6, 3, 1], [7, 1, 1.0]]
    )

    def setup_method(self):
        self.g = free_grid(dims=(24, 24, 6), res=0.5)
        self.prox = build_proximity_map(self.g, clamp=10.0)
        self.cfg = PlannerConfig()

    def test_straight_two_point_unchanged(self):
        p = PlannedPath(np.array([[1.0, 1, 1], [9.0, 9, 1]]), 0.0)
        out = shorten_path(p, self.g, self.prox, self.cfg)
        assert out.waypoints.shape == (2, 3)

    def test_zigzag_collapses(self):
        wps = self.ZIGZAG
        p = PlannedPath(wps, 0.0)
        out = _assert_same_shortening(p, self.g, self.prox, self.cfg)
        assert len(out.waypoints) == 2
        assert out.cost <= (1 + self.cfg.shorten_budget) * path_cost(
            self.prox, wps, self.cfg
        ) + 1e-9

    def test_zigzag_costs_its_legs_once(self, monkeypatch):
        # one call for the legs and one from the first waypoint, whose skip
        # to the goal is taken: none after the elision, none for the cost
        calls = []

        def spy(*args):
            calls.append(args)
            return _segments(*args)

        monkeypatch.setattr(planning, "_segments", spy)
        out = shorten_path(PlannedPath(self.ZIGZAG, 0.0), self.g, self.prox, self.cfg)
        assert len(out.waypoints) == 2
        assert len(calls) == 2

    def test_corner_clip_rejected(self):
        g = free_grid(dims=(24, 24, 6), res=0.5)
        states = g.states()
        states[10:14, 0:13, :] = OCCUPIED  # wall with corner at y ~ 6.5
        g.set_states(states)
        prox = build_proximity_map(g, clamp=10.0)
        cfg = PlannerConfig(clearance_radius=0.3)
        wps = np.array([[2.0, 2.0, 1.0], [5.5, 7.5, 1.0], [9.0, 7.5, 1.0], [11.0, 2.0, 1.0]])
        p = PlannedPath(wps, 0.0)
        out = _assert_same_shortening(p, g, prox, cfg)
        # the elision jumping across the wall must be rejected
        for i in range(len(out.waypoints) - 1):
            assert segment_clear(g, prox, out.waypoints[i], out.waypoints[i + 1], cfg)

    def test_never_increases_waypoints(self):
        rng = np.random.default_rng(0)
        wps = np.cumsum(rng.uniform(-1, 1, (8, 3)), axis=0) + np.array([6.0, 6.0, 1.5])
        wps[:, 2] = np.clip(wps[:, 2], 0.5, 2.5)
        p = PlannedPath(wps, 0.0)
        out = shorten_path(p, self.g, self.prox, self.cfg)
        assert len(out.waypoints) <= len(wps)


class TestSpeedPlan:
    @pytest.mark.parametrize("limit, value", [
        ("v_max", math.nan), ("v_max", -1.0), ("v_max", 0.0), ("v_max", math.inf),
        ("a_lat_max", math.nan), ("a_lat_max", 0.0), ("a_lat_max", -2.0),
        ("a_lon_max", 0.0), ("a_lon_max", math.inf), ("a_lon_max", math.nan),
    ])
    def test_rejects_bad_limit_by_name(self, limit, value):
        wps = np.array([[0, 0, 0], [5, 0, 0], [5, 5, 0.0]])
        limits = {"v_max": 2.0, "a_lat_max": 1.0, "a_lon_max": 1.0, limit: value}
        with pytest.raises(ValueError, match=limit):
            speed_plan(PlannedPath(wps, 0.0), **limits)

    def test_straight_path_hits_vmax(self):
        wps = np.array([[0, 0, 0], [5, 0, 0], [10, 0, 0], [15, 0, 0], [20, 0, 0.0]])
        out = speed_plan(PlannedPath(wps, 0.0), v_max=4.0, a_lat_max=5.0, a_lon_max=4.0)
        assert out.speeds[0] == 0.0 and out.speeds[-1] == 0.0
        np.testing.assert_allclose(out.speeds[1:-1], 4.0)

    def test_arc_speed_matches_formula(self):
        r = 5.0
        theta = np.linspace(0, np.pi, 30)
        wps = np.column_stack([r * np.cos(theta), r * np.sin(theta), np.zeros(30)])
        v_max, a_lat = 8.0, 2.0
        out = speed_plan(PlannedPath(wps, 0.0), v_max, a_lat, a_lon_max=50.0)
        expected = min(v_max, math.sqrt(a_lat * r))
        # circumcircle of samples on a circle has the circle's radius
        np.testing.assert_allclose(out.speeds[2:-2], expected, rtol=1e-6)

    def test_accel_feasibility(self):
        rng = np.random.default_rng(4)
        wps = np.cumsum(rng.uniform(-2, 2, (12, 3)), axis=0)
        out = speed_plan(PlannedPath(wps, 0.0), 6.0, 3.0, 2.0)
        seg = np.linalg.norm(np.diff(wps, axis=0), axis=1)
        for i in range(len(seg)):
            assert abs(out.speeds[i + 1] ** 2 - out.speeds[i] ** 2) <= 2 * 2.0 * seg[i] + 1e-9

    def test_duration_matches_quadrature_oracle(self):
        wps = np.array([[0, 0, 0], [8, 0, 0], [14, 3, 0], [18, 8, 0], [20, 14, 0.0]])
        v_max, a_lat, a_lon = 6.0, 3.0, 2.0
        out = speed_plan(PlannedPath(wps, 0.0), v_max, a_lat, a_lon)
        # oracle: fine quadrature of ds / v(s) under the same constant-
        # acceleration segment profile v(s) = sqrt(v_i^2 + 2 a s)
        total = 0.0
        seg = np.linalg.norm(np.diff(wps, axis=0), axis=1)
        for i in range(len(seg)):
            vi, vj, d = out.speeds[i], out.speeds[i + 1], seg[i]
            a = (vj**2 - vi**2) / (2 * d)
            s = (np.arange(200000) + 0.5) * (d / 200000)
            v = np.sqrt(np.maximum(vi**2 + 2 * a * s, 1e-12))
            total += float(np.sum(d / 200000 / v))
        assert out.times[-1] == pytest.approx(total, rel=0.02)
