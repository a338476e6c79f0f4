import math

import numpy as np
import pytest

from mavnav.grid import FREE, OCCUPIED, OccupancyGrid
from mavnav.planning import (
    PlannedPath,
    PlannerConfig,
    PlanningError,
    Roadmap,
    build_proximity_map,
    build_roadmap,
    edge_cost,
    path_cost,
    plan_path,
    segment_clear,
    shorten_path,
    speed_plan,
)


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

        for i, j, _ in rm.edges:
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

        for i, j, _ in rm.edges:
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
        assert rm1.edges == rm2.edges

    def test_no_free_space_error(self):
        g = OccupancyGrid((0, 0, 0), 0.5, (5, 5, 5))
        g.set_states(np.full((5, 5, 5), OCCUPIED, dtype=np.uint8))
        prox = build_proximity_map(g, clamp=5.0)
        with pytest.raises(PlanningError):
            build_roadmap(g, prox, 10, 2.0, seed=0)


def lattice_roadmap(prox, cfg, xs, ys, z):
    """4-connected lattice roadmap with the planner's own edge costs."""
    verts = np.array([[x, y, z] for x in xs for y in ys])
    index = {(i, j): i * len(ys) + j for i in range(len(xs)) for j in range(len(ys))}
    adjacency = {i: [] for i in range(len(verts))}
    edges = []
    for i in range(len(xs)):
        for j in range(len(ys)):
            for di, dj in ((1, 0), (0, 1)):
                if i + di < len(xs) and j + dj < len(ys):
                    a, b = index[(i, j)], index[(i + di, j + dj)]
                    w = edge_cost(prox, verts[a], verts[b], cfg)
                    adjacency[a].append((b, w))
                    adjacency[b].append((a, w))
                    edges.append((a, b, w))
    return Roadmap(verts, adjacency, 0, edges)


def floyd_warshall(n, edges):
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for i, j, w in edges:
        d[i, j] = min(d[i, j], w)
        d[j, i] = min(d[j, i], w)
    for k in range(n):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d


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
            for i, j, w in rm.edges
            if i in remap and j in remap and segment_clear(g, prox, rm.vertices[i], rm.vertices[j], cfg)
        ]
        adjacency = {i: [] for i in range(len(verts))}
        for i, j, w in edges:
            adjacency[i].append((j, w))
            adjacency[j].append((i, w))
        rm = Roadmap(verts, adjacency, 0, edges)

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
        adjacency = {i: [] for i in range(len(verts))}
        edges = []
        for i in range(len(verts)):
            for j in range(i + 1, len(verts)):
                if segment_clear(g, prox, verts[i], verts[j], cfg):
                    w = edge_cost(prox, verts[i], verts[j], cfg)
                    adjacency[i].append((j, w))
                    adjacency[j].append((i, w))
                    edges.append((i, j, w))
        rm = Roadmap(verts, adjacency, 0, edges)
        start, goal = np.array([4.6, 1.0, 0.75]), np.array([4.6, 4.0, 0.75])
        path = plan_path(rm, g, prox, start, goal, cfg)

        # oracle: Floyd-Warshall over the same graph with terminal nodes
        n = len(verts)
        all_edges = list(edges)
        for vi in range(n):
            if segment_clear(g, prox, start, verts[vi], cfg):
                all_edges.append((n, vi, edge_cost(prox, start, verts[vi], cfg)))
            if segment_clear(g, prox, verts[vi], goal, cfg):
                all_edges.append((vi, n + 1, edge_cost(prox, verts[vi], goal, cfg)))
        if segment_clear(g, prox, start, goal, cfg):
            all_edges.append((n, n + 1, edge_cost(prox, start, goal, cfg)))
        oracle = floyd_warshall(n + 2, all_edges)[n, n + 1]
        assert path.cost == pytest.approx(oracle, rel=1e-9)

    def test_altitude_bump_avoided(self):
        g = free_grid(dims=(16, 16, 16), res=0.5)
        prox = build_proximity_map(g, clamp=10.0)
        start, goal = np.array([1.0, 3.0, 1.0]), np.array([5.0, 3.0, 1.0])
        level_via = np.array([3.0, 5.0, 1.0])
        bump_via = np.array([3.0, 3.0, 3.0])
        verts = np.array([level_via, bump_via])
        cfg = PlannerConfig(goal_connect_count=2)
        adjacency = {0: [], 1: []}
        rm = Roadmap(verts, adjacency, 0, [])
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
    def setup_method(self):
        self.g = free_grid(dims=(24, 24, 6), res=0.5)
        self.prox = build_proximity_map(self.g, clamp=10.0)
        self.cfg = PlannerConfig()

    def test_straight_two_point_unchanged(self):
        p = PlannedPath(np.array([[1.0, 1, 1], [9.0, 9, 1]]), 0.0)
        out = shorten_path(p, self.g, self.prox, self.cfg)
        assert out.waypoints.shape == (2, 3)

    def test_zigzag_collapses(self):
        wps = np.array(
            [[1, 1, 1], [2, 3, 1], [3, 1, 1], [4, 3, 1], [5, 1, 1], [6, 3, 1], [7, 1, 1.0]]
        )
        p = PlannedPath(wps, 0.0)
        out = shorten_path(p, self.g, self.prox, self.cfg)
        assert len(out.waypoints) == 2
        assert out.cost <= (1 + self.cfg.shorten_budget) * path_cost(
            self.prox, wps, self.cfg
        ) + 1e-9

    def test_corner_clip_rejected(self):
        g = free_grid(dims=(24, 24, 6), res=0.5)
        states = g.states()
        states[10:14, 0:13, :] = OCCUPIED  # wall with corner at y ~ 6.5
        g.set_states(states)
        prox = build_proximity_map(g, clamp=10.0)
        cfg = PlannerConfig(clearance_radius=0.3)
        wps = np.array([[2.0, 2.0, 1.0], [5.5, 7.5, 1.0], [9.0, 7.5, 1.0], [11.0, 2.0, 1.0]])
        p = PlannedPath(wps, 0.0)
        out = shorten_path(p, g, prox, cfg)
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
