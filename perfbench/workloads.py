"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

Each workload is a pair of functions. `setup(seed)` builds every input
from the seed alone and is timed as set-up. `run(inputs)` is one pass of
the stack under test over those inputs; it returns a `PassResult` whose
`quality` numbers and counts depend only on the inputs, so every pass of
a run must reproduce the first one exactly. Failed operations are
counted by cause and the pass goes on to the next operation; a failed
output check goes to `problems` and makes the whole run incorrect.

mavnav is always called through its modules (``planning.plan_path``),
never through names bound at import, so that `tracing.instrument` sees
every call. The output checks use the references taken below, before
any tracing, so that they add no spans.
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mavnav import delaunay, grid, metrics, planning, reconstruction, scenarios, trajectory, vo
from mavnav.geometry import Pose
from mavnav.simulation import IMU_PERIOD, VehicleState, WindProfile

from perfbench import room as rooms

_segment_clear = planning.segment_clear
_eval_spline = trajectory.eval_spline


@dataclass
class PassResult:
    quality: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    frame_ms: list[float] = field(default_factory=list)  # per VO frame
    loop_s: float = 0.0  # host time of the closed loop

    def fail(self, cause: str) -> None:
        self.failures[cause] = self.failures.get(cause, 0) + 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


# -- vo_corridor ---------------------------------------------------------------

# A noisy corridor with outliers and a slow yaw: every frame goes through
# quad matching and RANSAC, and some frames may fail to reach consensus.
CORRIDOR = vo.SceneConfig(
    n_landmarks=400, n_frames=40, step=0.25, yaw_rate=0.01,
    pixel_noise=0.5, outlier_rate=0.1,
)


def setup_vo_corridor(seed: int):
    return vo.gen_scene(CORRIDOR, seed)


def run_vo_corridor(scene) -> PassResult:
    out = PassResult()
    res = vo.run_vo(scene)
    n = len(scene.frames)
    if len(res.poses) != n or len(res.times_ms) != n - 1:
        out.problems.append(f"vo returned {len(res.poses)} poses for {n} frames")
        return out
    if not all(np.all(np.isfinite(p.position)) for p in res.poses):
        out.problems.append("vo returned a non-finite pose")
        return out
    out.attempted = n - 1
    if res.failures:
        out.failures["vo"] = res.failures
    out.frame_ms = list(res.times_ms)
    rte = metrics.rel_trans_error(scene.trajectory, res.poses)
    out.quality["vo_rte_pct"] = rte.average
    return out


# -- map_room --------------------------------------------------------------------

PROX_CLAMP = 1.5  # [m]
ROADMAP_SAMPLES = 200
ROADMAP_RADIUS = 1.5  # [m]
N_QUERIES = 4
# A query the sparse map cannot answer is charged this many times its
# ground-truth cost in plan_cost_ratio, so that failing a hard route never
# improves the ratio. Answered routes cost at most 1.61 times theirs over
# seeds 101-110.
FAILED_QUERY_RATIO = 3.0
PLANNER = planning.PlannerConfig()


@dataclass
class RoomInputs:
    seed: int
    room: rooms.Room
    gt: grid.OccupancyGrid
    gt_prox: planning.ProximityMap
    queries: list[tuple[np.ndarray, np.ndarray]]
    gt_costs: list[float]  # cost of the route planned on the ground truth


def _plan(rm, occ, prox, a, b):
    return planning.shorten_path(planning.plan_path(rm, occ, prox, a, b, PLANNER), occ, prox, PLANNER)


class CheckFailed(Exception):
    """An output check failed while building a workload's inputs."""


def _route_problem(path, occ, prox, a, b) -> str | None:
    """Why a planned route is wrong, or None when it joins a and b with
    segments that all pass segment_clear on the grid it was planned on."""
    wps = np.asarray(path.waypoints)
    if not (np.allclose(wps[0], a) and np.allclose(wps[-1], b)):
        return "route does not join its query endpoints"
    for p, q in zip(wps[:-1], wps[1:]):
        if not _segment_clear(occ, prox, p, q, PLANNER):
            return f"planned segment {p} -> {q} fails segment_clear"
    return None


def _raised_in(exc: Exception) -> str:
    """Name of the module whose code raised exc, e.g. "delaunay"."""
    return Path(traceback.extract_tb(exc.__traceback__)[-1].filename).stem


def setup_map_room(seed: int) -> RoomInputs:
    """The room, its ground truth, and routes between places the vehicle
    has been: keyframe k to the keyframe across the loop from it. The
    ground-truth cost of each route is the reference for the sparse map."""
    room = rooms.make_room(seed)
    gt = rooms.ground_truth_grid(room.pillars)
    gt_prox = planning.build_proximity_map(gt, PROX_CLAMP)
    rm = planning.build_roadmap(gt, gt_prox, ROADMAP_SAMPLES, ROADMAP_RADIUS, seed, PLANNER)
    cams = [kf.pose.position for kf in room.keyframes]
    half = len(cams) // 2
    queries = [(cams[k], cams[k + half]) for k in range(N_QUERIES)]
    costs = []
    for a, b in queries:
        try:
            path = _plan(rm, gt, gt_prox, a, b)
        except planning.PlanningError as exc:
            raise CheckFailed(f"no ground-truth route between keyframes: {exc}") from exc
        problem = _route_problem(path, gt, gt_prox, a, b)
        if problem:
            raise CheckFailed(f"ground-truth route: {problem}")
        costs.append(path.cost)
    return RoomInputs(seed, room, gt, gt_prox, queries, costs)


def run_map_room(inp: RoomInputs) -> PassResult:
    out = PassResult()
    kfs = inp.room.keyframes
    out.attempted = 1 + len(inp.queries)

    # grid baseline: one log-odds scan per keyframe
    lo, dims = rooms.grid_geometry()
    occ = grid.OccupancyGrid(lo, rooms.RESOLUTION, dims)
    for kf in kfs:
        grid.integrate_scan(occ, kf.pose, kf.points)
    out.quality["grid_mcc"] = metrics.mcc_eval(inp.gt, occ)[1]

    # sparse map; a walk that does not terminate, in tetrahedralize or in
    # label_tets' ray walks, leaves no map and is counted against the
    # module that raised it
    try:
        mesh = delaunay.tetrahedralize(np.vstack([kf.points for kf in kfs]))
        problem, energy = reconstruction.label_tets(mesh, kfs)
    except RuntimeError as exc:
        out.fail(_raised_in(exc))
        out.failures["no_map"] = len(inp.queries)
        out.quality["map_mcc"] = 0.0  # no map: every voxel unknown
        out.quality["plan_cost_ratio"] = FAILED_QUERY_RATIO
        return out
    outside = np.zeros(problem.n_nodes, dtype=bool)
    for tid, node in problem.node_of_tet.items():
        outside[node] = mesh.labels[tid] == delaunay.TetMesh.OUTSIDE
    if not math.isclose(energy, problem.energy(outside), rel_tol=1e-9, abs_tol=1e-9):
        out.problems.append(f"cut value {energy} != labeling energy {problem.energy(outside)}")
    surface = reconstruction.extract_surface(mesh)
    sparse = reconstruction.rasterize(mesh, surface, rooms.RESOLUTION, rooms.BOUNDS)
    out.quality["map_mcc"] = metrics.mcc_eval(inp.gt, sparse)[1]

    # routes on the sparse map, scored on the ground truth
    prox = planning.build_proximity_map(sparse, PROX_CLAMP)
    rm = planning.build_roadmap(sparse, prox, ROADMAP_SAMPLES, ROADMAP_RADIUS, inp.seed, PLANNER)
    cost = 0.0
    for (a, b), gt_cost in zip(inp.queries, inp.gt_costs):
        try:
            path = _plan(rm, sparse, prox, a, b)
        except planning.PlanningError:
            out.fail("planning")
            cost += FAILED_QUERY_RATIO * gt_cost
            continue
        problem = _route_problem(path, sparse, prox, a, b)
        if problem:
            out.problems.append(f"sparse-map route: {problem}")
        cost += planning.path_cost(inp.gt_prox, path.waypoints, PLANNER)
    out.quality["plan_cost_ratio"] = cost / sum(inp.gt_costs)
    return out


# -- flight_gust -----------------------------------------------------------------

V_MAX, A_LAT, A_LON = 1.0, 1.0, 1.0  # speed plan limits [m/s, m/s^2, m/s^2]
FLIGHT_S = 14.0  # flown time, fixed so that every seed does the same work [s]
SETTLE_S = 5.0  # least flown time left after the route ends [s]
GUST_S = 1.0  # [s]
GUST_VEL = (0.0, 4.0, 0.0)  # [m/s]
RECOVERY_BAND = 0.1  # [m]
ROUTE_DIST = (3.0, 4.5)  # straight-line start-goal distance [m]
ROUTE_CLEARANCE = 1.0  # ground-truth clearance of the route's endpoints [m]
ROUTE_HEIGHT = (1.0, 1.5)  # height band of the route's endpoints [m]


def _endpoint_pairs(gt, gt_prox, rng, min_dist: float):
    """Endless stream of pairs of ground-truth voxel centres at flying
    height with wide clearance."""
    free = np.argwhere(gt_prox.distances >= ROUTE_CLEARANCE)
    z = gt.index_to_center(free)[:, 2]
    free = free[(z >= ROUTE_HEIGHT[0]) & (z <= ROUTE_HEIGHT[1])]
    while True:
        a, b = (gt.index_to_center(free[rng.integers(len(free))]) for _ in range(2))
        if np.linalg.norm(a - b) >= min_dist:
            yield a, b


@dataclass
class FlightInputs:
    seed: int
    gt: grid.OccupancyGrid
    path: planning.PlannedPath


def setup_flight_gust(seed: int) -> FlightInputs:
    """A route on the ground-truth grid of the seed's room.

    Prefers a route with an interior waypoint, so that the flight turns;
    the first straight route is the fallback. Either way the timed route
    leaves SETTLE_S of the flight for the vehicle to settle at the goal.
    """
    gt = rooms.ground_truth_grid(rooms.make_pillars(seed))
    prox = planning.build_proximity_map(gt, PROX_CLAMP)
    rm = planning.build_roadmap(gt, prox, ROADMAP_SAMPLES, ROADMAP_RADIUS, seed, PLANNER)
    fallback = None
    pairs = _endpoint_pairs(gt, prox, np.random.default_rng(seed), ROUTE_DIST[0])
    for _ in range(500):
        a, b = next(pairs)
        if np.linalg.norm(a - b) > ROUTE_DIST[1]:
            continue
        try:
            path = _plan(rm, gt, prox, a, b)
        except planning.PlanningError:
            continue
        problem = _route_problem(path, gt, prox, a, b)
        if problem:
            raise CheckFailed(f"flight route: {problem}")
        if planning.speed_plan(path, V_MAX, A_LAT, A_LON).times[-1] > FLIGHT_S - SETTLE_S:
            continue
        if len(path.waypoints) > 2:
            return FlightInputs(seed, gt, path)
        fallback = fallback or path
    if fallback is None:
        raise CheckFailed("no flyable route in the room")
    return FlightInputs(seed, gt, fallback)


def run_flight_gust(inp: FlightInputs) -> PassResult:
    out = PassResult()
    timed = planning.speed_plan(inp.path, V_MAX, A_LAT, A_LON)
    spline = trajectory.spline_from_path(timed.waypoints, timed.times)
    for wp, t in zip(timed.waypoints, timed.times):
        if not np.allclose(_eval_spline(spline, float(t)).position, wp, atol=1e-6):
            out.problems.append(f"spline misses waypoint {wp} at t={t}")
            break
    onset = 0.5 * spline.duration
    wind = WindProfile(gusts=((onset, GUST_S, GUST_VEL),))
    start = VehicleState(pose=Pose(np.array(timed.waypoints[0])))
    t0 = time.perf_counter()
    log = scenarios.run_closed_loop(
        scenarios.spline_ref_fn(spline), FLIGHT_S, wind=wind, seed=inp.seed, initial_state=start
    )
    out.loop_s = time.perf_counter() - t0

    ticks = round(FLIGHT_S / IMU_PERIOD)
    truth = np.array(log.truth_pos)
    rows = (truth, np.array(log.est_pos), np.array(log.ref_pos), np.array(log.thrust))
    if len(log.t) != ticks or any(len(r) != ticks for r in rows):
        out.problems.append(f"flight log has {len(log.t)} rows for {ticks} IMU ticks")
        return out
    if not all(np.all(np.isfinite(r)) for r in rows):
        out.problems.append("flight log holds NaN")
        return out
    out.attempted = ticks
    idx = inp.gt.world_to_index(truth)
    blocked = ~inp.gt.in_bounds(idx)
    inside = ~blocked
    blocked[inside] = inp.gt.obstacle_mask()[tuple(idx[inside].T)]
    if blocked.any():
        out.failures["collision"] = int(blocked.sum())

    err = log.position_error()
    rec = metrics.recovery_time(log.times(), err, onset, RECOVERY_BAND)
    out.quality.update(
        track_rms_m=metrics.rms(err),
        track_max_m=float(err.max()),
        # never back in the band: censored at the end of the flight
        gust_recovery_s=rec if rec is not None else FLIGHT_S - onset,
        est_rms_m=metrics.rms(log.estimate_error()),
    )
    return out


WORKLOADS = {
    "vo_corridor": (setup_vo_corridor, run_vo_corridor),
    "map_room": (setup_map_room, run_map_room),
    "flight_gust": (setup_flight_gust, run_flight_gust),
}
