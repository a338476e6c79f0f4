"""In-memory span tracing of mavnav's public entry points.

`instrument(tracer)` swaps each entry point in ENTRY_POINTS for a wrapper
that records a span (name, start, end, parent span, attributes) and
restores the originals on exit. Module-level functions are replaced in
the module that the callers look them up in, methods on their class, so
calls made inside mavnav (``run_vo`` -> ``estimate_motion``,
``label_tets`` -> ``FlowNetwork.solve``) are traced too. Spans stay in
memory until `Tracer.write` dumps them.

`geometry` has no spans: it is called ~20 times per simulator step, so a
wrapper would mostly time itself. Its cost shows in the self time of
its callers.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field

import numpy as np

from mavnav import (
    control,
    delaunay,
    estimation,
    grid,
    maxflow,
    metrics,
    planning,
    reconstruction,
    scenarios,
    simulation,
    trajectory,
    vo,
)

LAYERS = (
    "vo", "delaunay", "reconstruction", "maxflow", "grid", "metrics",
    "planning", "trajectory", "simulation", "estimation", "control", "scenarios",
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span store with a parent stack; single-threaded by design."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sp = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        rows = [
            {"id": i, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "attrs": s.attrs}
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w") as f:
            json.dump(rows, f, default=float)


# -- what each entry point records besides its timing ------------------------


def _n_rows(a) -> int:
    return int(np.atleast_2d(np.asarray(a)).shape[0])


def _quad_match(args, kw, out):
    return {"quads": len(out)}


def _estimate_motion(args, kw, out):
    _, inliers = out
    return {"inlier_frac": len(inliers) / len(args[0])}


def _tetrahedralize(args, kw, out):
    n_in = _n_rows(args[0])
    return {"points": n_in, "vertices": len(out.points),
            "merged": n_in - len(out.points), "tets": len(out.finite_tet_ids())}


def _build_cut_problem(args, kw, out):
    keyframes = args[1]
    n_points = sum(len(kf.points) for kf in keyframes)
    arcs = len(out.edges) + int(np.count_nonzero(out.source_caps)) + int(
        np.count_nonzero(out.sink_caps))
    return {"rays": out.n_rays, "grazing": n_points - out.n_rays,
            "nodes": out.n_nodes, "arcs": arcs}


def _extract_surface(args, kw, out):
    return {"tris": len(out.triangles), "watertight": bool(out.watertight)}


def _rasterize(args, kw, out):
    return {"voxels": int(np.prod(out.dims))}


def _integrate_scan(args, kw, out):
    return {"rays": _n_rows(args[2])}


def _build_roadmap(args, kw, out):
    return {"edges": len(out.edges)}


def _segment_clear(args, kw, out):
    return {"clear": bool(out)}


def _shorten_path(args, kw, out):
    return {"before": len(args[0].waypoints), "after": len(out.waypoints)}


def _filter_counts(args, kw, out):
    f = args[0]
    return {"filter": id(f), "stale": f.dropped_stale, "gated": f.dropped_gated}


def _controller_counts(args, kw, out):
    c = args[0]
    return {"controller": id(c), "freefall": c.freefall_events}


# (owner, attribute, span name, attribute recorder or None)
ENTRY_POINTS = (
    (vo, "run_vo", "vo.run_vo", None),
    (vo, "quad_match", "vo.quad_match", _quad_match),
    (vo, "estimate_motion", "vo.estimate_motion", _estimate_motion),
    (delaunay, "tetrahedralize", "delaunay.tetrahedralize", _tetrahedralize),
    (delaunay.TetMesh, "locate", "delaunay.locate", None),
    (reconstruction, "label_tets", "reconstruction.label_tets", None),
    (reconstruction, "build_cut_problem", "reconstruction.build_cut_problem", _build_cut_problem),
    (reconstruction, "extract_surface", "reconstruction.extract_surface", _extract_surface),
    (reconstruction, "rasterize", "reconstruction.rasterize", _rasterize),
    (maxflow.FlowNetwork, "solve", "maxflow.solve", None),
    (grid, "integrate_scan", "grid.integrate_scan", _integrate_scan),
    (metrics, "mcc_eval", "metrics.mcc_eval", None),
    (metrics, "rel_trans_error", "metrics.rel_trans_error", None),
    (planning, "build_proximity_map", "planning.build_proximity_map", None),
    (planning, "build_roadmap", "planning.build_roadmap", _build_roadmap),
    (planning, "segment_clear", "planning.segment_clear", _segment_clear),
    (planning, "plan_path", "planning.plan_path", None),
    (planning, "shorten_path", "planning.shorten_path", _shorten_path),
    (planning, "speed_plan", "planning.speed_plan", None),
    (trajectory, "spline_from_path", "trajectory.spline_from_path", None),
    (scenarios, "eval_spline", "trajectory.eval_spline", None),
    (simulation.Simulator, "step", "simulation.step", None),
    (estimation.NavFilter, "predict", "estimation.predict", None),
    (estimation.NavFilter, "correct", "estimation.correct", _filter_counts),
    (control.Controller, "step", "control.step", _controller_counts),
    (scenarios, "run_closed_loop", "scenarios.run_closed_loop", None),
)


def _wrap(tracer: Tracer, fn, name: str, record):
    @functools.wraps(fn)
    def traced(*args, **kw):
        with tracer.span(name) as sp:
            try:
                out = fn(*args, **kw)
            except Exception as exc:
                sp.attrs["error"] = type(exc).__name__
                raise
            if record is not None:
                sp.attrs.update(record(args, kw, out))
            return out

    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Trace every entry point while the block runs.

    An entry point that no longer exists raises KeyError, so that the
    benchmark is updated along with the code it measures.
    """
    saved = []
    try:
        for owner, attr, name, record in ENTRY_POINTS:
            fn = owner.__dict__[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, _wrap(tracer, fn, name, record))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


# -- per-layer metrics -----------------------------------------------------------

# (name, unit, better); per-call timings are medians over every traced
# call, counts cover one set-up plus one pass.
LAYER_METRICS = (
    ("vo.quad_match_ms", "ms", "lower"),
    ("vo.estimate_motion_ms", "ms", "lower"),
    ("vo.quads_per_frame", "count", "higher"),
    ("vo.inlier_frac", "ratio", "higher"),
    ("vo.fail_insufficient", "count", "lower"),
    ("vo.fail_no_consensus", "count", "lower"),
    ("delaunay.tetrahedralize_s", "s", "lower"),
    ("delaunay.us_per_point", "us", "lower"),
    ("delaunay.vertices", "count", "higher"),
    ("delaunay.tets", "count", "lower"),
    ("delaunay.merged_points", "count", "lower"),
    ("delaunay.locate_calls", "count", "lower"),
    ("delaunay.locate_us", "us", "lower"),
    ("reconstruction.build_cut_problem_s", "s", "lower"),
    ("reconstruction.rays_used", "count", "higher"),
    ("reconstruction.rays_grazing", "count", "lower"),
    ("reconstruction.label_tets_self_s", "s", "lower"),
    ("reconstruction.extract_surface_s", "s", "lower"),
    ("reconstruction.surface_tris", "count", "lower"),
    ("reconstruction.watertight", "ratio", "higher"),
    ("reconstruction.rasterize_s", "s", "lower"),
    ("reconstruction.rasterize_us_per_voxel", "us", "lower"),
    ("maxflow.solve_s", "s", "lower"),
    ("maxflow.nodes", "count", "lower"),
    ("maxflow.arcs", "count", "lower"),
    ("grid.integrate_scan_s", "s", "lower"),
    ("grid.rays", "count", "higher"),
    ("grid.us_per_ray", "us", "lower"),
    ("metrics.mcc_eval_ms", "ms", "lower"),
    ("planning.build_proximity_map_ms", "ms", "lower"),
    ("planning.build_roadmap_s", "s", "lower"),
    ("planning.roadmap_edges", "count", "higher"),
    ("planning.segment_clear_calls", "count", "lower"),
    ("planning.segment_clear_reject_frac", "ratio", "lower"),
    ("planning.plan_path_ms", "ms", "lower"),
    ("planning.shorten_path_ms", "ms", "lower"),
    ("planning.waypoints_removed_frac", "ratio", "higher"),
    ("trajectory.spline_from_path_ms", "ms", "lower"),
    ("trajectory.eval_spline_us", "us", "lower"),
    ("simulation.step_us", "us", "lower"),
    ("simulation.steps", "count", "lower"),
    ("estimation.predict_us", "us", "lower"),
    ("estimation.correct_us", "us", "lower"),
    ("estimation.corrections", "count", "higher"),
    ("estimation.dropped_stale", "count", "lower"),
    ("estimation.dropped_gated", "count", "lower"),
    ("control.step_us", "us", "lower"),
    ("control.freefall_events", "count", "lower"),
    ("scenarios.loop_self_s", "s", "lower"),
) + tuple((f"{layer}.self_frac", "ratio", "lower") for layer in LAYERS)


def _p50(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


class SpanTable:
    """Durations, self times and roots of a tracer's spans, by name."""

    def __init__(self, tracer: Tracer, counted_roots):
        spans = tracer.spans
        self.spans = spans
        self.dur = np.array([s.duration for s in spans])
        children = np.zeros(len(spans))
        self.root = np.empty(len(spans), dtype=int)
        for i, s in enumerate(spans):  # parents precede their children
            if s.parent >= 0:
                children[s.parent] += self.dur[i]
                self.root[i] = self.root[s.parent]
            else:
                self.root[i] = i
        self.self_time = self.dur - children
        counted = np.isin(self.root, list(counted_roots))
        self._all: dict[str, list[int]] = {}
        self._counted: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            self._all.setdefault(s.name, []).append(i)
            if counted[i]:
                self._counted.setdefault(s.name, []).append(i)

    def calls(self, name: str) -> list[int]:
        return self._all.get(name, [])

    def counted(self, name: str) -> list[int]:
        return self._counted.get(name, [])

    def p50(self, name: str, scale: float = 1.0, self_time: bool = False) -> float:
        t = self.self_time if self_time else self.dur
        return _p50(t[self.calls(name)]) * scale

    def attr_sum(self, name: str, key: str) -> float:
        return float(sum(self.spans[i].attrs.get(key, 0) for i in self.counted(name)))

    def errors(self, name: str, error: str) -> int:
        return sum(self.spans[i].attrs.get("error") == error for i in self.counted(name))

    def last_per_owner(self, name: str, owner: str, key: str) -> float:
        last = {self.spans[i].attrs[owner]: self.spans[i].attrs[key]
                for i in self.counted(name) if owner in self.spans[i].attrs}
        return float(sum(last.values()))

    def per_unit(self, name: str, key: str, scale: float) -> float:
        idx = [i for i in self.calls(name) if self.spans[i].attrs.get(key)]
        return _p50([self.dur[i] / self.spans[i].attrs[key] for i in idx]) * scale

    def self_frac(self, pass_roots) -> dict[str, float]:
        in_pass = np.isin(self.root, list(pass_roots))
        total = float(self.dur[list(pass_roots)].sum())
        out = {layer: 0.0 for layer in LAYERS}
        for i in np.nonzero(in_pass)[0]:
            layer = self.spans[i].layer
            if layer in out:
                out[layer] += self.self_time[i]
        return {layer: (t / total if total > 0 else 0.0) for layer, t in out.items()}


def layer_metrics(tracer: Tracer, counted_roots, pass_roots) -> dict[str, float]:
    """Every LAYER_METRICS value from the spans of a traced run.

    `counted_roots` are the root spans (one set-up and one pass) whose
    calls the counts cover; `pass_roots` are every traced pass, over
    which layer self time is shared out.
    """
    t = SpanTable(tracer, counted_roots)
    n_quads = len(t.counted("vo.quad_match"))
    ok_motion = [i for i in t.counted("vo.estimate_motion") if "inlier_frac" in t.spans[i].attrs]
    clear = t.counted("planning.segment_clear")
    wp_before = t.attr_sum("planning.shorten_path", "before")
    surfaces = t.counted("reconstruction.extract_surface")
    rays = t.attr_sum("grid.integrate_scan", "rays")
    m = {
        "vo.quad_match_ms": t.p50("vo.quad_match", 1e3),
        "vo.estimate_motion_ms": t.p50("vo.estimate_motion", 1e3),
        "vo.quads_per_frame": t.attr_sum("vo.quad_match", "quads") / n_quads if n_quads else 0.0,
        "vo.inlier_frac": _p50([t.spans[i].attrs["inlier_frac"] for i in ok_motion]),
        "vo.fail_insufficient": t.errors("vo.estimate_motion", "InsufficientDataError"),
        "vo.fail_no_consensus": t.errors("vo.estimate_motion", "NoMotionEstimateError"),
        "delaunay.tetrahedralize_s": t.p50("delaunay.tetrahedralize"),
        "delaunay.us_per_point": t.per_unit("delaunay.tetrahedralize", "points", 1e6),
        "delaunay.vertices": t.attr_sum("delaunay.tetrahedralize", "vertices"),
        "delaunay.tets": t.attr_sum("delaunay.tetrahedralize", "tets"),
        "delaunay.merged_points": t.attr_sum("delaunay.tetrahedralize", "merged"),
        "delaunay.locate_calls": len(t.counted("delaunay.locate")),
        "delaunay.locate_us": t.p50("delaunay.locate", 1e6),
        "reconstruction.build_cut_problem_s": t.p50("reconstruction.build_cut_problem", self_time=True),
        "reconstruction.rays_used": t.attr_sum("reconstruction.build_cut_problem", "rays"),
        "reconstruction.rays_grazing": t.attr_sum("reconstruction.build_cut_problem", "grazing"),
        "reconstruction.label_tets_self_s": t.p50("reconstruction.label_tets", self_time=True),
        "reconstruction.extract_surface_s": t.p50("reconstruction.extract_surface"),
        "reconstruction.surface_tris": t.attr_sum("reconstruction.extract_surface", "tris"),
        "reconstruction.watertight": (
            t.attr_sum("reconstruction.extract_surface", "watertight") / len(surfaces)
            if surfaces else 0.0),
        "reconstruction.rasterize_s": t.p50("reconstruction.rasterize"),
        "reconstruction.rasterize_us_per_voxel": t.per_unit("reconstruction.rasterize", "voxels", 1e6),
        "maxflow.solve_s": t.p50("maxflow.solve"),
        "maxflow.nodes": t.attr_sum("reconstruction.build_cut_problem", "nodes"),
        "maxflow.arcs": t.attr_sum("reconstruction.build_cut_problem", "arcs"),
        "grid.integrate_scan_s": t.p50("grid.integrate_scan"),
        "grid.rays": rays,
        "grid.us_per_ray": (
            1e6 * float(t.dur[t.counted("grid.integrate_scan")].sum()) / rays if rays else 0.0),
        "metrics.mcc_eval_ms": t.p50("metrics.mcc_eval", 1e3),
        "planning.build_proximity_map_ms": t.p50("planning.build_proximity_map", 1e3),
        "planning.build_roadmap_s": t.p50("planning.build_roadmap"),
        "planning.roadmap_edges": t.attr_sum("planning.build_roadmap", "edges"),
        "planning.segment_clear_calls": len(clear),
        "planning.segment_clear_reject_frac": (
            sum(not t.spans[i].attrs.get("clear", True) for i in clear) / len(clear)
            if clear else 0.0),
        "planning.plan_path_ms": t.p50("planning.plan_path", 1e3),
        "planning.shorten_path_ms": t.p50("planning.shorten_path", 1e3),
        "planning.waypoints_removed_frac": (
            (wp_before - t.attr_sum("planning.shorten_path", "after")) / wp_before
            if wp_before else 0.0),
        "trajectory.spline_from_path_ms": t.p50("trajectory.spline_from_path", 1e3),
        "trajectory.eval_spline_us": t.p50("trajectory.eval_spline", 1e6),
        "simulation.step_us": t.p50("simulation.step", 1e6),
        "simulation.steps": len(t.counted("simulation.step")),
        "estimation.predict_us": t.p50("estimation.predict", 1e6),
        "estimation.correct_us": t.p50("estimation.correct", 1e6),
        "estimation.corrections": len(t.counted("estimation.correct")),
        "estimation.dropped_stale": t.last_per_owner("estimation.correct", "filter", "stale"),
        "estimation.dropped_gated": t.last_per_owner("estimation.correct", "filter", "gated"),
        "control.step_us": t.p50("control.step", 1e6),
        "control.freefall_events": t.last_per_owner("control.step", "controller", "freefall"),
        "scenarios.loop_self_s": t.p50("scenarios.run_closed_loop", self_time=True),
    }
    for layer, frac in t.self_frac(pass_roots).items():
        m[f"{layer}.self_frac"] = frac
    return {k: float(v) for k, v in m.items()}
