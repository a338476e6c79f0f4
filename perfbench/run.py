"""mavnav benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload map_room --seed 3 --seconds 30 --trace 0

Run from the repository root. Passes run back to back, each call
waiting for the previous one, until `--seconds` have elapsed and at
least two passes are done. Each pass first builds the workload's inputs
from the seed (set-up; the median is `setup_s`), then runs the stack on
them (the median is `run_s`), so set-up samples are spread over the run
like the passes. The first pass gives the quality numbers and counts;
every later pass must reproduce them exactly. With `--trace 1` every
second pass, set-up included, runs with span tracing on, the per-layer
metrics come from those spans, and the spans are written to
perfbench/results/.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics` (the end-to-end metrics untraced,
the per-layer metrics traced). The lines before it show every metric
with its unit, then one JSON object with the run's metadata and every
number of the run at full precision.
"""

import os

# one BLAS/OpenMP thread, fixed before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MIN_PASSES = 2

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
)
# What a user of each workload sees; reported in the traced run too.
WORKLOAD_METRICS = (
    ("fail_frac", "ratio", "lower"),
    ("vo_frame_ms_p50", "ms", "lower"),
    ("vo_frame_ms_p90", "ms", "lower"),
    ("vo_frames", "count", "higher"),
    ("vo_rte_pct", "%", "lower"),
    ("map_mcc", "mcc", "higher"),
    ("grid_mcc", "mcc", "higher"),
    ("plan_cost_ratio", "ratio", "lower"),
    ("flight_rtf", "x", "higher"),
    ("track_rms_m", "m", "lower"),
    ("track_max_m", "m", "lower"),
    ("gust_recovery_s", "s", "lower"),
    ("est_rms_m", "m", "lower"),
)
# The WORKLOAD_METRICS each workload must produce; a run that misses one
# fails. The others do not apply to the workload and read 0 on it.
PRODUCES = {
    "vo_corridor": ("fail_frac", "vo_frame_ms_p50", "vo_frame_ms_p90", "vo_frames", "vo_rte_pct"),
    "map_room": ("fail_frac", "map_mcc", "grid_mcc", "plan_cost_ratio"),
    "flight_gust": ("fail_frac", "flight_rtf", "track_rms_m", "track_max_m", "gust_recovery_s",
                    "est_rms_m"),
}


def per_layer_metrics():
    """(name, unit, better) of every metric of a traced run."""
    from perfbench.tracing import LAYER_METRICS

    return LAYER_METRICS + WORKLOAD_METRICS + (("trace.overhead_frac", "ratio", "lower"),)


def git_sha() -> str:
    """HEAD's commit id, read from .git without starting a process."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _timed(tracer, name: str, fn, *args):
    """fn(*args) and its wall time, inside a root span when a tracer is given."""
    with tracer.span(name) if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        out = fn(*args)
        return out, time.perf_counter() - t0


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Set up and run one workload.

    Raises CheckFailed when a metric the workload must produce is missing.
    Returns (every number of the run by name, the first PassResult, the
    failed output checks, the tracer or None).
    """
    from perfbench.tracing import Tracer, instrument, layer_metrics
    from perfbench.workloads import WORKLOADS, CheckFailed

    setup, run_pass = WORKLOADS[workload]
    tracer = Tracer() if trace else None
    setup_s, plain_s, traced_s, pass_roots, counted_roots, frame_ms, loop_s = ([] for _ in range(7))
    first = None
    problems = []
    start = time.perf_counter()
    k = 0
    while k < MIN_PASSES or time.perf_counter() - start < seconds:
        traced = trace and k % 2 == 1
        with instrument(tracer) if traced else contextlib.nullcontext():
            setup_root = len(tracer.spans) if traced else None
            inputs, dt_setup = _timed(tracer if traced else None, "bench.setup", setup, seed)
            pass_root = len(tracer.spans) if traced else None
            res, dt_pass = _timed(tracer if traced else None, "bench.pass", run_pass, inputs)
        if traced:
            traced_s.append(dt_pass)
            pass_roots.append(pass_root)
            counted_roots = counted_roots or [setup_root, pass_root]
        else:
            setup_s.append(dt_setup)
            plain_s.append(dt_pass)
            loop_s.append(res.loop_s)
            frame_ms += res.frame_ms
        problems += res.problems
        if first is None:
            first = res
        elif (res.quality, res.failures, res.attempted) != (first.quality, first.failures, first.attempted):
            problems.append(f"pass {k} did not reproduce the first pass: {res.quality} {res.failures}")
        k += 1

    q = first.quality
    fail_frac = first.failed / first.attempted if first.attempted else 1.0
    report = {
        "setup_s": statistics.median(setup_s),
        "run_s": statistics.median(plain_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_frac": fail_frac,
    }
    if frame_ms:
        deciles = statistics.quantiles(frame_ms, n=10)
        report.update(vo_frame_ms_p50=deciles[4], vo_frame_ms_p90=deciles[8],
                      vo_frames=len(frame_ms))
    if any(loop_s):
        from perfbench.workloads import FLIGHT_S

        report["flight_rtf"] = FLIGHT_S / statistics.median(loop_s)
    report.update(q)
    missing = [n for n in PRODUCES[workload] if n not in report]
    if missing:
        raise CheckFailed("; ".join(problems + [f"{workload} did not measure {', '.join(missing)}"]))
    for name, _, _ in WORKLOAD_METRICS:
        report.setdefault(name, 0.0)
    report["pass_s"] = [round(t, 3) for t in plain_s]
    report["failures"] = dict(first.failures)
    if trace:
        report.update(layer_metrics(tracer, counted_roots, pass_roots))
        report["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
    return report, first, problems, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "mavnav" / "__init__.py").is_file():
        print(f"perfbench: no mavnav sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench.workloads import WORKLOADS, CheckFailed

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")

    try:
        report, first, problems, tracer = measure(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except CheckFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    per_layer = tuple((n, u) for n, u, _ in per_layer_metrics())
    shown = END_TO_END + (per_layer if args.trace else tuple((n, u) for n, u, _ in WORKLOAD_METRICS))
    print(f"# {args.workload} seed={args.seed} untraced pass_s={report['pass_s']} "
          f"failures={report['failures']}")
    for name, unit in shown:
        print(f"{name:40s} {report[name]:14.6g} {unit}")
    print(json.dumps({"metadata": metadata(), "report": report}))
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    if args.trace:
        out_dir = BENCH_DIR / "results"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
    names = per_layer if args.trace else END_TO_END
    metrics = {n: {"value": float(report[n]), "unit": u} for n, u in names}
    print(json.dumps({
        "correct": not problems,
        "attempted": int(first.attempted),
        "failed": int(first.failed),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
