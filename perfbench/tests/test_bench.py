"""Self-tests of the benchmark: run each workload once untraced and once
traced on the same seed through the command line, and check the output
contract, the output checks and that both runs agree on every quality
number and count.

The runs take about two minutes in all:

    python -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

from perfbench import run

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
# per-layer timings vary run to run, and vo_frames, the sample count of the
# frame timings, grows with the untraced passes; everything else must
# repeat exactly
TIME_UNITS = {"s", "ms", "us", "x"}
TIMINGS = {"trace.overhead_frac", "vo_frame_ms_p50", "vo_frame_ms_p90", "vo_frames", "flight_rtf"}
# the layers each workload is meant to stress
OWNERS = {
    "vo_corridor": ("vo",),
    "map_room": ("reconstruction", "maxflow", "delaunay"),
    "flight_gust": ("simulation", "estimation", "control"),
}


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", "1", "--seconds", "0",
                              "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(proc) -> dict:
    """Every number of the run, from the JSON line before the result."""
    return json.loads(proc.stdout.strip().splitlines()[-2])["report"]


@pytest.fixture(scope="module", params=[w["name"] for w in BENCH["workloads"]])
def runs(request):
    return request.param, run_bench(request.param, 0), run_bench(request.param, 1)


def test_result_line_contract(runs):
    _, plain, traced = runs
    for proc, spec in ((plain, BENCH["end_to_end"]), (traced, BENCH["per_layer"])):
        assert proc.returncode == 0, proc.stderr
        res = result(proc)
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True
        assert res["attempted"] >= 1 and 0 <= res["failed"] <= res["attempted"]
        assert {m: v["unit"] for m, v in res["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec}


def test_same_seed_runs_agree_traced_or_not(runs):
    _, plain, traced = runs
    a, b = report(plain), result(traced)
    units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    quality = [n for n in a if n in units and units[n] not in TIME_UNITS and n not in TIMINGS]
    assert quality, "no quality numbers printed"
    for name in quality:
        assert a[name] == b["metrics"][name]["value"], name
    assert (result(plain)["attempted"], result(plain)["failed"]) == (b["attempted"], b["failed"])


def test_layers_of_the_workload_carry_its_time(runs):
    """Most of a traced pass is self time of the layers the workload is
    meant to stress, and none of it is in the layers it bypasses."""
    workload, _, traced = runs
    m = {k: v["value"] for k, v in result(traced)["metrics"].items()}
    assert sum(m[f"{layer}.self_frac"] for layer in OWNERS[workload]) > 0.75
    for other, layers in OWNERS.items():
        if other != workload:
            assert all(m[f"{layer}.self_frac"] == 0.0 for layer in layers), other


def test_two_traced_runs_repeat_every_count():
    first, second = (result(run_bench("map_room", 1)) for _ in range(2))
    counts = [m for m, v in first["metrics"].items() if v["unit"] == "count"]
    assert first["metrics"]["delaunay.vertices"]["value"] > 0
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_fails_without_the_program(tmp_path):
    """A directory holding only BENCHMARK.json and the benchmark: non-zero
    exit and no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = run_bench("map_room", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_what_the_runs_print():
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    listed = [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]]
    assert listed == list(run.per_layer_metrics())


def test_a_missing_workload_number_fails_the_run(monkeypatch):
    """A map_room pass that yields no plan_cost_ratio is a failed run,
    not a ratio of 0."""
    from perfbench import workloads

    def run_without_routes(_):
        return workloads.PassResult(quality={"map_mcc": 0.5, "grid_mcc": 0.3}, attempted=5)

    monkeypatch.setitem(workloads.WORKLOADS, "map_room", (lambda seed: None, run_without_routes))
    with pytest.raises(workloads.CheckFailed, match="plan_cost_ratio"):
        run.measure("map_room", seed=1, seconds=0.0, trace=False)


def test_a_missing_entry_point_fails_the_traced_run(monkeypatch):
    from perfbench import tracing
    from mavnav import planning

    monkeypatch.setattr(tracing, "ENTRY_POINTS",
                        ((planning, "no_such_function", "planning.none", None),))
    with pytest.raises(KeyError), tracing.instrument(tracing.Tracer()):
        pass
