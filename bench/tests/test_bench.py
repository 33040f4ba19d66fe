"""Tests of the benchmark itself (run: ``python -m pytest bench/tests -q``).

One quick run per trace mode (one round per workload) feeds most
checks; the rest exercise `compare.py`, the deadline, and the refusal to
run outside a checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
from tracing import attribute  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict:
    """``{trace: (last stdout line, report)}`` of a quick seed-7 run."""
    out = tmp_path_factory.mktemp("bench")
    runs = {}
    for trace in (0, 1):
        path = out / f"trace{trace}.json"
        proc = run_bench("--quick", "--seed", "7", "--trace", str(trace),
                         "--out", str(path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        runs[trace] = last, json.loads(path.read_text())
    return runs


def test_metric_names_match_benchmark_json(runs):
    for trace, (last, report) in runs.items():
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        kind = "per_layer" if trace else "end_to_end"
        assert set(report["workloads"]) == set(WORKLOADS)
        for result in report["workloads"].values():
            assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}


def test_every_metric_has_a_unit_and_a_number(runs):
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for __, report in runs.values():
        for result in report["workloads"].values():
            for name, metric in result["metrics"].items():
                assert metric["unit"] == units[name]
                assert isinstance(metric["value"], (int, float))


def test_nothing_fails(runs):
    for last, report in runs.values():
        assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
        for result in report["workloads"].values():
            assert result["failed"] == 0 and result["errors"] == []


def test_golden_digests_match_at_seed_7(runs):
    for __, report in runs.values():
        for result in report["workloads"].values():
            assert result["golden"]["checked"] > 0
            assert result["golden"]["mismatched"] == 0


def _trace_spans(path: str) -> list[dict]:
    events = json.loads(Path(path).read_text())["traceEvents"]
    return [dict(event["args"], name=event["name"], pid=event["pid"],
                 tid=event["tid"], start=event["ts"] / 1e6,
                 end=(event["ts"] + event["dur"]) / 1e6)
            for event in events]


def test_trace_spans_resolve_their_parents(runs):
    __, report = runs[1]
    for result in report["workloads"].values():
        assert result["attribution"]["unresolved_parents"] == 0
        spans = _trace_spans(result["trace_file"])
        assert spans
        known = {(span["pid"], span["id"]) for span in spans}
        for span in spans:
            if span["parent"] is not None:
                assert (span["pid"], span["parent"]) in known, span


def test_layers_account_for_the_traced_wall(runs):
    __, report = runs[1]
    for name, result in report["workloads"].items():
        acc = result["attribution"]
        layers = acc["driver_layers_s"]
        assert all(value >= -1e-9 for value in layers.values()), name
        assert acc["residual_s"] >= -1e-9, name
        # Where the program's own layers take the wall, the spans must
        # cover it: what no span covers is at most 5% of it.
        if name in ("kernels_graph", "soc_fullsystem"):
            assert acc["residual_s"] <= 0.05 * acc["driver_wall_s"], name
        # The trace file, re-attributed on its own, tells the same story.
        t0, t1 = acc["window_s"]
        drivers = {tuple(driver) for driver in acc["drivers"]}
        again = attribute(_trace_spans(result["trace_file"]), t0, t1, drivers)
        for layer, seconds in layers.items():
            assert again["driver_layers_s"].get(layer, 0.0) == pytest.approx(
                seconds, abs=1e-3), (name, layer)


def _run(seed: int, rate: float, digest: str = "d", failed: int = 0) -> dict:
    return {"seed": seed, "workloads": {"w": {
        "metrics": {"ops_per_s": {"value": rate, "unit": "1/s"}},
        "attempted": 100, "failed": failed,
        "digest": digest, "extra": {"op_p50_s": 1.0 / rate}}}}


SPEC_ONE = {"end_to_end": [{"name": "ops_per_s", "unit": "1/s",
                            "better": "higher", "bound": 0.1}],
            "per_layer": []}


@pytest.mark.parametrize("a, b, expected", [
    ([10.0, 10.1, 9.9, 10.0, 10.05], [10.02, 9.95, 10.1, 10.0, 9.98], "unchanged"),
    ([10.0, 10.1, 9.9, 10.0, 10.05], [8.0, 8.1, 7.9, 8.0, 8.05], "worse"),
    ([10.0, 10.1, 9.9, 10.0, 10.05], [12.0, 12.1, 11.9, 12.0, 12.05], "better"),
    ([10.0, 14.0, 7.0, 12.0, 8.0], [10.0, 9.5, 10.5, 11.0, 9.0], "unresolved"),
])
def test_compare_verdicts(a, b, expected):
    rows, differences, failures = compare.compare(
        [_run(7, x) for x in a], [_run(7, y) for y in b], SPEC_ONE)
    # The ungated latency is listed, without a verdict.
    assert [(row["metric"], row["verdict"]) for row in rows] == [
        ("ops_per_s", expected), ("op_p50_s", "n/a")]
    assert differences == [] and failures == []


def test_compare_flags_differing_simulated_results():
    __, differences, __ = compare.compare([_run(7, 10.0, "x")],
                                          [_run(7, 10.0, "y")], SPEC_ONE)
    assert differences


def test_compare_flags_more_failures_in_b(tmp_path, monkeypatch):
    a = [_run(7, 10.0, failed=1), _run(8, 10.0)]
    b = [_run(7, 12.0, failed=1), _run(8, 12.0, failed=1)]
    __, __, failures = compare.compare(a, b, SPEC_ONE)
    assert failures
    __, __, failures = compare.compare(b, a, SPEC_ONE)
    assert failures == []
    paths = []
    for side, runs in (("a", a), ("b", b)):
        for i, run in enumerate(runs):
            paths.append(tmp_path / f"{side}{i}.json")
            paths[-1].write_text(json.dumps(run))
    spec_path = tmp_path / "BENCHMARK.json"
    spec_path.write_text(json.dumps(SPEC_ONE))
    monkeypatch.setattr(compare, "ROOT", tmp_path)
    argv = [str(p) for p in paths]
    assert compare.main(argv[:2] + ["--"] + argv[2:]) == 1


def test_an_overrun_is_killed_and_counted_as_failed(monkeypatch):
    import run

    monkeypatch.setattr(run, "DEADLINE_FACTOR", 0.1)  # 3.1 s for 30 s
    args = run.parse_args(["--workload", "soc_fullsystem", "--seed", "1",
                           "--seconds", "30", "--trace", "1"])
    result = run.run_workload("soc_fullsystem", args, SPEC)
    assert not result["correct"]
    assert result["failed"] >= 1 and result["attempted"] >= result["failed"]
    assert any("overran" in error for error in result["errors"])
    assert result["metrics"] == {}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "kernels_graph", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
