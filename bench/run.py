"""Benchmark of simulator speed, sweep throughput and serve latency.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace 0|1] [--quick] [--out FILE]

Runs each workload (all four by default) in its own child process
(`workloads.py`) with a hard deadline, prints every metric with its
unit, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json and
``--trace 1`` the per-layer ones.  Times are normalized to a host of
nominal speed (see `workloads.reference_s`); the report keeps them as
measured too.  ``setup_s`` is the median over three fresh processes of
the time from process start to the first timed operation.  An operation
that raises, fails verification, differs from ``golden.json`` or is cut
off by the deadline counts as failed, and any failure makes the exit
code 1.  ``--write-golden`` regenerates
``golden.json`` from a quick run at seed 7.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("kernels_graph", "soc_fullsystem", "dse_sweep", "serve_mixed")
GOLDEN_SEED = 7
SETUP_SAMPLES = 3
#: Set-up plus the overshoot of the last whole round, beyond --seconds.
NOMINAL_EXTRA_S = 10.0
#: A child may take this many times its nominal length before it is killed.
DEADLINE_FACTOR = 3.0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def check_checkout() -> None:
    """Refuse to run without the program next to the benchmark."""
    missing = [path for path in (ROOT / "src" / "repro" / "__init__.py",
                                 ROOT / "BENCHMARK.json")
               if not path.is_file()]
    if missing:
        sys.exit(f"bench: missing {', '.join(str(p) for p in missing)}; "
                 "run from a checkout of the repository")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def _stop_group(pgid: int) -> None:
    """Kill whatever is left of a child's process group, then wait until
    the group is gone (bounded: orphans are reaped by init)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_child(argv: list[str], deadline_s: float) -> tuple[list[dict], bool, int]:
    """Run ``workloads.py`` with ``argv``; returns (JSON lines, timed out,
    exit code).  The child and everything it starts share one process
    group, which is killed on overrun and swept on exit."""
    cmd = [sys.executable, str(BENCH / "workloads.py"), *argv,
           "--t-spawn", repr(time.perf_counter())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env(), start_new_session=True)
    timed_out = False
    try:
        stdout, __ = proc.communicate(timeout=deadline_s)
    except subprocess.TimeoutExpired:
        timed_out = True
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, __ = proc.communicate()
    _stop_group(proc.pid)
    lines = []
    for line in stdout.splitlines():
        try:
            lines.append(json.loads(line))
        except ValueError:
            pass  # a traceback, or a line cut short by the kill
    return lines, timed_out, proc.returncode


def run_workload(name: str, args, spec: dict) -> dict:
    common = ["--workload", name, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--out-dir", str(OUT)]
    if args.quick:
        common.append("--quick")
    if args.write_golden:
        common += ["--golden", ""]
    errors: list[str] = []
    setup_samples: list[float] = []
    setup_walls: list[float] = []
    attempted = failed = 0
    if not args.trace and not args.quick:
        for __ in range(SETUP_SAMPLES - 1):
            lines, timed_out, code = run_child(
                common + ["--setup-only"], DEADLINE_FACTOR * NOMINAL_EXTRA_S)
            ready = [line for line in lines if "setup_ready_s" in line]
            if timed_out or code != 0 or not ready:
                attempted += 1
                failed += 1
                errors.append(f"set-up probe failed (exit {code}, "
                              f"timed out {timed_out})")
            else:
                setup_samples.append(ready[0]["setup_ready_s"])
                setup_walls.append(ready[0]["setup_wall_s"])

    nominal = (0.0 if args.quick else args.seconds) + NOMINAL_EXTRA_S
    lines, timed_out, code = run_child(common, DEADLINE_FACTOR * nominal)
    reports = [line["report"] for line in lines if "report" in line]
    progress = [line["progress"] for line in lines if "progress" in line]
    if reports and not timed_out and code == 0:
        report = reports[0]
        setup_samples.append(report["setup_ready_s"])
        setup_walls.append(report["setup_wall_s"])
        attempted += report["attempted"]
        failed += report["failed"]
        errors += report["errors"]
    else:
        # Overrun or crash: the op in flight and everything after it is
        # lost; count what finished plus the one that did not.
        report = {"metrics": {}, "extra": {}}
        done = progress[-1] if progress else {"attempted": 0, "failed": 0}
        attempted += done["attempted"] + 1
        failed += done["failed"] + 1
        errors.append(f"workload child {'overran its deadline' if timed_out else f'exited with {code}'}")

    metrics = {}
    if report["metrics"]:
        kind = "per_layer" if args.trace else "end_to_end"
        values = dict(report["metrics"])
        if not args.trace:
            values["setup_s"] = statistics.median(setup_samples)
        expected = [metric["name"] for metric in spec[kind]]
        if sorted(values) != sorted(expected):
            raise SystemExit(f"bench: {name} emitted {sorted(values)}, "
                             f"BENCHMARK.json lists {sorted(expected)}")
        metrics = {metric["name"]: {"value": values[metric["name"]],
                                    "unit": metric["unit"]}
                   for metric in spec[kind]}
    return {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": metrics,
        "setup_samples_s": setup_samples,
        "setup_walls_s": setup_walls,
        "extra": dict(report.get("extra", {}),
                      **({"wall_setup_s": statistics.median(setup_walls)}
                         if setup_walls and not args.trace else {})),
        "per_round": report.get("per_round"),
        "digest": report.get("digest"),
        "round0": report.get("round0", {}),
        "golden": report.get("golden"),
        "attribution": report.get("attribution"),
        "trace_file": report.get("trace_file"),
    }


def print_workload(name: str, result: dict) -> None:
    print(f"== {name}: {result['attempted']} ops, {result['failed']} failed")
    for metric, value in result["metrics"].items():
        print(f"  {metric:28s} {value['value']:>16.6g} {value['unit']}")
    for key, value in result["extra"].items():
        shown = f"{value:>16.6g}" if isinstance(value, (int, float)) else value
        print(f"  {key:28s} {shown}")
    if result["golden"] is not None:
        print(f"  {'golden digests':28s} {result['golden']['checked']} checked, "
              f"{result['golden']['mismatched']} mismatched")
    if result["digest"]:
        print(f"  {'round-0 digest':28s} {result['digest']}")
    if result["trace_file"]:
        print(f"  {'trace':28s} {result['trace_file']}")
    for error in result["errors"]:
        print(f"  FAILED: {error}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed phase length (default: run_seconds "
                             "from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one round per workload, one set-up sample")
    parser.add_argument("--out", type=Path,
                        help="write the full report here (default: "
                             "bench/out/<workload>-seed<N>-trace<T>.json)")
    parser.add_argument("--write-golden", action="store_true",
                        help="rewrite golden.json from a quick seed-7 run")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    check_checkout()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.write_golden:
        args.quick, args.trace, args.seed = True, 0, GOLDEN_SEED
    names = [args.workload] if args.workload else list(WORKLOADS)
    OUT.mkdir(parents=True, exist_ok=True)
    results = {}
    for name in names:
        results[name] = run_workload(name, args, spec)
        print_workload(name, results[name])

    if args.write_golden:
        golden = {name: result["round0"] for name, result in results.items()}
        (BENCH / "golden.json").write_text(
            json.dumps(golden, indent=1, sort_keys=True) + "\n")
    out = args.out or OUT / (f"{args.workload or 'all'}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "quick": args.quick, "workloads": results}, indent=1) + "\n")

    correct = all(result["correct"] for result in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{metric}": value for name, result in results.items()
                   for metric, value in result["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
