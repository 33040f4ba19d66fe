"""Compare two sets of benchmark runs.

    python3 bench/compare.py A1.json A2.json ... -- B1.json B2.json ...

Each file is a report written by ``run.py --out``.  Set A is the base
(the parent commit), set B the change; runs are paired by position, so
interleave them when measuring (A1, B1, A2, B2, ...).

For every workload and metric the table gives each side's median and
quartiles, the ratio B/A, and the pairs B won.  End-to-end metrics get a
verdict against their bound in BENCHMARK.json:

* unresolved — either side's quartile spread (as a share of its median)
  is wider than the bound, and B does not read better in every run;
* worse — B's median is worse than A's by more than the bound;
* better — B wins at least nine tenths of the pairs and the medians
  differ by more than A's quartile distance;
* unchanged — otherwise.

Per-layer metrics have no bound and are listed without a verdict, as
are the figures each run prints but BENCHMARK.json does not gate
(`UNGATED`): rates and set-up time as measured, before normalizing for
the host's speed, and op latencies (job latencies on ``serve_mixed``).  The
round-0 digests of simulated results, and ``model_err_pct``, must be
identical between runs with the same seed, and B may not fail a larger
share of its operations than A on any workload.  The exit code is 1 if
any verdict is "worse", any simulated result differs, or B fails more.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Figures printed by every run but not gated: name -> (unit, better).
UNGATED = {
    "wall_ops_per_s": ("1/s", "higher"),
    "wall_sim_cycles_per_s": ("cycles/s", "higher"),
    "wall_setup_s": ("s", "lower"),
    "op_p50_s": ("s", "lower"),
    "op_tail_s": ("s", "lower"),
    "job_hit_p50_s": ("s", "lower"),
    "job_miss_p50_s": ("s", "lower"),
}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, __, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(a: list[float], b: list[float], better: str, bound) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    a_med, b_med = statistics.median(a), statistics.median(b)
    a_q1, a_q3 = quartiles(a)
    b_q1, b_q3 = quartiles(b)
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    pairs = min(len(a), len(b))
    row = {"a_median": a_med, "a_q1": a_q1, "a_q3": a_q3,
           "b_median": b_med, "b_q1": b_q1, "b_q3": b_q3,
           "ratio": b_med / a_med if a_med else float("nan"),
           "wins": wins, "pairs": pairs, "verdict": "n/a"}
    if bound is None:
        return row
    spread = max((a_q3 - a_q1) / abs(a_med) if a_med else 0.0,
                 (b_q3 - b_q1) / abs(b_med) if b_med else 0.0)
    worse_by = sign * (a_med - b_med) / abs(a_med) if a_med else 0.0
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    if spread > bound and not all_better:
        row["verdict"] = "unresolved"
    elif worse_by > bound:
        row["verdict"] = "worse"
    elif wins >= 0.9 * pairs and abs(b_med - a_med) > (a_q3 - a_q1):
        row["verdict"] = "better"
    else:
        row["verdict"] = "unchanged"
    return row


def load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(path).read_text()) for path in paths]


def by_workload(runs: list[dict]) -> dict:
    """workload -> [(seed, result), ...] in file order; a report may hold
    one workload or several."""
    grouped: dict = {}
    for run in runs:
        for name, result in run["workloads"].items():
            grouped.setdefault(name, []).append((run["seed"], result))
    return grouped


def compare(a_runs: list[dict], b_runs: list[dict],
            spec: dict) -> tuple[list, list, list]:
    """Rows of the metric table, simulated-result differences between
    runs of the same seed, and workloads on which B fails more."""
    kinds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    a_sets, b_sets = by_workload(a_runs), by_workload(b_runs)
    rows = []
    differences = []
    failures = []
    for workload in [name for name in a_sets if name in b_sets]:
        a_results = [result for __, result in a_sets[workload]]
        b_results = [result for __, result in b_sets[workload]]
        for metric in a_results[0]["metrics"]:
            row = verdict([r["metrics"][metric]["value"] for r in a_results],
                          [r["metrics"][metric]["value"] for r in b_results],
                          kinds[metric]["better"], bounds.get(metric))
            row.update(workload=workload, metric=metric,
                       unit=kinds[metric]["unit"])
            rows.append(row)
        for metric, (unit, better) in UNGATED.items():
            if all(metric in r.get("extra", {}) for r in a_results + b_results):
                row = verdict([r["extra"][metric] for r in a_results],
                              [r["extra"][metric] for r in b_results],
                              better, None)
                row.update(workload=workload, metric=metric, unit=unit)
                rows.append(row)
        counts = [(sum(r["failed"] for r in side), sum(r["attempted"] for r in side))
                  for side in (a_results, b_results)]
        (a_failed, a_attempted), (b_failed, b_attempted) = counts
        if b_failed * max(a_attempted, 1) > a_failed * max(b_attempted, 1):
            failures.append(f"{workload}: B failed {b_failed} of {b_attempted} "
                            f"ops, A {a_failed} of {a_attempted}")
        seen: dict = {}
        for seed, result in a_sets[workload] + b_sets[workload]:
            facts = {"digest": result.get("digest"),
                     "model_err_pct": result.get("extra", {}).get("model_err_pct")}
            first = seen.setdefault(seed, facts)
            for fact, value in facts.items():
                if value != first[fact]:
                    differences.append(f"{workload} seed {seed}: "
                                       f"{fact} {first[fact]} != {value}")
    return rows, differences, failures


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        sys.exit(__doc__)
    split = argv.index("--")
    a_paths, b_paths = argv[:split], argv[split + 1:]
    if not a_paths or not b_paths:
        sys.exit("compare: need at least one report on each side of --")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, differences, failures = compare(load(a_paths), load(b_paths), spec)
    print(f"A: {len(a_paths)} runs, B: {len(b_paths)} runs")
    print(f"{'workload':15s} {'metric':26s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'B/A':>7s} {'won':>6s}  verdict")
    for row in rows:
        a = f"{row['a_median']:.5g} [{row['a_q1']:.5g}, {row['a_q3']:.5g}]"
        b = f"{row['b_median']:.5g} [{row['b_q1']:.5g}, {row['b_q3']:.5g}]"
        print(f"{row['workload']:15s} {row['metric']:26s} {a:>34s} {b:>34s} "
              f"{row['ratio']:7.3f} {row['wins']:>2d}/{row['pairs']:<3d}  "
              f"{row['verdict']}")
    for line in differences:
        print(f"SIMULATED RESULTS DIFFER: {line}")
    if not differences:
        print("simulated results: identical across runs of the same seed")
    for line in failures:
        print(f"MORE FAILURES IN B: {line}")
    worse = [row for row in rows if row["verdict"] == "worse"]
    return 1 if worse or differences or failures else 0


if __name__ == "__main__":
    sys.exit(main())
