#!/usr/bin/env python3
"""Records perfbench baselines and diffs new runs against them.

    scripts/perf_compare.py record  --workload W [--baseline F] RUNS...
    scripts/perf_compare.py compare --workload W [--baseline F] RUNS...

RUNS are files holding perfbench result lines: the JSON object that
`python3 perfbench/run.py --workload W --seed N --seconds 40 --trace 0`
prints last (other lines are ignored). Collect one file per run, or
append the result lines of several runs to one file.

`record` stores, for workload W in the baseline file (default
BENCH_perfbench.json at the repository root), the median of every
metric over RUNS and its noise band: the interquartile range over the
median. Other workloads already in the file are kept.

`compare` prints, per metric, the baseline median, its band, the median
over RUNS and the relative change, and flags every metric whose change
lies outside its own band: `better` or `WORSE`, by the direction
BENCHMARK.json gives it. It exits 1 when a metric is WORSE, a run failed
an operation or a run's correctness gate did not pass; otherwise 0.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(paths):
    runs = []
    for path in paths:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(obj, dict) and "metrics" in obj:
                    runs.append(obj)
    if not runs:
        sys.exit("perf_compare: no perfbench result lines in " +
                 ", ".join(paths))
    return runs


def directions():
    """metric name -> "higher" or "lower", from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["better"]
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def summarize(runs):
    """metric name -> {median, iqr_over_median, unit, runs}."""
    names = sorted({name for run in runs for name in run["metrics"]})
    out = {}
    for name in names:
        values = [run["metrics"][name]["value"] for run in runs
                  if name in run["metrics"]]
        unit = next(run["metrics"][name].get("unit", "") for run in runs
                    if name in run["metrics"])
        median = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
            iqr = q3 - q1
        else:
            iqr = 0.0
        out[name] = {
            "median": median,
            "iqr_over_median": iqr / abs(median) if median else 0.0,
            "unit": unit,
            "runs": len(values),
        }
    return out


def health(runs):
    return {
        "runs": len(runs),
        "failed": sum(run.get("failed", 0) for run in runs),
        "all_correct": all(run.get("correct", False) for run in runs),
    }


def record(args):
    runs = load_runs(args.runs)
    baseline = {}
    if os.path.exists(args.baseline):
        with open(args.baseline) as f:
            baseline = json.load(f)
    baseline.setdefault("workloads", {})[args.workload] = {
        **health(runs), "metrics": summarize(runs)}
    with open(args.baseline, "w") as f:
        json.dump(baseline, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"perf_compare: recorded {len(runs)} runs of {args.workload} "
          f"in {args.baseline}")
    return 0


def compare(args):
    with open(args.baseline) as f:
        base = json.load(f)["workloads"].get(args.workload)
    if base is None:
        sys.exit(f"perf_compare: {args.baseline} has no {args.workload}")
    runs = load_runs(args.runs)
    new = summarize(runs)
    better = directions()

    rows = [("metric", "baseline", "band", "new", "change", "verdict")]
    worse = 0
    for name, b in sorted(base["metrics"].items()):
        if name not in new:
            rows.append((name, f"{b['median']:.4g}", "", "missing", "", ""))
            continue
        n = new[name]["median"]
        change = (n - b["median"]) / abs(b["median"]) if b["median"] else 0.0
        band = b["iqr_over_median"]
        verdict = "ok"
        if abs(change) > band and name in better:
            improved = change < 0 if better[name] == "lower" else change > 0
            verdict = "better" if improved else "WORSE"
            worse += verdict == "WORSE"
        rows.append((name, f"{b['median']:.4g}", f"±{band:.2%}", f"{n:.4g}",
                     f"{change:+.2%}", verdict))

    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    h = health(runs)
    print(f"{h['runs']} runs, {h['failed']} failed operations, "
          f"correct: {str(h['all_correct']).lower()}")
    return 1 if worse or h["failed"] or not h["all_correct"] else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["record", "compare"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--baseline",
                        default=os.path.join(ROOT, "BENCH_perfbench.json"))
    parser.add_argument("runs", nargs="+")
    args = parser.parse_args()
    return record(args) if args.mode == "record" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
