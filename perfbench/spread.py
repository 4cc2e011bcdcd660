#!/usr/bin/env python3
"""Run-to-run spread and median comparison for the repository benchmark.

Spread of one workload over several seeds (each run its own process):

    python3 perfbench/spread.py --workload cpu-small --seeds 1-10 \\
        --seconds 20 --out spread-cpu-small.json

prints, for every end-to-end metric of BENCHMARK.json, the median and the
distance between the first and third quartile (statistics.quantiles with
n=4) as a share of the median, against the metric's bound.

Comparison of two such sets (a baseline and a candidate):

    python3 perfbench/spread.py --compare base.json candidate.json

reports, per workload and metric, how far the candidate's median is worse
than the baseline's, against the bound. Metrics are compared only with a
metric of the same name, unit and clock: a `sim` clock value is never set
against a `wall` one.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartile_spread(values):
    """(q3 - q1) / median of `values`, as statistics.quantiles(n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def worsening(base, candidate, better):
    """Share by which `candidate` is worse than `base` (negative = better)."""
    if base == 0:
        return 0.0 if candidate == base else float("inf")
    change = (candidate - base) / abs(base)
    return change if better == "lower" else -change


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds += list(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def collect(workload, seeds, seconds):
    """Runs the workload once per seed; returns {metric: {unit, clock,
    values}} from the run records."""
    out_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"), "spread")
    os.makedirs(out_dir, exist_ok=True)
    metrics = {}
    for seed in seeds:
        record = os.path.join(out_dir, f"{workload}-seed{seed}.json")
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0", "--record", record],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if done.returncode != 0:
            sys.exit(f"{workload} seed {seed} failed:\n{done.stdout}")
        with open(record) as f:
            result = json.load(f)["result"]
        if result["failed"]:
            print(f"warning: {workload} seed {seed}: {result['failed']} of "
                  f"{result['attempted']} failed", file=sys.stderr)
        for name, m in result["metrics"].items():
            entry = metrics.setdefault(
                name, {"unit": m["unit"], "clock": m["clock"], "values": []})
            entry["values"].append(m["value"])
        print(f"  seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)
    return metrics


def report_spread(workload, metrics, bounds):
    ok = True
    print(f"{workload}: {'metric':<20} {'median':>12} {'spread':>8} "
          f"{'bound':>6}")
    for name, bound in bounds.items():
        values = metrics[name]["values"]
        spread = quartile_spread(values)
        verdict = "steady" if spread < bound / 3 else \
            "ok" if spread < bound else "WIDE"
        if spread >= bound:
            ok = False
        print(f"{workload}: {name:<20} {statistics.median(values):>12.5g} "
              f"{spread:>8.3f} {bound:>6.2f} {verdict}")
    return ok


def compare(base_path, candidate_path, end_to_end):
    with open(base_path) as f:
        base = json.load(f)
    with open(candidate_path) as f:
        candidate = json.load(f)
    ok = True
    for workload, metrics in base.items():
        for name, spec in end_to_end.items():
            a = metrics[name]
            b = candidate[workload][name]
            if (a["unit"], a["clock"]) != (b["unit"], b["clock"]):
                sys.exit(f"{workload} {name}: {a['unit']}/{a['clock']} "
                         f"cannot be compared with {b['unit']}/{b['clock']}")
            worse = worsening(statistics.median(a["values"]),
                              statistics.median(b["values"]), spec["better"])
            passed = worse <= spec["bound"]
            ok = ok and passed
            print(f"{workload}: {name:<20} worse by {worse:+.3f} "
                  f"(bound {spec['bound']:.2f}) {'ok' if passed else 'WORSE'}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable); default all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", help="write the collected values here")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CANDIDATE"))
    args = parser.parse_args()

    benchmark = load_benchmark()
    end_to_end = {m["name"]: m for m in benchmark["end_to_end"]}
    if args.compare:
        return 0 if compare(*args.compare, end_to_end) else 1

    seconds = args.seconds or benchmark["run_seconds"]
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    collected = {}
    ok = True
    for workload in workloads:
        collected[workload] = collect(workload, parse_seeds(args.seeds),
                                      seconds)
        ok = report_spread(workload, collected[workload],
                           {n: m["bound"] for n, m in end_to_end.items()}) \
            and ok
    if args.out:
        with open(args.out, "w") as f:
            json.dump(collected, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
