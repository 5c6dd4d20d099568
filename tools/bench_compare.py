#!/usr/bin/env python3
"""Compares two checkouts on the end-to-end benchmark (perfbench/run.py):
runs them in alternating pairs, one seed per pair, and reports for every
workload and end-to-end metric each side's median and quartiles and the
median paired difference with a bootstrap confidence interval.

    python3 tools/bench_compare.py --base PATH [--change PATH]
        [--workloads a,b] [--pairs 10] [--seconds S] [--first-seed 301]
        [--out BENCH_perfbench.json]

--base and --change are roots of full checkouts (the change defaults to
this one); each builds its own perfbench in its own `.bench_build`.
Within pair i both sides run seed first-seed + i, and the side that runs
first alternates from pair to pair, so drift in the host's speed falls on
both sides alike; the run length defaults to BENCHMARK.json's. A
difference is reported as better or worse only when its 95% bootstrap
interval excludes zero; otherwise it is within noise. A metric counts as
a gain when, in addition, the change wins at least nine tenths of the
pairs and the medians differ by more than the base's interquartile
range. Every run must be correct with no failed operation, or the
comparison exits 1. The JSON written to --out holds the seeds, the
per-side medians and quartiles, the per-pair values, the wins and the
intervals.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BOOTSTRAP_RESAMPLES = 4000


def run_once(checkout, workload, seed, seconds):
    # run.py exits 1 after printing its result when a check failed, so the
    # result's own fields are checked instead of the exit status.
    proc = subprocess.run(
        [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit("bench_compare: %s: %s seed %d printed no result" %
                 (checkout, workload, seed))
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def bootstrap_ci(diffs, rng):
    """95% percentile interval of the median of `diffs`, resampled."""
    medians = sorted(
        statistics.median(rng.choice(diffs) for _ in diffs)
        for _ in range(BOOTSTRAP_RESAMPLES))
    return (medians[int(0.025 * BOOTSTRAP_RESAMPLES)],
            medians[int(0.975 * BOOTSTRAP_RESAMPLES) - 1])


def summarize(metric, base_values, change_values, rng):
    diffs = [c - b for b, c in zip(base_values, change_values)]
    lo, hi = bootstrap_ci(diffs, rng)
    base_median = statistics.median(base_values)
    diff_median = statistics.median(diffs)
    sign = -1.0 if metric["better"] == "lower" else 1.0
    if lo <= 0.0 <= hi:
        verdict = "within noise"
    else:
        verdict = "better" if sign * diff_median > 0 else "worse"
    wins = sum(1 for d in diffs if sign * d > 0)
    losses = sum(1 for d in diffs if sign * d < 0)

    def side(values):
        q1, q3 = quartiles(values)
        return {"median": statistics.median(values), "q1": q1, "q3": q3,
                "iqr": q3 - q1}

    base, change = side(base_values), side(change_values)
    gain = (wins >= 0.9 * len(diffs) and
            sign * (change["median"] - base["median"]) > base["iqr"])
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "base": base,
        "change": change,
        "diff_median": diff_median,
        "diff_ci95": [lo, hi],
        "relative_diff": diff_median / base_median if base_median else None,
        "verdict": verdict,
        "wins": wins,
        "losses": losses,
        "gain": gain,
        "base_runs": base_values,
        "change_runs": change_values,
    }


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="root of the checkout to compare against")
    parser.add_argument("--change", default=ROOT,
                        help="root of the changed checkout (default: this one)")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=301)
    parser.add_argument("--out", help="write the comparison as JSON here")
    args = parser.parse_args()
    checkouts = {"base": os.path.abspath(args.base),
                 "change": os.path.abspath(args.change)}
    rng = random.Random(12345)

    seeds = [args.first_seed + i for i in range(args.pairs)]
    report = {"pairs": args.pairs, "seconds": args.seconds, "seeds": seeds,
              "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = {"base": [], "change": []}
        for i, seed in enumerate(seeds):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                result = run_once(checkouts[side], workload, seed,
                                  args.seconds)
                runs[side].append(result)
                print("%s pair %d seed %d %s: correct %s failed %d %s" % (
                    workload, i, seed, side, result["correct"],
                    result["failed"], " ".join(
                        "%s=%.5g" % (m["name"],
                                     result["metrics"][m["name"]]["value"])
                        for m in bench["end_to_end"])), flush=True)
        failed = sum(r["failed"] for side in runs.values() for r in side)
        correct = all(r["correct"] for side in runs.values() for r in side)
        ok = ok and correct and failed == 0
        entry = {"correct": correct, "failed": failed, "metrics": {}}
        print("%s: correct %s, failed operations %d" %
              (workload, correct, failed))
        print("  %-14s %11s %11s %11s | %11s %11s %11s | %11s %23s %5s %s" % (
            "metric", "base med", "base q1", "base q3", "change med",
            "change q1", "change q3", "diff med", "diff 95% CI", "wins",
            "verdict"))
        for metric in bench["end_to_end"]:
            name = metric["name"]
            summary = summarize(
                metric,
                [r["metrics"][name]["value"] for r in runs["base"]],
                [r["metrics"][name]["value"] for r in runs["change"]], rng)
            entry["metrics"][name] = summary
            print("  %-14s %11.5g %11.5g %11.5g | %11.5g %11.5g %11.5g | "
                  "%11.5g [%10.4g, %10.4g] %2d/%-2d %s%s" % (
                      name, summary["base"]["median"], summary["base"]["q1"],
                      summary["base"]["q3"], summary["change"]["median"],
                      summary["change"]["q1"], summary["change"]["q3"],
                      summary["diff_median"], summary["diff_ci95"][0],
                      summary["diff_ci95"][1], summary["wins"], args.pairs,
                      summary["verdict"], " (gain)" if summary["gain"] else ""),
                  flush=True)
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
