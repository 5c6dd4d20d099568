#!/usr/bin/env python3
"""Steadiness check: runs two interleaved sets of runs of one build and
reports, for each workload and end-to-end metric, both sets' medians and
quartiles and whether they agree within the bounds of BENCHMARK.json.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b] [--seconds S]

Run from the root of a checkout. Runs alternate between set A (seeds
1..N) and set B (seeds 1001..1000+N), so both sets see the same machine
conditions. A metric agrees when each set's quartile spread (Q3 - Q1 as a
share of the median) is within its bound and the two sets' medians differ
by no more than the bound, either way. Every run must end with no failed
operation. Exits 1 when anything disagrees.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    # A run with a failed check exits 1 after printing its result, so the
    # exit status is not checked here; the result's `failed` count is.
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True).stdout
    lines = out.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit("steadiness: %s seed %d printed no result" % (workload, seed))
    # The printed host figures: steal share and the reference loop's time.
    steal = [l.split("host steal ")[1].split(",")[0] for l in lines
             if l.startswith("steady:")]
    loop = [l.split("reference loop ")[1].split(" ms")[0] for l in lines
            if l.startswith("host:")]
    return json.loads(lines[-1]), "steal %s, reference loop %s ms" % (
        "".join(steal), "".join(loop))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for name, seed in (("A", 1 + i), ("B", 1001 + i)):
                result, figures = run_once(workload, seed, args.seconds)
                sets[name].append(result)
                values = " ".join(
                    "%s=%.5g" % (m["name"], result["metrics"][m["name"]]["value"])
                    for m in bench["end_to_end"])
                print("%s set %s seed %d: attempted %d failed %d; %s; %s" %
                      (workload, name, seed, result["attempted"],
                       result["failed"], figures, values), flush=True)
        failed = sum(r["failed"] for runs in sets.values() for r in runs)
        if failed or not all(r["correct"] for runs in sets.values() for r in runs):
            ok = False
        print("%s failed operations: %d  %s" %
              (workload, failed, "agree" if failed == 0 else "DISAGREE"))
        print("  %-14s %12s %12s %12s %7s | %12s %12s %12s %7s | %7s %6s" %
              ("metric", "A median", "A q1", "A q3", "spread", "B median",
               "B q1", "B q3", "spread", "drift", "bound"))
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in sets["A"]]
            b = [r["metrics"][name]["value"] for r in sets["B"]]
            a1, a3, sa = spread(a)
            b1, b3, sb = spread(b)
            ma, mb = statistics.median(a), statistics.median(b)
            # Positive drift: set B is worse than set A.
            drift = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            agree = abs(drift) <= bound and sa <= bound and sb <= bound
            ok = ok and agree
            print("  %-14s %12.5g %12.5g %12.5g %7.3f | %12.5g %12.5g %12.5g "
                  "%7.3f | %7.3f %6.2f %s" %
                  (name, ma, a1, a3, sa, mb, b1, b3, sb, drift, bound,
                   "agree" if agree else "DISAGREE"), flush=True)
    print("steadiness: %s" % ("all metrics agree" if ok else "DISAGREE"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
