#!/usr/bin/env python3
"""Steadiness check: run every workload repeatedly and report spreads.

    python3 perfbench/steady.py [--runs 10]

Run from the root of a kelle checkout. Run i uses seed i (1..runs) on
every workload of BENCHMARK.json; the workload order alternates between
runs. For every end-to-end metric it prints the median, the quartiles
(Python's statistics.quantiles, n=4), the spread (Q3 - Q1) / median,
the metric's bound, the spread as a share of the bound, and whether the
spread is within the bound; then the share of failed operations. It
exits non-zero unless every run was correct, every run of a workload
failed the same share of its operations and every spread is within its
bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("run failed (%d): %s" % (done.returncode, " ".join(cmd)))
    return json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    a = p.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    specs = bench["end_to_end"]

    results = {w: [] for w in workloads}
    for seed in range(1, a.runs + 1):
        order = workloads if seed % 2 else list(reversed(workloads))
        for w in order:
            r = run_once(w, seed, bench["run_seconds"])
            results[w].append(r)
            print("%s seed %d: correct %s, %d/%d failed, %s" %
                  (w, seed, r["correct"], r["failed"], r["attempted"],
                   " ".join("%s=%.6g" % (s["name"],
                                         r["metrics"][s["name"]]["value"])
                            for s in specs)), file=sys.stderr)

    steady = True
    print("%-22s %-16s %12s %12s %12s %8s %6s %8s %s" %
          ("workload", "metric", "median", "q1", "q3", "spread",
           "bound", "/bound", "ok"))
    for w in workloads:
        runs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        steady = steady and correct and len(shares) == 1
        for spec in specs:
            vals = [r["metrics"][spec["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4)
                         if len(vals) > 1 else (vals[0],) * 3)
            spread = (q3 - q1) / med if med else float("nan")
            bound = spec["bound"]
            ok = spread <= bound
            steady = steady and ok
            print("%-22s %-16s %12.6g %12.6g %12.6g %8.4f %6s %8.2f %s" %
                  (w, spec["name"], med, q1, q3, spread, bound,
                   spread / bound, "yes" if ok else "NO"))
        print("%-22s correct in every run: %s; failed shares: %s" %
              (w, correct, shares))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
