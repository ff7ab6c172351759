#!/usr/bin/env python3
"""Build perfbench from the checkout and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 perfbench/run.py --check     # every workload, reduced, checked

Run from the root of a kelle checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); its log
goes to stderr, so the last line of stdout is the workload's JSON
result. A traced run also writes its spans next to the build.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("twin_aerp_2drp", "fleet_knee", "fleet_sessions_paged")
HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(root, "perfbench"))


def build():
    """Configure and build the perfbench target; returns the binary."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", out, "--target", "perfbench", "-j", jobs]]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def run(binary, args):
    return subprocess.run([binary] + args).returncode


def check_all(binary, seed):
    """Check mode: every workload, traced and untraced, at reduced
    length with every correctness check, and its result line holding
    exactly the metrics BENCHMARK.json names, with their units."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    failed = []
    for w in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [binary, "--workload", w, "--seed", str(seed),
                 "--seconds", "1", "--trace", str(trace), "--check", "1"],
                stdout=subprocess.PIPE, text=True)
            sys.stdout.write(done.stdout)
            want = bench["per_layer" if trace else "end_to_end"]
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            got = result.get("metrics", {})
            same = ([m["name"] for m in want] == list(got) and
                    all(got[m["name"]]["unit"] == m["unit"] for m in want))
            if done.returncode != 0 or not same:
                failed.append("%s --trace %d" % (w, trace))
    return failed


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--check", action="store_true",
                   help="run every workload at reduced length with all "
                        "checks; exit non-zero if any fails")
    a = p.parse_args()
    if not a.check and a.workload is None:
        p.error("--workload is required unless --check is given")

    binary = build()
    if a.check:
        failed = check_all(binary, a.seed)
        if failed:
            sys.exit("perfbench: checks failed on " + ", ".join(failed))
        return 0
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", repr(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        args += ["--spans-out", os.path.join(
            build_dir(), "spans_%s_%d.json" % (a.workload, a.seed))]
    return run(binary, args)


if __name__ == "__main__":
    sys.exit(main())
