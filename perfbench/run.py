#!/usr/bin/env python3
"""Builds and runs the end-to-end forwarding benchmark.

    python3 perfbench/run.py --workload paper-random --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root (any working directory works). The first call
configures and builds perfbench/ together with the repository libraries it
links into .bench_build/perfbench; later calls rebuild incrementally. Build
output goes to stderr, so the last line of stdout is the harness's JSON
result (with --workload all, each workload's output ends in its own result
line). --trace 1 also writes the recorded spans to
.bench_build/perfbench/spans-<workload>-<seed>.tsv.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("paper-random", "trace-churn", "snapshot-2m")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the harness; returns the binary's path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no repository sources next to {HERE}; nothing to build")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def run_one(binary, workload, args):
    """Runs the harness for one workload and passes its output through."""
    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", work]
    if args.trace:
        spans = os.path.join(BUILD, f"spans-{workload}-{args.seed}.tsv")
        if os.path.exists(spans):
            os.remove(spans)
        cmd += ["--spans", spans]
    if args.tiny:
        cmd.append("--tiny")

    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"harness exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(proc.stdout)
        fail("harness printed no result line")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or 'all' to run the three in turn (one result line each)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test scale: small tables and streams")
    args = ap.parse_args()

    binary = build()
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run_one(binary, workload, args)


if __name__ == "__main__":
    main()
