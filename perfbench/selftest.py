#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload in BENCHMARK.json at self-test scale (--tiny, 2 s),
untraced and traced, through run.py, and checks:

  * the result line has exactly the keys the contract names, correct=true,
    failed=0 and attempted >= 1;
  * the metrics are exactly BENCHMARK.json's end_to_end (--trace 0) or
    per_layer (--trace 1) list, each with its declared unit, and every
    end-to-end value is positive;
  * the burst <-> due-time matching held: no burst mismatches, latency
    samples recorded, and in the span file every burst was looked up after
    it was offered, in the order the phases imply;
  * FIB pools never grew under live readers, and trace-churn timed updates;
  * in a directory holding only BENCHMARK.json and the benchmark's files,
    run.py exits non-zero without printing a result.

Exit status 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def run(workload, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "3", "--seconds", "2",
           "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def check_spans(workload):
    path = os.path.join(SPANS_DIR, f"spans-{workload}-3.tsv")
    bursts = 0
    ordered = 0
    with open(path) as f:
        for line in f:
            cols = line.split("\t")
            if cols[0] != "burst":
                continue
            due, ob, oe, gb, lb, le, ge = map(int, cols[2:9])
            bursts += 1
            # The worker may pop a burst before offer() returns, so its
            # guard can start before offer_end, never before offer_begin.
            ordered += due <= ob <= oe and ob <= gb <= lb <= le <= ge
    check(bursts > 0, f"{workload}: span file holds burst spans")
    check(ordered == bursts,
          f"{workload}: every burst was looked up after it was offered ({ordered}/{bursts})")


def check_result(workload, trace, result, spec):
    tag = f"{workload} --trace {trace}"
    if result is None:
        check(False, f"{tag}: run.py printed a result")
        return
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
    check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
          f"{tag}: correct, no failures, attempts counted")
    want = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    check(list(got) == [m["name"] for m in want], f"{tag}: metric names match BENCHMARK.json")
    check(all(got.get(m["name"], {}).get("unit") == m["unit"] for m in want),
          f"{tag}: every metric carries its declared unit")
    if not trace:
        check(all(v["value"] > 0 for v in got.values()), f"{tag}: end-to-end values positive")
        return
    value = {name: v["value"] for name, v in got.items()}
    check(value["bench.burst_mismatches"] == 0 and value["bench.lat_samples"] > 0,
          f"{tag}: burst <-> due-time matching held")
    check(value["poptrie.pool_growths_live"] == 0, f"{tag}: no pool growth under readers")
    if workload == "trace-churn":
        check(value["bench.update_samples"] > 0 and value["update_us_p50"] > 0,
              f"{tag}: updates were timed")
    check_spans(workload)


def check_bare_directory(spec):
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    proc = subprocess.run(spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                             "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=180)
    check(proc.returncode != 0 and proc.stdout.strip() == "",
          "bare directory: run.py fails without printing a result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_result(w["name"], trace, run(w["name"], trace), spec)
    check_bare_directory(spec)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
