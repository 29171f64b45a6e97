#!/usr/bin/env python3
"""Runs every workload of the repository benchmark briefly and fails on a
crash or a wrong result.

    tools/perfbench_smoke.py PERFBENCH_BINARY

The workloads are BENCHMARK.json's. Each runs untraced for 1 s with seed
1; the test fails when a run exits non-zero, prints no JSON result, or
reports "correct": false. Wired into CTest as
perfbench_smoke (label perfbench), so a change that breaks the benchmark
fails tier-1 rather than the benchmark run. perfbench/run.py is the full
runner (it builds its own binary and prints the contract's summary).
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(binary, workload):
    """One workload; returns an error string, or None when it passed."""
    cmd = [binary, "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", "0"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=120)
    except subprocess.TimeoutExpired:
        return "did not finish within 120 s"
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return "no JSON result (exit %d)" % proc.returncode
    if proc.returncode != 0:
        return "exit %d, errors: %s" % (proc.returncode, result.get("errors"))
    if result.get("correct") is not True:
        return "correct: %s, errors: %s" % (result.get("correct"),
                                            result.get("errors"))
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("binary")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    failed = 0
    for w in workloads:
        err = run(args.binary, w)
        print("perfbench_smoke: %-18s %s" % (w, "ok" if err is None
                                              else "FAILED: " + err))
        failed += err is not None
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
