#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` binary from source
(perfbench/CMakeLists.txt, Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, then runs it. Prints the
binary's full JSON result (metadata, every metric with unit and sample
count, errors) and, as the last line, the summary the BENCHMARK.json
contract asks for: {"correct", "attempted", "failed", "metrics"} with the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
Exits non-zero on any wrong result, build failure or missing sources.
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 175  # every run must end within 180 s


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once

        def configure():
            return subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, stderr=sys.stderr).returncode

        if configure() != 0:
            # A cache from another checkout location: start over.
            for entry in os.listdir(build_dir):
                if entry != ".lock":
                    path = os.path.join(build_dir, entry)
                    if os.path.isdir(path):
                        shutil.rmtree(path)
                    else:
                        os.remove(path)
            if configure() != 0:
                fail("cmake configure failed", 3)
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.run(["cmake", "--build", build_dir, "--target",
                           "perfbench", "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed", 3)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    t0 = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "msgpass",
                                       "emulated_swmr.hpp")):
        fail("repository sources (src/) not found next to perfbench/")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            contract = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.join(os.path.abspath(build_root), "perfbench"))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()]
    if args.trace:
        cmd += ["--spans-out", os.path.join(os.path.dirname(binary),
                                            "spans-%s.csv" % args.workload)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(10.0, DEADLINE_S - (time.monotonic() - t0)))
    except subprocess.TimeoutExpired:
        fail("workload did not finish in time", 4)
    lines = proc.stdout.strip().splitlines()
    try:
        full = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no result from perfbench (exit %d)" % proc.returncode, 4)

    key = "per_layer" if args.trace else "end_to_end"
    metrics, missing = {}, []
    for m in contract[key]:
        got = full["metrics"].get(m["name"])
        if got is None:
            missing.append(m["name"])
            got = {"value": 0.0, "unit": m["unit"]}
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if missing and not args.trace:
        fail("end-to-end metrics missing: " + ", ".join(missing), 5)
    if missing:
        print("perfbench: not measured on %s (reported as 0): %s"
              % (args.workload, ", ".join(missing)), file=sys.stderr)

    print(json.dumps(full))
    print(json.dumps({"correct": bool(full["correct"]),
                      "attempted": int(full["attempted"]),
                      "failed": int(full["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if proc.returncode == 0 and full["correct"] else 1)


if __name__ == "__main__":
    main()
