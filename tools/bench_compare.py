#!/usr/bin/env python3
"""Diff two benchmark JSON dumps produced by bench binaries' --json flag.

Usage:
    tools/bench_compare.py BASELINE.json CURRENT.json [--threshold 0.15]
                           [--warn-only]
    tools/bench_compare.py --self-test

Metrics are compared by key (only keys present in both dumps). Lower is
better, except keys ending in "_per_s", "_ops" or "_speedup", which are
higher-is-better. A metric regresses when it is worse than the baseline by
more than the threshold (relative). Keys ending in "_iqr_us" or "_iqr" are
spreads (interquartile ranges), not costs: they are printed, marked
"spread", and never regress. Exit status is 1 when any metric
regressed, unless --warn-only is given (CI uses --warn-only so noisy
runners cannot turn the perf-smoke job red).

Malformed metrics never crash the comparison: non-numeric or non-finite
values are skipped with a warning, and a zero baseline (which would make
the relative ratio meaningless) skips that metric with a warning instead
of printing an infinite ratio. --self-test runs the built-in unit checks
(wired into CTest as bench_compare_selftest).

Hardware: each dump states where it was measured in a "meta" object
(nproc, build_type, steal_frac; bench/baseline.hpp). Both sides' meta is
printed, and a warning says when nproc or the build type differ, since the
numbers then compare machines or builds as much as code, or when either
side's CPU steal was above 5%, since a noisy neighbour then moves them too.
Dumps without meta (older baselines) still load.

Stale baselines: when BASELINE is a committed bench/baselines/BENCH_<name>.json
whose last commit is older than the last commit touching
bench/bench_<name>.cpp, a warning says the baseline predates its bench and
should be regenerated. Outside a git checkout (or without git) the check
stays silent.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

HIGHER_IS_BETTER_SUFFIXES = ("_per_s", "_ops", "_speedup")
SPREAD_SUFFIXES = ("_iqr_us", "_iqr")
STEAL_WARN_FRAC = 0.05


def higher_is_better(key: str) -> bool:
    return key.endswith(HIGHER_IS_BETTER_SUFFIXES)


def is_spread(key: str) -> bool:
    return key.endswith(SPREAD_SUFFIXES)


def load_metrics(path: str) -> dict:
    with open(path) as f:
        doc = json.load(f)
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        raise SystemExit(f"{path}: no 'metrics' object")
    out = {}
    for key, value in metrics.items():
        try:
            fv = float(value)
        except (TypeError, ValueError):
            print(f"bench_compare: {path}: metric '{key}' is not numeric "
                  f"({value!r}); skipped")
            continue
        if not math.isfinite(fv):
            print(f"bench_compare: {path}: metric '{key}' is not finite "
                  f"({fv}); skipped")
            continue
        out[key] = fv
    return out


def load_meta(path: str) -> dict:
    """The dump's "meta" object, or {} when it has none."""
    with open(path) as f:
        meta = json.load(f).get("meta")
    return meta if isinstance(meta, dict) else {}


def describe_meta(meta: dict) -> str:
    if not meta:
        return "none recorded"
    return " ".join(f"{key}={meta[key]}" for key in sorted(meta))


def meta_warning(base: dict, cur: dict):
    """The warning for dumps measured on different hardware or builds, or
    None (also when either side records no meta)."""
    if not base or not cur:
        return None
    differ = [key for key in sorted(set(base) | set(cur))
              if key != "steal_frac" and base.get(key) != cur.get(key)]
    if not differ:
        return None
    return ("bench_compare: WARNING: the dumps differ in " +
            ", ".join(f"{key} ({base.get(key)} vs {cur.get(key)})"
                      for key in differ) +
            "; the comparison is not like for like")


def steal_warning(base: dict, cur: dict):
    """The warning for a dump measured while the hypervisor stole more than
    STEAL_WARN_FRAC of the CPU, or None."""
    noisy = []
    for side, meta in (("baseline", base), ("current", cur)):
        try:
            steal = float(meta.get("steal_frac", 0.0))
        except (TypeError, ValueError):
            continue
        if steal > STEAL_WARN_FRAC:
            noisy.append(f"{side} {steal:.1%}")
    if not noisy:
        return None
    return ("bench_compare: WARNING: CPU steal above "
            f"{STEAL_WARN_FRAC:.0%} ({', '.join(noisy)}); other load on the "
            "machine moved these numbers")


def last_commit_time(path: str):
    """Committer timestamp of the last commit touching path, or None."""
    try:
        out = subprocess.run(
            ["git", "-C", os.path.dirname(os.path.abspath(path)), "log", "-1",
             "--format=%ct", "--", os.path.basename(path)],
            capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    stamp = out.stdout.strip()
    return int(stamp) if out.returncode == 0 and stamp.isdigit() else None


def stale_warning(name: str, baseline_time, source_time):
    """The warning for a baseline committed before its bench source's last
    change, or None (also when either timestamp is unknown)."""
    if baseline_time is None or source_time is None:
        return None
    if baseline_time >= source_time:
        return None
    return (f"bench_compare: WARNING: baseline BENCH_{name}.json was last "
            f"committed before the last change to bench/bench_{name}.cpp "
            f"({baseline_time} < {source_time}, unix time); regenerate it")


def baseline_staleness(baseline_path: str):
    """stale_warning() for a baseline file, read from git history."""
    m = re.fullmatch(r"BENCH_(\w+)\.json", os.path.basename(baseline_path))
    if not m:
        return None
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(baseline_path))))  # <root>/bench/baselines/BENCH_x
    source = os.path.join(root, "bench", f"bench_{m.group(1)}.cpp")
    if not os.path.exists(source):
        return None
    return stale_warning(m.group(1), last_commit_time(baseline_path),
                         last_commit_time(source))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="relative regression threshold (default 0.15)")
    ap.add_argument("--warn-only", action="store_true",
                    help="report regressions but always exit 0")
    args = ap.parse_args(argv)

    stale = baseline_staleness(args.baseline)
    if stale:
        print(stale)
    base_meta, cur_meta = load_meta(args.baseline), load_meta(args.current)
    print(f"bench_compare: baseline meta: {describe_meta(base_meta)}")
    print(f"bench_compare: current meta:  {describe_meta(cur_meta)}")
    for warning in (meta_warning(base_meta, cur_meta),
                    steal_warning(base_meta, cur_meta)):
        if warning:
            print(warning)
    base = load_metrics(args.baseline)
    cur = load_metrics(args.current)
    shared = sorted(set(base) & set(cur))
    if not shared:
        print("bench_compare: no shared metrics between the two dumps")
        return 0 if args.warn_only else 1

    regressions = []
    print(f"{'metric':<44} {'baseline':>12} {'current':>12} {'ratio':>8}")
    for key in shared:
        b, c = base[key], cur[key]
        if b == 0:
            # A relative comparison against zero is meaningless (and the
            # naive ratio would be inf); warn and move on.
            print(f"{key:<44} {b:>12.4g} {c:>12.4g} {'n/a':>8}  SKIPPED "
                  f"(zero baseline)")
            continue
        ratio = c / b
        if is_spread(key):
            print(f"{key:<44} {b:>12.4g} {c:>12.4g} {ratio:>8.3f}  spread")
            continue
        if higher_is_better(key):
            regressed = c < b * (1.0 - args.threshold)
        else:
            regressed = c > b * (1.0 + args.threshold)
        marker = "  REGRESSED" if regressed else ""
        print(f"{key:<44} {b:>12.4g} {c:>12.4g} {ratio:>8.3f}{marker}")
        if regressed:
            regressions.append(key)

    skipped = (set(base) ^ set(cur))
    if skipped:
        print(f"bench_compare: {len(skipped)} metric(s) present in only one "
              f"dump were skipped")

    if regressions:
        print(f"bench_compare: {len(regressions)} regression(s) beyond "
              f"{args.threshold:.0%}: {', '.join(regressions)}")
        return 0 if args.warn_only else 1
    print("bench_compare: no regressions")
    return 0


def run_self_test() -> int:
    """Unit-style checks for the comparison logic (CTest target)."""
    import os
    import tempfile

    failures = []

    def check(name: str, cond: bool) -> None:
        print(f"self-test: {'ok  ' if cond else 'FAIL'} {name}")
        if not cond:
            failures.append(name)

    with tempfile.TemporaryDirectory() as td:
        def dump(name: str, metrics: dict, meta=None) -> str:
            path = os.path.join(td, name)
            doc = {"bench": "selftest", "metrics": metrics}
            if meta is not None:
                doc["meta"] = meta
            with open(path, "w") as f:
                json.dump(doc, f)
            return path

        base = dump("base.json", {"a_us": 100.0, "zero_us": 0.0,
                                  "junk": "fast", "thr_ops": 100.0})

        check("non-numeric metric values are skipped by the loader",
              "junk" not in load_metrics(base))
        check("numeric-as-string values are kept by the loader",
              load_metrics(dump("str.json", {"a_us": "12.5"})) ==
              {"a_us": 12.5})

        same = dump("same.json", {"a_us": 100.0, "zero_us": 5.0,
                                  "junk": "slow", "thr_ops": 100.0})
        check("zero baseline is skipped (no inf ratio, no crash, exit 0)",
              main([base, same]) == 0)

        slower = dump("slower.json", {"a_us": 200.0, "zero_us": 5.0,
                                      "thr_ops": 100.0})
        check("lower-is-better regression exits 1",
              main([base, slower]) == 1)
        check("--warn-only exits 0 on regression",
              main([base, slower, "--warn-only"]) == 0)

        fewer_ops = dump("fewer_ops.json", {"thr_ops": 10.0})
        check("higher-is-better suffix regression exits 1",
              main([base, fewer_ops]) == 1)
        more_ops = dump("more_ops.json", {"thr_ops": 500.0})
        check("higher-is-better improvement exits 0",
              main([base, more_ops]) == 0)

        within = dump("within.json", {"a_us": 110.0, "thr_ops": 95.0})
        check("changes within the threshold exit 0",
              main([base, within]) == 0)

        disjoint = dump("disjoint.json", {"other_us": 1.0})
        check("no shared metrics exits 1", main([base, disjoint]) == 1)
        check("no shared metrics with --warn-only exits 0",
              main([base, disjoint, "--warn-only"]) == 0)

        check("baseline committed before its bench source warns",
              stale_warning("read", 100, 200) is not None)
        check("baseline committed after its bench source is quiet",
              stale_warning("read", 200, 100) is None)
        check("baseline and source from one commit is quiet",
              stale_warning("read", 150, 150) is None)
        release4 = {"nproc": 4, "build_type": "Release"}
        check("equal meta is quiet",
              meta_warning(release4, dict(release4)) is None)
        check("a different nproc warns and names it",
              "nproc (4 vs 2)" in (meta_warning(
                  release4, {"nproc": 2, "build_type": "Release"}) or ""))
        check("a different build type warns",
              meta_warning(release4, {"nproc": 4, "build_type": "Debug"})
              is not None)
        check("a side without meta is quiet",
              meta_warning({}, release4) is None and
              meta_warning(release4, {}) is None)
        check("a dump without meta loads with empty meta",
              load_meta(base) == {} and describe_meta({}) == "none recorded")
        meta4 = dump("meta4.json", {"a_us": 100.0}, release4)
        meta2 = dump("meta2.json", {"a_us": 100.0},
                     {"nproc": 2, "build_type": "Release"})
        check("meta is read from a dump", load_meta(meta4) == release4)
        check("differing meta warns but does not fail the comparison",
              main([meta4, meta2]) == 0)
        check("a dump with meta compares against one without",
              main([base, meta4]) == 0)

        iqr_base = dump("iqr_base.json", {
            "msgpass.fullstack.n4.after1000.verify_iqr_us": 97.5,
            "q_iqr": 1.0, "a_us": 100.0})
        iqr_cur = dump("iqr_cur.json", {
            "msgpass.fullstack.n4.after1000.verify_iqr_us": 147.7,
            "q_iqr": 9.0, "a_us": 100.0})
        check("a spread (_iqr_us, _iqr) that widens is not a regression",
              main([iqr_base, iqr_cur]) == 0)
        check("spread keys are recognised",
              is_spread("x.verify_iqr_us") and is_spread("x_iqr") and
              not is_spread("x.verify_us"))
        check("steal differing alone is not a hardware mismatch",
              meta_warning(dict(release4, steal_frac=0.01),
                           dict(release4, steal_frac=0.2)) is None)
        check("steal above 5% on either side warns and names it",
              "current 20.0%" in (steal_warning(
                  {"steal_frac": 0.01}, {"steal_frac": 0.2}) or ""))
        check("steal at or below 5%, or unrecorded, is quiet",
              steal_warning({"steal_frac": 0.05}, {}) is None)
        steal_dump = dump("steal.json", {"a_us": 100.0},
                          dict(release4, steal_frac=0.3))
        check("high steal warns but does not fail the comparison",
              main([meta4, steal_dump]) == 0)

        check("unknown commit time (no git history) is quiet",
              stale_warning("read", None, 200) is None and
              stale_warning("read", 100, None) is None)
        os.makedirs(os.path.join(td, "bench", "baselines"))
        with open(os.path.join(td, "bench", "bench_x.cpp"), "w") as f:
            f.write("// bench source\n")
        outside = os.path.join(td, "bench", "baselines", "BENCH_x.json")
        with open(outside, "w") as f:
            json.dump({"bench": "x", "metrics": {"a_us": 1.0}}, f)
        check("staleness check is silent outside a git checkout",
              baseline_staleness(outside) is None)

    if failures:
        print(f"self-test: {len(failures)} check(s) failed")
        return 1
    print("self-test: all checks passed")
    return 0


if __name__ == "__main__":
    if "--self-test" in sys.argv[1:]:
        sys.exit(run_self_test())
    sys.exit(main())
