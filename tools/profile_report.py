#!/usr/bin/env python3
"""Self and inclusive CPU shares per function from a sigprof sampler profile.

    python3 tools/profile_report.py sigprof.<pid>.out [--top N]
        [--share LEAF_REGEX[@UNDER_REGEX]] ...

The profile comes from the LD_PRELOAD sampler (tools/sigprof_sampler.cpp,
built as libsigprof_sampler.so; README "Profiling"). Each sample is one call
stack, leaf first. Addresses are mapped to their ELF file through the
recorded memory map and symbolized with addr2line (-f -C -i: inlined frames
count as frames of their own). Addresses without line tables fall back to
the nearest preceding symbol from `nm`, tagged with the file name; in a
stripped system library that is the nearest exported symbol, which may be
an unrelated neighbour of the function that ran. A function's self share is the
fraction of samples whose innermost frame it is; its inclusive share is the
fraction of samples with it anywhere on the stack.

--share prints the fraction of samples whose innermost function matches
LEAF_REGEX and, when @UNDER_REGEX is given, whose stack also has a frame
matching UNDER_REGEX — for example the set-node allocation under SharedSet:
    --share 'malloc|free|operator new|operator delete@SharedSet'

--self-test checks the aggregation on a synthetic profile (CTest:
profile_report_selftest).
"""
import argparse
import bisect
import collections
import os
import re
import subprocess
import sys


def parse(path):
    """(maps, samples): executable mappings and stacks of int addresses."""
    maps, samples, section = [], [], None
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line in ("maps", "samples"):
                section = line
            elif section == "maps":
                parts = line.split(None, 5)
                if len(parts) == 6 and "x" in parts[1] and parts[5].startswith("/"):
                    lo, hi = (int(x, 16) for x in parts[0].split("-"))
                    maps.append((lo, hi, int(parts[2], 16), parts[5]))
            elif section == "samples" and line:
                samples.append([int(x, 16) for x in line.split()
                                if x != "(nil)"])
    maps.sort()
    return maps, samples


def is_shared_object(path):
    """True for ET_DYN files (PIE executables, shared libraries)."""
    try:
        with open(path, "rb") as f:
            head = f.read(18)
        return len(head) == 18 and head[16] == 3
    except OSError:
        return True


def locate(maps, addr):
    """(file, address inside the file's own address space) or None."""
    i = bisect.bisect_right(maps, (addr, float("inf"))) - 1
    if i < 0:
        return None
    lo, hi, offset, path = maps[i]
    if not lo <= addr < hi:
        return None
    return path, (addr - lo + offset) if is_shared_object(path) else addr


def nm_symbols(path):
    """Sorted (address, demangled name) of every defined function symbol."""
    out = []
    for flags in (["-C", "--defined-only"], ["-C", "-D", "--defined-only"]):
        try:
            text = subprocess.run(["nm"] + flags + [path], capture_output=True,
                                  text=True, check=False).stdout
        except OSError:
            return []
        for line in text.splitlines():
            parts = line.split(None, 2)
            if len(parts) == 3 and parts[1] in "TtWi":
                out.append((int(parts[0], 16), parts[2]))
    return sorted(set(out))


def symbolize(requests):
    """{(file, addr): [function, ...] innermost inlined frame first}."""
    names = {}
    by_file = collections.defaultdict(set)
    for path, addr in requests:
        by_file[path].add(addr)
    for path, addrs in by_file.items():
        addrs = sorted(addrs)
        table = None
        for chunk in range(0, len(addrs), 2000):
            part = addrs[chunk:chunk + 2000]
            try:
                text = subprocess.run(
                    ["addr2line", "-e", path, "-f", "-C", "-i", "-a"]
                    + ["%x" % a for a in part],
                    capture_output=True, text=True, check=False).stdout
            except OSError:
                text = ""
            frames, current = {}, None
            lines = text.splitlines()
            k = 0
            while k < len(lines):
                if lines[k].startswith("0x"):
                    current = int(lines[k], 16)
                    frames[current] = []
                    k += 1
                elif current is not None and k + 1 < len(lines):
                    if lines[k] != "??":
                        frames[current].append(lines[k])
                    k += 2
                else:
                    k += 1
            for a in part:
                chain = frames.get(a) or []
                if not chain:
                    if table is None:
                        table = nm_symbols(path)
                    j = bisect.bisect_right(table, (a, "￿")) - 1
                    where = os.path.basename(path)
                    chain = (["%s [%s]" % (table[j][1], where)] if j >= 0
                             else ["?? [%s]" % where])
                names[(path, a)] = chain
    return names


def stacks(maps, samples, symbolizer=symbolize):
    """Each sample as its list of function names, innermost first."""
    located = []
    for sample in samples:
        frames = []
        for depth, addr in enumerate(sample):
            # Callers' frames hold return addresses: look up the call.
            hit = locate(maps, addr if depth == 0 else addr - 1)
            frames.append(hit)
        located.append(frames)
    names = symbolizer({f for frames in located for f in frames if f})
    out = []
    for frames in located:
        chain = []
        for hit in frames:
            chain.extend(names.get(hit, ["??"]) if hit else ["??"])
        out.append(chain)
    return out


def shares(chains):
    """(self, inclusive): Counter of samples per function."""
    self_count, incl_count = collections.Counter(), collections.Counter()
    for chain in chains:
        if chain:
            self_count[chain[0]] += 1
        for name in set(chain):
            incl_count[name] += 1
    return self_count, incl_count


def share_of(chains, spec):
    leaf, _, under = spec.partition("@")
    leaf_re = re.compile(leaf)
    under_re = re.compile(under) if under else None
    hits = sum(1 for c in chains if c and leaf_re.search(c[0]) and
               (under_re is None or any(under_re.search(n) for n in c)))
    return hits / len(chains) if chains else 0.0


def report(chains, top, specs, out=sys.stdout):
    total = len(chains)
    print("%d samples" % total, file=out)
    if not total:
        return
    self_count, incl_count = shares(chains)
    for title, counter in (("self", self_count), ("inclusive", incl_count)):
        print("\n%-9s  function" % title, file=out)
        for name, n in counter.most_common(top):
            print("%8.1f%%  %s" % (100.0 * n / total, name[:160]), file=out)
    for spec in specs:
        print("\nshare %s: %.1f%%" % (spec, 100.0 * share_of(chains, spec)),
              file=out)


def self_test():
    maps = [(0x1000, 0x2000, 0, "/nonexistent/a"),
            (0x5000, 0x6000, 0x1000, "/nonexistent/b.so")]
    samples = [[0x1010, 0x1101], [0x5010, 0x1201, 0x1101], [0x1010, 0x1201]]
    names = {0x1010: ["leaf"], 0x1100: ["main"], 0x1200: ["inl", "mid"],
             0x2010: ["rb_increment"]}

    def fake(requests):
        # Unreadable files count as ET_DYN, so addresses become file
        # offsets: 0x1010 -> 0x10 in a, 0x5010 -> 0x1010 in b.so.
        return {(p, a): names[a + 0x1000] for p, a in requests}

    chains = stacks(maps, samples, fake)
    assert chains[0] == ["leaf", "main"], chains[0]
    assert chains[1] == ["rb_increment", "inl", "mid", "main"], chains[1]
    self_count, incl_count = shares(chains)
    assert self_count == {"leaf": 2, "rb_increment": 1}, self_count
    assert incl_count["main"] == 2 and incl_count["mid"] == 2, incl_count
    assert abs(share_of(chains, "leaf") - 2 / 3) < 1e-9
    assert abs(share_of(chains, "leaf@inl") - 1 / 3) < 1e-9
    assert share_of(chains, "rb_@nothing") == 0.0
    print("profile_report self-test: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("profile", nargs="?")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--share", action="append", default=[])
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        self_test()
        return
    if not args.profile:
        ap.error("a profile file is required")
    maps, samples = parse(args.profile)
    report(stacks(maps, samples), args.top, args.share)


if __name__ == "__main__":
    main()
