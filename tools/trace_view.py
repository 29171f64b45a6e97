#!/usr/bin/env python3
"""Render a swsig flight-recorder trace as per-ladder timelines.

Usage:
    tools/trace_view.py TRACE.txt [--reg R] [--origin P] [--last N]
    tools/trace_view.py --self-test

The input is the machine trace written by obs::write_trace_file (the soak
harness dumps one next to its REPRO line on a wedge or SLO breach):

    # swsig-trace v1
    EV <ts_us> <pid> <kind> <tag> <reg> <origin> <sn> <aux> <peer>

Events are grouped by ladder key (reg, origin, sn) and printed as one
timeline per ladder — which process reached which Bracha rung when — with
stalled ladders (opened, never delivered) flagged and sorted first, so the
wedged write is the first thing on screen. Non-ladder events (network
plane, crash/restart/resync) are summarized per kind, and the network's
queueing delay — how long a received message sat in its inbox, the aux of
a recv event in ns, recorded for a sample of messages (0 for the rest) —
per message type.

--self-test runs the built-in unit checks (wired into CTest as
trace_view_selftest, mirroring bench_compare_selftest).
"""

import argparse
import sys
import tempfile

# Ladder phase kinds, in rung order (obs/event.hpp). write_start opens a
# ladder; write_done closes it.
PHASE_ORDER = [
    "write_start",
    "echo",
    "accept",
    "amplify",
    "deliver",
    "ack",
    "write_done",
]
PHASE_KINDS = set(PHASE_ORDER)
# Retry-layer events ride their op's (reg, origin, sn) key and are shown
# inside the ladder timeline, but are not protocol rungs.
EXTRA_KINDS = {"op_retry", "op_timeout", "write_abort"}
TIMELINE_KINDS = PHASE_KINDS | EXTRA_KINDS
# Partition events carry the cut direction in aux (soak::PartitionMode).
PARTITION_MODES = {0: "symmetric", 1: "inbound", 2: "outbound"}


def parse_trace(lines):
    """Returns (events, warnings). Each event is a dict; malformed lines
    are skipped with a warning rather than aborting — a trace dumped from
    a wedged process may legitimately end mid-line."""
    events, warnings = [], []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] != "EV":
            continue  # ladder-summary section of write_trace_file
        if len(parts) != 10:
            warnings.append(f"line {lineno}: expected 10 fields, got {len(parts)}")
            continue
        try:
            events.append(
                {
                    "ts_us": float(parts[1]),
                    "pid": int(parts[2]),
                    "kind": parts[3],
                    "tag": parts[4],
                    "reg": int(parts[5]),
                    "origin": int(parts[6]),
                    "sn": int(parts[7]),
                    "aux": int(parts[8]),
                    "peer": int(parts[9]),
                }
            )
        except ValueError as e:
            warnings.append(f"line {lineno}: {e}")
    return events, warnings


def ladders_of(events):
    """Groups timeline events by (reg, origin, sn) ladder key, preserving
    event order within each ladder. Groups holding only retry-layer events
    (e.g. read retries keyed by rid, never a rung) are dropped — they show
    up in the non-ladder summary instead."""
    ladders = {}
    for e in events:
        if e["kind"] not in TIMELINE_KINDS:
            continue
        key = (e["reg"], e["origin"], e["sn"])
        ladders.setdefault(key, []).append(e)
    return {k: v for k, v in ladders.items()
            if any(e["kind"] in PHASE_KINDS for e in v)}


def last_phase(ladder_events):
    """Highest rung any process completed, by PHASE_ORDER."""
    best = -1
    for e in ladder_events:
        if e["kind"] not in PHASE_KINDS:
            continue
        rank = PHASE_ORDER.index(e["kind"])
        best = max(best, rank)
    return PHASE_ORDER[best] if best >= 0 else "none"


def is_aborted(ladder_events):
    """The owner's recovery fence finalized this write as aborted."""
    return any(e["kind"] == "write_abort" for e in ladder_events)


def is_stalled(ladder_events):
    kinds = {e["kind"] for e in ladder_events}
    opened = "write_start" in kinds or "echo" in kinds
    closed = "write_done" in kinds
    delivered = "deliver" in kinds
    aborted = "write_abort" in kinds
    return opened and not closed and not delivered and not aborted


def inflight_span(ladder_events):
    """The ladder's in-flight interval: opened at its first event, settled
    at close/deliver/abort (or its last event if it never settled)."""
    ts = sorted(e["ts_us"] for e in ladder_events)
    settle = None
    for e in ladder_events:
        if e["kind"] in ("write_done", "deliver", "write_abort"):
            settle = e["ts_us"] if settle is None else max(settle, e["ts_us"])
    return ts[0], ts[-1] if settle is None else settle


def overlap_groups(ladders):
    """Pipelined writers: per (reg, origin), the max number of ladders
    simultaneously in flight, for owners that ever had >= 2 overlapping.
    Returns {(reg, origin): (max_depth, first_sn, last_sn, ladder_count)}."""
    by_owner = {}
    for (reg, origin, sn), evs in ladders.items():
        by_owner.setdefault((reg, origin), []).append((sn, inflight_span(evs)))
    groups = {}
    for owner, spans in by_owner.items():
        if len(spans) < 2:
            continue
        points = []
        for _, (start, end) in spans:
            points.append((start, 1))
            points.append((end, -1))
        depth = cur = 0
        # Sorting (ts, delta) puts a settle before an open at the same
        # instant, so back-to-back sequential writes don't count as overlap.
        for _, delta in sorted(points):
            cur += delta
            depth = max(depth, cur)
        if depth >= 2:
            sns = sorted(sn for sn, _ in spans)
            groups[owner] = (depth, sns[0], sns[-1], len(spans))
    return groups


def render_ladder(key, ladder_events, out):
    reg, origin, sn = key
    t0 = ladder_events[0]["ts_us"]
    span = ladder_events[-1]["ts_us"] - t0
    head = f"ladder reg={reg} origin=p{origin} sn={sn}"
    if is_aborted(ladder_events):
        status = "ABORTED"
    elif is_stalled(ladder_events):
        status = "STALLED"
    else:
        status = "ok"
    print(f"{head}: last phase {last_phase(ladder_events)} "
          f"[{status}] ({len(ladder_events)} events, {span:.1f} us)", file=out)
    for e in sorted(ladder_events, key=lambda e: e["ts_us"]):
        rel = e["ts_us"] - t0
        if e["kind"] == "write_start":
            # aux = pipeline slot: how many of the owner's other writes were
            # in flight at issue (0 = a plain, unpipelined write).
            extra = f" slot={e['aux']}"
        else:
            extra = f" aux={e['aux']}" if e["aux"] else ""
        print(f"  +{rel:10.1f}us p{e['pid']:<3} {e['kind']}{extra}", file=out)


def summarize_certs(events, out):
    """Interned witness certificates: cert_intern events carry the slot
    (origin = sender, sn = seq) and the interned handle in aux, so a
    handle-only delivery seen later in a dump can be attributed back to
    the slot whose n-f witnesses were actually verified."""
    certs = {}
    for e in events:
        if e["kind"] != "cert_intern":
            continue
        entry = certs.setdefault(e["aux"], {"sender": e["origin"],
                                            "sn": e["sn"], "pids": set()})
        entry["pids"].add(e["pid"])
    if certs:
        print("interned certificates:", file=out)
        for handle in sorted(certs):
            c = certs[handle]
            pids = ",".join(f"p{p}" for p in sorted(c["pids"]))
            print(f"  handle {handle}: slot sender=p{c['sender']} "
                  f"seq={c['sn']} verified by {pids}", file=out)


def summarize_other(events, out):
    counts = {}
    for e in events:
        if e["kind"] in PHASE_KINDS or e["kind"] == "cert_intern":
            continue
        label = e["kind"]
        if e["kind"] in ("partition_cut", "partition_heal"):
            label += f".{PARTITION_MODES.get(e['aux'], '?')}"
        elif e["tag"] != "OTHER":
            label += f".{e['tag']}"
        counts[label] = counts.get(label, 0) + 1
    if counts:
        print("non-ladder events:", file=out)
        for label in sorted(counts):
            print(f"  {label}: {counts[label]}", file=out)


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list (p in [0, 100])."""
    rank = int(p / 100.0 * (len(sorted_values) - 1))
    return sorted_values[rank]


def summarize_queueing(events, out):
    """Inbox queueing delay (enqueue to dequeue) per message type, from the
    aux of the sampled recv events (ns; 0 marks an unsampled message)."""
    by_tag = {}
    for e in events:
        if e["kind"] == "recv" and e["aux"] > 0:
            by_tag.setdefault(e["tag"], []).append(e["aux"] / 1000.0)
    if not by_tag:
        return
    print("network queueing (enqueue to dequeue, us):", file=out)
    for tag in sorted(by_tag):
        us = sorted(by_tag[tag])
        print(f"  {tag}: n={len(us)} p50={percentile(us, 50):.1f} "
              f"p99={percentile(us, 99):.1f} max={us[-1]:.1f}", file=out)


def render(events, out, reg=None, origin=None, last=None):
    ladders = ladders_of(events)
    keys = list(ladders)
    if reg is not None:
        keys = [k for k in keys if k[0] == reg]
    if origin is not None:
        keys = [k for k in keys if k[1] == origin]
    # Ladders needing attention first — stalled AND aborted — then grouped
    # by (reg, origin) with sns ascending, so a pipelined owner's
    # overlapping ladders read as one in-order pipeline.
    keys.sort(key=lambda k: (not (is_stalled(ladders[k]) or
                                  is_aborted(ladders[k])),
                             k[0], k[1], k[2]))
    if last is not None:
        keys = keys[:last]
    stalled = sum(1 for k in keys if is_stalled(ladders[k]))
    print(f"{len(events)} events, {len(ladders)} ladders "
          f"({stalled} stalled shown of {len(keys)} rendered)", file=out)
    groups = overlap_groups({k: ladders[k] for k in keys})
    if groups:
        print("pipelined writers (overlapping in-flight ladders):", file=out)
        for (greg, gorigin) in sorted(groups):
            depth, lo, hi, count = groups[(greg, gorigin)]
            print(f"  reg={greg} origin=p{gorigin}: max {depth} in flight "
                  f"over {count} ladders, sn {lo}..{hi}", file=out)
    for k in keys:
        render_ladder(k, ladders[k], out)
    summarize_certs(events, out)
    summarize_other(events, out)
    summarize_queueing(events, out)
    return stalled


# ---------------------------------------------------------------- self-test

SAMPLE = """\
# swsig-trace v1
EV 10.0 1 write_start OTHER 7 1 42 0 0
EV 11.0 1 send WRITE 7 0 42 0 2
EV 12.0 2 echo OTHER 7 1 42 0 0
EV 13.0 3 echo OTHER 7 1 42 0 0
EV 14.0 2 accept OTHER 7 1 42 0 0
EV 20.0 1 write_start OTHER 8 1 43 0 0
EV 21.0 2 echo OTHER 8 1 43 0 0
EV 22.0 2 accept OTHER 8 1 43 0 0
EV 23.0 2 deliver OTHER 8 1 43 5 0
EV 24.0 2 ack OTHER 8 1 43 0 0
EV 25.0 1 write_done OTHER 8 1 43 900 0
EV 30.0 4 crash OTHER -1 4 0 0 0
EV 40.0 1 write_start OTHER 9 1 44 0 0
EV 41.0 1 op_retry OTHER 9 1 44 40 0
EV 42.0 1 write_abort OTHER 9 1 44 0 0
EV 50.0 2 op_retry OTHER 7 1 999 80 0
EV 51.0 4 partition_cut OTHER -1 4 12 1 0
EV 52.0 4 partition_heal OTHER -1 4 12 1 0
EV 60.0 1 write_start OTHER 12 1 100 0 0
EV 61.0 1 write_start OTHER 12 1 101 1 0
EV 65.0 1 write_done OTHER 12 1 100 500 0
EV 66.0 1 write_done OTHER 12 1 101 500 0
EV 70.0 2 cert_intern OTHER 0 3 5 17 0
EV 71.0 4 cert_intern OTHER 0 3 5 17 0
EV 80.0 2 recv STATE 5 0 9 1500 3
EV 81.0 3 recv STATE 5 0 9 2500 4
EV 82.0 4 recv READ 5 0 9 400 2
EV 83.0 4 recv READ 5 0 9 0 3
this line is garbage
EV bad 1 echo OTHER 1 1 1 0 0
"""


def run_self_test():
    import io

    failures = []

    def check(name, cond):
        if not cond:
            failures.append(name)
        print(f"self-test: {'ok  ' if cond else 'FAIL'} {name}")

    events, warnings = parse_trace(SAMPLE.splitlines())
    check("parses well-formed events", len(events) == 28)
    # The prose garbage line is silently skipped (not an EV record); the
    # "EV bad ..." line has 10 fields but a bad float -> one warning.
    check("warns on bad numeric field", len(warnings) == 1)

    ladders = ladders_of(events)
    check("five ladders found", len(ladders) == 5)
    stalled_key = (7, 1, 42)
    done_key = (8, 1, 43)
    aborted_key = (9, 1, 44)
    check("stalled ladder detected", is_stalled(ladders[stalled_key]))
    check("completed ladder not stalled", not is_stalled(ladders[done_key]))
    check("aborted ladder detected", is_aborted(ladders[aborted_key]))
    check("aborted ladder is not counted stalled",
          not is_stalled(ladders[aborted_key]))
    check("stalled last phase is accept",
          last_phase(ladders[stalled_key]) == "accept")
    check("completed last phase is write_done",
          last_phase(ladders[done_key]) == "write_done")
    check("retry events do not advance the rung",
          last_phase(ladders[aborted_key]) == "write_start")
    check("rungless retry group is not a ladder", (7, 1, 999) not in ladders)

    # The pipelined owner: two ladders of reg 12 / p1 whose in-flight spans
    # ([60,65] and [61,66]) overlap; everything else is sequential.
    groups = overlap_groups(ladders)
    check("one pipelined owner found", list(groups) == [(12, 1)])
    check("pipeline depth and sn range reported",
          groups[(12, 1)] == (2, 100, 101, 2))

    out = io.StringIO()
    stalled = render(events, out)
    text = out.getvalue()
    check("render names the stalled key", "reg=7 origin=p1 sn=42" in text)
    check("render flags STALLED", "STALLED" in text)
    check("render flags ABORTED", "ABORTED" in text)
    check("render counts one stalled ladder", stalled == 1)
    check("stalled ladder renders before completed one",
          text.index("sn=42") < text.index("sn=43"))
    check("aborted ladder renders before completed one",
          text.index("sn=44") < text.index("sn=43"))
    check("retry shows inside the aborted ladder timeline",
          "op_retry aux=40" in text)
    check("write_start renders its pipeline slot", "write_start slot=1" in text)
    check("overlap summary names the pipelined owner",
          "reg=12 origin=p1: max 2 in flight over 2 ladders, sn 100..101"
          in text)
    check("pipelined sns render in order within the origin",
          text.index("sn=100") < text.index("sn=101"))
    check("non-ladder summary includes send.WRITE", "send.WRITE: 1" in text)
    check("non-ladder summary includes crash", "crash: 1" in text)
    check("non-ladder summary counts retries", "op_retry: 2" in text)
    check("partition events carry the cut direction",
          "partition_cut.inbound: 1" in text and
          "partition_heal.inbound: 1" in text)
    check("interned cert attributed to its slot and verifiers",
          "handle 17: slot sender=p3 seq=5 verified by p2,p4" in text)
    check("cert_intern excluded from the generic summary",
          "cert_intern:" not in text)
    check("queueing delay summarized per message type",
          "STATE: n=2 p50=1.5 p99=1.5 max=2.5" in text and
          "READ: n=1 p50=0.4" in text)  # the unsampled recv is skipped

    # Filters.
    out = io.StringIO()
    render(events, out, reg=8)
    check("--reg filter keeps only reg 8",
          "sn=43" in out.getvalue() and "sn=42" not in out.getvalue())

    # Round-trip through a real file, as the CLI path does.
    with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as f:
        f.write(SAMPLE)
        path = f.name
    with open(path) as f:
        ev2, _ = parse_trace(f)
    check("file round-trip parses identically", len(ev2) == len(events))

    if failures:
        print(f"self-test: {len(failures)} check(s) failed")
        return 1
    print("self-test: all checks passed")
    return 0


def main():
    if "--self-test" in sys.argv[1:]:
        sys.exit(run_self_test())
    ap = argparse.ArgumentParser(
        description="Render a swsig flight-recorder trace as ladder timelines")
    ap.add_argument("trace", help="trace file from obs::write_trace_file")
    ap.add_argument("--reg", type=int, help="only this register id")
    ap.add_argument("--origin", type=int, help="only ladders led by this pid")
    ap.add_argument("--last", type=int, default=32,
                    help="render at most N ladders (default 32)")
    args = ap.parse_args()
    with open(args.trace) as f:
        events, warnings = parse_trace(f)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    if not events:
        raise SystemExit(f"{args.trace}: no events")
    render(events, sys.stdout, reg=args.reg, origin=args.origin,
           last=args.last)


if __name__ == "__main__":
    main()
