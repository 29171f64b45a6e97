// Flight-recorder and metrics exporters: the machine-parseable trace dump
// (tools/trace_view.py renders it), the human-readable ladder correlation
// that wedge forensics print next to REPRO lines, and the metric walk the
// bench-JSON reporters use.
//
// Trace format (one event per line, whitespace-separated):
//
//   # swsig-trace v1
//   EV <ts_us> <pid> <kind> <tag> <reg> <origin> <sn> <aux> <peer>
//
// Ladder correlation groups phase events by (reg, origin, sn) — one group
// is one write's life across all n processes. A ladder that opened
// (write_start / echo) but never completed (no write_done, and fewer
// delivers than echoes) is STALLED; the wedge report names its key and the
// last phase any process completed, which localizes a wedge to a protocol
// rung instead of a printf hunt (the PR-6 delay-pump bug took exactly
// that).
#pragma once

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "obs/event.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace swsig::obs {

inline bool is_phase(EventKind k) {
  switch (k) {
    case EventKind::kWriteStart:
    case EventKind::kWriteDone:
    case EventKind::kPhaseEcho:
    case EventKind::kPhaseAccept:
    case EventKind::kPhaseAmplify:
    case EventKind::kPhaseDeliver:
    case EventKind::kPhaseAck:
      return true;
    default:
      return false;
  }
}

// Machine-parseable dump of `events` (normally a recorder snapshot).
inline void dump_trace(std::ostream& os, const std::vector<Event>& events) {
  os << "# swsig-trace v1\n";
  for (const Event& e : events) {
    os << "EV " << static_cast<double>(e.ts_ns) / 1000.0 << " " << e.pid
       << " " << kind_name(e.kind) << " " << tag_name(e.tag) << " " << e.reg
       << " " << e.origin << " " << e.sn << " " << e.aux << " " << e.peer
       << "\n";
  }
}

// One ladder's life, reconstructed across processes.
struct LadderSummary {
  std::int32_t reg = 0;
  std::int32_t origin = 0;
  std::uint64_t sn = 0;
  std::uint64_t first_ts_ns = 0, last_ts_ns = 0;
  // Distinct processes that reached each rung.
  std::set<std::int16_t> echoed, accepted, delivered, acked;
  bool started = false;    // write_start seen
  bool completed = false;  // write_done seen

  // Highest rung ANY process completed, as a phase name.
  const char* last_phase() const {
    if (completed) return "complete";
    if (!acked.empty()) return "ack";
    if (!delivered.empty()) return "deliver";
    if (!accepted.empty()) return "accept";
    if (!echoed.empty()) return "echo";
    return started ? "start" : "none";
  }

  // A ladder is stalled when it opened but no completion landed and no
  // process delivered: messages went out, the quorum never closed.
  bool stalled() const {
    return (started || !echoed.empty()) && !completed && delivered.empty();
  }
};

inline std::vector<LadderSummary> correlate_ladders(
    const std::vector<Event>& events) {
  std::map<std::tuple<std::int32_t, std::int32_t, std::uint64_t>,
           LadderSummary>
      ladders;
  for (const Event& e : events) {
    if (!is_phase(e.kind)) continue;
    auto& l = ladders[{e.reg, e.origin, e.sn}];
    if (l.first_ts_ns == 0) {
      l.reg = e.reg;
      l.origin = e.origin;
      l.sn = e.sn;
      l.first_ts_ns = e.ts_ns;
    }
    l.last_ts_ns = e.ts_ns;
    switch (e.kind) {
      case EventKind::kWriteStart:
        l.started = true;
        break;
      case EventKind::kWriteDone:
        l.completed = true;
        break;
      case EventKind::kPhaseEcho:
        l.echoed.insert(e.pid);
        break;
      case EventKind::kPhaseAccept:
      case EventKind::kPhaseAmplify:
        l.accepted.insert(e.pid);
        break;
      case EventKind::kPhaseDeliver:
        l.delivered.insert(e.pid);
        break;
      case EventKind::kPhaseAck:
        l.acked.insert(e.pid);
        break;
      default:
        break;
    }
  }
  std::vector<LadderSummary> out;
  out.reserve(ladders.size());
  for (auto& [key, l] : ladders) out.push_back(std::move(l));
  return out;
}

inline void print_ladder(std::ostream& os, const LadderSummary& l) {
  os << "  ladder reg=" << l.reg << " origin=p" << l.origin << " sn=" << l.sn
     << ": last phase " << l.last_phase() << " (echo " << l.echoed.size()
     << ", accept " << l.accepted.size() << ", deliver "
     << l.delivered.size() << ", ack " << l.acked.size() << " procs; "
     << (l.completed ? "completed" : l.stalled() ? "STALLED" : "in flight")
     << ", " << static_cast<double>(l.last_ts_ns - l.first_ts_ns) / 1000.0
     << " us span)\n";
}

// Human-readable wedge report: every stalled ladder (oldest first), then
// the most recent events for context. This is what the soak harness and
// stress suites print next to the REPRO line on a liveness stall, SLO
// breach, or wedge.
inline void wedge_report(std::ostream& os, const std::vector<Event>& events,
                         std::size_t last_events = 48) {
  std::vector<LadderSummary> ladders = correlate_ladders(events);
  std::vector<const LadderSummary*> stalled;
  for (const LadderSummary& l : ladders)
    if (l.stalled()) stalled.push_back(&l);
  std::sort(stalled.begin(), stalled.end(),
            [](const LadderSummary* a, const LadderSummary* b) {
              return a->first_ts_ns < b->first_ts_ns;
            });
  os << "flight recorder: " << events.size() << " events, "
     << ladders.size() << " ladders, " << stalled.size() << " stalled\n";
  for (const LadderSummary* l : stalled) print_ladder(os, *l);
  if (events.empty()) return;
  os << "last " << std::min(last_events, events.size()) << " events:\n";
  const std::size_t begin =
      events.size() > last_events ? events.size() - last_events : 0;
  for (std::size_t i = begin; i < events.size(); ++i) {
    const Event& e = events[i];
    os << "  [" << static_cast<double>(e.ts_ns) / 1000.0 << "us] p" << e.pid
       << " " << kind_name(e.kind);
    if (e.tag != MsgTag::kOther) os << " " << tag_name(e.tag);
    os << " reg=" << e.reg;
    if (e.origin != 0) os << " origin=p" << e.origin;
    os << " sn=" << e.sn;
    if (e.aux != 0) os << " aux=" << e.aux;
    if (e.peer != 0) os << " peer=p" << e.peer;
    os << "\n";
  }
}

// Writes the full machine trace + wedge report to `path`. Returns false
// (best-effort, never throws) when the file cannot be written. The soak
// driver and CI upload these as failure artifacts.
inline bool write_trace_file(const std::string& path,
                             const std::vector<Event>& events) {
  std::ofstream out(path);
  if (!out) return false;
  dump_trace(out, events);
  out << "# ladders\n";
  for (const LadderSummary& l : correlate_ladders(events)) print_ladder(out, l);
  return static_cast<bool>(out);
}

}  // namespace swsig::obs
