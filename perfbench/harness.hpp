// Shared pieces of the benchmark workloads: run options, the per-phase
// result (metrics by name with unit and sample count), exact quantiles over
// raw samples, deltas of the program's own counters, and the span summary.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "runtime/process.hpp"
#include "trace.hpp"
#include "util/stats.hpp"

namespace swsig::perfbench {

struct PhaseOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  int setups = 1;  // full system set-ups; setup_s is their median
};

struct Metric {
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;  // raw samples behind a quantile (0: not one)
  double percentile = -1;     // which quantile, for latency metrics
};

// Everything one measured phase produced.
struct PhaseResult {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // failed operations and wrong results
  std::vector<std::string> errors;
  // Per load thread, one verdict byte per operation in issue order. For one
  // seed the traced run must reproduce the untraced run's verdicts.
  std::vector<std::vector<std::uint8_t>> verdicts;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit, 0, -1};
  }

  // <name>_p50_us, _p90_us and _p99_us from raw samples. With fewer than
  // 1000 samples the "p99" is the highest quantile that still has ten
  // samples beyond it; the quantile taken is recorded with the value.
  void latency(const std::string& name, const util::Samples& us) {
    const std::size_t n = us.count();
    double tail = 99.0;
    if (n < 1000)
      tail = n <= 20 ? 50.0 : 100.0 * (1.0 - 10.0 / static_cast<double>(n));
    metrics[name + "_p50_us"] = Metric{us.median(), "us", n, 50.0};
    metrics[name + "_p90_us"] = Metric{us.percentile(90.0), "us", n, 90.0};
    metrics[name + "_p99_us"] = Metric{us.percentile(tail), "us", n, tail};
  }

  void alias(const std::string& from, const std::string& to) {
    metrics[to] = metrics.at(from);
  }

  void error(std::string what) {
    if (errors.size() < 16) errors.push_back(std::move(what));
  }
  void fail(std::string what) {
    ++failed;
    error(std::move(what));
  }
};

// The load runs from `start` to `deadline`; only operations invoked at or
// after `measure` (one warm-up second in) are timed and counted.
struct Window {
  Clock::time_point start;
  Clock::time_point measure;
  Clock::time_point deadline;

  static Window from_now(double seconds) {
    const auto to_duration = [](double s) {
      return std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(s));
    };
    Window w;
    w.start = Clock::now();
    w.measure = w.start + to_duration(1.0);
    w.deadline = w.measure + to_duration(seconds);
    return w;
  }

  bool measured(Clock::time_point invoked) const { return invoked >= measure; }
};

// Throughput as the median over 0.5 s slices of the measured window of the
// ops completed in each slice (`done_s`: completion times in seconds since
// Window::measure). The host's vCPU stalls hit a few slices instead of
// dragging the whole run's mean.
inline double median_slice_rate(const std::vector<double>& done_s,
                                double seconds) {
  constexpr double kSlice = 0.5;
  const auto slices = static_cast<std::size_t>(seconds / kSlice);
  if (slices == 0) return static_cast<double>(done_s.size()) / seconds;
  std::vector<double> counts(slices, 0.0);
  for (const double t : done_s)
    if (t >= 0 && t < static_cast<double>(slices) * kSlice)
      counts[static_cast<std::size_t>(t / kSlice)] += 1;
  util::Samples rates;
  for (const double c : counts) rates.add(c / kSlice);
  return rates.median();
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

inline double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Snapshot of every counter in the global obs::MetricsRegistry (net.*,
// msgpass.*). Counters are process-wide and never reset, so a phase reads
// its own traffic as the delta between two snapshots.
using Counters = std::map<std::string, std::uint64_t>;

inline Counters counters() {
  Counters out;
  for (const obs::CounterSnapshot& c :
       obs::MetricsRegistry::global().counters())
    out[c.name] = c.value;
  return out;
}

inline double delta(const Counters& before, const Counters& after,
                    const std::string& name) {
  const auto b = before.find(name);
  const auto a = after.find(name);
  const std::uint64_t v0 = b == before.end() ? 0 : b->second;
  const std::uint64_t v1 = a == after.end() ? 0 : a->second;
  return static_cast<double>(v1 - v0);
}

// Network, ladder and retry metrics of one msgpass phase, from the
// per-message-type counters Network keeps and the SwmrCore retry counters.
inline void msgpass_counter_metrics(PhaseResult& r, const Counters& before,
                                    const Counters& after, double ops, int n) {
  double sent = 0, dropped = 0;
  for (const auto& [name, value] : after) {
    if (name.rfind("net.send.", 0) == 0) sent += delta(before, after, name);
    if (name.rfind("net.drop.", 0) == 0) dropped += delta(before, after, name);
  }
  const auto per_op = [&](double v) { return ops > 0 ? v / ops : 0.0; };
  r.set("net.msgs_per_op", per_op(sent), "msgs");
  for (const char* tag : {"WRITE", "ECHO", "ACCEPT", "ACK", "READ", "STATE"})
    r.set(std::string("net.send.") + tag + "_per_op",
          per_op(delta(before, after, std::string("net.send.") + tag)),
          "msgs");
  r.set("net.drop_frac", sent + dropped > 0 ? dropped / (sent + dropped) : 0.0,
        "ratio");
  // A WRITE broadcast reaches n inboxes, so n WRITE messages = one ladder.
  const double ladders = delta(before, after, "net.send.WRITE") / n;
  r.set("ladder.echo_per_write",
        ladders > 0 ? delta(before, after, "net.send.ECHO") / ladders : 0.0,
        "msgs");
  r.set("ladder.accept_per_write",
        ladders > 0 ? delta(before, after, "net.send.ACCEPT") / ladders : 0.0,
        "msgs");
  r.set("retry.per_kop",
        1000.0 * per_op(delta(before, after, "msgpass.op_retry")), "count");
  r.set("retry.aborts_per_kop",
        1000.0 * per_op(delta(before, after, "msgpass.write_abort")), "count");
  r.set("retry.timeouts", delta(before, after, "msgpass.op_timeout"), "count");
}

// The two client-side latency histograms the program keeps (log buckets,
// about 9% wide: these are bucket midpoints, not exact quantiles).
inline void msgpass_histogram_metrics(PhaseResult& r) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  r.set("msgpass.read_quorum_p99_us",
        reg.histogram("msgpass.read_quorum_us").p99(), "us");
  r.set("msgpass.write_ack_wait_p99_us",
        reg.histogram("msgpass.write_ack_wait_us").p99(), "us");
}

// Owner write_start to the q-th deliver of the same (reg, origin, sn),
// from one FlightRecorder snapshot taken after the phase. Only ladders
// whose every event is still in the per-thread rings are covered.
inline void ladder_metrics(PhaseResult& r, std::uint64_t since_recorder_ns,
                           int quorum) {
  using Key = std::tuple<int, int, std::uint64_t>;
  std::map<Key, std::uint64_t> starts;
  std::map<Key, std::vector<std::uint64_t>> delivers;
  for (const obs::Event& e : obs::FlightRecorder::instance().snapshot()) {
    if (e.ts_ns < since_recorder_ns) continue;
    const Key key{e.reg, e.origin, e.sn};
    if (e.kind == obs::EventKind::kWriteStart) starts.emplace(key, e.ts_ns);
    if (e.kind == obs::EventKind::kPhaseDeliver)
      delivers[key].push_back(e.ts_ns);
  }
  util::Samples us;
  for (const auto& [key, start] : starts) {
    auto it = delivers.find(key);
    if (it == delivers.end() ||
        it->second.size() < static_cast<std::size_t>(quorum))
      continue;
    std::sort(it->second.begin(), it->second.end());
    const std::uint64_t t = it->second[static_cast<std::size_t>(quorum) - 1];
    if (t >= start) us.add(static_cast<double>(t - start) / 1e3);
  }
  r.metrics["ladder.write_to_deliver_us"] =
      Metric{us.empty() ? 0.0 : us.median(), "us", us.count(), 50.0};
  r.set("ladder.ladders_covered", static_cast<double>(us.count()), "count");
}

// help_round() calls per process, counted by the Help() threads.
class HelpCounts {
 public:
  explicit HelpCounts(int n) : per_pid_(static_cast<std::size_t>(n) + 1) {}

  void add(int pid, bool useful) {
    Count& c = per_pid_[static_cast<std::size_t>(pid)];
    c.calls.fetch_add(1, std::memory_order_relaxed);
    if (useful) c.useful.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t calls() const { return sum(&Count::calls); }
  std::uint64_t useful() const { return sum(&Count::useful); }

 private:
  struct Count {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> useful{0};
  };
  std::uint64_t sum(std::atomic<std::uint64_t> Count::*field) const {
    std::uint64_t total = 0;
    for (const Count& c : per_pid_)
      total += (c.*field).load(std::memory_order_relaxed);
    return total;
  }
  std::vector<Count> per_pid_;
};

// Body of one process's Help() thread: round() — the algorithm's
// help_round() — in a loop, each call traced and counted, yielding after an
// idle round and never parking (core::FreeSystem with idle_backoff off).
template <typename Round>
void help_loop(std::stop_token st, int pid, HelpCounts& counts, Round&& round) {
  runtime::ThisProcess::Binder bind(pid);
  while (!st.stop_requested()) {
    bool useful;
    {
      ScopedSpan span(SpanKind::kHelpRound);
      useful = round();
    }
    counts.add(pid, useful);
    if (!useful) std::this_thread::yield();
  }
}

// Samples fn() about every 10 ms on its own thread until stop().
class Sampler {
 public:
  explicit Sampler(std::function<double()> fn)
      : thread_([this, fn = std::move(fn)](std::stop_token st) {
          while (!st.stop_requested()) {
            samples_.add(fn());
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
          }
        }) {}

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  util::Samples stop() {
    thread_.request_stop();
    thread_.join();
    return samples_;
  }

 private:
  util::Samples samples_;  // touched only by thread_ until it is joined
  std::jthread thread_;
};

// One root span (a client op, a help_round, a restart/resync) with what
// its direct children — the register calls — add up to.
struct RootSpan {
  SpanKind kind = SpanKind::kCount;
  double us = 0;
  double child_us = 0;
  int reads = 0;
  int writes = 0;
  int updates = 0;
};

struct TraceSummary {
  std::vector<RootSpan> roots;
  util::Samples reg_read_us;   // register reads made inside client ops
  util::Samples reg_write_us;  // register writes and updates inside them
  std::uint64_t spans = 0;
  std::uint64_t dropped = 0;
};

// Folds every closed span into per-root totals. Call after every traced
// thread has been joined.
inline TraceSummary summarize_spans() {
  TraceSummary s;
  Tracer::instance().for_each_log([&](const SpanLog& log) {
    s.dropped += log.dropped;
    std::vector<std::int64_t> root(log.spans.size(), -1);  // index in roots
    for (std::size_t i = 0; i < log.spans.size(); ++i) {
      const Span& sp = log.spans[i];
      if (sp.end_ns == 0) continue;
      ++s.spans;
      const double us = static_cast<double>(sp.end_ns - sp.start_ns) / 1e3;
      if (sp.parent < 0) {
        root[i] = static_cast<std::int64_t>(s.roots.size());
        s.roots.push_back(RootSpan{sp.kind, us});
        continue;
      }
      root[i] = root[static_cast<std::size_t>(sp.parent)];
      if (root[i] < 0) continue;
      RootSpan& r = s.roots[static_cast<std::size_t>(root[i])];
      if (log.spans[static_cast<std::size_t>(sp.parent)].parent >= 0)
        continue;  // only direct children count towards the root
      r.child_us += us;
      const bool in_op = is_client_op(r.kind);
      if (sp.kind == SpanKind::kRegRead) {
        ++r.reads;
        if (in_op) s.reg_read_us.add(us);
      } else if (sp.kind == SpanKind::kRegWrite ||
                 sp.kind == SpanKind::kRegUpdate) {
        ++(sp.kind == SpanKind::kRegWrite ? r.writes : r.updates);
        if (in_op) s.reg_write_us.add(us);
      }
    }
  });
  return s;
}

// Durations of the root spans of one kind.
inline util::Samples root_durations(const TraceSummary& s, SpanKind kind) {
  util::Samples out;
  for (const RootSpan& r : s.roots)
    if (r.kind == kind) out.add(r.us);
  return out;
}

inline void trace_count_metrics(PhaseResult& r, const TraceSummary& s) {
  r.set("trace.spans", static_cast<double>(s.spans), "count");
  r.set("trace.spans_dropped", static_cast<double>(s.dropped), "count");
}

}  // namespace swsig::perfbench
