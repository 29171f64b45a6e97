// Soak run metrics: the throughput / latency / SLO summary one run emits,
// both human-readable and as bench-JSON (bench/baseline.hpp) so
// tools/bench_compare.py can track soak trajectories across commits.
#pragma once

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "bench/baseline.hpp"
#include "obs/metrics.hpp"

namespace swsig::soak {

// Percentile over a latency sample (µs). Non-destructive; returns 0 on an
// empty sample.
inline double percentile_us(std::vector<double> sample, double p) {
  if (sample.empty()) return 0;
  std::sort(sample.begin(), sample.end());
  const double rank = p / 100.0 * static_cast<double>(sample.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sample.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sample[lo] + (sample[hi] - sample[lo]) * frac;
}

struct SoakMetrics {
  std::uint64_t duration_ms = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t op_errors = 0;

  std::uint64_t windows_checked = 0;
  std::uint64_t window_violations = 0;
  std::uint64_t windows_undecided = 0;

  std::uint64_t liveness_violations = 0;
  std::uint64_t max_stall_ms = 0;

  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_delayed = 0;
  std::uint64_t crashes = 0;
  std::uint64_t resyncs = 0;
  std::uint64_t partitions = 0;  // partition windows applied (cut+heal pairs)

  // Retry/abort layer activity: retried client ops, ops that hit their
  // overall deadline, and owner writes finalized as aborted by the
  // recovery fence (removed from the checked history per Definition 2).
  std::uint64_t op_retries = 0;
  std::uint64_t op_timeouts = 0;
  std::uint64_t write_aborts = 0;

  // Byzantine-register sampling (decoy reads through the
  // byzantine_completion witness construction).
  std::uint64_t byz_reads = 0;
  std::uint64_t byz_checks = 0;
  std::uint64_t byz_failures = 0;

  double read_p50_us = 0, read_p99_us = 0;
  double write_p50_us = 0, write_p99_us = 0;

  // Peak resident set of the whole process at the end of the run
  // (getrusage ru_maxrss), so the soak tracks memory as well as time.
  double peak_rss_mb = 0;

  // Per-message-type traffic deltas over the run ("net.send.WRITE", ...)
  // and per-phase latency histograms ("msgpass.read_quorum_us", ...), both
  // sourced from the obs::MetricsRegistry by the runner. Zero-count
  // entries are pruned at capture time.
  std::vector<obs::CounterSnapshot> msg_counters;
  std::vector<obs::HistogramSnapshot> phase_hists;

  std::uint64_t total_ops() const { return reads + writes; }

  double ops_per_s() const {
    return duration_ms == 0
               ? 0
               : static_cast<double>(total_ops()) * 1000.0 /
                     static_cast<double>(duration_ms);
  }

  // SLO: the run is healthy iff nothing stalled, every sampled window was
  // decided linearizable (an undecided window — checker budget exhausted —
  // proves nothing, so it counts against the run), no operation errored,
  // and every Byzantine-register sample admitted a witness completion.
  // Retries, aborts and partitions are NOT violations — they are the
  // survivable faults being exercised.
  bool slo_ok() const {
    return liveness_violations == 0 && window_violations == 0 &&
           windows_undecided == 0 && op_errors == 0 && byz_failures == 0;
  }

  void emit(bench::Reporter& rep) const {
    // The "emulated" segment names the msgpass substrate; it is kept so
    // the keys still compare against older baselines.
    const std::string p = "soak.emulated.";
    rep.metric(p + "ops_per_s", ops_per_s());
    rep.metric(p + "total_ops", static_cast<double>(total_ops()));
    rep.metric(p + "read_p50_us", read_p50_us);
    rep.metric(p + "read_p99_us", read_p99_us);
    rep.metric(p + "write_p50_us", write_p50_us);
    rep.metric(p + "write_p99_us", write_p99_us);
    rep.metric(p + "peak_rss_mb", peak_rss_mb);
    rep.metric(p + "max_stall_ms", static_cast<double>(max_stall_ms));
    rep.metric(p + "windows_checked", static_cast<double>(windows_checked));
    // SLO counters: hard zeros in a healthy run (lower is better).
    rep.metric(p + "slo.liveness_violations",
               static_cast<double>(liveness_violations));
    rep.metric(p + "slo.window_violations",
               static_cast<double>(window_violations));
    rep.metric(p + "slo.windows_undecided",
               static_cast<double>(windows_undecided));
    rep.metric(p + "slo.op_errors", static_cast<double>(op_errors));
    rep.metric(p + "slo.byz_failures", static_cast<double>(byz_failures));
    rep.metric(p + "op_retries", static_cast<double>(op_retries));
    rep.metric(p + "op_timeouts", static_cast<double>(op_timeouts));
    rep.metric(p + "write_aborts", static_cast<double>(write_aborts));
    rep.metric(p + "partitions", static_cast<double>(partitions));
    // Registry-sourced telemetry: per-message-type traffic and per-phase
    // latency quantiles. bench_compare only diffs keys present on both
    // sides, so these extend the baseline without invalidating it.
    for (const obs::CounterSnapshot& c : msg_counters)
      rep.metric(p + c.name, static_cast<double>(c.value));
    for (const obs::HistogramSnapshot& h : phase_hists) {
      rep.metric(p + h.name + ".p50", h.p50);
      rep.metric(p + h.name + ".p99", h.p99);
    }
  }

  void print(std::ostream& os) const {
    os << total_ops() << " ops in "
       << duration_ms << " ms (" << static_cast<std::uint64_t>(ops_per_s())
       << " ops/s; " << writes << " writes, " << reads << " reads, "
       << op_errors << " errors)\n"
       << "  latency us: read p50 " << read_p50_us << " p99 " << read_p99_us
       << "; write p50 " << write_p50_us << " p99 " << write_p99_us << "\n"
       << "  memory: peak rss " << peak_rss_mb << " MB\n"
       << "  checker: " << windows_checked << " windows, "
       << window_violations << " violations, " << windows_undecided
       << " undecided\n"
       << "  liveness: " << liveness_violations << " violations, max stall "
       << max_stall_ms << " ms\n"
       << "  faults: " << messages_dropped << " dropped, "
       << messages_delayed << " delayed, " << crashes << " crashes, "
       << resyncs << " resyncs, " << partitions << " partitions\n"
       << "  retry layer: " << op_retries << " retries, " << op_timeouts
       << " timeouts, " << write_aborts << " write aborts\n";
    if (byz_reads > 0 || byz_checks > 0)
      os << "  byzantine sampling: " << byz_reads << " decoy reads, "
         << byz_checks << " witness checks, " << byz_failures
         << " failures\n";
    if (!msg_counters.empty()) {
      os << "  traffic:";
      for (const obs::CounterSnapshot& c : msg_counters)
        os << " " << c.name << "=" << c.value;
      os << "\n";
    }
    for (const obs::HistogramSnapshot& h : phase_hists)
      os << "  phase " << h.name << ": n=" << h.count << " p50=" << h.p50
         << "us p99=" << h.p99 << "us p999=" << h.p999 << "us\n";
    os << "  SLO: " << (slo_ok() ? "OK" : "VIOLATED") << "\n";
  }
};

}  // namespace swsig::soak
