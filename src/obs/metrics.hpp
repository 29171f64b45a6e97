// Unified metrics registry: named sharded counters and log-bucketed
// latency histograms for every layer of the message-passing stack.
//
// The registry replaces the ad-hoc telemetry that had grown per layer —
// registers::Metrics' bare counter pair, the raw latency vectors in
// soak/report.hpp, Network's three hand-rolled atomics — with one named
// namespace ("net.send.WRITE", "soak.read_us", ...) that exporters walk
// uniformly (bench-JSON via each_counter/each_histogram, human dumps via
// obs/export.hpp). Layers that keep their own hot-path counters (the
// free-mode step accounting needs registers::Metrics' raw ShardedCounter)
// publish through gauge callbacks instead of moving their storage.
//
// Hot-path costs: counter add = one per-thread sharded relaxed add
// (util::ShardedCounter); histogram add = one frexp + one relaxed
// fetch_add on a 32-sub-bucket-per-octave log-linear bucket array. Name
// lookup takes a mutex and is done ONCE per call site (construction time),
// never per operation.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/sharded_counter.hpp"

namespace swsig::obs {

// Log-linear latency histogram over positive doubles (canonically µs).
//
// Buckets: kSub sub-buckets per power-of-two octave across exponents
// [kMinExp, kMaxExp). The sub-buckets split each octave linearly, so a
// bucket's hi/lo ratio is largest for the first one of an octave: 1 +
// 1/kSub, 1.03125 with kSub = 32. Any reconstructed quantile is thus
// within ~3.1% (relative) of the exact sample quantile; quantile() returns
// the geometric midpoint of the selected bucket, which cuts that to
// sqrt(1 + 1/kSub) − 1 ≈ 1.6% (tested against util::Samples' exact
// percentiles in tests/obs_test.cpp). add() is wait-free: one
// relaxed fetch_add on the bucket. Values outside the range clamp into the
// edge buckets (2^-11 µs ≈ 0.5 ps to 2^29 µs ≈ 9 min — nothing we time
// escapes it).
class LogHistogram {
 public:
  static constexpr int kSub = 32;
  static constexpr int kMinExp = -10;
  static constexpr int kMaxExp = 30;
  static constexpr int kBuckets = (kMaxExp - kMinExp) * kSub;

  void add(double v) {
    buckets_[static_cast<std::size_t>(bucket_of(v))].fetch_add(
        1, std::memory_order_relaxed);
  }

  std::uint64_t count() const {
    std::uint64_t total = 0;
    for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
    return total;
  }

  // Quantile reconstruction: nearest-rank over bucket counts, geometric
  // midpoint of the winning bucket. p in [0, 100]. 0 on an empty histogram.
  double quantile(double p) const {
    std::uint64_t counts[kBuckets];
    std::uint64_t total = 0;
    for (int b = 0; b < kBuckets; ++b) {
      counts[b] = buckets_[static_cast<std::size_t>(b)].load(
          std::memory_order_relaxed);
      total += counts[b];
    }
    if (total == 0) return 0.0;
    const std::uint64_t rank = static_cast<std::uint64_t>(
        p / 100.0 * static_cast<double>(total - 1));
    std::uint64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
      seen += counts[b];
      if (seen > rank) return bucket_mid(b);
    }
    return bucket_mid(kBuckets - 1);
  }

  double p50() const { return quantile(50.0); }
  double p99() const { return quantile(99.0); }
  double p999() const { return quantile(99.9); }

  // Lower/upper value bounds of bucket b — exposed for the exactness test.
  static double bucket_lo(int b) {
    const int exp = kMinExp + b / kSub;
    const int sub = b % kSub;
    return std::ldexp(1.0 + static_cast<double>(sub) / kSub, exp - 1);
  }
  static double bucket_hi(int b) { return bucket_lo(b + 1); }

  static int bucket_of(double v) {
    if (!(v > 0)) return 0;  // nonpositive / NaN clamp to the first bucket
    int exp;
    const double mant = std::frexp(v, &exp);  // mant in [0.5, 1)
    const int sub = static_cast<int>((mant - 0.5) * 2.0 * kSub);
    const int idx = (exp - kMinExp) * kSub + std::min(sub, kSub - 1);
    return std::clamp(idx, 0, kBuckets - 1);
  }

  // Quiescent-only rewind (soak runs reset their histograms at run start;
  // concurrent add()s during a reset are not torn, just attributed to
  // whichever side of the reset they land on).
  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  }

 private:
  static double bucket_mid(int b) {
    return std::sqrt(bucket_lo(b) * bucket_hi(b));
  }

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  double p50 = 0, p99 = 0, p999 = 0;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& global() {
    static MetricsRegistry registry;
    return registry;
  }

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Returns the counter named `name`, creating it on first use. The
  // reference is stable for the registry's lifetime — call sites resolve
  // once and hold it.
  util::ShardedCounter& counter(const std::string& name) {
    std::scoped_lock lock(mu_);
    auto& slot = counters_[name];
    if (!slot) slot = std::make_unique<util::ShardedCounter>();
    return *slot;
  }

  LogHistogram& histogram(const std::string& name) {
    std::scoped_lock lock(mu_);
    auto& slot = histograms_[name];
    if (!slot) slot = std::make_unique<LogHistogram>();
    return *slot;
  }

  // Gauge: a named readout callback for layers that keep their own
  // counter storage (registers::Metrics, Network totals). The handle
  // deregisters on destruction — gauges must not outlive their source.
  class GaugeHandle {
   public:
    GaugeHandle() = default;
    GaugeHandle(MetricsRegistry* reg, std::uint64_t id)
        : reg_(reg), id_(id) {}
    GaugeHandle(GaugeHandle&& other) noexcept { *this = std::move(other); }
    GaugeHandle& operator=(GaugeHandle&& other) noexcept {
      release();
      reg_ = other.reg_;
      id_ = other.id_;
      other.reg_ = nullptr;
      return *this;
    }
    ~GaugeHandle() { release(); }
    GaugeHandle(const GaugeHandle&) = delete;
    GaugeHandle& operator=(const GaugeHandle&) = delete;

    void release() {
      if (reg_) reg_->remove_gauge(id_);
      reg_ = nullptr;
    }

   private:
    MetricsRegistry* reg_ = nullptr;
    std::uint64_t id_ = 0;
  };

  [[nodiscard]] GaugeHandle gauge(std::string name,
                                  std::function<std::uint64_t()> read) {
    std::scoped_lock lock(mu_);
    const std::uint64_t id = ++next_gauge_;
    gauges_[id] = {std::move(name), std::move(read)};
    return GaugeHandle(this, id);
  }

  // Snapshots (counters include gauges). `prefix` filters by name prefix;
  // empty matches everything. Counters with value 0 are still reported —
  // a zero SLO counter is information.
  std::vector<CounterSnapshot> counters(const std::string& prefix = "") const {
    std::scoped_lock lock(mu_);
    std::vector<CounterSnapshot> out;
    for (const auto& [name, c] : counters_)
      if (name.rfind(prefix, 0) == 0) out.push_back({name, c->value()});
    for (const auto& [id, g] : gauges_)
      if (g.name.rfind(prefix, 0) == 0) out.push_back({g.name, g.read()});
    return out;
  }

  // Quiescent-only rewind of every histogram under `prefix` — soak runs
  // reset their latency namespaces at run start so one process can host
  // several runs without cross-contamination.
  void reset_histograms(const std::string& prefix = "") {
    std::scoped_lock lock(mu_);
    for (auto& [name, h] : histograms_)
      if (name.rfind(prefix, 0) == 0) h->reset();
  }

  std::vector<HistogramSnapshot> histograms(
      const std::string& prefix = "") const {
    std::scoped_lock lock(mu_);
    std::vector<HistogramSnapshot> out;
    for (const auto& [name, h] : histograms_)
      if (name.rfind(prefix, 0) == 0)
        out.push_back({name, h->count(), h->p50(), h->p99(), h->p999()});
    return out;
  }

 private:
  friend class GaugeHandle;
  void remove_gauge(std::uint64_t id) {
    std::scoped_lock lock(mu_);
    gauges_.erase(id);
  }

  struct Gauge {
    std::string name;
    std::function<std::uint64_t()> read;
  };

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<util::ShardedCounter>> counters_;
  std::map<std::string, std::unique_ptr<LogHistogram>> histograms_;
  std::map<std::uint64_t, Gauge> gauges_;
  std::uint64_t next_gauge_ = 0;
};

}  // namespace swsig::obs
