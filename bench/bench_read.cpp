// T3 — Read cost vs n across the three register types, plus the register
// substrate fast-path comparison.
//
// Claims under test: a verifiable-register Read is one register read
// (flat); an authenticated Read embeds a full Verify (§7.1), so it pays
// the quorum cost; a sticky Read needs an n−f witness quorum. The first
// section isolates the substrate: the free-mode read fast path (seqlock
// storage + devirtualized step gate + sharded metering) against the
// pre-optimization baseline (mutex storage + virtual StepController::step),
// which the self-contained SeedSwmr replica below reproduces exactly.
#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/baseline.hpp"
#include "bench/common.hpp"
#include "core/authenticated_register.hpp"
#include "core/sticky_register.hpp"
#include "core/system.hpp"
#include "core/verifiable_register.hpp"

namespace {

using namespace swsig;
using bench::max_f;

constexpr int kIters = 300;
constexpr std::uint64_t kSingleReads = 2'000'000;
constexpr std::uint64_t kMtReadsPerThread = 1'000'000;
constexpr int kMtThreads = 4;

// The seed's register read path, reproduced verbatim as the baseline:
// a virtual StepController::step() bumping one shared atomic counter, a
// shared-atomic access meter, and a per-register mutex (this was
// Space::before_read + Swmr<T>::read before the fast-path rework; the
// ROADMAP's "one mutex + StepController::step()" bullet). Kept as a
// self-contained replica so the committed before/after JSON dumps keep
// measuring the same baseline as the substrate evolves.
class SeedGate {
 public:
  virtual ~SeedGate() = default;
  virtual void step() = 0;  // dynamic dispatch, as StepController::step was
  void before_read() {
    step();
    reads_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> reads_{0};
};

class SeedFreeGate final : public SeedGate {
 public:
  void step() override { count_.fetch_add(1, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> count_{0};
};

// Returned through the base pointer so the step() call cannot be
// devirtualized, exactly like Space's StepController* in the seed.
inline SeedGate& seed_gate() {
  static SeedFreeGate gate;
  return gate;
}

template <typename T>
class SeedSwmr {
 public:
  SeedSwmr(SeedGate& gate, T initial) : gate_(&gate), value_(initial) {}
  T read() const {
    gate_->before_read();
    std::scoped_lock lock(mu_);
    return value_;
  }

 private:
  SeedGate* gate_;
  mutable std::mutex mu_;
  T value_;
};

// ns per read, single thread hammering one register.
template <typename Reg>
double single_thread_read_ns(Reg& reg) {
  // Warmup batch.
  std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < kSingleReads / 10; ++i) sink += reg.read();
  const double us = bench::time_us([&] {
    for (std::uint64_t i = 0; i < kSingleReads; ++i) sink += reg.read();
  });
  // Keep `sink` alive so the reads cannot be elided.
  static volatile std::uint64_t keep;
  keep = sink;
  return us * 1000.0 / static_cast<double>(kSingleReads);
}

// ns per read with kMtThreads concurrent readers on one register.
template <typename Reg>
double concurrent_read_ns(Reg& reg) {
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kMtThreads; ++t) {
    threads.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::uint64_t sink = 0;
      for (std::uint64_t i = 0; i < kMtReadsPerThread; ++i)
        sink += reg.read();
      static volatile std::uint64_t keep;
      keep = sink;
    });
  }
  const double us = bench::time_us([&] {
    go.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();
  });
  return us * 1000.0 /
         static_cast<double>(kMtReadsPerThread * kMtThreads);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter report(argc, argv, "read");

  // ------------------------------------------------- substrate fast path
  bench::heading(
      "Substrate — free-mode read: fast path vs mutex+virtual-step "
      "baseline (ns/read)");
  double fast_single, fast_mt, legacy_single, legacy_mt;
  {
    runtime::FreeStepController ctrl;
    registers::Space space(ctrl);  // free-mode: devirtualized gate
    auto& reg = space.make_swmr<std::uint64_t>(1, 7, "fast");
    fast_single = single_thread_read_ns(reg);
    fast_mt = concurrent_read_ns(reg);
  }
  {
    SeedSwmr<std::uint64_t> reg(seed_gate(), 7);
    legacy_single = single_thread_read_ns(reg);
    legacy_mt = concurrent_read_ns(reg);
  }
  const double single_speedup = legacy_single / fast_single;
  const double mt_speedup = legacy_mt / fast_mt;
  {
    util::Table table({"readers", "baseline ns/read", "fast ns/read",
                       "speedup"});
    table.add_row({"1", util::Table::num(legacy_single),
                   util::Table::num(fast_single),
                   util::Table::num(single_speedup) + "x"});
    table.add_row({util::Table::num(kMtThreads),
                   util::Table::num(legacy_mt), util::Table::num(fast_mt),
                   util::Table::num(mt_speedup) + "x"});
    table.print();
  }
  report.metric("read.substrate.legacy_single_ns", legacy_single);
  report.metric("read.substrate.fast_single_ns", fast_single);
  report.metric("read.substrate.single_speedup", single_speedup);
  report.metric("read.substrate.legacy_mt4_ns", legacy_mt);
  report.metric("read.substrate.fast_mt4_ns", fast_mt);
  report.metric("read.substrate.mt4_speedup", mt_speedup);

  // ----------------------------------------------------- T3 across types
  bench::heading(
      "T3 — Read latency vs n (mean/p50/p99 us over 300 reads)");
  util::Table table({"n", "f", "plain-SWMR read", "verifiable read",
                     "authenticated read", "sticky read"});
  for (int n : {4, 7, 10, 13, 16, 25}) {
    const int f = max_f(n);
    const std::string tag = "read.n" + std::to_string(n);

    // Plain substrate register, for scale.
    runtime::FreeStepController ctrl;
    registers::Space space(ctrl);
    auto& plain = space.make_swmr<std::uint64_t>(1, 7, "plain");
    bench::LatencySummary plain_s;
    {
      runtime::ThisProcess::Binder bind(2);
      plain_s = bench::summarize(
          bench::sample_latency(kIters, [&] { plain.read(); }));
    }

    // Each system is scoped so only one set of helper threads exists at a
    // time (three live n=25 systems would mean 75 spinning helpers).
    bench::LatencySummary verif_s, auth_s, sticky_s;
    {
      using VReg = core::VerifiableRegister<std::uint64_t>;
      core::FreeSystem<VReg> vsys(VReg::Config{n, f, 0, false});
      vsys.as(1, [](VReg& r) { r.write(7); });
      verif_s = vsys.as(2, [&](VReg& r) {
        return bench::summarize(
            bench::sample_latency(kIters, [&] { r.read(); }));
      });
    }
    {
      using AReg = core::AuthenticatedRegister<std::uint64_t>;
      core::FreeSystem<AReg> asys(AReg::Config{n, f, 0, false});
      asys.as(1, [](AReg& r) { r.write(7); });
      auth_s = asys.as(2, [&](AReg& r) {
        return bench::summarize(
            bench::sample_latency(kIters, [&] { r.read(); }));
      });
    }
    {
      using SReg = core::StickyRegister<std::uint64_t>;
      core::FreeSystem<SReg> ssys(SReg::Config{n, f, false});
      ssys.as(1, [](SReg& r) { r.write(7); });
      sticky_s = ssys.as(2, [&](SReg& r) {
        return bench::summarize(
            bench::sample_latency(kIters, [&] { r.read(); }));
      });
    }

    table.add_row({util::Table::num(n), util::Table::num(f),
                   bench::latency_cell(plain_s),
                   bench::latency_cell(verif_s), bench::latency_cell(auth_s),
                   bench::latency_cell(sticky_s)});
    report.metric(tag + ".plain_p50_us", plain_s.p50);
    report.metric(tag + ".verifiable_p50_us", verif_s.p50);
    report.metric(tag + ".authenticated_p50_us", auth_s.p50);
    report.metric(tag + ".sticky_p50_us", sticky_s.p50);
  }
  table.print();
  return 0;
}
