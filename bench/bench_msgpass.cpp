// T9 — The closing corollary, measured: emulated SWMR registers over
// Byzantine message passing (write/read latency, messages per op), the
// full stack — Verify and Sign of a verifiable register running on those
// emulated registers, across n and after a growing history of signed
// values, with the network's queueing delay (T9b) — the per-write message
// cost at larger n
// (T9c), the multi-register collect (T9d), and the async engine's
// pipelined owner writes (T9e).
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "bench/baseline.hpp"
#include "bench/common.hpp"
#include "core/verifiable_register.hpp"
#include "msgpass/emulated_swmr.hpp"
#include "obs/metrics.hpp"
#include "runtime/process.hpp"

namespace {

using namespace swsig;
using bench::max_f;

constexpr int kIters = 40;

// Message counts are taken with EmulatedSpace::quiesce(): sampled right
// after the last client call they would be scheduling-dependent (write()
// returns on n−f ACKs with the trailing f servers' traffic still in
// flight), and these counts are compared against a committed baseline in
// CI.

struct Row {
  double write_us, read_us;
  double msgs_per_write, msgs_per_read;
};

Row emulated_register(int n, int f) {
  msgpass::EmulatedSpace space({.n = n, .f = f});
  auto& reg = space.make_swmr<std::uint64_t>(1, 0, "r");
  Row row{};
  {
    runtime::ThisProcess::Binder bind(1);
    const auto before = space.quiesce();
    std::uint64_t v = 0;
    row.write_us =
        bench::sample_latency(kIters, [&] { reg.write(++v); }).median();
    row.msgs_per_write =
        static_cast<double>(space.quiesce() - before) / kIters;
  }
  {
    runtime::ThisProcess::Binder bind(2);
    const auto before = space.quiesce();
    row.read_us =
        bench::sample_latency(kIters, [&] { reg.read(); }).median();
    row.msgs_per_read =
        static_cast<double>(space.quiesce() - before) / kIters;
  }
  return row;
}

// T9b — Verify and Sign over the full stack: Algorithm 1 on emulated
// registers, one Help() thread per process. p1 writes and signs
// `signed_values` values; then p2 verifies the last one `samples` times
// (after 8 unsampled calls, which also let the helpers adopt the whole
// history into their witness sets), and p1 signs `samples` fresh values,
// each written just before (the write is not timed). Messages are counted
// over the sampled Verify calls only.
struct StackRow {
  util::Samples verify_us;
  double msgs_per_verify = 0;
  util::Samples sign_us;
};

StackRow full_stack(int n, int f, int signed_values, int samples) {
  msgpass::EmulatedSpace space({.n = n, .f = f});
  using Reg = core::VerifiableRegister<std::uint64_t, msgpass::EmulatedSpace>;
  Reg::Config cfg;
  cfg.n = n;
  cfg.f = f;
  cfg.v0 = 0;
  Reg reg(space, cfg);
  std::atomic<bool> stop{false};
  std::vector<std::jthread> helpers;
  for (int pid = 1; pid <= n; ++pid) {
    helpers.emplace_back([&, pid](std::stop_token st) {
      runtime::ThisProcess::Binder bind(pid);
      while (!st.stop_requested() && !stop.load()) {
        if (!reg.help_round()) std::this_thread::yield();
      }
    });
  }
  const auto last = static_cast<std::uint64_t>(signed_values);
  {
    runtime::ThisProcess::Binder bind(1);
    for (std::uint64_t v = 1; v <= last; ++v) {
      reg.write(v);
      reg.sign(v);
    }
  }
  StackRow row;
  {
    runtime::ThisProcess::Binder bind(2);
    for (int i = 0; i < 8; ++i) reg.verify(last);
    const auto before = space.quiesce();
    row.verify_us =
        bench::sample_latency(samples, [&] { reg.verify(last); }, 0);
    row.msgs_per_verify =
        static_cast<double>(space.quiesce() - before) / samples;
  }
  {
    runtime::ThisProcess::Binder bind(1);
    for (int i = 1; i <= samples; ++i) {
      const std::uint64_t v = last + static_cast<std::uint64_t>(i);
      reg.write(v);
      row.sign_us.add(bench::time_us([&] { reg.sign(v); }));
    }
  }
  stop = true;
  for (auto& t : helpers) t.request_stop();
  return row;
}

double iqr(const util::Samples& s) {
  return s.percentile(75.0) - s.percentile(25.0);
}

// T9c — messages per blocking write at larger n: one full
// WRITE/ECHO/ACCEPT/ACK ladder per write, 2n² + 2n messages (design
// note 6).
double msgs_per_write(int n, int f, int writes) {
  msgpass::EmulatedSpace space({.n = n, .f = f});
  auto& reg = space.make_swmr<std::uint64_t>(1, 0, "r");
  runtime::ThisProcess::Binder bind(1);
  const auto before = space.quiesce();
  for (int i = 0; i < writes; ++i) reg.write(static_cast<std::uint64_t>(i + 1));
  return static_cast<double>(space.quiesce() - before) / writes;
}

// T9d — one collect of k registers by p2 (a single READ naming all k, one
// STATE per replier carrying k pairs; design note 18) against k = 1, the
// plain read.
struct CollectRow {
  double us = 0;
  double msgs = 0;
};

CollectRow collect(int n, int f, int k) {
  msgpass::EmulatedSpace space({.n = n, .f = f});
  std::vector<msgpass::EmulatedSwmr<std::uint64_t>*> regs;
  for (int i = 0; i < k; ++i)
    regs.push_back(&space.make_swmr<std::uint64_t>(
        1 + i % n, 0, "r" + std::to_string(i)));
  runtime::ThisProcess::Binder bind(2);
  CollectRow row;
  const auto before = space.quiesce();
  row.us = bench::sample_latency(kIters, [&] { space.collect(regs); }, 0)
               .median();
  row.msgs = static_cast<double>(space.quiesce() - before) / kIters;
  return row;
}

// T9e — the async protocol engine (design note 15): depth-k pipelined
// owner writes as a sliding window (issue k, then await the oldest before
// each new issue — k ops continuously in flight). Each sn keeps its own
// ladder, so pipelining hides the per-write ACK wait but does not save
// messages.
struct PipeRow {
  double write_us = 0;
  double msgs_per_write = 0;
};

PipeRow pipelined_writes(int n, int f, int depth, int writes) {
  msgpass::EmulatedSpace space({.n = n, .f = f, .pipeline_depth = depth});
  auto& reg = space.make_swmr<std::uint64_t>(1, 0, "r");
  PipeRow row{};
  runtime::ThisProcess::Binder bind(1);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) reg.write(++v);  // warm up, outside the count
  const auto before = space.quiesce();
  std::vector<std::uint64_t> window;
  std::size_t oldest = 0;
  const double us = bench::time_us([&] {
    for (int i = 0; i < writes; ++i) {
      if (static_cast<int>(window.size() - oldest) == depth)
        reg.await(window[oldest++]);
      window.push_back(reg.write_async(++v));
    }
    while (oldest < window.size()) reg.await(window[oldest++]);
  });
  row.write_us = us / writes;
  row.msgs_per_write = static_cast<double>(space.quiesce() - before) / writes;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter report(argc, argv, "msgpass");
  bench::heading("T9 — SWMR register emulation over message passing");
  util::Table table({"n", "f", "write us", "msgs/write", "read us",
                     "msgs/read"});
  for (int n : {4, 7, 10}) {
    const int f = max_f(n);
    const Row r = emulated_register(n, f);
    table.add_row({util::Table::num(n), util::Table::num(f),
                   util::Table::num(r.write_us),
                   util::Table::num(r.msgs_per_write, 1),
                   util::Table::num(r.read_us),
                   util::Table::num(r.msgs_per_read, 1)});
    const std::string tag = "msgpass.n" + std::to_string(n);
    report.metric(tag + ".write_us", r.write_us);
    report.metric(tag + ".read_us", r.read_us);
    report.metric(tag + ".msgs_per_write", r.msgs_per_write);
  }
  table.print();

  constexpr int kVerifySamples = 30;
  bench::heading(
      "T9b — full stack: verifiable register OVER emulated registers "
      "(Verify us: median and IQR of " +
      std::to_string(kVerifySamples) + " calls on one signed value; Sign us: "
      "median of as many Signs of fresh values)");
  util::Table stack({"n", "f", "signed values", "verify us", "IQR us",
                     "msgs/verify", "sign us"});
  obs::LogHistogram& queue = obs::MetricsRegistry::global().histogram(
      "net.queue_us");
  double queue_p50 = 0, queue_p99 = 0;  // over the n=4 row
  const auto verify_row = [&](int n, int signed_values,
                              const std::string& key) {
    const int f = max_f(n);
    if (n == 4 && signed_values == 1)
      obs::MetricsRegistry::global().reset_histograms("net.");
    const StackRow r = full_stack(n, f, signed_values, kVerifySamples);
    stack.add_row({util::Table::num(n), util::Table::num(f),
                   util::Table::num(signed_values),
                   util::Table::num(r.verify_us.median()),
                   util::Table::num(iqr(r.verify_us)),
                   util::Table::num(r.msgs_per_verify, 1),
                   util::Table::num(r.sign_us.median())});
    report.metric(key + ".verify_us", r.verify_us.median());
    report.metric(key + ".verify_iqr_us", iqr(r.verify_us));
    report.metric(key + ".msgs_per_verify", r.msgs_per_verify);
    report.metric(key + ".sign_us", r.sign_us.median());
    if (n == 4 && signed_values == 1) {
      queue_p50 = queue.p50();
      queue_p99 = queue.p99();
      report.metric("msgpass.fullstack.n4.queue_p50_us", queue_p50);
      report.metric("msgpass.fullstack.n4.queue_p99_us", queue_p99);
    }
  };
  for (int n : {4, 7, 10})
    verify_row(n, 1, "msgpass.fullstack.n" + std::to_string(n));
  // History sensitivity: the witness sets every helper round and every
  // answer carry hold all the values signed so far.
  for (int values : {100, 1000, 10000})
    verify_row(4, values,
               "msgpass.fullstack.n4.after" + std::to_string(values));
  stack.print();
  bench::heading("      network queueing during the n=4 Verify row: p50 " +
                 util::Table::num(queue_p50) + " us, p99 " +
                 util::Table::num(queue_p99) + " us (net.queue_us)");

  bench::heading(
      "T9c — messages per blocking write at larger n (one "
      "WRITE/ECHO/ACCEPT/ACK ladder per write; 2n^2 + 2n)");
  util::Table cost({"n", "f", "msgs/write"});
  for (int n : {10, 16}) {
    const int f = max_f(n);
    const double mpw = msgs_per_write(n, f, /*writes=*/128);
    cost.add_row({util::Table::num(n), util::Table::num(f),
                  util::Table::num(mpw, 1)});
    report.metric("msgpass.n" + std::to_string(n) + ".unbatched_msgs_per_write",
                  mpw);
  }
  cost.print();

  bench::heading(
      "T9d — one collect of k registers (n=4; k=1 is a plain read): one "
      "READ naming all k, one STATE per replier");
  util::Table collects({"k", "collect us", "msgs/collect"});
  for (int k : {1, 4, 16}) {
    const CollectRow r = collect(4, 1, k);
    collects.add_row({util::Table::num(k), util::Table::num(r.us),
                      util::Table::num(r.msgs, 1)});
    const std::string tag = "msgpass.n4.collect" + std::to_string(k);
    report.metric(tag + "_us", r.us);
    report.metric(tag + "_msgs", r.msgs);
  }
  collects.print();

  bench::heading(
      "T9e — async engine: depth-4 sliding-window pipelined writes (n=10)");
  {
    const int n = 10, f = max_f(10), depth = 4, writes = 128;
    const PipeRow pipelined = pipelined_writes(n, f, depth, writes);
    util::Table pipe({"depth", "write us (pipelined)", "msgs/write"});
    pipe.add_row({"4", util::Table::num(pipelined.write_us),
                  util::Table::num(pipelined.msgs_per_write, 1)});
    pipe.print();
    report.metric("msgpass.n10.pipelined_write_us_emulated",
                  pipelined.write_us);
  }
  return 0;
}
