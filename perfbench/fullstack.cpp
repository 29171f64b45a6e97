// fullstack-verify: Algorithm 1 (VerifiableRegister) over the
// message-passing substrate, n = 4, f = 1 — the paper's closing corollary.
//
// p1 loops Write(v)+Sign(v) on fresh values; p2 and p3 loop Verify on the
// latest signed value (must be true), every 8th Verify on a never-signed
// value (must be false). Every process runs a Help() thread. Closed loop,
// three load threads. p1 signs the next value only once both readers have
// verified the current one, which fixes the op mix at about one Sign per
// two signed Verifies and keeps the witness sets from outgrowing the run.
#include <array>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/verifiable_register.hpp"
#include "msgpass/emulated_swmr.hpp"
#include "timed_space.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace swsig::perfbench {
namespace {

using Value = std::uint64_t;
constexpr int kN = 4;
constexpr int kF = 1;
// Never-signed values carry the top bit; signed values never do.
constexpr Value kUnsignedBit = Value{1} << 63;
constexpr auto kIdleWindow = std::chrono::milliseconds(500);

using PlainReg = core::VerifiableRegister<Value, msgpass::EmulatedSpace>;
using TimedReg = core::VerifiableRegister<Value, TimedSpace>;
// The traced run must take the same algorithm paths as the untraced one.
static_assert(PlainReg::kVersionGate == TimedReg::kVersionGate,
              "TimedSpace changes Algorithm 1's fast-path selection");

Value signed_value(std::uint64_t seed, std::uint64_t i) {
  return ((seed & 0xffffffffu) << 24) + i;
}

// One system: n processes over one EmulatedSpace, Algorithm 1 on top
// (through TimedSpace in the traced run), one Help() thread per process.
template <bool kTimed>
class System {
 public:
  using View = std::conditional_t<kTimed, TimedSpace, msgpass::EmulatedSpace>;
  using Reg = core::VerifiableRegister<Value, View>;

  System() : space_({.n = kN, .f = kF}) {
    if constexpr (kTimed) timed_.emplace(space_);
    reg_.emplace(view(), typename Reg::Config{.n = kN, .f = kF, .v0 = 0});
    for (int pid = 1; pid <= kN; ++pid)
      helpers_.emplace_back([this, pid](std::stop_token st) {
        help_loop(st, pid, counts_, [this] { return reg_->help_round(); });
      });
  }

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  Reg& reg() { return *reg_; }
  msgpass::Network& network() { return space_.network(); }

  std::uint64_t help_calls() const { return counts_.calls(); }
  std::uint64_t help_useful() const { return counts_.useful(); }

 private:
  View& view() {
    if constexpr (kTimed)
      return *timed_;
    else
      return space_;
  }

  msgpass::EmulatedSpace space_;  // its server threads stop last
  std::optional<TimedSpace> timed_;
  std::optional<Reg> reg_;
  HelpCounts counts_{kN};
  std::vector<std::jthread> helpers_;  // declared last: joined first
};

// Per load thread: latencies, verdicts, and wrong results.
struct Load {
  util::Samples a;  // Write+Sign (p1) or signed Verify (p2, p3)
  util::Samples b;  // unsigned Verify
  std::vector<std::uint8_t> verdicts;
  std::uint64_t ops = 0;
  std::uint64_t wrong = 0;
  std::string first_error;

  void record(bool verdict, bool expected, const char* what) {
    verdicts.push_back(verdict ? 1 : 0);
    ++ops;
    if (verdict != expected) {
      ++wrong;
      if (first_error.empty()) first_error = what;
    }
  }
};

template <bool kTimed>
PhaseResult run(const PhaseOptions& o) {
  PhaseResult res;
  const Value v0 = signed_value(o.seed, 0);

  // Set-up: build the system and warm every path once. Repeated; the last
  // system is the one measured.
  util::Samples setup;
  std::unique_ptr<System<kTimed>> sys;
  for (int i = 0; i < o.setups; ++i) {
    sys.reset();
    const auto t0 = Clock::now();
    sys = std::make_unique<System<kTimed>>();
    auto& reg = sys->reg();
    {
      runtime::ThisProcess::Binder bind(1);
      reg.write(v0);
      if (reg.sign(v0) != core::SignResult::kSuccess)
        res.fail("warm-up Sign failed");
    }
    // Set-up ends with the first signed value; the Verify warm-ups below
    // race the spinning helpers and would make setup_s mostly noise.
    setup.add(seconds_since(t0));
    {
      runtime::ThisProcess::Binder bind(2);
      if (!reg.verify(v0)) res.fail("warm-up Verify of a signed value failed");
    }
    {
      runtime::ThisProcess::Binder bind(3);
      if (reg.verify(kUnsignedBit | 1))
        res.fail("warm-up Verify of an unsigned value returned true");
    }
  }
  res.set("setup_s", setup.median(), "s");
  res.set("peak_rss_mb", peak_rss_mb(), "MB");
  auto& reg = sys->reg();
  msgpass::Network& net = sys->network();

  // Idle-traffic probe: helpers running, no client op pending. Not part of
  // set-up and not part of the measured window.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  {
    const std::uint64_t m0 = net.messages_sent();
    const std::uint64_t c0 = sys->help_calls();
    const auto t0 = Clock::now();
    std::this_thread::sleep_for(kIdleWindow);
    const double s = seconds_since(t0);
    res.set("net.idle_msgs_per_s",
            static_cast<double>(net.messages_sent() - m0) / s, "1/s");
    res.set("core.idle_help_rounds_per_s",
            static_cast<double>(sys->help_calls() - c0) / s, "1/s");
  }

  // Index of the latest signed value, and per reader the index of the
  // latest signed value it has verified.
  std::atomic<std::uint64_t> latest{0};
  std::array<std::atomic<std::uint64_t>, kN + 1> seen{};
  std::array<Load, 3> load;
  const Window win = Window::from_now(o.seconds);
  const auto deadline = win.deadline;
  std::vector<std::jthread> clients;
  clients.emplace_back([&] {
    Load& l = load[0];
    try {
      runtime::ThisProcess::Binder bind(1);
      for (std::uint64_t i = 1; Clock::now() < deadline; ++i) {
        while ((seen[2].load(std::memory_order_acquire) < i - 1 ||
                seen[3].load(std::memory_order_acquire) < i - 1) &&
               Clock::now() < deadline)
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        const Value v = signed_value(o.seed, i);
        const auto t0 = Clock::now();
        bool ok;
        {
          ScopedSpan span(SpanKind::kOpSign);
          reg.write(v);
          ok = reg.sign(v) == core::SignResult::kSuccess;
        }
        l.record(ok, true, "Sign of a written value failed");
        if (win.measured(t0)) l.a.add(us_since(t0));
        latest.store(i, std::memory_order_release);
      }
    } catch (const std::exception& e) {
      ++l.wrong;
      l.first_error = std::string("writer: ") + e.what();
    }
  });
  for (int pid : {2, 3}) {
    clients.emplace_back([&, pid] {
      Load& l = load[static_cast<std::size_t>(pid - 1)];
      try {
        runtime::ThisProcess::Binder bind(pid);
        util::Rng rng(o.seed * 1013u + static_cast<std::uint64_t>(pid));
        for (std::uint64_t j = 1; Clock::now() < deadline; ++j) {
          const bool deny = j % 8 == 0;
          const std::uint64_t i = latest.load(std::memory_order_acquire);
          const Value v =
              deny ? kUnsignedBit | (rng() >> 1) : signed_value(o.seed, i);
          const auto t0 = Clock::now();
          bool verdict;
          {
            ScopedSpan span(deny ? SpanKind::kOpDeny : SpanKind::kOpVerify);
            verdict = reg.verify(v);
          }
          l.record(verdict, !deny,
                   deny ? "Verify of a never-signed value returned true"
                        : "Verify of a signed value returned false");
          if (win.measured(t0)) (deny ? l.b : l.a).add(us_since(t0));
          if (!deny)
            seen[static_cast<std::size_t>(pid)].store(
                i, std::memory_order_release);
        }
      } catch (const std::exception& e) {
        ++l.wrong;
        l.first_error = "reader p" + std::to_string(pid) + ": " + e.what();
      }
    });
  }

  // Measured window: from the end of the warm-up until the clients finish.
  std::this_thread::sleep_until(win.measure);
  obs::MetricsRegistry::global().reset_histograms("msgpass.");
  const Counters c0 = counters();
  const std::uint64_t calls0 = sys->help_calls();
  const std::uint64_t useful0 = sys->help_useful();
  const std::uint64_t rec0 = obs::FlightRecorder::instance().now_ns();
  const double cpu0 = cpu_seconds();
  std::optional<Sampler> backlog;
  if (o.traced)
    backlog.emplace(
        [&net] { return static_cast<double>(net.queued_messages()); });
  Tracer::instance().set_enabled(o.traced);
  clients.clear();  // joins
  const double elapsed = seconds_since(win.measure);
  Tracer::instance().set_enabled(false);
  const double cpu = cpu_seconds() - cpu0;
  const Counters c1 = counters();
  const std::uint64_t calls = sys->help_calls() - calls0;
  const std::uint64_t useful = sys->help_useful() - useful0;

  util::Samples verify, deny;
  std::uint64_t measured_ops = 0;
  for (int t = 0; t < 3; ++t) {
    Load& l = load[static_cast<std::size_t>(t)];
    res.attempted += l.ops;
    res.failed += l.wrong;
    measured_ops += l.a.count() + l.b.count();
    if (!l.first_error.empty()) res.error(l.first_error);
    res.verdicts.push_back(std::move(l.verdicts));
    if (t > 0) {
      verify.merge(l.a);
      deny.merge(l.b);
    }
  }
  // ~60 ops/s is too few for steady per-slice counts (the register
  // workloads' median_slice_rate); the whole window's mean is steadier here.
  res.set("ops_per_s", static_cast<double>(measured_ops) / elapsed, "1/s");
  res.latency("verify", verify);
  res.latency("deny", deny);
  res.latency("sign", load[0].a);
  res.alias("verify_p50_us", "op_p50_us");
  res.alias("verify_p99_us", "op_p99_us");
  res.alias("verify_p90_us", "op_p90_us");
  res.alias("sign_p50_us", "update_p50_us");
  res.alias("sign_p99_us", "update_p99_us");
  res.alias("sign_p90_us", "update_p90_us");

  const double ops = static_cast<double>(measured_ops);
  msgpass_counter_metrics(res, c0, c1, ops, kN);
  msgpass_histogram_metrics(res);
  ladder_metrics(res, rec0, kN - kF);
  res.set("core.help_rounds_per_s", static_cast<double>(calls) / elapsed,
          "1/s");
  res.set("core.help_useful_frac",
          calls > 0 ? static_cast<double>(useful) / static_cast<double>(calls)
                    : 0.0,
          "ratio");
  res.set("proc.cpu_util", cpu / elapsed, "cores");

  if (o.traced) {
    const util::Samples b = backlog->stop();
    res.set("net.backlog_p50", b.median(), "msgs");
    res.set("net.backlog_max", b.max(), "msgs");
    const TraceSummary ts = summarize_spans();
    trace_count_metrics(res, ts);
    util::Samples self, reg_us, span_us;
    double rounds = 0, nverify = 0, nops = 0, reads = 0, writes = 0;
    double child = 0, total = 0, help_us = 0;
    for (const RootSpan& r : ts.roots) {
      if (r.kind == SpanKind::kHelpRound) help_us += r.us;
      if (!is_client_op(r.kind)) continue;
      ++nops;
      reads += r.reads;
      writes += r.writes + r.updates;
      child += r.child_us;
      total += r.us;
      if (r.kind != SpanKind::kOpVerify) continue;
      ++nverify;
      rounds += r.updates;  // Verify's only update is L13's C_k bump
      self.add(r.us - r.child_us);
      reg_us.add(r.child_us);
      span_us.add(r.us);
    }
    res.set("core.verify_self_us", self.median(), "us");
    res.set("core.verify_reg_us", reg_us.median(), "us");
    res.set("core.verify_span_p50_us", span_us.median(), "us");
    res.set("core.verify_accounted_frac",
            span_us.median() > 0
                ? (self.median() + reg_us.median()) / span_us.median()
                : 0.0,
            "ratio");
    res.set("core.verify_rounds_per_op", nverify > 0 ? rounds / nverify : 0.0,
            "count");
    res.set("core.help_busy_frac", help_us / (kN * elapsed * 1e6), "ratio");
    res.set("msgpass.reg_reads_per_op", nops > 0 ? reads / nops : 0.0, "count");
    res.set("msgpass.reg_writes_per_op", nops > 0 ? writes / nops : 0.0,
            "count");
    res.set("msgpass.reg_read_p50_us", ts.reg_read_us.median(), "us");
    res.set("msgpass.reg_write_p50_us", ts.reg_write_us.median(), "us");
    res.set("msgpass.reg_time_frac", total > 0 ? child / total : 0.0, "ratio");
  }
  return res;
}

}  // namespace

PhaseResult run_fullstack_verify(const PhaseOptions& opts) {
  return opts.traced ? run<true>(opts) : run<false>(opts);
}

}  // namespace swsig::perfbench
