// register-mix and register-faults: raw EmulatedSwmr<std::string> registers,
// n = 4, f = 1, no core algorithm and no helpers.
//
// 256 registers round-robin over owners p1..p3; one closed-loop client
// thread per owner. 25% of ops are owner writes, 75% reads of any
// register; half of all traffic lands on each owner's 16 hot registers.
// register-faults adds a seeded soak::FaultSchedule (drop + delay + crash,
// unparked, one victim per window) driven from here, with crash/restart
// through EmulatedSpace. The whole history is checked by the partitioned
// linearizability checker; an undecided verdict is a failure.
#include <array>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "lincheck/checker.hpp"
#include "lincheck/history.hpp"
#include "lincheck/register_specs.hpp"
#include "msgpass/emulated_swmr.hpp"
#include "registers/errors.hpp"
#include "soak/fault_schedule.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace swsig::perfbench {
namespace {

constexpr int kN = 4;
constexpr int kF = 1;
constexpr int kRegisters = 256;
constexpr int kOwners = 3;  // p1..p3 own registers and run clients
constexpr int kHot = 16;    // hot registers per owner
constexpr std::uint64_t kPeriodMs = 200;  // fault window
constexpr std::uint64_t kActiveMs = 80;   // faults active in its prefix

using Reg = msgpass::EmulatedSwmr<std::string>;

struct System {
  System() : space({.n = kN, .f = kF}) {
    for (int i = 0; i < kRegisters; ++i) {
      const int owner = 1 + i % kOwners;
      names.push_back("r" + std::to_string(i));
      regs.push_back(&space.make_swmr<std::string>(owner, "0", names.back()));
      owned[static_cast<std::size_t>(owner)].push_back(i);
    }
  }

  msgpass::EmulatedSpace space;
  std::vector<Reg*> regs;
  std::vector<std::string> names;
  std::array<std::vector<int>, kOwners + 1> owned;  // pid -> register index
  lincheck::HistoryRecorder history;
};

// Every owner writes each of its registers once (recorded), in parallel.
void warm_up(System& sys) {
  std::vector<std::jthread> owners;
  for (int pid = 1; pid <= kOwners; ++pid) {
    owners.emplace_back([&sys, pid] {
      runtime::ThisProcess::Binder bind(pid);
      for (const int i : sys.owned[static_cast<std::size_t>(pid)]) {
        const auto ix = static_cast<std::size_t>(i);
        const std::string v =
            "p" + std::to_string(pid) + "#w" + std::to_string(i);
        const int token = sys.history.invoke(sys.names[ix], "write", v);
        sys.regs[ix]->write(v);
        sys.history.respond(token, "done");
      }
    });
  }
}

struct Load {
  util::Samples read_us;  // measured ops only
  util::Samples write_us;
  std::vector<double> done;  // measured ops' completion, s since measure
  std::vector<std::uint8_t> verdicts;  // op kind, 'r' or 'w', in issue order
  std::uint64_t ops = 0;
  std::uint64_t aborts = 0;  // determinate WriteAborted outcomes
  std::uint64_t errors = 0;
  std::string first_error;
};

void client(System& sys, int pid, std::uint64_t seed, const Window& win,
            Load& l) {
  runtime::ThisProcess::Binder bind(pid);
  util::Rng rng(seed * 1013u + static_cast<std::uint64_t>(pid));
  std::uint64_t counter = 0;
  const auto pick = [&](const std::vector<int>& pool) {
    const int hot = std::min<int>(kHot, static_cast<int>(pool.size()));
    if (rng.chance(1, 2))
      return pool[static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::uint64_t>(hot - 1)))];
    return pool[static_cast<std::size_t>(rng.uniform(0, pool.size() - 1))];
  };
  while (Clock::now() < win.deadline) {
    const bool write = rng.chance(1, 4);
    const int owner = write ? pid : static_cast<int>(rng.uniform(1, kOwners));
    const int idx = pick(sys.owned[static_cast<std::size_t>(owner)]);
    Reg& reg = *sys.regs[static_cast<std::size_t>(idx)];
    const std::string& name = sys.names[static_cast<std::size_t>(idx)];
    l.verdicts.push_back(write ? 'w' : 'r');
    ++l.ops;
    try {
      if (write) {
        std::string v =
            "p" + std::to_string(pid) + "#" + std::to_string(++counter);
        const int token = sys.history.invoke(name, "write", v);
        const auto t0 = Clock::now();
        bool aborted = false;
        try {
          ScopedSpan span(SpanKind::kOpWrite);
          reg.write(std::move(v));
        } catch (const registers::WriteAborted&) {
          // Determinate negative after an owner crash: the value can never
          // be read, so the invocation leaves the history (Definition 2).
          aborted = true;
        }
        if (win.measured(t0)) {
          l.write_us.add(us_since(t0));
          l.done.push_back(seconds_since(win.measure));
        }
        if (aborted) {
          sys.history.abort(token);
          ++l.aborts;
        } else {
          sys.history.respond(token, "done");
        }
      } else {
        const int token = sys.history.invoke(name, "read", "");
        const auto t0 = Clock::now();
        std::string got;
        {
          ScopedSpan span(SpanKind::kOpRead);
          got = reg.read();
        }
        if (win.measured(t0)) {
          l.read_us.add(us_since(t0));
          l.done.push_back(seconds_since(win.measure));
        }
        sys.history.respond(token, std::move(got));
      }
    } catch (const std::exception& e) {
      ++l.errors;
      if (l.first_error.empty())
        l.first_error =
            "p" + std::to_string(pid) + " on " + name + ": " + e.what();
      return;
    }
  }
}

// Walks the schedule's windows until the deadline, as the soak runner's
// unparked mode does: a crash window crashes the victim for the active
// phase and restarts it (resync + owner recovery); a drop window ends with
// a resync of the victim. Returns the restart/resync durations in ms.
util::Samples drive_faults(System& sys, soak::FaultSchedule& schedule,
                           Clock::time_point deadline, std::uint64_t& crashes) {
  util::Samples heal_ms;
  const auto sleep_until_ms = [&](std::uint64_t t) {
    while (schedule.now_ms() < t && Clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
  };
  const soak::FaultScheduleConfig& cfg = schedule.config();
  while (Clock::now() < deadline) {
    const std::uint64_t now = schedule.now_ms();
    const std::uint64_t w = schedule.window_at(now);
    const runtime::ProcessId victim = schedule.victim_of(w);
    if (victim != runtime::kNoProcess && schedule.active_at(now)) {
      const bool crash = schedule.crash_window(w);
      if (crash) {
        sys.space.crash(victim);
        ++crashes;
      }
      sleep_until_ms(w * cfg.period_ms + cfg.active_ms);
      const auto t0 = Clock::now();
      if (crash) {
        ScopedSpan span(SpanKind::kRestart);
        sys.space.restart(victim);
      } else {
        ScopedSpan span(SpanKind::kResync);
        sys.space.resync(victim);
      }
      heal_ms.add(us_since(t0) / 1e3);
    }
    sleep_until_ms((schedule.window_at(schedule.now_ms()) + 1) * cfg.period_ms);
  }
  return heal_ms;
}

PhaseResult run(const PhaseOptions& o, bool faults) {
  PhaseResult res;
  util::Samples setup;
  std::unique_ptr<System> sys;
  for (int i = 0; i < o.setups; ++i) {
    sys.reset();
    const auto t0 = Clock::now();
    sys = std::make_unique<System>();
    warm_up(*sys);
    setup.add(seconds_since(t0));
  }
  res.set("setup_s", setup.median(), "s");
  res.set("peak_rss_mb", peak_rss_mb(), "MB");
  msgpass::Network& net = sys->space.network();

  std::optional<soak::FaultSchedule> schedule;
  if (faults) {
    soak::FaultScheduleConfig fcfg;
    fcfg.seed = o.seed;
    fcfg.kinds = soak::FaultKinds::parse("drop+delay+crash");
    fcfg.victims = {1, 2, 3};  // every window impairs a client's process
    fcfg.period_ms = kPeriodMs;
    fcfg.active_ms = kActiveMs;
    schedule.emplace(fcfg);
    net.set_fault_injector(&*schedule);
    schedule->engage(true);  // unparked: the retry layer carries clients
  }

  std::array<Load, kOwners> load;
  util::Samples heal_ms;
  std::uint64_t crashes = 0;
  const Window win = Window::from_now(o.seconds);
  std::vector<std::jthread> clients;
  for (int pid = 1; pid <= kOwners; ++pid)
    clients.emplace_back([&, pid] {
      client(*sys, pid, o.seed, win, load[static_cast<std::size_t>(pid - 1)]);
    });
  std::string fault_error;
  std::jthread fault_thread;
  if (faults)
    fault_thread = std::jthread([&] {
      try {
        heal_ms = drive_faults(*sys, *schedule, win.deadline, crashes);
      } catch (const std::exception& e) {
        fault_error = std::string("fault schedule: ") + e.what();
      }
    });

  // Measured window: from the end of the warm-up until the clients finish.
  std::this_thread::sleep_until(win.measure);
  obs::MetricsRegistry::global().reset_histograms("msgpass.");
  const Counters c0 = counters();
  const std::uint64_t rec0 = obs::FlightRecorder::instance().now_ns();
  const double cpu0 = cpu_seconds();
  std::optional<Sampler> backlog;
  if (o.traced)
    backlog.emplace(
        [&net] { return static_cast<double>(net.queued_messages()); });
  Tracer::instance().set_enabled(o.traced);
  clients.clear();  // joins; fault_thread restarts any crashed victim
  const double elapsed = seconds_since(win.measure);
  Tracer::instance().set_enabled(false);
  const double cpu = cpu_seconds() - cpu0;
  const Counters c1 = counters();
  if (fault_thread.joinable()) fault_thread.join();
  if (!fault_error.empty()) res.fail(fault_error);
  if (faults) {
    schedule->engage(false);
    net.set_fault_injector(nullptr);  // flushes held messages
  }

  util::Samples reads, writes;
  std::vector<double> done;
  std::uint64_t aborts = 0;
  for (Load& l : load) {
    res.attempted += l.ops;
    res.failed += l.errors;
    aborts += l.aborts;
    if (!l.first_error.empty()) res.error(l.first_error);
    reads.merge(l.read_us);
    writes.merge(l.write_us);
    done.insert(done.end(), l.done.begin(), l.done.end());
    res.verdicts.push_back(std::move(l.verdicts));
  }

  // Correctness: the whole recorded history, one partitioned check.
  {
    const std::vector<lincheck::Operation> ops = sys->history.operations();
    lincheck::CheckOptions copts;
    copts.max_states = std::uint64_t{1} << 24;
    const auto t0 = Clock::now();
    const lincheck::CheckResult check = lincheck::check_linearizable(
        ops, lincheck::PlainRegisterSpec("0"), copts);
    res.set("lincheck.check_ms", us_since(t0) / 1e3, "ms");
    res.set("lincheck.ops_checked", static_cast<double>(ops.size()), "count");
    const bool undecided = check.verdict == lincheck::Verdict::kBudgetExhausted;
    res.set("lincheck.undecided", undecided ? 1.0 : 0.0, "count");
    if (undecided)
      res.fail("linearizability check undecided (state budget exhausted): " +
               check.detail);
    else if (!check.linearizable())
      res.fail("history not linearizable: " + check.detail);
  }

  const double ops = static_cast<double>(reads.count() + writes.count());
  res.set("ops_per_s", median_slice_rate(done, o.seconds), "1/s");
  res.latency("read", reads);
  res.latency("write", writes);
  res.alias("read_p50_us", "op_p50_us");
  res.alias("read_p99_us", "op_p99_us");
  res.alias("read_p90_us", "op_p90_us");
  res.alias("write_p50_us", "update_p50_us");
  res.alias("write_p99_us", "update_p99_us");
  res.alias("write_p90_us", "update_p90_us");

  msgpass_counter_metrics(res, c0, c1, ops, kN);
  msgpass_histogram_metrics(res);
  ladder_metrics(res, rec0, kN - kF);
  res.set("proc.cpu_util", cpu / elapsed, "cores");
  res.set("retry.write_aborts", static_cast<double>(aborts), "count");
  res.set("retry.restart_ms", heal_ms.empty() ? 0.0 : heal_ms.median(), "ms");
  res.set("faults.crashes", static_cast<double>(crashes), "count");
  res.set("faults.heals", static_cast<double>(heal_ms.count()), "count");

  if (o.traced) {
    const util::Samples b = backlog->stop();
    res.set("net.backlog_p50", b.median(), "msgs");
    res.set("net.backlog_max", b.max(), "msgs");
    const TraceSummary ts = summarize_spans();
    trace_count_metrics(res, ts);
    // Client ops are the register calls here, one span each.
    const util::Samples read_spans = root_durations(ts, SpanKind::kOpRead);
    const util::Samples write_spans = root_durations(ts, SpanKind::kOpWrite);
    const double nops =
        static_cast<double>(read_spans.count() + write_spans.count());
    res.set("msgpass.reg_reads_per_op",
            nops > 0 ? static_cast<double>(read_spans.count()) / nops : 0.0,
            "count");
    res.set("msgpass.reg_writes_per_op",
            nops > 0 ? static_cast<double>(write_spans.count()) / nops : 0.0,
            "count");
    res.set("msgpass.reg_read_p50_us", read_spans.median(), "us");
    res.set("msgpass.reg_write_p50_us", write_spans.median(), "us");
    res.set("msgpass.reg_time_frac", nops > 0 ? 1.0 : 0.0, "ratio");
  }
  return res;
}

}  // namespace

PhaseResult run_register_mix(const PhaseOptions& opts) {
  return run(opts, /*faults=*/false);
}

PhaseResult run_register_faults(const PhaseOptions& opts) {
  return run(opts, /*faults=*/true);
}

}  // namespace swsig::perfbench
