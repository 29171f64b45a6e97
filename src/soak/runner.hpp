// The soak run itself: a wall-clock-budgeted adversarial workload over the
// msgpass substrate (EmulatedSpace), combining
//
//   * client churn: worker threads bound to honest processes, each op
//     picking a register out of thousands (hot-set biased so registers see
//     real cross-window contention),
//   * a FaultSchedule attached to the Network (drop/delay/reorder/partition),
//   * crash windows: the victim crashes mid-protocol — its own clients
//     included, mid-write — and on restart the recovery subsystem resyncs
//     its state from f+1 live peers and completes or fence-aborts every
//     write it had in flight,
//   * Byzantine agents toggled on and off at runtime, spraying forged
//     protocol traffic at decoy registers (equivocating WRITEs, bogus
//     votes) from their own authenticated identity,
//   * a LivenessMonitor gating progress and a WindowedChecker sampling
//     sliding windows of the live history through the partitioned
//     linearizability checker.
//
// Fault-budget coordination (the reason the driver, not the schedule, owns
// impairment): the impaired set — crashed ∪ drop-targeted ∪ cut ∪
// Byzantine — must stay within f at every instant. Every process is in the
// victim pool, exactly one victim is impaired per window, and Byzantine
// agents stay quiet while an honest victim is impaired. Fault windows hit
// ACTIVE clients; the retry/abort layer, not a park gate, carries them
// through (design note 14).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "lincheck/byzantine_completion.hpp"
#include "lincheck/history.hpp"
#include "lincheck/window.hpp"
#include "msgpass/emulated_swmr.hpp"
#include "registers/errors.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "runtime/process.hpp"
#include "soak/fault_schedule.hpp"
#include "soak/liveness.hpp"
#include "soak/report.hpp"
#include "util/rng.hpp"

namespace swsig::soak {

struct SoakConfig {
  int n = 4;
  int f = 1;
  int registers = 2048;  // honest registers, round-robin over honest pids
  int clients = 8;       // worker threads, round-robin over honest pids
  std::uint64_t duration_ms = 60000;
  std::uint64_t seed = 1;
  FaultKinds faults;
  int byzantine = 0;  // Byzantine processes (<= f): pids n, n-1, ...
  std::size_t window_ops = 512;       // min ops per checked window
  std::uint64_t checkpoint_ms = 250;  // forced quiescent-cut cadence
  std::uint64_t stall_budget_ms = 10000;
  int hot_registers = 16;  // per owner; half of all traffic lands here

  // Writes per client burst (design note 15). 1 = blocking write(). >1:
  // each write turn issues up to this many overlapping write_async ops on
  // ONE register and awaits the tickets in issue order, so owner crashes
  // land mid-pipeline with several in-flight sns. The driver constructs
  // the space with a matching Options::pipeline_depth cap.
  int pipeline_depth = 1;

  // Everything needed to replay this run, in soak_driver flag syntax —
  // printed on every failure so a failure is one command away from replay.
  std::string repro_line() const {
    std::ostringstream os;
    os << "soak_driver --n " << n << " --f " << f << " --registers "
       << registers << " --clients " << clients << " --duration "
       << (duration_ms + 999) / 1000 << " --faults " << faults.to_string()
       << " --byzantine " << byzantine << " --seed " << seed;
    if (pipeline_depth != 1) os << " --pipeline-depth " << pipeline_depth;
    return os.str();
  }
};

namespace detail {

// One burst of forged protocol traffic from a Byzantine process (the
// calling thread is bound as it). Equivocating WRITEs — two values for the
// same sn — plus bogus ECHO/ACCEPT votes, all against the process's OWN
// decoy register (the write-port axiom holds even for Byzantine processes;
// forged votes for others' registers are also sprayed, which servers must
// refuse). Sns cycle over a small pool so honest-side dedup state stays
// bounded over an hours-long soak.
inline void spray_garbage(msgpass::EmulatedSpace& space, int decoy_reg,
                          util::Rng& rng) {
  msgpass::Network& net = space.network();
  const std::uint64_t sn = rng.uniform(1, 64);
  for (const obs::MsgTag tag : {obs::MsgTag::kWrite, obs::MsgTag::kWrite,
                                obs::MsgTag::kEcho, obs::MsgTag::kAccept}) {
    msgpass::Message m;
    m.reg = decoy_reg;
    m.tag = tag;
    m.sn = sn;
    m.payload = msgpass::Payload::of(std::string("byz#") +
                                     std::to_string(rng.uniform(0, 7)));
    net.broadcast(std::move(m));
  }
}

// Park gate: the checker loop parks EVERY worker for its quiescent-cut
// checkpoints. `park` is a request COUNT, so overlapping park/release
// pairs compose (workers run only while no request is outstanding).
struct ParkGate {
  std::mutex mu;
  std::condition_variable cv;
  int park = 0;     // outstanding park requests
  int workers = 0;  // workers assigned to this pid
  int parked = 0;

  // Worker side: called between ops; blocks while parked.
  // Returns true if it parked (caller re-attaches to liveness after).
  template <typename OnPark>
  bool pause_if_parked(OnPark&& on_park) {
    std::unique_lock lock(mu);
    if (park == 0) return false;
    on_park();
    ++parked;
    cv.notify_all();
    cv.wait(lock, [&] { return park == 0; });
    --parked;
    return true;
  }

  // Checker side: returns false if the workers failed to quiesce in time
  // (a stall the liveness monitor will flag; the cut is skipped).
  bool engage_park(std::chrono::milliseconds timeout) {
    std::unique_lock lock(mu);
    ++park;
    cv.notify_all();
    if (!cv.wait_for(lock, timeout, [&] { return parked == workers; })) {
      --park;
      cv.notify_all();
      return false;
    }
    return true;
  }

  void release() {
    std::scoped_lock lock(mu);
    if (park > 0) --park;
    cv.notify_all();
  }

  // Shutdown: drop every outstanding request so no worker stays parked.
  void force_release() {
    std::scoped_lock lock(mu);
    park = 0;
    cv.notify_all();
  }
};

}  // namespace detail

struct SoakOutcome {
  SoakMetrics metrics;
  std::vector<std::string> failures;  // empty iff the run met its SLO

  bool ok() const { return failures.empty() && metrics.slo_ok(); }
};

// Runs the soak workload against `space` (constructed by the caller with
// matching n/f) for cfg.duration_ms. Registers of type std::string.
inline SoakOutcome run_soak(msgpass::EmulatedSpace& space,
                            const SoakConfig& cfg) {
  using Clock = std::chrono::steady_clock;
  SoakOutcome out;

  // ----- processes: byzantine pids are the top `byzantine` ids; the rest
  // are honest owners.
  std::vector<runtime::ProcessId> honest, byz;
  for (int pid = 1; pid <= cfg.n; ++pid) {
    if (pid > cfg.n - cfg.byzantine)
      byz.push_back(pid);
    else
      honest.push_back(pid);
  }

  // ----- registers: honest ones round-robin over honest owners; one decoy
  // per Byzantine pid (never recorded, never touched by honest clients —
  // a Byzantine owner's writes are unverifiable by construction).
  using Reg = msgpass::EmulatedSwmr<std::string>;
  struct RegEntry {
    std::string name;
    runtime::ProcessId owner;
    Reg* reg;
  };
  std::vector<RegEntry> regs;
  std::map<runtime::ProcessId, std::vector<int>> owned;  // pid -> reg index
  regs.reserve(static_cast<std::size_t>(cfg.registers));
  for (int i = 0; i < cfg.registers; ++i) {
    const runtime::ProcessId owner =
        honest[static_cast<std::size_t>(i) % honest.size()];
    const std::string name = "r" + std::to_string(i);
    Reg& r = space.make_swmr<std::string>(owner, "0", name);
    regs.push_back(RegEntry{name, owner, &r});
    owned[owner].push_back(i);
  }
  std::map<runtime::ProcessId, int> decoys;  // byz pid -> decoy reg id
  // Decoy registers ARE sampled: a reader thread records their reads into
  // a separate history checked through the byzantine_completion
  // construction (the recorded history is reads-only — a Byzantine owner's
  // writes are unverifiable by construction, so the checker must find a
  // witness write sequence, Definition 7).
  struct DecoyEntry {
    std::string name;
    Reg* reg;
  };
  std::vector<DecoyEntry> decoy_regs;
  int next_reg_id = cfg.registers;  // the space assigns ids in creation order
  for (const runtime::ProcessId pid : byz) {
    const std::string name = "decoy-p" + std::to_string(pid);
    Reg& d = space.make_swmr<std::string>(pid, "0", name);
    decoys[pid] = next_reg_id++;
    decoy_regs.push_back(DecoyEntry{name, &d});
  }

  // ----- shared infrastructure
  lincheck::HistoryRecorder rec;
  LivenessMonitor liveness(
      LivenessMonitor::Options{cfg.stall_budget_ms, /*error_budget=*/0});
  lincheck::WindowedChecker::Options wopts;
  wopts.min_window_ops = cfg.window_ops;
  lincheck::WindowedChecker checker(wopts);

  FaultScheduleConfig fcfg;
  fcfg.seed = cfg.seed;
  fcfg.kinds = cfg.faults;
  // Any process — honest owners included — can be the window's victim, so
  // crashes and cuts land on processes with live, mid-operation clients.
  // Still one victim per window (≤ f impaired).
  for (int pid = 1; pid <= cfg.n; ++pid) fcfg.victims.push_back(pid);
  FaultSchedule schedule(fcfg);
  space.network().set_fault_injector(&schedule);

  std::map<runtime::ProcessId, detail::ParkGate> gates;
  for (int pid = 1; pid <= cfg.n; ++pid) gates[pid];

  std::atomic<bool> stop{false};
  std::atomic<int> live_workers{0};
  std::atomic<std::uint64_t> reads{0}, writes{0}, errors{0};
  std::atomic<std::uint64_t> write_aborts{0}, byz_reads{0};
  std::atomic<bool> byz_on{false};
  std::mutex fail_mu;
  lincheck::HistoryRecorder byz_rec;  // decoy-register samples (reads only)

  // Run-scoped registry telemetry: latency histograms rewound at run start
  // (one process may host several runs, as soak_test does), traffic
  // counters handled as start-snapshot deltas since
  // counters are shared process-wide and never reset.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  registry.reset_histograms("soak.");
  registry.reset_histograms("msgpass.");
  obs::LogHistogram& read_hist = registry.histogram("soak.read_us");
  obs::LogHistogram& write_hist = registry.histogram("soak.write_us");
  std::map<std::string, std::uint64_t> net_baseline;
  for (const obs::CounterSnapshot& c : registry.counters("net."))
    net_baseline[c.name] = c.value;
  // Retry/abort counters are process-wide and never reset, so this run's
  // contribution is the delta against a start snapshot, like "net." above.
  const std::uint64_t retries0 = msgpass::detail::retry_counter().value();
  const std::uint64_t timeouts0 = msgpass::detail::timeout_counter().value();

  const auto record_failure = [&](std::string what) {
    std::scoped_lock lock(fail_mu);
    if (out.failures.size() < 16) out.failures.push_back(std::move(what));
  };

  // ----- client workers
  const int nclients = std::max(cfg.clients, static_cast<int>(honest.size()));
  std::vector<std::jthread> workers;
  for (int c = 0; c < nclients; ++c) {
    const runtime::ProcessId pid =
        honest[static_cast<std::size_t>(c) % honest.size()];
    gates[pid].workers++;
    live_workers.fetch_add(1, std::memory_order_relaxed);
    workers.emplace_back([&, c, pid](std::stop_token st) {
      runtime::ThisProcess::Binder bind(pid);
      const std::string name =
          "c" + std::to_string(c) + "@p" + std::to_string(pid);
      util::Rng rng(cfg.seed * 1013u + static_cast<std::uint64_t>(c));
      liveness.attach(name);
      std::uint64_t counter = 0;  // write-value counter
      detail::ParkGate& gate = gates[pid];
      const std::vector<int>& mine = owned[pid];
      while (!st.stop_requested() && !stop.load(std::memory_order_relaxed)) {
        if (gate.pause_if_parked([&] { liveness.detach(name); }))
          liveness.attach(name);
        if (stop.load(std::memory_order_relaxed)) break;
        // Hot-set bias: half of all traffic lands on each owner's first
        // hot_registers registers, so some registers see real concurrency.
        const auto pick = [&](const std::vector<int>& pool) {
          const int hot = std::min<int>(cfg.hot_registers,
                                        static_cast<int>(pool.size()));
          if (hot > 0 && rng.chance(1, 2))
            return pool[static_cast<std::size_t>(rng.uniform(
                0, static_cast<std::uint64_t>(hot - 1)))];
          return pool[static_cast<std::size_t>(
              rng.uniform(0, pool.size() - 1))];
        };
        const bool do_write = !mine.empty() && rng.chance(1, 4);
        const int idx = do_write ? pick(mine)
                                 : static_cast<int>(rng.uniform(
                                       0, static_cast<std::uint64_t>(
                                              cfg.registers - 1)));
        RegEntry& entry = regs[static_cast<std::size_t>(idx)];
        Reg& reg = *entry.reg;
        if (do_write && cfg.pipeline_depth > 1) {
          // Pipelined burst: issue up to depth overlapping write_asyncs on
          // ONE register, then await the tickets in issue order. Owner
          // crashes now land with several in-flight sns on a single ladder
          // and recovery must settle each deterministically (complete or
          // abort) — exactly what the online checker verifies. The space's
          // capacity gate blocks the (depth+1)-th issue.
          struct InFlight {
            int token;
            std::uint64_t ticket;
          };
          std::vector<InFlight> burst;
          burst.reserve(static_cast<std::size_t>(cfg.pipeline_depth));
          const auto t0 = Clock::now();
          for (int b = 0; b < cfg.pipeline_depth; ++b) {
            const std::string v = name + "#" + std::to_string(counter++);
            const int token = rec.invoke(entry.name, "write", v);
            try {
              burst.push_back(InFlight{token, reg.write_async(v)});
            } catch (const std::exception& e) {
              // The issue itself failed: the value never left the client,
              // so the pending invocation is removed, not left dangling.
              rec.abort(token);
              errors.fetch_add(1, std::memory_order_relaxed);
              liveness.error(name);
              record_failure("write_async error on " + entry.name + " by " +
                             name + ": " + e.what());
              break;
            }
          }
          for (const InFlight& op : burst) {
            try {
              reg.await(op.ticket);
              rec.respond(op.token, "done");
              writes.fetch_add(1, std::memory_order_relaxed);
              liveness.success(name);
            } catch (const registers::WriteAborted&) {
              // Determinate negative, same as the blocking path below: the
              // recovery fence proved the value can never deliver.
              rec.abort(op.token);
              write_aborts.fetch_add(1, std::memory_order_relaxed);
              liveness.success(name);
            } catch (const std::exception& e) {
              errors.fetch_add(1, std::memory_order_relaxed);
              liveness.error(name);
              record_failure("await error on " + entry.name + " by " + name +
                             ": " + e.what());
            }
          }
          if (!burst.empty()) {
            // Amortized per-op latency, one histogram sample per op, so the
            // depth-1 and depth-k write distributions stay comparable.
            const double us =
                std::chrono::duration<double, std::micro>(Clock::now() - t0)
                    .count() /
                static_cast<double>(burst.size());
            for (std::size_t i = 0; i < burst.size(); ++i) write_hist.add(us);
          }
          continue;
        }
        try {
          const auto t0 = Clock::now();
          if (do_write) {
            // Every written value is unique (worker name + counter), so
            // the checker can tell any two writes apart.
            const std::string v = name + "#" + std::to_string(counter++);
            const int token = rec.invoke(entry.name, "write", v);
            try {
              reg.write(v);
            } catch (const registers::WriteAborted&) {
              // Determinate negative: the owner's recovery fence proved
              // the value can never be delivered or read, so the pending
              // invocation is removed from the history (Definition 2
              // completion). An abort is a survived crash, not an error.
              rec.abort(token);
              write_aborts.fetch_add(1, std::memory_order_relaxed);
              liveness.success(name);
              continue;
            }
            rec.respond(token, "done");
            writes.fetch_add(1, std::memory_order_relaxed);
          } else {
            const int token = rec.invoke(entry.name, "read", "");
            std::string v = reg.read();
            rec.respond(token, std::move(v));
            reads.fetch_add(1, std::memory_order_relaxed);
          }
          const double us =
              std::chrono::duration<double, std::micro>(Clock::now() - t0)
                  .count();
          // Every op lands in a fixed-size log-bucketed histogram — no
          // sampling or memory cap needed, unlike the raw vectors this
          // replaced (one wait-free fetch_add per op).
          (do_write ? write_hist : read_hist).add(us);
          liveness.success(name);
        } catch (const std::exception& e) {
          errors.fetch_add(1, std::memory_order_relaxed);
          liveness.error(name);
          record_failure("op error on " + entry.name + " by " + name + ": " +
                         e.what());
        }
      }
      liveness.detach(name);
      live_workers.fetch_sub(1, std::memory_order_release);
    });
  }

  // ----- Byzantine agents: forged traffic, toggled on/off per window.
  std::vector<std::jthread> byz_agents;
  for (const runtime::ProcessId pid : byz) {
    byz_agents.emplace_back([&, pid](std::stop_token st) {
      runtime::ThisProcess::Binder bind(pid);
      util::Rng rng(cfg.seed * 7177u + static_cast<std::uint64_t>(pid));
      while (!st.stop_requested()) {
        if (byz_on.load(std::memory_order_relaxed))
          detail::spray_garbage(space, decoys[pid], rng);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }

  // ----- decoy auditor: reads Byzantine-owned registers from an honest
  // process into byz_rec; the checker loop feeds the samples through the
  // byzantine_completion witness construction. Counted in live_workers so
  // a wedged audit read is caught by the shutdown grace like any worker.
  std::vector<std::jthread> auditors;
  if (!decoy_regs.empty()) {
    const runtime::ProcessId apid = honest.front();
    live_workers.fetch_add(1, std::memory_order_relaxed);
    auditors.emplace_back([&, apid](std::stop_token st) {
      runtime::ThisProcess::Binder bind(apid);
      const std::string name = "audit@p" + std::to_string(apid);
      liveness.attach(name);
      std::size_t i = 0;
      while (!st.stop_requested() && !stop.load(std::memory_order_relaxed)) {
        const DecoyEntry& d = decoy_regs[i++ % decoy_regs.size()];
        try {
          const int token = byz_rec.invoke(d.name, "read", "");
          std::string v = d.reg->read();
          byz_rec.respond(token, std::move(v));
          byz_reads.fetch_add(1, std::memory_order_relaxed);
          liveness.success(name);
        } catch (const std::exception& e) {
          errors.fetch_add(1, std::memory_order_relaxed);
          liveness.error(name);
          record_failure("decoy read error on " + d.name + ": " + e.what());
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
      }
      liveness.detach(name);
      live_workers.fetch_sub(1, std::memory_order_release);
    });
  }

  // ----- fault driver: walks the schedule's windows. Impairment lands on
  // live clients and the retry/abort layer carries them (design note 14);
  // Byzantine behavior toggles window by window.
  std::uint64_t crashes = 0, resyncs = 0, partitions = 0;
  std::jthread fault_driver([&](std::stop_token st) {
    if (!cfg.faults.any() && byz.empty()) return;
    // Loss faults are survivable once retries exist, so the schedule's
    // drop gate goes up at start and stays up.
    schedule.engage(true);
    while (!st.stop_requested()) {
      const std::uint64_t now = schedule.now_ms();
      const std::uint64_t w = schedule.window_at(now);
      const runtime::ProcessId victim = schedule.victim_of(w);
      const bool want_crash = schedule.crash_window(w) && cfg.faults.crash;
      const bool want_part = !want_crash && schedule.partition_window(w);
      const bool want_drop = !want_crash && !want_part && cfg.faults.drop;
      const bool impair = victim != runtime::kNoProcess &&
                          (want_crash || want_part || want_drop);
      // Byzantine agents act on odd windows — toggled at runtime, as the
      // schedule requires, and verified off again between windows. They
      // stay quiet while an HONEST victim is impaired, keeping the impaired
      // set (crashed ∪ cut ∪ Byzantine) within f.
      const bool victim_is_byz =
          std::find(byz.begin(), byz.end(), victim) != byz.end();
      byz_on.store(
          !byz.empty() && (w % 2 == 1) && !(impair && !victim_is_byz),
          std::memory_order_relaxed);
      if (impair && schedule.active_at(now)) {
        const std::uint64_t active_end = w * fcfg.period_ms + fcfg.active_ms;
        const auto hold = [&] {
          while (schedule.now_ms() < active_end && !st.stop_requested())
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        };
        const auto cut_event = [&](obs::EventKind kind) {
          msgpass::detail::record_phase(
              kind, victim, -1, victim, w,
              static_cast<std::uint64_t>(schedule.partition_mode(w)));
        };
        if (want_crash) {
          space.crash(victim);  // its clients' in-flight ops ride retries
          ++crashes;
        } else if (want_part) {
          cut_event(obs::EventKind::kPartitionCut);
          ++partitions;
        }
        hold();
        if (want_crash) {
          // restart() resyncs AND runs owner recovery: every write the
          // crash left in flight is completed or fence-aborted, waking its
          // (still blocked) client with a definite outcome.
          space.restart(victim);
        } else {
          if (want_part) cut_event(obs::EventKind::kPartitionHeal);
          // Heal drop-window staleness with the same recovery path, so
          // rotating victims never accumulate into >f stale servers.
          space.resync(victim);
        }
        ++resyncs;
      }
      // Sleep to the next window boundary.
      const std::uint64_t next = (schedule.window_at(schedule.now_ms()) + 1) *
                                 fcfg.period_ms;
      while (schedule.now_ms() < next && !st.stop_requested())
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    schedule.engage(false);
    byz_on.store(false, std::memory_order_relaxed);
  });

  // ----- checker loop (this thread): drain the live history into
  // quiescent-cut windows, gate on liveness, stop at the duration budget.
  // Natural quiescent instants are rare under saturating load, so every
  // checkpoint_ms ALL workers are parked for an instant — nothing in
  // flight, so the drain's watermark closes the whole buffer and the
  // checker gets a sound cut at a bounded cadence (lincheck/window.hpp).
  const auto t_start = Clock::now();
  const auto deadline = t_start + std::chrono::milliseconds(cfg.duration_ms);
  const auto handle_verdicts =
      [&](const std::vector<lincheck::WindowVerdict>& verdicts) {
        for (const auto& v : verdicts) {
          if (v.result.verdict == lincheck::Verdict::kViolation) {
            out.metrics.window_violations++;
            record_failure(
                "window [" + std::to_string(v.first_op) + ", " +
                std::to_string(v.last_op) + "] not linearizable (object " +
                v.result.detail + ", " + std::to_string(v.ops.size()) +
                " ops)");
          } else if (v.result.verdict ==
                     lincheck::Verdict::kBudgetExhausted) {
            out.metrics.windows_undecided++;
          }
        }
      };
  const auto checkpoint = [&] {
    std::vector<detail::ParkGate*> held;
    bool all = true;
    for (auto& [pid, gate] : gates) {
      if (gate.workers == 0) continue;
      if (gate.engage_park(std::chrono::milliseconds(1000))) {
        held.push_back(&gate);
      } else {
        all = false;  // stalled worker: skip the cut, liveness flags it
        break;
      }
    }
    if (all) checker.feed(rec.drain());
    for (detail::ParkGate* g : held) g->release();
    return all;
  };
  // Byzantine-register sampling: decoy reads accumulate into chunks that
  // go through the witness construction (a chunk of completed reads is a
  // valid correct-process sub-history; per-chunk checking samples the run
  // the same way windowing samples the honest history).
  std::vector<lincheck::Operation> byz_samples;
  std::uint64_t byz_checks = 0, byz_failures = 0;
  const auto byz_check = [&](bool flush) {
    if (decoy_regs.empty()) return;
    for (lincheck::Operation& op : byz_rec.drain_completed())
      byz_samples.push_back(std::move(op));
    if (byz_samples.empty() || (!flush && byz_samples.size() < 256)) return;
    const lincheck::ByzantineCheckResult res =
        lincheck::check_byzantine_authenticated(byz_samples, "0");
    ++byz_checks;
    if (!res.byzantine_linearizable &&
        res.verdict == lincheck::Verdict::kViolation) {
      ++byz_failures;
      record_failure("byzantine sample (" + std::to_string(byz_samples.size()) +
                     " decoy reads) not byzantine-linearizable: " + res.reason);
    }
    byz_samples.clear();
  };
  auto next_checkpoint =
      t_start + std::chrono::milliseconds(cfg.checkpoint_ms);
  while (Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (Clock::now() >= next_checkpoint) {
      checkpoint();
      next_checkpoint =
          Clock::now() + std::chrono::milliseconds(cfg.checkpoint_ms);
    } else {
      checker.feed(rec.drain());
    }
    handle_verdicts(checker.poll());
    byz_check(false);
    liveness.check();
  }

  // ----- shutdown: the fault driver first — joining it guarantees any
  // in-progress window is wound down (crashed victim restarted, drops
  // disengaged; its hold loops poll the stop token), so workers are never
  // left mid-impairment. Then the workers, then the final checker pass.
  fault_driver.request_stop();
  fault_driver = {};
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : workers) t.request_stop();
  for (auto& g : gates) g.second.force_release();
  // A worker that never returns is wedged INSIDE a blocking protocol op —
  // a liveness bug that joining would turn into a silent hang. Give the
  // stragglers a bounded grace, then name the stuck operations (the
  // pending snapshot is exact: invoked, never responded) and abort with
  // the repro line; a wedged workload cannot be unwound thread by thread.
  const auto grace = Clock::now() + std::chrono::milliseconds(
                                        std::max<std::uint64_t>(
                                            cfg.stall_budget_ms / 2, 2000));
  while (live_workers.load(std::memory_order_acquire) > 0 &&
         Clock::now() < grace)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  if (live_workers.load(std::memory_order_acquire) > 0) {
    std::cerr << "SOAK WEDGED: " << live_workers.load()
              << " worker(s) stuck in an operation:\n";
    for (const auto& op : rec.pending_snapshot())
      std::cerr << "  p" << op.pid << " " << op.name << "(" << op.object
                << (op.arg.empty() ? "" : ", " + op.arg) << ") invoked at ts "
                << op.invoke_ts << ", never responded\n";
    for (const auto& op : byz_rec.pending_snapshot())
      std::cerr << "  p" << op.pid << " " << op.name << "(" << op.object
                << ") [decoy audit] invoked at ts " << op.invoke_ts
                << ", never responded\n";
    // A deep in-flight backlog means the network is still churning and the
    // stall is starvation; a zero backlog means the protocol went silent.
    std::cerr << "  in-flight backlog: " << space.network().queued_messages()
              << " message(s) queued\n";
    // Flight-recorder forensics: which ladder stalled, and on which rung.
    const std::vector<obs::Event> events =
        obs::FlightRecorder::instance().snapshot();
    obs::wedge_report(std::cerr, events);
    const std::string trace_path = "soak_trace.txt";
    if (obs::write_trace_file(trace_path, events))
      std::cerr << "trace written to " << trace_path << "\n";
    std::cerr << "REPRO: " << cfg.repro_line() << std::endl;
    std::_Exit(3);
  }
  workers.clear();
  auditors.clear();
  for (auto& t : byz_agents) t.request_stop();
  byz_agents.clear();

  checker.feed(rec.drain());
  handle_verdicts(checker.finish());
  byz_check(/*flush=*/true);
  const LivenessMonitor::Report live = liveness.check();
  space.network().set_fault_injector(nullptr);

  // ----- metrics
  SoakMetrics& m = out.metrics;
  m.duration_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                            t_start)
          .count());
  m.reads = reads.load();
  m.writes = writes.load();
  m.op_errors = errors.load();
  m.windows_checked = checker.windows_checked();
  m.liveness_violations = live.violations;
  m.max_stall_ms = live.max_stall_ms;
  m.messages_dropped = space.network().messages_dropped();
  m.messages_delayed = space.network().messages_delayed();
  m.crashes = crashes;
  m.resyncs = resyncs;
  m.partitions = partitions;
  m.op_retries = msgpass::detail::retry_counter().value() - retries0;
  m.op_timeouts = msgpass::detail::timeout_counter().value() - timeouts0;
  m.write_aborts = write_aborts.load();
  m.byz_reads = byz_reads.load();
  m.byz_checks = byz_checks;
  m.byz_failures = byz_failures;
  m.read_p50_us = read_hist.p50();
  m.read_p99_us = read_hist.p99();
  m.write_p50_us = write_hist.p50();
  m.write_p99_us = write_hist.p99();
  {
    rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) == 0)
      m.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
  }
  // Per-message-type traffic over this run (delta vs the start snapshot;
  // zero-traffic types pruned) and the protocol-phase latency histograms.
  for (const obs::CounterSnapshot& c : registry.counters("net.")) {
    const auto it = net_baseline.find(c.name);
    const std::uint64_t before = it == net_baseline.end() ? 0 : it->second;
    if (c.value > before) m.msg_counters.push_back({c.name, c.value - before});
  }
  for (const obs::HistogramSnapshot& h : registry.histograms("msgpass."))
    if (h.count > 0) m.phase_hists.push_back(h);
  if (live.violations > 0)
    record_failure("liveness: " + std::to_string(live.violations) +
                   " stall violation(s), max stall " +
                   std::to_string(live.max_stall_ms) + " ms");
  return out;
}

}  // namespace swsig::soak
