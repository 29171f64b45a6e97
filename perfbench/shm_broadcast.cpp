// shm-broadcast: StickyReliableBroadcast (one Algorithm 3 sticky register
// per slot) over the shared-memory registers::Space in free mode, n = 4,
// f = 1, one Help() thread per process. (At n = 7 the nine spinning
// threads on a 4-core host made run-to-run medians swing by 30% and more.)
//
// p1..p3 broadcast in turn; for each broadcast a process that is not a
// sender (p4) polls deliver from the moment of the call until it
// returns the value. Closed loop, two load threads (broadcaster and
// deliverer). Slots are write-once, so a system holds kSlots broadcasts
// per sender; when they run out the system is torn down and set up again
// (every set-up is timed into setup_s; the measured rate excludes them).
// Before a system is torn down, every process other than the sender must
// deliver every slot's broadcast value.
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "broadcast/reliable_broadcast.hpp"
#include "registers/space.hpp"
#include "runtime/step_controller.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace swsig::perfbench {
namespace {

using Value = broadcast::Value;
constexpr int kN = 4;
constexpr int kF = 1;
constexpr int kSenders = 3;
constexpr int kSlots = 32;  // broadcasts per sender per system

// One system: free-mode Space, the broadcast object, and n helper threads
// that never park (core::FreeSystem with idle_backoff off, the
// latency-sensitive setting: parking on the write epoch put vCPU wake-up
// latency into every tail and made the p99 swing between runs).
class System {
 public:
  System()
      : space_(controller_),
        rb_(space_, {.n = kN, .f = kF, .max_broadcasts = kSlots}) {
    for (int pid = 1; pid <= kN; ++pid)
      helpers_.emplace_back([this, pid](std::stop_token st) {
        help_loop(st, pid, counts_, [this] { return rb_.help_round(); });
      });
  }

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  broadcast::StickyReliableBroadcast& rb() { return rb_; }
  registers::Metrics& metrics() { return space_.metrics(); }
  std::uint64_t help_calls() const { return counts_.calls(); }
  std::uint64_t help_useful() const { return counts_.useful(); }

 private:
  runtime::FreeStepController controller_;
  registers::Space space_;
  broadcast::StickyReliableBroadcast rb_;
  HelpCounts counts_{kN};
  std::vector<std::jthread> helpers_;  // declared last: joined first
};

// One broadcast handed from the broadcaster to the deliverer thread.
struct Job {
  broadcast::StickyReliableBroadcast* rb = nullptr;
  int sender = 0;
  int seq = 0;
  Value value = 0;
  int deliverer = 0;
  Clock::time_point t0;
};

struct Outcome {
  double deliver_us = 0;
  std::uint64_t polls = 0;
  bool ok = false;
};

// Deliverer thread: polls deliver for each job until it yields a value.
class Deliverer {
 public:
  Deliverer() : thread_([this](std::stop_token st) { loop(st); }) {}

  Deliverer(const Deliverer&) = delete;
  Deliverer& operator=(const Deliverer&) = delete;

  void post(const Job& job) {
    std::scoped_lock lock(mu_);
    job_ = job;
    outcome_.reset();
    cv_.notify_all();
  }

  Outcome wait() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return outcome_.has_value(); });
    return *outcome_;
  }

 private:
  void loop(std::stop_token st) {
    for (;;) {
      Job job;
      {
        std::unique_lock lock(mu_);
        if (!cv_.wait(lock, st, [&] { return job_.has_value(); })) return;
        job = *job_;
        job_.reset();
      }
      Outcome out;
      try {
        runtime::ThisProcess::Binder bind(job.deliverer);
        std::optional<Value> got;
        for (;;) {
          ++out.polls;
          {
            ScopedSpan span(SpanKind::kOpDeliver);
            got = job.rb->deliver(job.sender, job.seq);
          }
          if (got) break;
          std::this_thread::yield();
        }
        out.deliver_us = us_since(job.t0);
        out.ok = *got == job.value;
      } catch (const std::exception&) {
        out.ok = false;
      }
      std::scoped_lock lock(mu_);
      outcome_ = out;
      cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable_any cv_;
  std::optional<Job> job_;          // guarded by mu_
  std::optional<Outcome> outcome_;  // guarded by mu_
  std::jthread thread_;             // declared last: joined first
};

struct Sent {
  int sender;
  int seq;
  Value value;
};

}  // namespace

PhaseResult run_shm_broadcast(const PhaseOptions& o) {
  PhaseResult res;
  util::Rng rng(o.seed);
  util::Samples setup, deliver_us, bcast_us;
  std::vector<std::uint8_t> verdicts;
  std::uint64_t polls = 0, reads = 0, writes = 0, calls = 0, useful = 0;
  std::uint64_t delivered = 0;
  // Per system: measured deliveries / their summed duration. The reported
  // rate is the median over systems, so a rare descheduled stretch moves
  // one system's rate instead of the mean of the whole run.
  util::Samples rates;

  const double cpu0 = cpu_seconds();
  Tracer::instance().set_enabled(o.traced);
  const Window win = Window::from_now(o.seconds);
  const auto deadline = win.deadline;
  for (std::uint64_t op = 0; Clock::now() < deadline;) {
    const auto t_setup = Clock::now();
    auto sys = std::make_unique<System>();
    setup.add(seconds_since(t_setup));
    if (setup.count() == 1) res.set("peak_rss_mb", peak_rss_mb(), "MB");

    const registers::Metrics::Snapshot m0 = sys->metrics().snapshot();
    const std::uint64_t calls0 = sys->help_calls();
    const std::uint64_t useful0 = sys->help_useful();
    std::vector<Sent> sent;
    std::uint64_t measured = 0;
    double active_s = 0;
    // Fresh load threads per system, like the helpers, so no one thread
    // placement decides a whole run.
    std::jthread broadcaster([&] {
      Deliverer deliverer;
      for (int k = 0; k < kSenders * kSlots && Clock::now() < deadline;
           ++k, ++op) {
        Job job;
        job.rb = &sys->rb();
        job.sender = 1 + k % kSenders;
        job.seq = k / kSenders;
        job.value = rng();
        job.deliverer = kSenders + 1 + static_cast<int>(op % (kN - kSenders));
        job.t0 = Clock::now();
        deliverer.post(job);
        {
          runtime::ThisProcess::Binder bind(job.sender);
          ScopedSpan span(SpanKind::kOpBroadcast);
          sys->rb().broadcast(job.seq, job.value);
        }
        const double bcast = us_since(job.t0);
        const Outcome out = deliverer.wait();
        if (win.measured(job.t0)) {
          bcast_us.add(bcast);
          deliver_us.add(out.deliver_us);
          active_s += seconds_since(job.t0);
          ++measured;
        }
        polls += out.polls;
        ++delivered;
        verdicts.push_back(out.ok ? 1 : 0);
        ++res.attempted;
        if (!out.ok)
          res.fail("slot (p" + std::to_string(job.sender) + ", " +
                   std::to_string(job.seq) + ") delivered a wrong value to p" +
                   std::to_string(job.deliverer));
        sent.push_back(Sent{job.sender, job.seq, job.value});
      }
    });
    broadcaster.join();
    if (measured > 0) rates.add(static_cast<double>(measured) / active_s);
    const registers::Metrics::Snapshot d = sys->metrics().snapshot().delta(m0);
    reads += d.reads;
    writes += d.writes;
    calls += sys->help_calls() - calls0;
    useful += sys->help_useful() - useful0;

    // Every process other than the sender delivers every slot's value.
    for (const Sent& s : sent) {
      for (int pid = 1; pid <= kN; ++pid) {
        if (pid == s.sender) continue;
        runtime::ThisProcess::Binder bind(pid);
        const std::optional<Value> got = sys->rb().deliver(s.sender, s.seq);
        if (!got || *got != s.value)
          res.fail("slot (p" + std::to_string(s.sender) + ", " +
                   std::to_string(s.seq) + ") not delivered to p" +
                   std::to_string(pid));
      }
    }
  }
  Tracer::instance().set_enabled(false);
  const double cpu = cpu_seconds() - cpu0;
  const double wall = seconds_since(win.start);
  res.verdicts.push_back(std::move(verdicts));

  const double n = static_cast<double>(delivered);
  res.set("ops_per_s", rates.empty() ? 0.0 : rates.median(), "1/s");
  res.set("setup_s", setup.median(), "s");
  res.set("shm.systems", static_cast<double>(setup.count()), "count");
  res.latency("deliver", deliver_us);
  res.latency("broadcast", bcast_us);
  res.alias("deliver_p50_us", "op_p50_us");
  res.alias("deliver_p99_us", "op_p99_us");
  res.alias("deliver_p90_us", "op_p90_us");
  res.alias("broadcast_p50_us", "update_p50_us");
  res.alias("broadcast_p99_us", "update_p99_us");
  res.alias("broadcast_p90_us", "update_p90_us");

  const auto per_delivery = [&](double v) { return n > 0 ? v / n : 0.0; };
  res.set("registers.reads_per_delivery",
          per_delivery(static_cast<double>(reads)), "count");
  res.set("registers.writes_per_delivery",
          per_delivery(static_cast<double>(writes)), "count");
  res.set("broadcast.polls_per_delivery",
          per_delivery(static_cast<double>(polls)), "count");
  res.set("broadcast.help_useful_frac",
          calls > 0 ? static_cast<double>(useful) / static_cast<double>(calls)
                    : 0.0,
          "ratio");
  res.set("broadcast.help_rounds_per_delivery",
          per_delivery(static_cast<double>(calls)), "count");
  res.set("proc.cpu_util", cpu / wall, "cores");

  if (o.traced) {
    const TraceSummary ts = summarize_spans();
    trace_count_metrics(res, ts);
    const util::Samples help = root_durations(ts, SpanKind::kHelpRound);
    res.set("broadcast.help_round_p50_us", help.median(), "us");
  }
  return res;
}

}  // namespace swsig::perfbench
