// Benchmark-side span tracing.
//
// Spans are recorded only from the benchmark's own code, around its calls
// into the layers under test (client operations, help_round, restart /
// resync, and — through TimedSpace — every register call Algorithm 1
// makes). Nothing inside src/ is instrumented. Each thread appends to its
// own log, so recording takes no lock; logs live until the process exits
// and are read after every recording thread has been joined.
//
// A span's parent is the innermost span still open on the same thread;
// spans of one client operation share the root span's op id. A layer's
// self time is its span minus the time covered by its child spans.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace swsig::perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

enum class SpanKind : std::uint8_t {
  kOpVerify,     // Verify of a signed value (fullstack-verify)
  kOpDeny,       // Verify of a never-signed value
  kOpSign,       // Write + Sign of a fresh value
  kOpRead,       // register read (register-mix / register-faults)
  kOpWrite,      // register write
  kOpBroadcast,  // StickyReliableBroadcast::broadcast
  kOpDeliver,    // one deliver poll
  kHelpRound,    // one help_round() call
  kRegRead,      // register call made by the core algorithm (TimedSpace)
  kRegWrite,
  kRegUpdate,
  kRestart,      // EmulatedSpace::restart
  kResync,       // EmulatedSpace::resync
  kCount
};

inline bool is_client_op(SpanKind k) { return k <= SpanKind::kOpDeliver; }

inline const char* span_name(SpanKind k) {
  switch (k) {
    case SpanKind::kOpVerify: return "op.verify";
    case SpanKind::kOpDeny: return "op.deny";
    case SpanKind::kOpSign: return "op.sign";
    case SpanKind::kOpRead: return "op.read";
    case SpanKind::kOpWrite: return "op.write";
    case SpanKind::kOpBroadcast: return "op.broadcast";
    case SpanKind::kOpDeliver: return "op.deliver";
    case SpanKind::kHelpRound: return "help_round";
    case SpanKind::kRegRead: return "reg.read";
    case SpanKind::kRegWrite: return "reg.write";
    case SpanKind::kRegUpdate: return "reg.update";
    case SpanKind::kRestart: return "restart";
    case SpanKind::kResync: return "resync";
    default: return "?";
  }
}

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;  // 0 while open
  std::uint64_t op_id = 0;   // shared by a root span and its descendants
  std::int32_t parent = -1;  // index into the same log, -1 for a root
  SpanKind kind = SpanKind::kCount;
};

struct SpanLog {
  std::vector<Span> spans;
  std::vector<std::int32_t> open;  // stack of open span indices
  std::uint64_t dropped = 0;       // spans not recorded past the cap
  std::uint64_t thread_ix = 0;
  std::uint64_t next_op = 0;
};

class Tracer {
 public:
  // Process-wide cap: 2^21 spans (64 MiB). Idle helper loops can open
  // millions of help_round spans; past the cap spans are counted, not kept.
  static constexpr std::uint64_t kMaxSpans = std::uint64_t{1} << 21;

  static Tracer& instance() {
    static Tracer tracer;
    return tracer;
  }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  // Reserves room for one span; false once the cap is reached.
  bool reserve() {
    return recorded_.fetch_add(1, std::memory_order_relaxed) < kMaxSpans;
  }

  SpanLog& local() {
    thread_local SpanLog* log = nullptr;
    if (!log) {
      std::scoped_lock lock(mu_);
      logs_.push_back(std::make_unique<SpanLog>());
      log = logs_.back().get();
      log->thread_ix = logs_.size();
    }
    return *log;
  }

  // Reads every log. Callers join all recording threads first.
  template <typename F>
  void for_each_log(F&& fn) const {
    std::scoped_lock lock(mu_);
    for (const auto& log : logs_) fn(*log);
  }

 private:
  Tracer() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> recorded_{0};
  mutable std::mutex mu_;  // guards logs_ (registration and reads)
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

// RAII span; a no-op while tracing is disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind) {
    Tracer& tracer = Tracer::instance();
    if (!tracer.enabled()) return;
    SpanLog& log = tracer.local();
    if (!tracer.reserve()) {
      ++log.dropped;
      return;
    }
    Span s;
    s.kind = kind;
    s.parent = log.open.empty() ? -1 : log.open.back();
    s.op_id = s.parent < 0
                  ? (log.thread_ix << 40) | ++log.next_op
                  : log.spans[static_cast<std::size_t>(s.parent)].op_id;
    s.start_ns = now_ns();
    index_ = static_cast<std::int32_t>(log.spans.size());
    log.spans.push_back(s);
    log.open.push_back(index_);
    log_ = &log;
  }

  ~ScopedSpan() {
    if (!log_) return;
    log_->spans[static_cast<std::size_t>(index_)].end_ns = now_ns();
    log_->open.pop_back();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_ = nullptr;
  std::int32_t index_ = -1;
};

}  // namespace swsig::perfbench
