// Execution wrappers for the register algorithms — the glue that turns the
// paper's model (§3: n asynchronous processes, each with an operation
// sequence plus the implicit Help() duty) into runnable thread groups. Two
// execution modes mirror docs/ARCHITECTURE.md §runtime: free (real
// concurrency) and deterministic (replayable schedules).
//
// FreeSystem<Alg>: the convenient way to run an algorithm with real
// concurrency — it owns the step controller, register space, algorithm
// instance, and one background helper thread per (non-excluded) process,
// with idle backoff. Operations are invoked from any caller thread via
// as(pid, fn), which temporarily binds the thread to the process.
//
// For deterministic runs, compose runtime::Harness + registers::Space + the
// algorithm directly and use spawn_helpers() below to add the Help() loops.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <stop_token>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "registers/space.hpp"
#include "runtime/harness.hpp"
#include "runtime/process.hpp"
#include "runtime/step_controller.hpp"

namespace swsig::core {

struct HelperOptions {
  // Processes whose honest helper must NOT run (crashed processes, or
  // Byzantine ones replaced by a custom behavior).
  std::set<runtime::ProcessId> exclude;
  // Park idle helpers on the space's write-epoch condvar after consecutive
  // idle rounds (a writer's notify wakes them); disable for
  // latency-sensitive benchmarks at the cost of busy helpers.
  bool idle_backoff = true;
};

template <typename Alg>
class FreeSystem {
 public:
  using Config = typename Alg::Config;

  explicit FreeSystem(Config config, HelperOptions options = {})
      : space_(controller_), alg_(space_, std::move(config)),
        options_(std::move(options)) {
    start_helpers();
  }

  ~FreeSystem() { stop_helpers(); }

  FreeSystem(const FreeSystem&) = delete;
  FreeSystem& operator=(const FreeSystem&) = delete;

  Alg& alg() { return alg_; }
  registers::Space& space() { return space_; }
  registers::Metrics& metrics() { return space_.metrics(); }

  // Runs fn on the calling thread, temporarily bound as process `pid`.
  template <typename F>
  auto as(runtime::ProcessId pid, F&& fn) {
    runtime::ThisProcess::Binder bind(pid);
    return std::forward<F>(fn)(alg_);
  }

  // Spawn an extra long-lived thread bound to `pid` (e.g., a Byzantine
  // behavior loop). Joined at stop_helpers()/destruction.
  void spawn(runtime::ProcessId pid,
             std::function<void(std::stop_token)> body) {
    threads_.emplace_back([pid, body = std::move(body)](std::stop_token st) {
      runtime::ThisProcess::Binder bind(pid);
      body(st);
    });
  }

  void stop_helpers() {
    for (auto& t : threads_) t.request_stop();
    threads_.clear();  // jthread joins on destruction
  }

 private:
  void start_helpers() {
    for (int pid = 1; pid <= alg_.config().n; ++pid) {
      if (options_.exclude.contains(pid)) continue;
      const bool backoff = options_.idle_backoff;
      threads_.emplace_back([this, pid, backoff](std::stop_token st) {
        runtime::ThisProcess::Binder bind(pid);
        int idle_streak = 0;
        while (!st.stop_requested()) {
          // Epoch sampled before the round: a write landing while we help
          // makes the park below return immediately instead of sleeping.
          const std::uint64_t epoch = space_.write_epoch();
          const bool active = alg_.help_round();
          if (active) {
            idle_streak = 0;
          } else if (backoff) {
            ++idle_streak;
            if (idle_streak > 64) {
              // Park on the write epoch until some register in the
              // space is written (writers notify) instead of busy-polling.
              // The timeout bounds stop-request latency.
              space_.wait_write_epoch(epoch,
                                      std::chrono::microseconds(1000));
            } else {
              std::this_thread::yield();
            }
          } else {
            std::this_thread::yield();
          }
        }
      });
    }
  }

  runtime::FreeStepController controller_;
  registers::Space space_;
  Alg alg_;
  HelperOptions options_;
  std::vector<std::jthread> threads_;
};

// Adds a Help() loop for every process 1..n (minus exclusions) to a
// Harness; used for deterministic-mode compositions.
template <typename Alg>
void spawn_helpers(runtime::Harness& harness, Alg& alg,
                   const std::set<runtime::ProcessId>& exclude = {}) {
  for (int pid = 1; pid <= alg.config().n; ++pid) {
    if (exclude.contains(pid)) continue;
    harness.spawn(pid, "help", [&alg](std::stop_token st) {
      while (!st.stop_requested()) alg.help_round();
    });
  }
}

}  // namespace swsig::core
