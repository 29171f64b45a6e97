// Liveness gating for the soak harness, modeled on the liveness checker
// of YTsaurus's hydra stress tool: every client reports each completed
// operation; a monitor thread periodically scans time-since-last-success
// and flags any client stalled beyond its budget. Clients the harness
// parks on purpose (checkpoint cuts) detach first — a parked client is
// exempt, so only *unexpected* stalls count as violations.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace swsig::soak {

class LivenessMonitor {
 public:
  struct Options {
    // A client with no completed op for this long (while attached) is
    // stalled: one liveness violation, re-armed after it recovers.
    std::uint64_t stall_budget_ms = 10000;
    // Operation errors tolerated before error_budget_exceeded() trips.
    std::uint64_t error_budget = 0;
  };

  struct Report {
    std::uint64_t violations = 0;  // cumulative stall violations
    std::uint64_t errors = 0;      // cumulative operation errors
    std::uint64_t max_stall_ms = 0;  // high-water time-between-successes
    std::vector<std::string> stalled;  // clients currently over budget
  };

  explicit LivenessMonitor(Options options) : options_(options) {}

  // Registers `client` (idempotent) and arms its stall clock.
  void attach(const std::string& client) {
    std::scoped_lock lock(mu_);
    Client& c = clients_[client];
    c.attached = true;
    c.last_success = Clock::now();
    c.flagged = false;
  }

  // Parks `client`: exempt from stall detection until re-attached.
  void detach(const std::string& client) {
    std::scoped_lock lock(mu_);
    clients_[client].attached = false;
  }

  void success(const std::string& client) {
    const auto now = Clock::now();
    std::scoped_lock lock(mu_);
    Client& c = clients_[client];
    if (c.attached) {
      const std::uint64_t gap = ms_between(c.last_success, now);
      if (gap > max_stall_ms_) max_stall_ms_ = gap;
    }
    c.last_success = now;
    c.flagged = false;
  }

  void error(const std::string& client) {
    std::scoped_lock lock(mu_);
    ++errors_;
    clients_[client].flagged = false;
  }

  // Scans all attached clients; newly over-budget clients each add one
  // violation (and are not re-counted until they recover). Returns the
  // cumulative report.
  Report check() {
    const auto now = Clock::now();
    std::scoped_lock lock(mu_);
    Report r;
    for (auto& [name, c] : clients_) {
      if (!c.attached) continue;
      const std::uint64_t gap = ms_between(c.last_success, now);
      if (gap > max_stall_ms_) max_stall_ms_ = gap;
      if (gap > options_.stall_budget_ms) {
        r.stalled.push_back(name);
        if (!c.flagged) {
          c.flagged = true;
          ++violations_;
        }
      }
    }
    r.violations = violations_;
    r.errors = errors_;
    r.max_stall_ms = max_stall_ms_;
    return r;
  }

  bool error_budget_exceeded() const {
    std::scoped_lock lock(mu_);
    return errors_ > options_.error_budget;
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Client {
    Clock::time_point last_success{};
    bool attached = false;
    bool flagged = false;  // currently counted as stalled
  };

  static std::uint64_t ms_between(Clock::time_point a, Clock::time_point b) {
    if (b <= a) return 0;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(b - a).count());
  }

  const Options options_;
  mutable std::mutex mu_;
  std::map<std::string, Client> clients_;
  std::uint64_t violations_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t max_stall_ms_ = 0;
};

}  // namespace swsig::soak
