// Seeded fault schedules for the soak harness.
//
// A FaultSchedule is the msgpass::FaultInjector the soak driver attaches
// to each Network: wall-clock time is divided into fixed windows, faults
// are active during the first `active_ms` of each window and quiet for the
// rest (so the system repeatedly heals), and every per-message decision is
// a pure function of (seed, window index, message fields) — replaying a
// run with the same seed and timing replays the same schedule shape, and
// the decision function itself is bit-for-bit reproducible (the
// determinism tests compare decide() outputs directly, with an injected
// clock).
//
// Schedule grammar (the --faults flag): '+'-separated subset of
//   drop       victim-targeted probabilistic message loss (needs the
//              engaged gate — see below — and a victim pool of at most f
//              processes)
//   delay      bounded hold of any message (loss-free)
//   reorder    receive-side reordering at every process (loss-free)
//   crash      every crash_every-th window crashes the window's victim
//              instead of dropping (driven by the soak driver, not by the
//              injector: crash/restart are Space operations)
//   partition  link cut isolating the window's victim for the whole active
//              phase: 100% loss on the cut links (vs drop's coin flips),
//              healed at the end of the window. The cut direction is
//              seeded per window — symmetric (both directions), inbound
//              (victim receives nothing), or asymmetric outbound (victim
//              is heard by no one, but hears everyone). A process is never
//              cut from itself (self-delivery models local computation).
// "none" (or "") disables everything.
//
// The engaged gate: time decides WHEN a loss window is due; the driver
// decides IF it applies, by calling engage(true). A client without a retry
// layer would stall forever behind a drop or cut (its quorum replies never
// re-arrive), so drops stay off until the driver engages them — the soak
// does so at start, because the retry layer makes loss survivable (design
// note 14). Delay and reorder are loss-free and ignore the gate.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "msgpass/faults.hpp"
#include "msgpass/message.hpp"
#include "runtime/process.hpp"
#include "util/rng.hpp"

namespace swsig::soak {

struct FaultKinds {
  bool drop = false;
  bool delay = false;
  bool reorder = false;
  bool crash = false;
  bool partition = false;

  bool any() const { return drop || delay || reorder || crash || partition; }
  // Kinds whose application loses messages for a targeted process and so
  // must stay within the f budget (the victim rotation).
  bool impairing() const { return drop || crash || partition; }

  // Parses the '+'-separated grammar above; throws on an unknown token,
  // naming the valid kinds so a --faults typo is self-diagnosing.
  static FaultKinds parse(const std::string& spec) {
    FaultKinds k;
    if (spec.empty() || spec == "none") return k;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
      const std::size_t plus = spec.find('+', pos);
      const std::string tok =
          spec.substr(pos, plus == std::string::npos ? plus : plus - pos);
      if (tok == "drop") {
        k.drop = true;
      } else if (tok == "delay") {
        k.delay = true;
      } else if (tok == "reorder") {
        k.reorder = true;
      } else if (tok == "crash") {
        k.crash = true;
      } else if (tok == "partition") {
        k.partition = true;
      } else {
        throw std::invalid_argument(
            "unknown fault kind '" + tok + "' in schedule '" + spec +
            "' (valid: drop, delay, reorder, crash, partition, none)");
      }
      if (plus == std::string::npos) break;
      pos = plus + 1;
    }
    return k;
  }

  std::string to_string() const {
    std::string out;
    const auto add = [&](const char* name) {
      if (!out.empty()) out += "+";
      out += name;
    };
    if (drop) add("drop");
    if (delay) add("delay");
    if (reorder) add("reorder");
    if (crash) add("crash");
    if (partition) add("partition");
    return out.empty() ? "none" : out;
  }
};

// Direction of a partition window's link cut (seeded per window).
enum class PartitionMode : std::uint8_t {
  kSymmetric = 0,  // victim <-/-> everyone
  kInbound,        // everyone -/-> victim (victim still heard)
  kOutbound,       // victim -/-> everyone (victim still hears)
};

inline const char* partition_mode_name(PartitionMode m) {
  switch (m) {
    case PartitionMode::kSymmetric: return "symmetric";
    case PartitionMode::kInbound: return "inbound";
    case PartitionMode::kOutbound: return "outbound";
    default: return "?";
  }
}

struct FaultScheduleConfig {
  std::uint64_t seed = 1;
  FaultKinds kinds;
  // Rotation pool for impairing faults; the impaired set at any instant is
  // one pool member, so the pool models "which processes are flaky" and
  // must satisfy |pool| arbitrary but at most ONE impaired at a time — the
  // driver keeps the overall impaired set (crashed + drop victims + active
  // Byzantine processes) within f.
  std::vector<runtime::ProcessId> victims;
  std::uint64_t period_ms = 400;  // window length
  std::uint64_t active_ms = 150;  // faults active in each window's prefix
  std::uint64_t max_delay_ms = 4;
  std::uint32_t drop_permille = 400;   // P(drop) per victim-touching message
  std::uint32_t delay_permille = 150;  // P(delay) per message
  std::uint64_t crash_every = 4;       // every k-th window is a crash window
};

class FaultSchedule final : public msgpass::FaultInjector {
 public:
  explicit FaultSchedule(FaultScheduleConfig config)
      : config_(std::move(config)),
        epoch_(std::chrono::steady_clock::now()),
        now_ms_([this] {
          return static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - epoch_)
                  .count());
        }) {
    if (config_.period_ms == 0) config_.period_ms = 1;
    if (config_.active_ms > config_.period_ms)
      config_.active_ms = config_.period_ms;
    if (config_.crash_every == 0) config_.crash_every = 1;
  }

  // Tests inject a fake clock to make window boundaries exact.
  void set_clock(std::function<std::uint64_t()> now_ms) {
    now_ms_ = std::move(now_ms);
  }

  const FaultScheduleConfig& config() const { return config_; }

  // Current time on the schedule's clock (ms since construction, unless a
  // test injected its own clock). The driver uses this to align its window
  // loop with the injector's decisions.
  std::uint64_t now_ms() const { return now_ms_(); }

  std::uint64_t window_at(std::uint64_t now_ms) const {
    return now_ms / config_.period_ms;
  }

  bool active_at(std::uint64_t now_ms) const {
    return now_ms % config_.period_ms < config_.active_ms;
  }

  // The (single) process impaired during window w — seeded rotation over
  // the victim pool. kNoProcess when no impairing fault is scheduled.
  runtime::ProcessId victim_of(std::uint64_t window) const {
    if (config_.victims.empty() || !config_.kinds.impairing())
      return runtime::kNoProcess;
    return config_.victims[static_cast<std::size_t>(
        mix(config_.seed, window, kVictimSalt) % config_.victims.size())];
  }

  // Crash windows crash the victim instead of dropping its traffic.
  bool crash_window(std::uint64_t window) const {
    return config_.kinds.crash &&
           window % config_.crash_every == config_.crash_every - 1;
  }

  // Partition windows cut the victim's links for the whole active phase
  // (100% loss, vs drop's per-message coin flips). When drop is also
  // scheduled the two alternate on a seeded coin so both shapes occur;
  // crash windows take precedence over both.
  bool partition_window(std::uint64_t window) const {
    if (!config_.kinds.partition || crash_window(window)) return false;
    if (!config_.kinds.drop) return true;
    return mix(config_.seed, window, kPartitionSalt) % 2 == 0;
  }

  // The cut direction for a partition window — seeded so symmetric and
  // asymmetric cuts all occur over a long run.
  PartitionMode partition_mode(std::uint64_t window) const {
    return static_cast<PartitionMode>(
        mix(config_.seed, window, kPartitionSalt ^ kVictimSalt) % 3);
  }

  // Pure per-message decision at logical time now_ms: same (config, now
  // window, message) => same decision, on any run.
  msgpass::FaultDecision decide(std::uint64_t now_ms,
                                const msgpass::Message& m) const {
    msgpass::FaultDecision d;
    if (!active_at(now_ms)) return d;
    const std::uint64_t w = window_at(now_ms);
    const std::uint64_t h = message_hash(w, m);
    if (partition_window(w)) {
      const runtime::ProcessId victim = victim_of(w);
      // Self-delivery (from == to) is local computation, never cut.
      if (victim != runtime::kNoProcess && m.from != m.to) {
        bool cut = false;
        switch (partition_mode(w)) {
          case PartitionMode::kSymmetric:
            cut = m.from == victim || m.to == victim;
            break;
          case PartitionMode::kInbound:
            cut = m.to == victim;
            break;
          case PartitionMode::kOutbound:
            cut = m.from == victim;
            break;
        }
        if (cut) {
          d.drop = true;
          return d;
        }
      }
    } else if (config_.kinds.drop && !crash_window(w)) {
      const runtime::ProcessId victim = victim_of(w);
      if (victim != runtime::kNoProcess &&
          (m.from == victim || m.to == victim) &&
          h % 1000 < config_.drop_permille) {
        d.drop = true;
        return d;
      }
    }
    if (config_.kinds.delay && config_.max_delay_ms > 0 &&
        (h >> 10) % 1000 < config_.delay_permille) {
      d.delay = std::chrono::milliseconds(
          1 + static_cast<long>((h >> 20) % config_.max_delay_ms));
    }
    return d;
  }

  // Drops apply only while engaged (see file comment); loss-free faults
  // always apply.
  void engage(bool on) { engaged_.store(on, std::memory_order_release); }
  bool engaged() const { return engaged_.load(std::memory_order_acquire); }

  // ------------------------------------------------- FaultInjector hooks

  msgpass::FaultDecision on_deliver(const msgpass::Message& m) override {
    msgpass::FaultDecision d = decide(now_ms_(), m);
    if (d.drop && !engaged()) d.drop = false;
    return d;
  }

  bool reorder(runtime::ProcessId) override {
    return config_.kinds.reorder && active_at(now_ms_());
  }

 private:
  static constexpr std::uint64_t kVictimSalt = 0x766963ULL;
  static constexpr std::uint64_t kPartitionSalt = 0x706172ULL;

  // Mixes the seed, window and message identity into one 64-bit draw.
  // splitmix64 chains give full avalanche; the tag's name is folded in via
  // FNV-1a so "ECHO" and "ACCEPT" for the same (sn, from, to) decide
  // independently (hashing the name, not the enum value, keeps every
  // seeded schedule identical to the string-typed messages it replaced).
  std::uint64_t message_hash(std::uint64_t window,
                             const msgpass::Message& m) const {
    std::uint64_t fnv = 0xcbf29ce484222325ULL;
    for (const char* c = obs::tag_name(m.tag); *c != '\0'; ++c)
      fnv = (fnv ^ static_cast<unsigned char>(*c)) * 0x100000001b3ULL;
    std::uint64_t s = config_.seed;
    s = util::splitmix64(s) ^ window;
    s = util::splitmix64(s) ^ fnv;
    s = util::splitmix64(s) ^ (static_cast<std::uint64_t>(m.from) << 32 |
                               static_cast<std::uint64_t>(m.to));
    s = util::splitmix64(s) ^ m.sn;
    s = util::splitmix64(s) ^ static_cast<std::uint64_t>(m.reg);
    return util::splitmix64(s);
  }

  static std::uint64_t mix(std::uint64_t seed, std::uint64_t window,
                           std::uint64_t salt) {
    std::uint64_t s = seed;
    s = util::splitmix64(s) ^ window;
    s = util::splitmix64(s) ^ salt;
    return util::splitmix64(s);
  }

  FaultScheduleConfig config_;
  std::chrono::steady_clock::time_point epoch_;
  std::function<std::uint64_t()> now_ms_;
  std::atomic<bool> engaged_{false};
};

}  // namespace swsig::soak
