// Free-mode skip shared by the composite objects above the register
// algorithms (AtomicSnapshot, the ReliableBroadcast backends,
// SignedStickyRegister), whose helping work can only arise from *some*
// register write in their space: the space-wide write-epoch gate. The
// register algorithms wait on the substrate's wakeup gate instead
// (core/detail/helping.hpp); docs/ARCHITECTURE.md, "The wakeup gate", says
// why these objects keep the epoch.
//
// Usage in a help_round() bound as `pid`:
//   if (!epoch_gate_.changed(space, pid)) return false;
//   ... full helping round ...
// A skipped round is observationally equivalent to the paper-literal loop
// (no write, no new work) but skips metered register reads, so
// deterministic mode never skips: its step sequence must stay
// byte-identical (pinned by deterministic_schedule_test). The epoch is
// recorded when sampled, before the round's reads, so a write landing
// mid-round is picked up by the next call; the caller's own writes bump
// the epoch, which costs one extra (idle) round before quiescing.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace swsig::core::detail {

class SpaceEpochGate {
 public:
  explicit SpaceEpochGate(int n) : seen_(static_cast<std::size_t>(n) + 1) {}

  // False when the space's write epoch is unchanged since this pid's last
  // call that returned true (the caller skips its round); always true in
  // deterministic runs.
  template <typename SpaceT>
  bool changed(SpaceT& space, int pid) {
    if (!space.free_mode()) return true;
    const std::uint64_t epoch = space.write_epoch();
    std::optional<std::uint64_t>& seen = seen_[static_cast<std::size_t>(pid)];
    if (seen == epoch) return false;
    seen = epoch;
    return true;
  }

 private:
  // One seen epoch per pid; each process's helper touches only its own.
  std::vector<std::optional<std::uint64_t>> seen_;
};

}  // namespace swsig::core::detail
