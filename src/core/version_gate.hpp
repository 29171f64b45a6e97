// Free-mode fast path shared by the composite objects above the register
// algorithms: the space-wide write-epoch gate.
//
// In free mode a helper whose work can only arise from some register write
// first samples the space's write epoch and returns immediately when it is
// unchanged since its last completed round. This is observationally
// equivalent to the paper-literal loop (no write, no new work) but skips
// metered register reads, so deterministic mode never takes it: its step
// sequence must stay byte-identical (pinned by deterministic_schedule_test).
// The register algorithms' own per-register version gate and cached channel
// collection live with their helping protocol, core/detail/helping.hpp.
#pragma once

#include <cstdint>
#include <vector>

namespace swsig::core::detail {

// Space-wide write-epoch gate for composite objects whose helping work can
// only arise from *some* register write in their space (AtomicSnapshot,
// the ReliableBroadcast backends, SignedStickyRegister). One seen-epoch
// slot per process; each process's helper thread touches only its own.
//
// Usage in a help_round() bound as `pid` (free mode only — callers gate on
// space.free_mode()):
//   std::uint64_t epoch = 0;
//   if (gate && !epoch_gate_.changed(space, pid, epoch)) return false;
//   ... full helping round ...
//   if (gate) epoch_gate_.record(pid, epoch);
// The epoch is sampled before the round's reads, so a write landing
// mid-round is picked up by the next call; the caller's own writes bump
// the epoch, which costs one extra (idle) round before quiescing.
class SpaceEpochGate {
 public:
  explicit SpaceEpochGate(int n) : seen_(static_cast<std::size_t>(n) + 1) {}

  // Samples the space's write epoch into `epoch`; false when it is
  // unchanged since record() for this pid (caller should skip the round).
  template <typename SpaceT>
  bool changed(SpaceT& space, int pid, std::uint64_t& epoch) {
    epoch = space.write_epoch();
    const Seen& s = seen_[static_cast<std::size_t>(pid)];
    return !s.valid || epoch != s.epoch;
  }

  void record(int pid, std::uint64_t epoch) {
    seen_[static_cast<std::size_t>(pid)] = {epoch, true};
  }

 private:
  struct Seen {
    std::uint64_t epoch = 0;
    bool valid = false;
  };
  std::vector<Seen> seen_;
};

}  // namespace swsig::core::detail
