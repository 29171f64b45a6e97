// Witness-based ("authenticated") broadcast in message passing, in the
// style of Srikanth–Toueg [13] / Bracha: INIT → ECHO → READY with
// (n−f, f+1, n−f) thresholds, n > 3f, no signatures.
//
// This is the related-work baseline the paper contrasts against (§2):
// delivery here is only *eventual* — there is no operation a process can
// invoke that returns "not delivered" consistently across processes — which
// is exactly why simulating it in shared memory does not yield the
// linearizable Verify of the paper's registers. Benchmark T7 compares it
// against the register-based reliable broadcast objects.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "msgpass/detail/bracha_ladder.hpp"
#include "msgpass/detail/pid_set.hpp"
#include "msgpass/network.hpp"
#include "msgpass/server_pool.hpp"
#include "obs/recorder.hpp"
#include "runtime/process.hpp"

namespace swsig::msgpass {

// Flight-recorder register id for witness-broadcast ladders (they have no
// register; -1 marks process-level crash/restart/resync events).
inline constexpr int kWitnessObsReg = -2;

// One instance serves the whole system: any process may broadcast any
// number of sequenced messages; every correct process eventually delivers
// each broadcast message of a correct sender, and no two correct processes
// deliver different values for the same (sender, seq) — non-equivocation
// via the echo quorum.
class WitnessBroadcast {
 public:
  struct Options {
    int n = 4;
    int f = 1;
  };

  // Throws std::invalid_argument for n > 63 (detail::PidSet).
  WitnessBroadcast(Options options, std::uint64_t reorder_seed = 0)
      : options_(checked(options)),
        net_(Network::Options{options.n, reorder_seed}),
        state_(static_cast<std::size_t>(options.n) + 1),
        pool_(net_, options.n,
              [this](int self, const Message& m) { handle(self, m); }) {}

  ~WitnessBroadcast() { stop(); }

  void stop() { pool_.stop(); }

  // Broadcast `value` under the caller's (bound) identity with sequence
  // number `seq`. Returns immediately — delivery is eventual.
  void broadcast(std::uint64_t seq, std::uint64_t value) {
    Message m;
    m.tag = obs::MsgTag::kInit;
    m.sn = seq;
    m.payload = Payload::of(value);
    net_.broadcast(std::move(m));
  }

  // Blocks until the bound process delivers (sender, seq); returns the
  // delivered value.
  std::uint64_t await_delivery(runtime::ProcessId sender, std::uint64_t seq) {
    const int self = runtime::ThisProcess::id();
    std::unique_lock lock(mu_);
    auto& slot = state_[static_cast<std::size_t>(self)].delivered;
    cv_.wait(lock, [&] { return slot.contains({sender, seq}); });
    return slot.at({sender, seq});
  }

  // Non-blocking query.
  std::optional<std::uint64_t> delivered(runtime::ProcessId pid,
                                         runtime::ProcessId sender,
                                         std::uint64_t seq) const {
    std::scoped_lock lock(mu_);
    const auto& slot = state_[static_cast<std::size_t>(pid)].delivered;
    const auto it = slot.find({sender, seq});
    if (it == slot.end()) return std::nullopt;
    return it->second;
  }

  Network& network() { return net_; }

 private:
  using Ladder = detail::BrachaLadder<std::uint64_t>;

  static const Options& checked(const Options& o) {
    detail::require_tally_fits(o.n, "WitnessBroadcast");
    return o;
  }
  using Key = std::pair<int, std::uint64_t>;  // (origin, seq)

  struct PerProcess {
    // One ladder per origin, keyed by seq: INIT/ECHO/READY are the
    // ladder's WRITE/ECHO/ACCEPT rungs with the same n−f / f+1 / n−f
    // thresholds (detail/bracha_ladder.hpp).
    std::map<int, Ladder> ladders;
    std::map<Key, std::uint64_t> delivered;
  };

  void handle(int self, const Message& m) {
    const auto value = m.payload.share<std::uint64_t>();
    if (value == nullptr) return;  // malformed Byzantine payload
    // The INIT sender is the broadcast origin; ECHO/READY carry the origin
    // in reg (abused as origin pid field).
    const Key key{m.tag == obs::MsgTag::kInit ? m.from : m.reg, m.sn};

    std::unique_lock lock(mu_);
    PerProcess& st = state_[static_cast<std::size_t>(self)];
    Ladder& ladder =
        st.ladders.try_emplace(key.first, options_.n, options_.f)
            .first->second;
    bool send_echo = false;
    Ladder::VoteStep vote;
    if (m.tag == obs::MsgTag::kInit) {
      // Echo only the FIRST value seen from this (origin, seq) — the
      // non-equivocation guard. A repeated INIT is not re-echoed, and an
      // INIT for a delivered seq (kReAck) has nothing left to do.
      const auto step = ladder.on_write(key.second, false, value);
      send_echo = step.action == Ladder::WriteAction::kEcho && step.first;
    } else if (m.tag == obs::MsgTag::kEcho || m.tag == obs::MsgTag::kReady) {
      vote = ladder.on_vote(key.second, value, m.from,
                            m.tag == obs::MsgTag::kEcho);
      if (vote.deliver) {
        st.delivered[key] = *vote.value;
        cv_.notify_all();
      }
    }
    lock.unlock();

    if (send_echo)
      record_witness_phase(obs::EventKind::kPhaseEcho, self, key);
    if (vote.send_accept)
      record_witness_phase(vote.amplified ? obs::EventKind::kPhaseAmplify
                                          : obs::EventKind::kPhaseAccept,
                           self, key);
    if (vote.deliver)
      record_witness_phase(obs::EventKind::kPhaseDeliver, self, key,
                           *vote.value);
    if (send_echo) relay(obs::MsgTag::kEcho, key, value);
    if (vote.send_accept) relay(obs::MsgTag::kReady, key, vote.value);
  }

  // One ladder-correlated event under the witness sentinel register,
  // keyed (kWitnessObsReg, origin, seq).
  static void record_witness_phase(obs::EventKind kind, int self,
                                   const Key& key, std::uint64_t aux = 0) {
    obs::Event e;
    e.kind = kind;
    e.pid = static_cast<std::int16_t>(self);
    e.reg = kWitnessObsReg;
    e.origin = key.first;
    e.sn = key.second;
    e.aux = aux;
    obs::record(e);
  }

  void relay(obs::MsgTag tag, const Key& key, Ladder::Ref value) {
    Message m;
    m.tag = tag;
    m.reg = key.first;  // origin pid rides in the reg field
    m.sn = key.second;
    m.payload = Payload(std::move(value));
    net_.broadcast(std::move(m));
  }

  Options options_;
  Network net_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<PerProcess> state_;
  detail::ServerPool pool_;  // last member: threads stop before state dies
};

}  // namespace swsig::msgpass
