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
#include <set>
#include <stop_token>
#include <thread>
#include <vector>

#include "msgpass/network.hpp"
#include "msgpass/server_pool.hpp"
#include "obs/recorder.hpp"
#include "runtime/process.hpp"

namespace swsig::msgpass {

// Flight-recorder register id for witness-broadcast ladders (they have no
// register; -1 is taken by the batch round protocol).
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

  WitnessBroadcast(Options options, std::uint64_t reorder_seed = 0)
      : options_(options),
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
  // Per (sender, seq, value): who echoed / readied.
  struct Tally {
    std::set<int> echoes;
    std::set<int> readies;
    bool sent_echo = false;
    bool sent_ready = false;
  };
  struct PerProcess {
    // (sender, seq) -> value -> tally
    std::map<std::pair<int, std::uint64_t>, std::map<std::uint64_t, Tally>>
        tallies;
    std::map<std::pair<int, std::uint64_t>, std::uint64_t> delivered;
  };

  void handle(int self, const Message& m) {
    const std::uint64_t* payload = m.payload.get<std::uint64_t>();
    if (payload == nullptr) return;  // malformed Byzantine payload
    const std::uint64_t value = *payload;
    const int n = options_.n;
    const int f = options_.f;

    std::unique_lock lock(mu_);
    PerProcess& st = state_[static_cast<std::size_t>(self)];

    std::pair<int, std::uint64_t> key;
    if (m.tag == obs::MsgTag::kInit) {
      key = {m.from, m.sn};  // the INIT sender is the broadcast origin
    } else {
      // ECHO/READY carry the origin in reg (abused as origin pid field).
      key = {m.reg, m.sn};
    }
    auto& per_value = st.tallies[key];
    Tally& tally = per_value[value];

    bool send_echo = false;
    bool send_ready = false;
    bool ready_amplified = false;
    bool delivered_now = false;
    if (m.tag == obs::MsgTag::kInit) {
      // Echo only the FIRST value seen from this (sender, seq) — the
      // non-equivocation guard.
      bool echoed_any = false;
      for (auto& [v, t] : per_value) echoed_any |= t.sent_echo;
      if (!echoed_any) {
        tally.sent_echo = true;
        send_echo = true;
      }
    } else if (m.tag == obs::MsgTag::kEcho) {
      tally.echoes.insert(m.from);
      if (!tally.sent_ready &&
          static_cast<int>(tally.echoes.size()) >= n - f) {
        tally.sent_ready = true;
        send_ready = true;
      }
    } else if (m.tag == obs::MsgTag::kReady) {
      tally.readies.insert(m.from);
      if (!tally.sent_ready &&
          static_cast<int>(tally.readies.size()) >= f + 1) {
        tally.sent_ready = true;
        send_ready = true;
        ready_amplified = true;
      }
      if (static_cast<int>(tally.readies.size()) >= n - f &&
          !st.delivered.contains(key)) {
        st.delivered[key] = value;
        delivered_now = true;
        cv_.notify_all();
      }
    }
    lock.unlock();

    if (send_echo)
      record_witness_phase(obs::EventKind::kPhaseEcho, self, key);
    if (send_ready)
      record_witness_phase(ready_amplified ? obs::EventKind::kPhaseAmplify
                                           : obs::EventKind::kPhaseAccept,
                           self, key);
    if (delivered_now)
      record_witness_phase(obs::EventKind::kPhaseDeliver, self, key, value);
    if (send_echo) relay(obs::MsgTag::kEcho, key, value);
    if (send_ready) relay(obs::MsgTag::kReady, key, value);
  }

  // One ladder-correlated event under the witness sentinel register,
  // keyed (kWitnessObsReg, origin, seq).
  static void record_witness_phase(obs::EventKind kind, int self,
                                   const std::pair<int, std::uint64_t>& key,
                                   std::uint64_t aux = 0) {
    obs::Event e;
    e.kind = kind;
    e.pid = static_cast<std::int16_t>(self);
    e.reg = kWitnessObsReg;
    e.origin = key.first;
    e.sn = key.second;
    e.aux = aux;
    obs::record(e);
  }

  void relay(obs::MsgTag tag, const std::pair<int, std::uint64_t>& key,
             std::uint64_t value) {
    Message m;
    m.tag = tag;
    m.reg = key.first;  // origin pid rides in the reg field
    m.sn = key.second;
    m.payload = Payload::of(value);
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
