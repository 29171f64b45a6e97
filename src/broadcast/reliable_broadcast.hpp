// Reliable broadcast objects (Cohen–Keidar [5]) from shared registers.
//
// Interface: every process can broadcast a sequence of values; every
// process can attempt to deliver (sender, seq). Guarantees for correct
// processes: *integrity* (a delivered value for (sender, seq) was broadcast
// by sender, if sender is correct), *agreement / non-equivocation* (no two
// correct processes deliver different values for the same slot, even if
// the sender is Byzantine), and *relay* (once delivered by one correct
// process, a slot stays deliverable for everyone).
//
// Two interchangeable backends, the paper's §1/§2 story in code:
//   * StickyReliableBroadcast  — signature-free, n > 3f: one sticky
//     register per slot; broadcast = Write, deliver = Read. Agreement is
//     the register's uniqueness property, verbatim.
//   * SignedReliableBroadcast  — signatures + ack certificates, n > 2f
//     (Cohen–Keidar's regime): a sender's value is deliverable once it
//     carries n−f signed acknowledgments; two certificates for different
//     values cannot both exist because each correct process acknowledges
//     at most one value per slot and n−f quorums intersect in a correct
//     process when n > 2f.
//
// Values are std::uint64_t (applications encode what they need into it).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/sticky_register.hpp"
#include "core/types.hpp"
#include "core/version_gate.hpp"
#include "crypto/encoding.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signer.hpp"
#include "crypto/verified_cache.hpp"
#include "obs/recorder.hpp"
#include "registers/space.hpp"
#include "runtime/process.hpp"

namespace swsig::broadcast {

using Value = std::uint64_t;

class ReliableBroadcast {
 public:
  virtual ~ReliableBroadcast() = default;
  // Broadcasts `value` in the caller's slot (caller pid, seq). seq is
  // 0-based and must be < max_broadcasts.
  virtual void broadcast(int seq, Value value) = 0;
  // Attempts to deliver (sender, seq); nullopt = nothing deliverable yet.
  virtual std::optional<Value> deliver(int sender, int seq) = 0;
  // One background helping round for the bound process (drives whatever
  // machinery the backend needs); returns true if it made progress.
  virtual bool help_round() = 0;
};

// --------------------------------------------------------------- sticky

class StickyReliableBroadcast final : public ReliableBroadcast {
 public:
  struct Config {
    int n = 4;
    int f = 1;  // needs n > 3f
    int max_broadcasts = 4;
  };

  StickyReliableBroadcast(registers::Space& space, Config config)
      : space_(&space), cfg_(config), epoch_gate_(config.n) {
    core::check_resilience(cfg_.n, cfg_.f);
    slots_.resize(static_cast<std::size_t>(cfg_.n) + 1);
    for (int sender = 1; sender <= cfg_.n; ++sender) {
      for (int seq = 0; seq < cfg_.max_broadcasts; ++seq) {
        core::StickyRegister<Value>::Config rc;
        rc.n = cfg_.n;
        rc.f = cfg_.f;
        slots_[static_cast<std::size_t>(sender)].push_back(
            std::make_unique<Slot>(space, rc, sender));
      }
    }
  }

  void broadcast(int seq, Value value) override {
    slot(runtime::ThisProcess::id(), seq).write(value);
  }

  std::optional<Value> deliver(int sender, int seq) override {
    return slot(sender, seq).read();
  }

  bool help_round() override {
    const int self = runtime::ThisProcess::id();
    // Epoch gate (free mode): every event that can create helping work (a
    // broadcast, an echo, a reader's round bump) is a register write in
    // this space, so an unchanged space-wide write epoch since our last
    // round means all n × max_broadcasts slot rounds would be no-ops —
    // skip them.
    if (!epoch_gate_.changed(*space_, self)) return false;
    bool any = false;
    for (int sender = 1; sender <= cfg_.n; ++sender)
      for (auto& s : slots_[static_cast<std::size_t>(sender)])
        any |= s->help(self);
    return any;
  }

 private:
  // A sticky register whose writer is `sender` rather than p1: we remap
  // process identities so that the register's internal writer slot 1 is
  // the slot's sender. The identity remapping is a pure relabeling
  // (pi <-> p_sender swap), sound because the algorithm is symmetric in
  // process names.
  struct Slot {
    Slot(registers::Space& space, core::StickyRegister<Value>::Config rc,
         int sender_pid)
        : sender(sender_pid), reg(space, rc) {}

    void write(Value v) {
      runtime::ThisProcess::Binder bind(1);  // sender acts as the writer p1
      reg.write(v);
    }

    std::optional<Value> read() {
      const int self = runtime::ThisProcess::id();
      runtime::ThisProcess::Binder bind(mapped(self));
      if (mapped(self) == 1) {
        // The slot owner "reads its own slot": return its echo directly
        // (it knows what it wrote; ⊥ if nothing).
        return reg.raw().echo->at(1)->read();
      }
      return reg.read();
    }

    // Helping under the slot's relabeled identity.
    bool help(int real_pid) {
      runtime::ThisProcess::Binder bind(mapped(real_pid));
      return reg.help_round();
    }

    int mapped(int pid) const {
      if (pid == sender) return 1;
      if (pid == 1) return sender;
      return pid;
    }

    int sender;
    core::StickyRegister<Value> reg;
  };

  Slot& slot(int sender, int seq) {
    if (sender < 1 || sender > cfg_.n || seq < 0 ||
        seq >= cfg_.max_broadcasts)
      throw std::out_of_range("broadcast slot out of range");
    return *slots_[static_cast<std::size_t>(sender)]
                  [static_cast<std::size_t>(seq)];
  }

  registers::Space* space_;
  Config cfg_;
  std::vector<std::vector<std::unique_ptr<Slot>>> slots_;
  core::detail::SpaceEpochGate epoch_gate_;
};

// --------------------------------------------------------------- signed

class SignedReliableBroadcast final : public ReliableBroadcast {
 public:
  struct Config {
    int n = 4;
    int f = 1;  // needs n > 2f
    int max_broadcasts = 4;
  };

  struct Ack {
    Value value = 0;
    crypto::Signature sig;
    friend auto operator<=>(const Ack&, const Ack&) = default;
  };
  // sender's published record for one slot.
  struct Record {
    bool present = false;
    Value value = 0;
    crypto::Signature sig;                // sender's signature on value
    std::map<int, crypto::Signature> cert;  // acker pid -> ack signature
    friend auto operator<=>(const Record&, const Record&) = default;
  };
  // relayed records, keyed by (sender, seq)
  using RelayMap = std::map<std::pair<int, int>, Record>;

  SignedReliableBroadcast(registers::Space& space,
                          const crypto::SignatureAuthority& authority,
                          Config config)
      : space_(&space), auth_(&authority), cfg_(config),
        epoch_gate_(config.n) {
    if (cfg_.n <= 2 * cfg_.f)
      throw std::invalid_argument("signed broadcast needs n > 2f");
    publish_.resize(static_cast<std::size_t>(cfg_.n) + 1);
    acks_.resize(static_cast<std::size_t>(cfg_.n) + 1);
    relays_.resize(static_cast<std::size_t>(cfg_.n) + 1, nullptr);
    for (int pid = 1; pid <= cfg_.n; ++pid) {
      for (int seq = 0; seq < cfg_.max_broadcasts; ++seq) {
        publish_[static_cast<std::size_t>(pid)].push_back(
            &space.make_swmr<Record>(pid, {}, slot_name("pub", pid, seq)));
      }
      relays_[static_cast<std::size_t>(pid)] = &space.make_swmr<RelayMap>(
          pid, {}, "rly" + std::to_string(pid));
      acks_[static_cast<std::size_t>(pid)] = &space.make_swmr<AckMap>(
          pid, {}, "acks" + std::to_string(pid));
    }
  }

  // Two-phase: publish signed value, wait for n−f acks, publish the cert.
  void broadcast(int seq, Value value) override {
    const int self = runtime::ThisProcess::id();
    const std::string msg = slot_msg(self, seq, value);
    Record rec;
    rec.present = true;
    rec.value = value;
    rec.sig = auth_->sign(self, msg);
    publish_at(self, seq)->write(rec);
    // Wait for n−f acknowledgments (including our own, produced by our
    // helper) and assemble the certificate. Each pass batch-verifies the
    // candidate acks — one shared message digest, and previously-proven
    // signatures resolve from the verified cache instead of re-MACing.
    for (;;) {
      std::vector<std::pair<int, crypto::Signature>> candidates;
      for (int i = 1; i <= cfg_.n; ++i) {
        const AckMap am = acks_[static_cast<std::size_t>(i)]->read();
        const auto it = am.find({self, seq});
        if (it != am.end() && it->second.value == value &&
            it->second.sig.signer == i)
          candidates.emplace_back(i, it->second.sig);
      }
      std::vector<crypto::SignatureAuthority::VerifyEntry> entries;
      entries.reserve(candidates.size());
      for (const auto& [pid, sig] : candidates) entries.push_back({msg, &sig});
      auth_->verify_all(entries);
      std::map<int, crypto::Signature> cert;
      for (std::size_t idx = 0; idx < candidates.size(); ++idx)
        if (entries[idx].ok) cert[candidates[idx].first] = candidates[idx].second;
      if (static_cast<int>(cert.size()) >= cfg_.n - cfg_.f) {
        rec.cert = std::move(cert);
        publish_at(self, seq)->write(rec);
        return;
      }
      std::this_thread::yield();
    }
  }

  std::optional<Value> deliver(int sender, int seq) override {
    const int self = runtime::ThisProcess::id();
    // A certified record in the sender's register or anyone's relay.
    for (int holder = 0; holder <= cfg_.n; ++holder) {
      Record rec;
      if (holder == 0) {
        rec = publish_at(sender, seq)->read();
      } else {
        const RelayMap rm = relays_[static_cast<std::size_t>(holder)]->read();
        const auto it = rm.find({sender, seq});
        if (it == rm.end()) continue;
        rec = it->second;
      }
      if (!rec.present) continue;
      if (!valid_cert(sender, seq, rec)) continue;
      // Relay before delivering (the sender cannot later deny it).
      if (self >= 1 && self <= cfg_.n && self != sender)
        relays_[static_cast<std::size_t>(self)]->update([&](RelayMap& rm) {
          rm.emplace(std::pair{sender, seq}, rec);
        });
      return rec.value;
    }
    return std::nullopt;
  }

  // Helper: acknowledge the first valid signed value seen per slot.
  bool help_round() override {
    const int self = runtime::ThisProcess::id();
    // Same space-epoch skip as the sticky backend: a new publishable record
    // always arrives as a register write.
    if (!epoch_gate_.changed(*space_, self)) return false;
    bool progress = false;
    for (int sender = 1; sender <= cfg_.n; ++sender) {
      for (int seq = 0; seq < cfg_.max_broadcasts; ++seq) {
        const Record rec = publish_at(sender, seq)->read();
        if (!rec.present) continue;
        const std::string msg = slot_msg(sender, seq, rec.value);
        if (rec.sig.signer != sender || !auth_->verify_cached(msg, rec.sig))
          continue;
        const AckMap mine = acks_[static_cast<std::size_t>(self)]->read();
        if (mine.contains({sender, seq})) continue;  // ack once per slot
        Ack ack;
        ack.value = rec.value;
        ack.sig = auth_->sign(self, msg);
        acks_[static_cast<std::size_t>(self)]->update(
            [&](AckMap& am) { am.emplace(std::pair{sender, seq}, ack); });
        progress = true;
      }
    }
    return progress;
  }

 private:
  using AckMap = std::map<std::pair<int, int>, Ack>;

  static std::string slot_name(const char* kind, int pid, int seq) {
    return std::string(kind) + std::to_string(pid) + "." +
           std::to_string(seq);
  }
  // Framed signing statement for one slot: domain-tagged and
  // length-prefixed (crypto/encoding.hpp), so no two (sender, seq, value)
  // triples — and no statement of another protocol — share an encoding.
  static std::string slot_msg(int sender, int seq, Value value) {
    return crypto::encode_message("swsig.rb.slot", sender, seq, value);
  }

  // Digest committing to a record's full certificate: the slot statement
  // plus every aggregated (pid, sig.signer, tag) entry, in signer order.
  // The digest must commit to exactly what verify_all checks — including
  // sig.signer, which valid_cert compares against pid before verifying —
  // so a record with scrambled signer fields can never alias the digest
  // of a previously verified certificate. An interner hit therefore
  // implies this exact certificate was fully verified before.
  static crypto::Digest cert_digest(const std::string& msg,
                                    const Record& rec) {
    crypto::Sha256 h;
    std::string buf = crypto::encode_message("swsig.rb.cert", msg);
    for (const auto& [pid, sig] : rec.cert) {
      crypto::encode_field(buf, pid);
      crypto::encode_field(buf, sig.signer);
      crypto::encode_field(
          buf, std::string_view(reinterpret_cast<const char*>(sig.tag.data()),
                                sig.tag.size()));
    }
    h.update(buf);
    return h.finish();
  }

  registers::Swmr<Record>* publish_at(int pid, int seq) {
    return publish_[static_cast<std::size_t>(pid)]
                   [static_cast<std::size_t>(seq)];
  }

  // Validates a record's aggregate certificate. The first full validation
  // of a certificate interns its digest; every later check of the same
  // certificate — every deliver poll, every process — is one digest plus
  // one interner lookup instead of n−f signature verifications.
  bool valid_cert(int sender, int seq, const Record& rec) const {
    if (static_cast<int>(rec.cert.size()) < cfg_.n - cfg_.f) return false;
    const std::string msg = slot_msg(sender, seq, rec.value);
    const crypto::Digest digest = cert_digest(msg, rec);
    if (interner_.find(digest).has_value()) return true;
    std::vector<crypto::SignatureAuthority::VerifyEntry> entries;
    entries.reserve(rec.cert.size());
    for (const auto& [pid, sig] : rec.cert)
      if (sig.signer == pid) entries.push_back({msg, &sig});
    if (auth_->verify_all(entries) < static_cast<std::size_t>(cfg_.n - cfg_.f))
      return false;
    const std::uint64_t handle = interner_.intern(digest);
    obs::Event e;
    e.kind = obs::EventKind::kCertIntern;
    e.pid = static_cast<std::int16_t>(runtime::ThisProcess::id());
    e.origin = sender;
    e.sn = static_cast<std::uint64_t>(seq);
    e.aux = handle;
    obs::record(e);
    return true;
  }

  registers::Space* space_;
  const crypto::SignatureAuthority* auth_;
  Config cfg_;
  std::vector<std::vector<registers::Swmr<Record>*>> publish_;
  std::vector<registers::Swmr<AckMap>*> acks_;
  std::vector<registers::Swmr<RelayMap>*> relays_;
  core::detail::SpaceEpochGate epoch_gate_;
  mutable crypto::CertInterner interner_;
};

}  // namespace swsig::broadcast
