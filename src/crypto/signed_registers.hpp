// Signature-based baseline registers (substitution S9 in
// docs/ARCHITECTURE.md) — the prior-work comparators, NOT a paper
// construction: the paper's point is that core/ needs none of this.
//
// These provide the same abstract interfaces as the paper's three register
// types but use (simulated) unforgeable signatures, the way prior work
// ([5] Cohen–Keidar, [2] Aguilera et al.) does. They are the comparators
// for benchmarks T1–T3/T6: what does removing signatures cost?
//
// Fault-tolerance differences worth noting (and measured):
//  * SignedVerifiable / SignedAuthenticated tolerate ANY f < n: one honest
//    relayed copy of a signed value suffices, since the signature cannot be
//    forged. No quorum work — Verify is O(1) when the writer is honest and
//    O(n) worst case.
//  * SignedSticky still needs n > 3f echo quorums: signatures authenticate
//    *who* wrote a value but cannot stop the owner from signing TWO values —
//    exactly the paper's §1 observation that signatures alone do not give
//    uniqueness/non-equivocation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "core/version_gate.hpp"
#include "crypto/signer.hpp"
#include "registers/space.hpp"
#include "runtime/process.hpp"

namespace swsig::crypto {

// ----------------------------------------------------------------------
// Signed verifiable register: Write/Read/Sign/Verify via signatures.
// ----------------------------------------------------------------------
template <core::RegisterValue V>
class SignedVerifiableRegister {
 public:
  using Value = V;
  using SignedSet = std::map<V, Signature>;

  struct Config {
    int n = 4;
    int f = 1;  // informational; any f < n works for this register
    V v0 = V{};
  };

  SignedVerifiableRegister(registers::Space& space,
                           const SignatureAuthority& authority, Config config)
      : authority_(&authority), cfg_(std::move(config)) {
    last_ = &space.make_swmr<V>(1, cfg_.v0, "sv.last");
    signed_ = &space.make_swmr<SignedSet>(1, {}, "sv.signed");
    relay_.resize(static_cast<std::size_t>(cfg_.n) + 1, nullptr);
    for (int k = 2; k <= cfg_.n; ++k)
      relay_[static_cast<std::size_t>(k)] = &space.make_swmr<SignedSet>(
          k, {}, "sv.relay" + std::to_string(k));
  }

  const Config& config() const { return cfg_; }

  void write(const V& v) {
    last_->write(v);
    written_.insert(v);
  }

  core::SignResult sign(const V& v) {
    if (!written_.contains(v)) return core::SignResult::kFail;
    const Signature sig = authority_->sign(1, encode_value(v));
    signed_->update([&](SignedSet& s) { s[v] = sig; });
    return core::SignResult::kSuccess;
  }

  V read() { return last_->read(); }

  bool verify(const V& v) {
    const int k = runtime::ThisProcess::id();
    const std::string msg = encode_value(v);
    // 1. Writer's own signed set, then 2. any reader's relay set (a correct
    // reader that saw the signed value re-published it, defeating later
    // denial by the writer).
    std::optional<Signature> found = check(signed_->read(), v, msg);
    for (int j = 2; !found && j <= cfg_.n; ++j) {
      if (j == k) continue;
      found = check(relay_[static_cast<std::size_t>(j)]->read(), v, msg);
    }
    if (!found) return false;
    adopt(k, v, *found);
    return true;
  }

  // No background helping needed: signatures replace witnesses.
  bool help_round() { return false; }

 private:
  std::optional<Signature> check(const SignedSet& s, const V& v,
                                 const std::string& msg) const {
    const auto it = s.find(v);
    if (it != s.end() && it->second.signer == 1 &&
        authority_->verify_cached(msg, it->second))
      return it->second;
    return std::nullopt;
  }

  void adopt(int k, const V& v, const Signature& sig) {
    if (k < 2 || k > cfg_.n) return;
    // Republishing keeps the signed value alive even if the (Byzantine)
    // writer later erases it: the relay property.
    relay_[static_cast<std::size_t>(k)]->update(
        [&](SignedSet& s) { s[v] = sig; });
  }

  const SignatureAuthority* authority_;
  Config cfg_;
  registers::Swmr<V>* last_ = nullptr;
  registers::Swmr<SignedSet>* signed_ = nullptr;
  std::vector<registers::Swmr<SignedSet>*> relay_;
  std::set<V> written_;  // writer-local r*
};

// ----------------------------------------------------------------------
// Signed authenticated register: every Write carries its signature.
// ----------------------------------------------------------------------
template <core::RegisterValue V>
class SignedAuthenticatedRegister {
 public:
  using Value = V;
  struct Entry {
    core::SeqNo seq = 0;
    V value = V{};
    Signature sig;
    friend auto operator<=>(const Entry&, const Entry&) = default;
  };
  using EntrySet = std::set<Entry>;
  using SignedSet = std::map<V, Signature>;

  struct Config {
    int n = 4;
    int f = 1;
    V v0 = V{};
  };

  SignedAuthenticatedRegister(registers::Space& space,
                              const SignatureAuthority& authority,
                              Config config)
      : authority_(&authority), cfg_(std::move(config)) {
    store_ = &space.make_swmr<EntrySet>(1, {}, "sa.store");
    relay_.resize(static_cast<std::size_t>(cfg_.n) + 1, nullptr);
    for (int k = 2; k <= cfg_.n; ++k)
      relay_[static_cast<std::size_t>(k)] = &space.make_swmr<SignedSet>(
          k, {}, "sa.relay" + std::to_string(k));
  }

  const Config& config() const { return cfg_; }

  void write(const V& v) {
    ++seq_;
    const Signature sig = authority_->sign(1, encode_value(v));
    store_->update([&](EntrySet& s) { s.insert({seq_, v, sig}); });
  }

  V read() {
    const int k = runtime::ThisProcess::id();
    const EntrySet s = store_->read();
    // Highest-timestamp entry with a VALID signature wins; invalid entries
    // (a Byzantine writer can insert garbage tags) are skipped.
    for (auto it = s.rbegin(); it != s.rend(); ++it) {
      if (authority_->verify_cached(encode_value(it->value), it->sig)) {
        adopt(k, it->value, it->sig);
        return it->value;
      }
    }
    return cfg_.v0;
  }

  bool verify(const V& v) {
    if (v == cfg_.v0) return true;  // v0 deemed signed (Definition 15)
    const int k = runtime::ThisProcess::id();
    const std::string msg = encode_value(v);
    const EntrySet s = store_->read();
    for (const Entry& e : s) {
      if (e.value == v && authority_->verify_cached(msg, e.sig)) {
        adopt(k, v, e.sig);
        return true;
      }
    }
    for (int j = 2; j <= cfg_.n; ++j) {
      if (j == k) continue;
      const SignedSet r = relay_[static_cast<std::size_t>(j)]->read();
      if (auto it = r.find(v);
          it != r.end() && authority_->verify_cached(msg, it->second)) {
        adopt(k, v, it->second);
        return true;
      }
    }
    return false;
  }

  bool help_round() { return false; }

 private:
  void adopt(int k, const V& v, const Signature& sig) {
    if (k < 2 || k > cfg_.n) return;
    relay_[static_cast<std::size_t>(k)]->update(
        [&](SignedSet& s) { s[v] = sig; });
  }

  const SignatureAuthority* authority_;
  Config cfg_;
  registers::Swmr<EntrySet>* store_ = nullptr;
  std::vector<registers::Swmr<SignedSet>*> relay_;
  core::SeqNo seq_ = 0;
};

// ----------------------------------------------------------------------
// Signed sticky register: echo quorums are STILL required (n > 3f) because
// signatures cannot prevent the owner from signing two different values.
// ----------------------------------------------------------------------
template <core::RegisterValue V>
class SignedStickyRegister {
 public:
  using Value = V;
  struct SignedVal {
    V value = V{};
    Signature sig;
    friend auto operator<=>(const SignedVal&, const SignedVal&) = default;
  };
  using Slot = std::optional<SignedVal>;

  struct Config {
    int n = 4;
    int f = 1;  // requires n > 3f, like the signature-free version
    bool allow_suboptimal = false;
  };

  SignedStickyRegister(registers::Space& space,
                       const SignatureAuthority& authority, Config config)
      : space_(&space), authority_(&authority), cfg_(std::move(config)),
        epoch_gate_(cfg_.n) {
    core::check_resilience(cfg_.n, cfg_.f, cfg_.allow_suboptimal);
    publish_ = &space.make_swmr<Slot>(1, std::nullopt, "ss.pub");
    echo_.resize(static_cast<std::size_t>(cfg_.n) + 1, nullptr);
    for (int i = 1; i <= cfg_.n; ++i)
      echo_[static_cast<std::size_t>(i)] = &space.make_swmr<Slot>(
          i, std::nullopt, "ss.echo" + std::to_string(i));
  }

  const Config& config() const { return cfg_; }

  void write(const V& v) {
    if (publish_->read().has_value()) return;  // one-shot
    const Signature sig = authority_->sign(1, encode_value(v));
    publish_->write(Slot{SignedVal{v, sig}});
    // Await n−f echoes of v before returning (same reason as Algorithm 3).
    for (;;) {
      if (count_echoes(v) >= cfg_.n - cfg_.f) return;
      std::this_thread::yield();
    }
  }

  std::optional<V> read() {
    for (;;) {
      // Each spin batch-verifies the round's echoes: matching echoes sign
      // the same message, so verify_all computes one digest for the whole
      // quorum and cached signatures skip the MAC entirely.
      std::vector<Slot> echoes;
      std::vector<std::string> msgs;
      echoes.reserve(static_cast<std::size_t>(cfg_.n));
      msgs.reserve(static_cast<std::size_t>(cfg_.n));
      for (int i = 1; i <= cfg_.n; ++i) {
        echoes.push_back(echo_[static_cast<std::size_t>(i)]->read());
        const Slot& e = echoes.back();
        msgs.push_back(e.has_value() ? encode_value(e->value)
                                     : std::string());
      }
      std::vector<SignatureAuthority::VerifyEntry> entries(
          static_cast<std::size_t>(cfg_.n));
      for (std::size_t i = 0; i < echoes.size(); ++i) {
        if (echoes[i].has_value() && echoes[i]->sig.signer == 1) {
          entries[i].message = msgs[i];
          entries[i].sig = &echoes[i]->sig;
        }
      }
      authority_->verify_all(entries);
      std::map<V, int> tally;
      int bottoms = 0;
      for (std::size_t i = 0; i < echoes.size(); ++i) {
        if (entries[i].ok)
          ++tally[echoes[i]->value];
        else
          ++bottoms;
      }
      for (const auto& [v, cnt] : tally)
        if (cnt >= cfg_.n - cfg_.f) return v;
      if (bottoms >= cfg_.n - cfg_.f) return std::nullopt;
      std::this_thread::yield();
    }
  }

  // Echo maintenance (the analogue of Algorithm 3's Help): echo the first
  // validly-signed value seen in the writer's register, or adopt a value
  // echoed by f+1 processes.
  bool help_round() {
    const int j = runtime::ThisProcess::id();
    if (j < 1 || j > cfg_.n)
      throw std::logic_error("help_round requires a bound thread");
    // Epoch gate (free mode): echo work only arises from a write
    // to the publish register or another echo — both bump the space epoch.
    if (!epoch_gate_.changed(*space_, j)) return false;
    if (echo_[static_cast<std::size_t>(j)]->read().has_value()) return false;

    Slot candidate = publish_->read();
    if (!(candidate.has_value() && candidate->sig.signer == 1 &&
          authority_->verify_cached(encode_value(candidate->value),
                                    candidate->sig))) {
      candidate = std::nullopt;
      std::map<V, std::pair<int, Signature>> tally;
      for (int i = 1; i <= cfg_.n; ++i) {
        const Slot e = echo_[static_cast<std::size_t>(i)]->read();
        if (e.has_value() && e->sig.signer == 1 &&
            authority_->verify_cached(encode_value(e->value), e->sig)) {
          auto& slot = tally[e->value];
          ++slot.first;
          slot.second = e->sig;
        }
      }
      for (const auto& [v, pair] : tally) {
        if (pair.first >= cfg_.f + 1) {
          candidate = SignedVal{v, pair.second};
          break;
        }
      }
    }
    if (!candidate.has_value()) return false;
    echo_[static_cast<std::size_t>(j)]->update([&](Slot& e) {
      if (!e.has_value()) e = candidate;
    });
    return true;
  }

 private:
  int count_echoes(const V& v) const {
    int count = 0;
    for (int i = 1; i <= cfg_.n; ++i) {
      const Slot e = echo_[static_cast<std::size_t>(i)]->read();
      if (e.has_value() && e->value == v) ++count;
    }
    return count;
  }

  registers::Space* space_;
  const SignatureAuthority* authority_;
  Config cfg_;
  registers::Swmr<Slot>* publish_ = nullptr;
  std::vector<registers::Swmr<Slot>*> echo_;
  core::detail::SpaceEpochGate epoch_gate_;
};

}  // namespace swsig::crypto
