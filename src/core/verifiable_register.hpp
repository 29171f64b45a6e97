// SWMR multivalued *verifiable register* — Algorithm 1 of the paper.
//
// Sequential specification (Definition 10): Write/Read behave like a normal
// SWMR register; Sign(v) by the writer succeeds iff v was previously
// written; Verify(v) by a reader returns true iff a successful Sign(v)
// happened before it. The implementation is Byzantine linearizable and all
// operations of correct processes terminate, for n > 3f (Theorem 14).
//
// Shared state (paper, Algorithm 1 header):
//   R_i   (every p_i)       SWMR set-of-values register, initially ∅.
//                           R_1 doubles as the writer's "signed" set; R_j
//                           (j>1) is p_j's witness set.
//   R_ij  (every p_i, every reader p_j)
//                           SWSR register readable by p_j, initially ⟨∅,0⟩;
//                           p_i's helping channel to p_j.
//   R*    (writer)          SWMR value register, initially v0.
//   C_k   (every reader)    SWMR round counter, initially 0.
//
// Code comments "L<k>" refer to the paper's Algorithm 1 line numbers. Layer
// invariants and deviations from the paper: docs/ARCHITECTURE.md (§core,
// design notes 1-5).
#pragma once

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/detail/helping.hpp"
#include "core/types.hpp"
#include "registers/space.hpp"

namespace swsig::core {

template <RegisterValue V, typename SpaceT = registers::Space>
class VerifiableRegister {
 public:
  // Register types of the underlying substrate (shared-memory Space or
  // msgpass::EmulatedSpace) — the algorithm is substrate-generic.
  template <typename T>
  using SwmrT = typename SpaceT::template SwmrFor<T>;

  using Value = V;
  using ValueSet = std::set<V>;
  // ⟨r_j, c_j⟩ tuple stored in the helping channels R_jk.
  using HelpTuple = std::pair<ValueSet, RoundCounter>;

  // Free-mode fast paths (version-gated helper wakeup, cached channel
  // collection); see core/detail/helping.hpp.
  using Help = detail::Helping<HelpTuple, SpaceT>;
  static constexpr bool kVersionGate = Help::kVersionGate;

  struct Config {
    int n = 4;          // total number of processes p1..pn
    int f = 1;          // tolerated Byzantine processes; requires n > 3f
    V v0 = V{};         // initial register value
    bool allow_suboptimal = false;  // permit n <= 3f (experiment T5 only)
  };

  VerifiableRegister(SpaceT& space, Config config)
      : cfg_(std::move(config)), help_(space, cfg_) {
    const int n = cfg_.n;
    witness_.resize(n + 1, nullptr);
    verified_.resize(n + 1);
    for (int i = 1; i <= n; ++i) {
      witness_[i] = &space.template make_swmr<ValueSet>(i, {}, "R" + std::to_string(i));
      help_.make_channels(i, {{}, 0});  // R_ij
    }
    last_value_ = &space.template make_swmr<V>(1, cfg_.v0, "R*");
    help_.make_rounds();  // C_k
  }

  const Config& config() const { return cfg_; }

  // ----------------------------------------------------------- writer ops

  // Write(v) — L1-3. Caller must be bound as p1.
  void write(const V& v) {
    help_.require_self(1, "Write");
    last_value_->write(v);    // L1: R* <- v
    written_.insert(v);       // L2: r* <- r* ∪ {v}  (writer-local)
  }                           // L3: return done

  // Sign(v) — L4-8. Caller must be bound as p1.
  SignResult sign(const V& v) {
    help_.require_self(1, "Sign");
    if (written_.contains(v)) {                           // L4: v ∈ r*?
      witness_[1]->update([&](ValueSet& r1) { r1.insert(v); });  // L5
      return SignResult::kSuccess;                        // L6
    }
    return SignResult::kFail;                             // L7-8
  }

  // ----------------------------------------------------------- reader ops

  // Read() — L9-10. Caller must be bound as a reader p2..pn.
  V read() {
    help_.require_reader("Read");
    return last_value_->read();  // L9-10: v <- R*; return v
  }

  // Verify(v) — L11-24. Caller must be bound as a reader p2..pn.
  // Termination relies on helper threads running help_round() for all
  // correct processes (Theorem 43).
  bool verify(const V& v) {
    const int k = help_.require_reader("Verify");
    // Free-mode fast paths (gated off in deterministic mode — the pinned
    // traces pin the paper-literal step sequence):
    //  * per-process verified cache: Verify(v)=true means a successful
    //    Sign(v) happened before, which is permanent — a later Verify(v)
    //    by the same process may return true without re-running the
    //    protocol. Negative results are never cached (a Sign may land).
    //  * witness quorum scan: if >= n−f witness registers already contain
    //    v, return true without a helper round trip. Of those, >= n−2f >=
    //    f+1 are honest, and an honest p_j inserts v only after seeing
    //    v ∈ R_1 or f+1 existing witnesses — by induction on insertion
    //    order the first honest adopter saw the writer's signed set, so
    //    Sign(v) happened. This is the same attestation condition L23
    //    certifies, read from the registers the helpers would relay. The
    //    scan also runs while the round waits on helpers.
    const bool fast = help_.fast_path();
    auto& seen = verified_[static_cast<std::size_t>(k)];
    if (fast && seen.contains(v)) return true;
    if (fast && witness_scan(v)) {
      seen.insert(v);
      return true;
    }
    std::set<int> set0, set1;  // L11
    auto ask = help_.ask(k);
    for (;;) {                 // L12: while true
      // L13-17: ask, then wait for an answer from some p_j ∉ set1 ∪ set0.
      const auto answer = ask.round(
          [&](int j) { return set0.contains(j) || set1.contains(j); },
          [&] { return witness_scan(v); });
      if (!answer) {
        seen.insert(v);
        return true;
      }
      const auto& [chosen, tuple] = *answer;
      if (tuple.first.contains(v)) {  // L18: v ∈ r_j
        set1.insert(chosen);          // L19
        set0.clear();                 // L20
      } else {                        // L21: v ∉ r_j
        set0.insert(chosen);          // L22
      }
      if (static_cast<int>(set1.size()) >= cfg_.n - cfg_.f) {  // L23
        if (fast) seen.insert(v);
        return true;
      }
      if (static_cast<int>(set0.size()) > cfg_.f)            // L24
        return false;
    }
  }

  // ------------------------------------------------------------- helping

  // One iteration of the while-loop body of Help() — L26-36; the asker
  // detection and answers (L27-29, L34-36) are the shared helping protocol.
  // Runs as the process the calling thread is bound to (any of p1..pn).
  // Returns true if it served at least one asker (used for idle backoff by
  // the runner).
  bool help_round() {
    return help_.help_round([&](int j) {
      // L30: read every witness register.
      std::vector<ValueSet> r(static_cast<std::size_t>(cfg_.n) + 1);
      for (int i = 1; i <= cfg_.n; ++i)
        r[static_cast<std::size_t>(i)] = witness_[i]->read();

      // L31-32: become a witness of v if the writer signed v (v ∈ r1) or
      // at least f+1 processes are already witnesses of v.
      std::map<V, int> count;  // candidate value -> number of witnesses
      for (int i = 1; i <= cfg_.n; ++i)
        for (const V& v : r[static_cast<std::size_t>(i)]) ++count[v];
      const bool literal = help_.literal_steps();
      ValueSet adopt;  // qualifying values not yet in r_j
      for (const auto& [v, c] : count) {
        if (r[1].contains(v) || c >= cfg_.f + 1) {
          if (literal)
            witness_[j]->update([&](ValueSet& rj) { rj.insert(v); });  // L32
          else if (!r[static_cast<std::size_t>(j)].contains(v))
            adopt.insert(v);
        }
      }
      // L32, merged: one write of R_j ∪ adopt is |adopt| back-to-back L32
      // writes with no step in between — a legal schedule of Help()
      // (design note 17) — and no write at all when nothing is new.
      if (!adopt.empty())
        witness_[j]->update(
            [&](ValueSet& rj) { rj.insert(adopt.begin(), adopt.end()); });

      return witness_[j]->read();  // L33: r_j <- R_j
    });
  }

  // --------------------------------------------------- fault injection API

  // Raw handles to this instance's shared registers. Byzantine behaviors
  // (src/byzantine) use these to mount the attacks from the paper; port
  // enforcement still applies, so a behavior bound as p_i can only write
  // p_i's registers — exactly the model's adversary.
  struct Raw {
    std::vector<SwmrT<ValueSet>*>* witness;  // R_i, index by pid
    typename Help::Channels* channel;        // R_ij
    SwmrT<V>* last_value;                    // R*
    typename Help::Rounds* round;            // C_k
  };
  Raw raw() {
    return Raw{&witness_, help_.channels(), last_value_, help_.rounds()};
  }

 private:
  // True iff >= n−f witness registers currently contain v.
  bool witness_scan(const V& v) {
    int count = 0;
    for (int i = 1; i <= cfg_.n; ++i)
      if (witness_[i]->read().contains(v) && ++count >= cfg_.n - cfg_.f)
        return true;
    return false;
  }

  Config cfg_;
  Help help_;  // R_ij, C_k and Help() state

  // Shared registers (owned by the Space; raw pointers are stable).
  std::vector<SwmrT<ValueSet>*> witness_;  // R_i
  SwmrT<V>* last_value_ = nullptr;         // R*

  // Writer-local state (touched only by p1's operation thread).
  ValueSet written_;  // r*

  // Per-process positive-verify memo (touched only by that process's
  // operation thread; free mode only). Sound because Verify(v)=true is
  // permanent — see verify().
  std::vector<ValueSet> verified_;
};

}  // namespace swsig::core
