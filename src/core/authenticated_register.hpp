// SWMR multivalued *authenticated register* — Algorithm 2 of the paper.
//
// Sequential specification (Definition 15): Write/Read behave like a normal
// SWMR register, and every written value is atomically "signed": Verify(v)
// returns true iff a Write(v) happened before it or v = v0. The
// implementation is Byzantine linearizable and all operations of correct
// processes terminate, for n > 3f (Theorem 20).
//
// Differences from the verifiable register (paper §7.1): there is no R*;
// the writer keeps a single register R_1 holding timestamped values ⟨ℓ,v⟩,
// and Read must re-verify the value it selects before returning it, so that
// a Byzantine writer cannot make a Read return a value whose Verify would
// later fail (Observation 19). If verification fails, Read returns v0.
//
// Code comments "L<k>" refer to the paper's Algorithm 2 line numbers. Layer
// invariants and deviations from the paper: docs/ARCHITECTURE.md (§core,
// design notes 1-5).
#pragma once

#include <algorithm>
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
class AuthenticatedRegister {
 public:
  // Register types of the underlying substrate (shared-memory Space or
  // msgpass::EmulatedSpace) — the algorithm is substrate-generic.
  template <typename T>
  using SwmrT = typename SpaceT::template SwmrFor<T>;

  using Value = V;
  using ValueSet = std::set<V>;
  using Stamped = std::pair<SeqNo, V>;       // ⟨ℓ, v⟩
  using StampedSet = std::set<Stamped>;      // contents of R_1
  using HelpTuple = std::pair<ValueSet, RoundCounter>;  // ⟨r_j, c_j⟩

  // Free-mode fast paths; see core/detail/helping.hpp.
  using Help = detail::Helping<HelpTuple, SpaceT>;
  static constexpr bool kVersionGate = Help::kVersionGate;

  struct Config {
    int n = 4;
    int f = 1;
    V v0 = V{};
    bool allow_suboptimal = false;
  };

  AuthenticatedRegister(SpaceT& space, Config config)
      : cfg_(std::move(config)), help_(space, cfg_) {
    const int n = cfg_.n;
    // R_1: writer's register of stamped values, initially {⟨0, v0⟩}.
    writer_set_ = &space.template make_swmr<StampedSet>(1, StampedSet{{0, cfg_.v0}},
                                               "R1");
    // R_k (readers only): witness sets, initially {v0}.
    witness_.resize(n + 1, nullptr);
    for (int k = 2; k <= n; ++k)
      witness_[k] =
          &space.template make_swmr<ValueSet>(k, ValueSet{cfg_.v0},
                                     "R" + std::to_string(k));
    // R_ij helping channels for every process i and reader j.
    for (int i = 1; i <= n; ++i) help_.make_channels(i, {{}, 0});
    help_.make_rounds();  // C_k round counters
    verified_.resize(n + 1);
  }

  const Config& config() const { return cfg_; }

  // ----------------------------------------------------------- writer ops

  // Write(v) — L1-3. Caller must be bound as p1. The value is "signed"
  // atomically by the same step that publishes it.
  void write(const V& v) {
    help_.require_self(1, "Write");
    ++seq_;                                                    // L1: ℓ <- ℓ+1
    writer_set_->update([&](StampedSet& r1) { r1.insert({seq_, v}); });  // L2
  }                                                            // L3

  // ----------------------------------------------------------- reader ops

  // Read() — L4-9. Caller must be bound as a reader p2..pn.
  V read() {
    help_.require_reader("Read");
    const StampedSet r = writer_set_->read();  // L4
    // L5: "if r is a set of tuples ⟨ℓ,v⟩" — with typed registers the only
    // malformed state a Byzantine writer can reach is the empty set.
    if (!r.empty()) {
      // L6: select the pair maximal in the lexicographic order of fn. 8.
      const Stamped& top = *std::max_element(r.begin(), r.end());
      if (verify(top.second)) return top.second;  // L7-8
    }
    return cfg_.v0;  // L9
  }

  // Verify(v) — L10-23; Algorithm 1's L11-24 with L22's evidence counted
  // over R_1 and the readers' witness sets.
  bool verify(const V& v) {
    const int k = help_.require_reader("Verify");
    // Free-mode fast paths — same soundness arguments as
    // VerifiableRegister::verify: positive Verify verdicts are permanent
    // (cacheable per process), and >= n−f attesting registers — counting
    // the writer's R_1 as slot 1, exactly as L33 does — imply >= f+1
    // honest attesters, which is the evidence standard of L22.
    const bool fast = help_.fast_path();
    auto& seen = verified_[static_cast<std::size_t>(k)];
    if (fast && seen.contains(v)) return true;
    if (fast && witness_scan(v)) {
      seen.insert(v);
      return true;
    }
    std::set<int> set0, set1;  // L10
    auto ask = help_.ask(k);
    for (;;) {                 // L11
      // L12-16: ask, then wait for an answer from some p_j ∉ set1 ∪ set0.
      const auto answer = ask.round(
          [&](int j) { return set0.contains(j) || set1.contains(j); },
          [&] { return witness_scan(v); });
      if (!answer) {
        seen.insert(v);
        return true;
      }
      const auto& [chosen, tuple] = *answer;
      if (tuple.first.contains(v)) {  // L17
        set1.insert(chosen);          // L18
        set0.clear();                 // L19
      } else {                        // L20
        set0.insert(chosen);          // L21
      }
      if (static_cast<int>(set1.size()) >= cfg_.n - cfg_.f) {  // L22
        if (fast) seen.insert(v);
        return true;
      }
      if (static_cast<int>(set0.size()) > cfg_.f)            // L23
        return false;
    }
  }

  // ------------------------------------------------------------- helping

  // One iteration of the while-loop body of Help() — L25-38; the asker
  // detection and answers (L26-28, L36-38) are the shared helping protocol.
  bool help_round() {
    return help_.help_round([&](int j) {
      // L29-30: r1 = values the writer has written (stamps stripped).
      const StampedSet r = writer_set_->read();
      ValueSet r1;
      for (const Stamped& sv : r) r1.insert(sv.second);
      // For j = 1 the writer answers with the values of its own R_1
      // (Lemma 103, case j = 1).
      if (j == 1) return r1;  // L31

      // L32: read every (reader) witness register.
      std::vector<ValueSet> ri(static_cast<std::size_t>(cfg_.n) + 1);
      ri[1] = r1;  // r1 participates in the count "1 <= i <= n" of L33
      for (int i = 2; i <= cfg_.n; ++i)
        ri[static_cast<std::size_t>(i)] = witness_[i]->read();
      // L33-34: become a witness of v if the writer wrote v, or f+1
      // processes (including possibly the writer) are witnesses of v.
      std::map<V, int> count;  // candidate value -> number of witnesses
      for (int i = 1; i <= cfg_.n; ++i)
        for (const V& v : ri[static_cast<std::size_t>(i)]) ++count[v];
      const bool literal = help_.literal_steps();
      ValueSet adopt;  // qualifying values not yet in r_j
      for (const auto& [v, c] : count) {
        if (r1.contains(v) || c >= cfg_.f + 1) {
          if (literal)
            witness_[j]->update([&](ValueSet& s) { s.insert(v); });  // L34
          else if (!ri[static_cast<std::size_t>(j)].contains(v))
            adopt.insert(v);
        }
      }
      // L34, merged into one write (or none) outside deterministic runs —
      // see VerifiableRegister::help_round.
      if (!adopt.empty())
        witness_[j]->update(
            [&](ValueSet& s) { s.insert(adopt.begin(), adopt.end()); });
      return witness_[j]->read();  // L35
    });
  }

  // --------------------------------------------------- fault injection API
  struct Raw {
    SwmrT<StampedSet>* writer_set;           // R_1
    std::vector<SwmrT<ValueSet>*>* witness;  // R_k
    typename Help::Channels* channel;        // R_ij
    typename Help::Rounds* round;            // C_k
  };
  Raw raw() {
    return Raw{writer_set_, &witness_, help_.channels(), help_.rounds()};
  }

 private:
  // True iff >= n−f registers currently attest v, counting the writer's
  // R_1 (values of its stamped set) as slot 1.
  bool witness_scan(const V& v) {
    int count = 0;
    const StampedSet r = writer_set_->read();
    for (const Stamped& sv : r)
      if (sv.second == v) {
        ++count;
        break;
      }
    if (count >= cfg_.n - cfg_.f) return true;
    for (int i = 2; i <= cfg_.n; ++i)
      if (witness_[i]->read().contains(v) && ++count >= cfg_.n - cfg_.f)
        return true;
    return false;
  }

  Config cfg_;
  Help help_;  // R_ij, C_k and Help() state

  SwmrT<StampedSet>* writer_set_ = nullptr;  // R_1
  std::vector<SwmrT<ValueSet>*> witness_;    // R_k

  SeqNo seq_ = 0;  // ℓ — writer-local (p1's operation thread only)

  // Per-process positive-verify memo (free mode only; see verify()).
  std::vector<ValueSet> verified_;
};

}  // namespace swsig::core
