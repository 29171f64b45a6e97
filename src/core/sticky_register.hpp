// SWMR multivalued *sticky register* — Algorithm 3 of the paper.
//
// Sequential specification (Definition 21): the register is initialized to
// ⊥; a Read returns either ⊥ (no Write before it) or the value of the
// *first* Write. Once any correct process reads v ≠ ⊥, every later Read by
// any correct process returns v — the uniqueness / non-equivocation
// property — even if the writer is Byzantine. Byzantine linearizable and
// terminating for n > 3f (Theorem 25).
//
// The witness policy here is deliberately stricter than Algorithm 1's
// (paper §9.1): a process first *echoes* the first value it sees in E_1
// into its own E_j, becomes a witness only after seeing n−f matching
// echoes (or f+1 matching witnesses while helping), and the writer's
// Write(v) returns only after n−f witnesses hold v.
//
// Code comments "L<k>" refer to the paper's Algorithm 3 line numbers. Layer
// invariants and deviations from the paper: docs/ARCHITECTURE.md (§core,
// design notes 1-5).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/detail/helping.hpp"
#include "core/types.hpp"
#include "registers/space.hpp"

namespace swsig::core {

template <RegisterValue V, typename SpaceT = registers::Space>
class StickyRegister {
 public:
  // Register types of the underlying substrate (shared-memory Space or
  // msgpass::EmulatedSpace) — the algorithm is substrate-generic.
  template <typename T>
  using SwmrT = typename SpaceT::template SwmrFor<T>;

  using Value = V;
  using Slot = std::optional<V>;  // ⊥ is std::nullopt
  using HelpTuple = std::pair<Slot, RoundCounter>;  // ⟨u_j, c_j⟩

  // The helping protocol and its wait paths (core/detail/helping.hpp).
  using Help = detail::Helping<HelpTuple, SpaceT>;

  struct Config {
    int n = 4;
    int f = 1;
    bool allow_suboptimal = false;
  };

  StickyRegister(SpaceT& space, Config config)
      : cfg_(std::move(config)), help_(space, cfg_) {
    const int n = cfg_.n;
    echo_.resize(n + 1, nullptr);
    witness_.resize(n + 1, nullptr);
    for (int i = 1; i <= n; ++i) {
      echo_[i] = &space.template make_swmr<Slot>(i, std::nullopt,
                                        "E" + std::to_string(i));
      witness_[i] = &space.template make_swmr<Slot>(i, std::nullopt,
                                           "R" + std::to_string(i));
      help_.make_channels(i, {std::nullopt, 0});  // R_ij
    }
    help_.make_rounds();  // C_k
  }

  const Config& config() const { return cfg_; }

  // ----------------------------------------------------------- writer op

  // Write(v) — L1-6. Caller must be bound as p1. Returns only once n−f
  // processes are witnesses of v (see §9.1 for why the wait is necessary).
  // Termination relies on helpers running for all correct processes.
  void write(const V& v) {
    help_.require_self(1, "Write");
    if (echo_[1]->read().has_value()) return;  // L1: already wrote once
    echo_[1]->write(Slot{v});                  // L2: E1 <- v
    // L3-5: await n−f witnesses. The gated path re-reads once a witness
    // slot may have changed (Helping::await_change).
    typename Help::Seen seen;
    const auto watched = Help::watch(witness_);
    for (;;) {
      int count = 0;
      for (const Slot& ri : help_.read_all(witness_))  // L4
        if (ri.has_value() && *ri == v) ++count;
      if (count >= cfg_.n - cfg_.f) return;    // L5-6
      while (!help_.await_change(seen, watched)) {
      }
    }
  }

  // ----------------------------------------------------------- reader op

  // Read() — L7-22. Caller must be bound as a reader p2..pn. Returns the
  // unique written value, or std::nullopt for ⊥.
  Slot read() {
    const int k = help_.require_reader("Read");
    // Shortcut (Helping::shortcuts()): scan the witness registers
    // directly. If some v holds >= n−f witness slots, return it without
    // entering the round protocol (no counter bump, no helper wakeup).
    // Sound because at most one value can ever reach n−f witness slots:
    // two such quorums intersect in >= n−2f >= f+1 processes, hence in an
    // honest process, and honest witness slots are write-once — so a
    // second value's quorum is impossible at any time. The value returned
    // satisfies exactly the L20-21 return condition (n−f distinct
    // processes witnessing v), read from the same registers the helpers
    // would have relayed. ⊥ results MUST still use the full protocol:
    // concluding "no write" requires f+1 distinct processes asserting ⊥
    // *after* the read began (L22), which only the round counter provides.
    if (help_.shortcuts()) {
      if (Slot v = witness_scan(); v.has_value()) return v;
    }
    std::set<int> set_bot;       // set⊥  — L7
    std::map<int, V> setval;     // setval as pj -> value
    Slot found;                  // witness quorum scan result
    auto ask = help_.ask(k);
    for (;;) {                   // L8
      // L9-14: ask, then wait for an answer from some p_j in S, the
      // processes in neither set (L10). While waiting on helpers, the
      // witness quorum may complete — the scan's soundness argument is
      // position-independent.
      const auto answer = ask.round(
          [&](int j) { return set_bot.contains(j) || setval.contains(j); },
          [&] {
            found = witness_scan();
            return found.has_value();
          });
      if (!answer) return found;
      const auto& [chosen, tuple] = *answer;
      if (tuple.first.has_value()) {           // L15: u_j != ⊥
        setval.emplace(chosen, *tuple.first);  // L16
        set_bot.clear();                       // L17
      } else {                                 // L18
        set_bot.insert(chosen);                // L19
      }
      // L20-21: some value witnessed by n−f processes in setval?
      std::map<V, int> tally;
      for (const auto& [pj, u] : setval) ++tally[u];
      for (const auto& [u, cnt] : tally)
        if (cnt >= cfg_.n - cfg_.f) return Slot{u};
      if (static_cast<int>(set_bot.size()) > cfg_.f)  // L22
        return std::nullopt;
    }
  }

  // ------------------------------------------------------------- helping

  // One iteration of the while-loop body of Help() — L24-40; the asker
  // detection and answers (L31-33, L38-40) are the shared helping protocol.
  //
  // The wakeup gate. Unlike Algorithms 1-2, the sticky helper does
  // echo/witness work (L25-30) even without askers, so the gate also
  // watches every echo and witness slot. Once this helper has both echoed
  // and witnessed, L25-30 and L34-36 are permanent no-ops (its slots are
  // write-once and already set), so the only inputs that can still demand
  // work are the round counters — the watch shrinks from 3n−1 registers
  // to n−1. The helper keeps serving askers forever; settling only prunes
  // the wakeup scan.
  bool help_round() {
    return help_.help_round(
        [&](int j) {
          // L34-36: second chance to witness, via f+1 matching witnesses.
          witness_on(j, witness_, cfg_.f + 1);
          return witness_[j]->read();  // L37
        },
        [&](int j, auto&& watch) {
          if (echo_[j]->read().has_value() && witness_[j]->read().has_value())
            return false;  // settled
          for (int i = 1; i <= cfg_.n; ++i) {
            watch(*echo_[i]);
            watch(*witness_[i]);
          }
          return true;
        },
        [&](int j) { echo_and_witness(j); });
  }

  // --------------------------------------------------- fault injection API
  struct Raw {
    std::vector<SwmrT<Slot>*>* echo;     // E_i
    std::vector<SwmrT<Slot>*>* witness;  // R_i
    typename Help::Channels* channel;    // R_ij
    typename Help::Rounds* round;        // C_k
  };
  Raw raw() {
    return Raw{&echo_, &witness_, help_.channels(), help_.rounds()};
  }

 private:
  // L25-30 of Help(), run every round before looking for askers.
  void echo_and_witness(int j) {
    // L25-27: echo the first value seen in E1. The conditional update
    // keeps this race-free against p1's own Write (see Swmr::update).
    // Writing ⊥ over ⊥ would be a semantic no-op but still bumps the
    // register version and space epoch, waking every helper of every
    // register in the space — with E1 still ⊥ that feedback loop makes idle
    // helpers churn forever. Skip the store until there is a value to echo.
    if (!echo_[j]->read().has_value()) {
      const Slot e1 = echo_[1]->read();  // L26
      if (e1.has_value()) {
        echo_[j]->update([&](Slot& ej) {  // L27
          if (!ej.has_value()) ej = e1;
        });
      }
    }

    // L28-30: become a witness of v on n−f matching echoes.
    witness_on(j, echo_, cfg_.n - cfg_.f);
  }

  // L28-30 / L34-36: unless p_j already is a witness, make it a witness of
  // the smallest value held by >= `quorum` of the slots E_i (L29-30) or
  // R_i (L35-36).
  void witness_on(int j, const std::vector<SwmrT<Slot>*>& slots, int quorum) {
    if (witness_[j]->read().has_value()) return;
    std::map<V, int> tally;
    for (int i = 1; i <= cfg_.n; ++i) {
      const Slot si = slots[static_cast<std::size_t>(i)]->read();  // L29/L35
      if (si.has_value()) ++tally[*si];
    }
    for (const auto& [v, cnt] : tally) {
      if (cnt >= quorum) {  // L30 / L36
        witness_[j]->update([&](Slot& rj) {
          if (!rj.has_value()) rj = v;
        });
        return;
      }
    }
  }

  // Quorum scan over the witness registers (shortcut); Slot{v} iff some v
  // holds >= n−f slots right now (see read() for the soundness argument).
  Slot witness_scan() {
    std::map<V, int> tally;
    for (int i = 1; i <= cfg_.n; ++i) {
      const Slot ri = witness_[i]->read();
      if (ri.has_value() && ++tally[*ri] >= cfg_.n - cfg_.f) return ri;
    }
    return std::nullopt;
  }

  Config cfg_;
  Help help_;  // R_ij, C_k and Help() state

  std::vector<SwmrT<Slot>*> echo_;     // E_i
  std::vector<SwmrT<Slot>*> witness_;  // R_i
};

}  // namespace swsig::core
