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
#include <concepts>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "core/version_gate.hpp"
#include "registers/space.hpp"
#include "runtime/process.hpp"

namespace swsig::core {

template <RegisterValue V, typename SpaceT = registers::Space>
class AuthenticatedRegister {
 public:
  // Register types of the underlying substrate (shared-memory Space or
  // msgpass::EmulatedSpace) — the algorithm is substrate-generic.
  template <typename T>
  using SwmrT = typename SpaceT::template SwmrFor<T>;
  template <typename T>
  using SwsrT = typename SpaceT::template SwsrFor<T>;

  using Value = V;
  using ValueSet = std::set<V>;
  using Stamped = std::pair<SeqNo, V>;       // ⟨ℓ, v⟩
  using StampedSet = std::set<Stamped>;      // contents of R_1
  using HelpTuple = std::pair<ValueSet, RoundCounter>;  // ⟨r_j, c_j⟩
  using ChannelCache = detail::VersionedCache<HelpTuple>;

  // See VerifiableRegister::kVersionGate — free-mode fast paths, compiled
  // out for substrates without versions.
  static constexpr bool kVersionGate =
      requires(SpaceT& s, SwsrT<HelpTuple>& c, SwmrT<RoundCounter>& r) {
        { s.free_mode() } -> std::convertible_to<bool>;
        { c.version() } -> std::convertible_to<std::uint64_t>;
        { r.version() } -> std::convertible_to<std::uint64_t>;
      };

  struct Config {
    int n = 4;
    int f = 1;
    V v0 = V{};
    bool allow_suboptimal = false;
  };

  AuthenticatedRegister(SpaceT& space, Config config)
      : space_(&space), cfg_(std::move(config)) {
    check_resilience(cfg_.n, cfg_.f, cfg_.allow_suboptimal);
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
    channel_.assign(n + 1, std::vector<SwsrT<HelpTuple>*>(n + 1));
    for (int i = 1; i <= n; ++i)
      for (int j = 2; j <= n; ++j)
        channel_[i][j] = &space.template make_swsr<HelpTuple>(
            i, j, {{}, 0},
            "R" + std::to_string(i) + "," + std::to_string(j));
    // C_k round counters.
    round_.resize(n + 1, nullptr);
    for (int k = 2; k <= n; ++k)
      round_[k] =
          &space.template make_swmr<RoundCounter>(k, 0, "C" + std::to_string(k));
    help_state_.resize(n + 1);
    verified_.resize(n + 1);
  }

  const Config& config() const { return cfg_; }

  // ----------------------------------------------------------- writer ops

  // Write(v) — L1-3. Caller must be bound as p1. The value is "signed"
  // atomically by the same step that publishes it.
  void write(const V& v) {
    require_self(1, "Write");
    ++seq_;                                                    // L1: ℓ <- ℓ+1
    writer_set_->update([&](StampedSet& r1) { r1.insert({seq_, v}); });  // L2
  }                                                            // L3

  // ----------------------------------------------------------- reader ops

  // Read() — L4-9. Caller must be bound as a reader p2..pn.
  V read() {
    require_reader("Read");
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

  // Verify(v) — L10-23; identical mechanism to Algorithm 1's L11-24,
  // including the free-mode cached channel collection (see
  // VerifiableRegister::verify).
  bool verify(const V& v) {
    const int k = require_reader("Verify");
    // Free-mode fast paths — same soundness arguments as
    // VerifiableRegister::verify: positive Verify verdicts are permanent
    // (cacheable per process), and >= n−f attesting registers — counting
    // the writer's R_1 as slot 1, exactly as L33 does — imply >= f+1
    // honest attesters, which is the evidence standard of L22.
    if (fast_path()) {
      auto& seen = verified_[static_cast<std::size_t>(k)];
      if (seen.contains(v)) return true;
      if (witness_scan(v)) {
        seen.insert(v);
        return true;
      }
    }
    std::set<int> set0, set1;  // L10
    ChannelCache cache(fast_path() ? cfg_.n : 0);
    for (;;) {                 // L11
      const RoundCounter ck =
          round_[k]->update([](RoundCounter& c) { ++c; });  // L12
      int chosen = 0;
      HelpTuple chosen_tuple;
      while (chosen == 0) {  // L13-16
        for (int j = 1; j <= cfg_.n; ++j) {
          if (set0.contains(j) || set1.contains(j)) continue;
          if (cache.enabled()) {
            const HelpTuple& t = cache.fetch(j, *channel_[j][k]);
            if (t.second >= ck) {
              chosen = j;
              chosen_tuple = t;
              break;
            }
            continue;
          }
          HelpTuple t = channel_[j][k]->read();  // L15
          if (t.second >= ck && chosen == 0) {   // L16
            chosen = j;
            chosen_tuple = std::move(t);
          }
        }
        if (chosen == 0) {
          if (fast_path() && witness_scan(v)) {
            verified_[static_cast<std::size_t>(k)].insert(v);
            return true;
          }
          std::this_thread::yield();
        }
      }
      if (chosen_tuple.first.contains(v)) {  // L17
        set1.insert(chosen);                 // L18
        set0.clear();                        // L19
      } else {                               // L20
        set0.insert(chosen);                 // L21
      }
      if (static_cast<int>(set1.size()) >= cfg_.n - cfg_.f) {  // L22
        if (fast_path()) verified_[static_cast<std::size_t>(k)].insert(v);
        return true;
      }
      if (static_cast<int>(set0.size()) > cfg_.f)            // L23
        return false;
    }
  }

  // ------------------------------------------------------------- helping

  // One iteration of the while-loop body of Help() — L25-38.
  bool help_round() {
    const int j = runtime::ThisProcess::id();
    if (j < 1 || j > cfg_.n)
      throw std::logic_error("Help requires a thread bound to p1..pn");
    HelpState& hs = help_state_[static_cast<std::size_t>(j)];

    // Version-gated wakeup (free mode): unchanged round-counter versions
    // mean no new askers — skip without a metered read (see
    // VerifiableRegister::help_round).
    const bool gate = fast_path();
    std::uint64_t agg = 0;
    if (gate) {
      for (int k = 2; k <= cfg_.n; ++k) agg += round_version(k);
      if (hs.agg_valid && agg == hs.round_agg) return false;
    }

    // L26-27: find askers.
    std::map<int, RoundCounter> ck;
    for (int k = 2; k <= cfg_.n; ++k) ck[k] = round_[k]->read();
    std::vector<int> askers;
    for (int k = 2; k <= cfg_.n; ++k)
      if (ck[k] > hs.prev_ck[k]) askers.push_back(k);
    if (askers.empty()) {  // L28
      if (gate) hs.record_agg(agg);
      return false;
    }

    // L29-30: r1 = values the writer has written (stamps stripped).
    const StampedSet r = writer_set_->read();
    ValueSet r1;
    for (const Stamped& sv : r) r1.insert(sv.second);

    ValueSet rj;
    if (j != 1) {  // L31
      // L32: read every (reader) witness register.
      std::vector<ValueSet> ri(static_cast<std::size_t>(cfg_.n) + 1);
      ri[1] = r1;  // r1 participates in the count "1 <= i <= n" of L33
      for (int i = 2; i <= cfg_.n; ++i)
        ri[static_cast<std::size_t>(i)] = witness_[i]->read();
      // L33-34: become a witness of v if the writer wrote v, or f+1
      // processes (including possibly the writer) are witnesses of v.
      ValueSet candidates;
      for (int i = 1; i <= cfg_.n; ++i)
        candidates.insert(ri[static_cast<std::size_t>(i)].begin(),
                          ri[static_cast<std::size_t>(i)].end());
      const bool literal = literal_steps();
      ValueSet adopt;  // qualifying values not yet in r_j
      for (const V& v : candidates) {
        int count = 0;
        for (int i = 1; i <= cfg_.n; ++i)
          if (ri[static_cast<std::size_t>(i)].contains(v)) ++count;
        if (r1.contains(v) || count >= cfg_.f + 1) {
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
      rj = witness_[j]->read();  // L35
    } else {
      // For j = 1 the writer answers with the values of its own R_1
      // (Lemma 103, case j = 1).
      rj = r1;
    }

    // L36-38: answer each asker.
    for (int k : askers) {
      channel_[j][k]->write({rj, ck[k]});  // L37
      hs.prev_ck[k] = ck[k];               // L38
    }
    if (gate) hs.record_agg(agg);
    return true;
  }

  // --------------------------------------------------- fault injection API
  struct Raw {
    SwmrT<StampedSet>* writer_set;                     // R_1
    std::vector<SwmrT<ValueSet>*>* witness;            // R_k
    std::vector<std::vector<SwsrT<HelpTuple>*>>* channel;  // R_ij
    std::vector<SwmrT<RoundCounter>*>* round;          // C_k
  };
  Raw raw() { return Raw{writer_set_, &witness_, &channel_, &round_}; }

 private:
  struct HelpState {
    std::map<int, RoundCounter> prev_ck;  // L24
    std::uint64_t round_agg = 0;  // aggregate version at last completed round
    bool agg_valid = false;
    void record_agg(std::uint64_t agg) {
      round_agg = agg;
      agg_valid = true;
    }
  };

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

  // Deterministic runs keep the paper-literal L34 loop (see
  // VerifiableRegister::literal_steps).
  bool literal_steps() const {
    if constexpr (requires(SpaceT& s) { s.free_mode(); })
      return !space_->free_mode();
    else
      return false;
  }

  bool fast_path() const {
    if constexpr (kVersionGate)
      return space_->free_mode();
    else
      return false;
  }

  std::uint64_t round_version(int k) const {
    if constexpr (kVersionGate)
      return round_[static_cast<std::size_t>(k)]->version();
    else
      return 0;
  }

  void require_self(int pid, const char* op) const {
    if (runtime::ThisProcess::id() != pid)
      throw std::logic_error(std::string(op) + " may only be called by p" +
                             std::to_string(pid));
  }
  int require_reader(const char* op) const {
    const int k = runtime::ThisProcess::id();
    if (k < 2 || k > cfg_.n)
      throw std::logic_error(std::string(op) +
                             " may only be called by a reader p2..pn");
    return k;
  }

  SpaceT* space_;
  Config cfg_;

  SwmrT<StampedSet>* writer_set_ = nullptr;            // R_1
  std::vector<SwmrT<ValueSet>*> witness_;              // R_k
  std::vector<std::vector<SwsrT<HelpTuple>*>> channel_;  // R_ij
  std::vector<SwmrT<RoundCounter>*> round_;            // C_k

  SeqNo seq_ = 0;  // ℓ — writer-local (p1's operation thread only)
  std::vector<HelpState> help_state_;

  // Per-process positive-verify memo (free mode only; see verify()).
  std::vector<ValueSet> verified_;
};

}  // namespace swsig::core
