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

#include <concepts>
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
#include "registers/space.hpp"
#include "runtime/process.hpp"

namespace swsig::core {

template <RegisterValue V, typename SpaceT = registers::Space>
class VerifiableRegister {
 public:
  // Register types of the underlying substrate (shared-memory Space or
  // msgpass::EmulatedSpace) — the algorithm is substrate-generic.
  template <typename T>
  using SwmrT = typename SpaceT::template SwmrFor<T>;
  template <typename T>
  using SwsrT = typename SpaceT::template SwsrFor<T>;

  using Value = V;
  using ValueSet = std::set<V>;
  // ⟨r_j, c_j⟩ tuple stored in the helping channels R_jk.
  using HelpTuple = std::pair<ValueSet, RoundCounter>;
  using ChannelCache = detail::VersionedCache<HelpTuple>;

  // The free-mode fast paths (version-gated helper wakeup, cached channel
  // collection) need per-register versions and a free_mode() flag from the
  // substrate; compiled out for substrates without them (msgpass).
  static constexpr bool kVersionGate =
      requires(SpaceT& s, SwsrT<HelpTuple>& c, SwmrT<RoundCounter>& r) {
        { s.free_mode() } -> std::convertible_to<bool>;
        { c.version() } -> std::convertible_to<std::uint64_t>;
        { r.version() } -> std::convertible_to<std::uint64_t>;
      };

  struct Config {
    int n = 4;          // total number of processes p1..pn
    int f = 1;          // tolerated Byzantine processes; requires n > 3f
    V v0 = V{};         // initial register value
    bool allow_suboptimal = false;  // permit n <= 3f (experiment T5 only)
  };

  VerifiableRegister(SpaceT& space, Config config)
      : space_(&space), cfg_(std::move(config)) {
    check_resilience(cfg_.n, cfg_.f, cfg_.allow_suboptimal);
    const int n = cfg_.n;
    witness_.resize(n + 1, nullptr);
    channel_.assign(n + 1, std::vector<SwsrT<HelpTuple>*>(n + 1));
    round_.resize(n + 1, nullptr);
    help_state_.resize(n + 1);
    verified_.resize(n + 1);
    for (int i = 1; i <= n; ++i) {
      witness_[i] = &space.template make_swmr<ValueSet>(i, {}, "R" + std::to_string(i));
      for (int j = 2; j <= n; ++j) {
        channel_[i][j] = &space.template make_swsr<HelpTuple>(
            i, j, {{}, 0},
            "R" + std::to_string(i) + "," + std::to_string(j));
      }
    }
    last_value_ = &space.template make_swmr<V>(1, cfg_.v0, "R*");
    for (int k = 2; k <= n; ++k) {
      round_[k] = &space.template make_swmr<RoundCounter>(k, 0,
                                                 "C" + std::to_string(k));
    }
  }

  const Config& config() const { return cfg_; }

  // ----------------------------------------------------------- writer ops

  // Write(v) — L1-3. Caller must be bound as p1.
  void write(const V& v) {
    require_self(1, "Write");
    last_value_->write(v);    // L1: R* <- v
    written_.insert(v);       // L2: r* <- r* ∪ {v}  (writer-local)
  }                           // L3: return done

  // Sign(v) — L4-8. Caller must be bound as p1.
  SignResult sign(const V& v) {
    require_self(1, "Sign");
    if (written_.contains(v)) {                           // L4: v ∈ r*?
      witness_[1]->update([&](ValueSet& r1) { r1.insert(v); });  // L5
      return SignResult::kSuccess;                        // L6
    }
    return SignResult::kFail;                             // L7-8
  }

  // ----------------------------------------------------------- reader ops

  // Read() — L9-10. Caller must be bound as a reader p2..pn.
  V read() {
    const int k = require_reader("Read");
    (void)k;
    return last_value_->read();  // L9-10: v <- R*; return v
  }

  // Verify(v) — L11-24. Caller must be bound as a reader p2..pn.
  // Termination relies on helper threads running help_round() for all
  // correct processes (Theorem 43).
  //
  // Free-mode fast path: the wait loop caches each helping channel's last
  // ⟨tuple, version⟩ and only re-reads a channel whose version changed —
  // an unchanged version means a fresh read would return the same tuple,
  // so skipping it is observationally equivalent while collapsing the
  // O(n)-reads-per-retry spin to O(changed). Deterministic mode keeps the
  // paper-literal re-read loop (the step sequence must be reproducible).
  bool verify(const V& v) {
    const int k = require_reader("Verify");
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
    //    certifies, read from the registers the helpers would relay.
    if (fast_path()) {
      auto& seen = verified_[static_cast<std::size_t>(k)];
      if (seen.contains(v)) return true;
      if (witness_scan(v)) {
        seen.insert(v);
        return true;
      }
    }
    std::set<int> set0, set1;  // L11
    ChannelCache cache(fast_path() ? cfg_.n : 0);
    for (;;) {                 // L12: while true
      // L13: Ck <- Ck + 1 (single owner step; see Swmr::update).
      const RoundCounter ck =
          round_[k]->update([](RoundCounter& c) { ++c; });
      // L14-17: repeat reading R_jk of every p_j ∉ set1 ∪ set0 until some
      // such p_j has c_j >= Ck. We take the smallest satisfying pid of each
      // pass (the paper allows any).
      int chosen = 0;
      HelpTuple chosen_tuple;
      while (chosen == 0) {
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
          HelpTuple t = channel_[j][k]->read();  // L16
          if (t.second >= ck && chosen == 0) {   // L17 (∃ p_j: c_j >= Ck)
            chosen = j;
            chosen_tuple = std::move(t);
          }
        }
        if (chosen == 0) {
          // The witness quorum may complete while we wait on helpers.
          if (fast_path() && witness_scan(v)) {
            verified_[static_cast<std::size_t>(k)].insert(v);
            return true;
          }
          std::this_thread::yield();  // free-mode politeness
        }
      }
      if (chosen_tuple.first.contains(v)) {  // L18: v ∈ r_j
        set1.insert(chosen);                 // L19
        set0.clear();                        // L20
      } else {                               // L21: v ∉ r_j
        set0.insert(chosen);                 // L22
      }
      if (static_cast<int>(set1.size()) >= cfg_.n - cfg_.f) {  // L23
        if (fast_path()) verified_[static_cast<std::size_t>(k)].insert(v);
        return true;
      }
      if (static_cast<int>(set0.size()) > cfg_.f)            // L24
        return false;
    }
  }

  // ------------------------------------------------------------- helping

  // One iteration of the while-loop body of Help() — L26-36. Runs as the
  // process the calling thread is bound to (any of p1..pn). Returns true if
  // it served at least one asker (used for idle backoff by the runner).
  bool help_round() {
    const int j = runtime::ThisProcess::id();
    require_valid_pid(j, "Help");
    HelpState& hs = help_state_[static_cast<std::size_t>(j)];

    // Version-gated wakeup (free mode): new work for a helper can only
    // arrive through a reader's round counter, so if the sum of the round
    // counters' versions is unchanged since our last completed round, L28's
    // asker set is empty — skip the O(n) collection without a single
    // metered read. The aggregate is sampled before the reads below, so a
    // counter bumped mid-round is picked up on the next call.
    const bool gate = fast_path();
    std::uint64_t agg = 0;
    if (gate) {
      for (int k = 2; k <= cfg_.n; ++k) agg += round_version(k);
      if (hs.agg_valid && agg == hs.round_agg) return false;
    }

    // L27: read every reader's round counter.
    std::map<int, RoundCounter> ck;
    for (int k = 2; k <= cfg_.n; ++k) ck[k] = round_[k]->read();
    // L28: askers = readers whose counter increased since we last helped.
    std::vector<int> askers;
    for (int k = 2; k <= cfg_.n; ++k)
      if (ck[k] > hs.prev_ck[k]) askers.push_back(k);
    if (askers.empty()) {  // L29
      if (gate) hs.record_agg(agg);
      return false;
    }

    // L30: read every witness register.
    std::vector<ValueSet> r(static_cast<std::size_t>(cfg_.n) + 1);
    for (int i = 1; i <= cfg_.n; ++i)
      r[static_cast<std::size_t>(i)] = witness_[i]->read();

    // L31-32: become a witness of v if the writer signed v (v ∈ r1) or at
    // least f+1 processes are already witnesses of v.
    ValueSet candidates;
    for (int i = 1; i <= cfg_.n; ++i)
      candidates.insert(r[static_cast<std::size_t>(i)].begin(),
                        r[static_cast<std::size_t>(i)].end());
    const bool literal = literal_steps();
    ValueSet adopt;  // qualifying values not yet in r_j
    for (const V& v : candidates) {
      int count = 0;
      for (int i = 1; i <= cfg_.n; ++i)
        if (r[static_cast<std::size_t>(i)].contains(v)) ++count;
      if (r[1].contains(v) || count >= cfg_.f + 1) {
        if (literal)
          witness_[j]->update([&](ValueSet& rj) { rj.insert(v); });  // L32
        else if (!r[static_cast<std::size_t>(j)].contains(v))
          adopt.insert(v);
      }
    }
    // L32, merged: one write of R_j ∪ adopt is |adopt| back-to-back L32
    // writes with no step in between — a legal schedule of Help() (design
    // note 17) — and no write at all when nothing is new.
    if (!adopt.empty())
      witness_[j]->update(
          [&](ValueSet& rj) { rj.insert(adopt.begin(), adopt.end()); });

    // L33: r_j <- R_j.
    const ValueSet rj = witness_[j]->read();
    // L34-36: answer each asker and remember the round we served.
    for (int k : askers) {
      channel_[j][k]->write({rj, ck[k]});  // L35
      hs.prev_ck[k] = ck[k];               // L36
    }
    if (gate) hs.record_agg(agg);
    return true;
  }

  // --------------------------------------------------- fault injection API

  // Raw handles to this instance's shared registers. Byzantine behaviors
  // (src/byzantine) use these to mount the attacks from the paper; port
  // enforcement still applies, so a behavior bound as p_i can only write
  // p_i's registers — exactly the model's adversary.
  struct Raw {
    std::vector<SwmrT<ValueSet>*>* witness;  // R_i, index by pid
    std::vector<std::vector<SwsrT<HelpTuple>*>>* channel;  // R_ij
    SwmrT<V>* last_value;                    // R*
    std::vector<SwmrT<RoundCounter>*>* round;  // C_k
  };
  Raw raw() { return Raw{&witness_, &channel_, last_value_, &round_}; }

 private:
  struct HelpState {
    std::map<int, RoundCounter> prev_ck;  // L25 (defaults to 0)
    // Aggregate round-counter version at the last completed help round.
    std::uint64_t round_agg = 0;
    bool agg_valid = false;
    void record_agg(std::uint64_t agg) {
      round_agg = agg;
      agg_valid = true;
    }
  };

  // True iff >= n−f witness registers currently contain v.
  bool witness_scan(const V& v) {
    int count = 0;
    for (int i = 1; i <= cfg_.n; ++i)
      if (witness_[i]->read().contains(v) && ++count >= cfg_.n - cfg_.f)
        return true;
    return false;
  }

  // True in deterministic (replayable) runs, whose pinned traces fix the
  // paper-literal step sequence of Help(): one L32 update per adopted
  // value. Substrates without free_mode() (message passing) always run
  // free.
  bool literal_steps() const {
    if constexpr (requires(SpaceT& s) { s.free_mode(); })
      return !space_->free_mode();
    else
      return false;
  }

  // True when the version-gated fast paths may be used: substrate supports
  // them (kVersionGate) and the space runs free-mode real concurrency.
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

  void require_valid_pid(int pid, const char* op) const {
    if (pid < 1 || pid > cfg_.n)
      throw std::logic_error(std::string(op) +
                             " requires a thread bound to p1..pn");
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

  // Shared registers (owned by the Space; raw pointers are stable).
  std::vector<SwmrT<ValueSet>*> witness_;                // R_i
  std::vector<std::vector<SwsrT<HelpTuple>*>> channel_;  // R_ij
  SwmrT<V>* last_value_ = nullptr;                       // R*
  std::vector<SwmrT<RoundCounter>*> round_;              // C_k

  // Writer-local state (touched only by p1's operation thread).
  ValueSet written_;  // r*

  // Helper-local state, one slot per process (touched only by that
  // process's helper thread).
  std::vector<HelpState> help_state_;

  // Per-process positive-verify memo (touched only by that process's
  // operation thread; free mode only). Sound because Verify(v)=true is
  // permanent — see verify().
  std::vector<ValueSet> verified_;
};

}  // namespace swsig::core
