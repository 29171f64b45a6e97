// The helping protocol shared by Algorithms 1–3. A reader p_k asks by
// bumping its round counter C_k; every process p_j runs Help() and answers
// each asker on its SWSR channel R_jk with ⟨r_j, c_j⟩ (its witness state and
// the C_k it saw); the reader collects answers until some p_j it has not
// yet counted has c_j >= C_k. What r_j is and how answers are counted stay
// in the algorithms; this component owns the registers and the shared steps:
//
//   R_ij  (every p_i, every reader p_j)  SWSR helping channel, named "Ri,j"
//   C_k   (every reader p_k)             SWMR round counter, named "Ck"
//   ask + collect    Alg. 1 L13-17, Alg. 2 L12-16, Alg. 3 L9-14
//   find askers      Alg. 1 L27-29, Alg. 2 L26-28, Alg. 3 L31-33
//   answer, record   Alg. 1 L34-36, Alg. 2 L36-38, Alg. 3 L38-40
//
// Free-mode fast paths (docs/ARCHITECTURE.md, "The version / wakeup
// protocol"): on substrates whose registers expose a monotone version()
// (registers::Space, not msgpass) and in free mode, the collect loop caches
// each channel's ⟨tuple, version⟩ and the helper skips a round whose input
// versions are unchanged. Both are observationally equivalent to the
// paper-literal loops (an unchanged version implies an unchanged value) but
// skip metered reads, so deterministic mode never takes them: its step
// sequence stays byte-identical (pinned by deterministic_schedule_test).
//
// On msgpass::EmulatedSpace, which has neither versions nor a free_mode(),
// two other mechanisms take their place: each loop that reads one register
// per pid is one multi-register collect (read_all; design note 18 argues
// why the order inside the batch cannot matter), and the helper round and
// the reader's next collect pass wait on the process's own replicas
// (kDeliveryGate) instead of polling the network.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "runtime/process.hpp"

namespace swsig::core::detail {

// version() of a register, or 0 on substrates without versions, which never
// take the fast path.
template <typename Reg>
std::uint64_t version_of(const Reg& reg) {
  if constexpr (requires {
                  { reg.version() } -> std::convertible_to<std::uint64_t>;
                })
    return reg.version();
  else
    return 0;
}

// Substrates with a delivery gate (msgpass::EmulatedSpace): the calling
// process can wait, boundedly, until its own replica of one of `watched`
// holds a newer write than its last quorum read of that register returned.
template <typename SpaceT>
concept HasDeliveryGate =
    requires(SpaceT& s, const std::vector<typename SpaceT::Watched>& w) {
      { s.await_replica_ahead(w) } -> std::convertible_to<bool>;
    };

// Reads every non-null register of `regs`; slot i of the result is regs[i]'s
// value (T{} for a null slot). On a substrate with a multi-register collect
// (msgpass::EmulatedSpace) that is one quorum exchange for all of them;
// elsewhere (registers::Space, perfbench's TimedSpace) one read per
// register in index order — the paper-literal loop, whose step sequence
// deterministic runs pin.
template <typename SpaceT, typename Reg>
auto read_all(SpaceT& space, const std::vector<Reg*>& regs) {
  using T = std::remove_cvref_t<decltype(regs[0]->read())>;
  std::vector<T> out(regs.size());
  if constexpr (requires { space.collect(regs); }) {
    std::vector<Reg*> live;
    std::vector<std::size_t> at;
    for (std::size_t i = 0; i < regs.size(); ++i)
      if (regs[i] != nullptr) {
        live.push_back(regs[i]);
        at.push_back(i);
      }
    std::vector<T> got = space.collect(live);
    for (std::size_t x = 0; x < at.size(); ++x) out[at[x]] = std::move(got[x]);
  } else {
    for (std::size_t i = 0; i < regs.size(); ++i)
      if (regs[i] != nullptr) out[i] = regs[i]->read();
  }
  return out;
}

// Cache of the last ⟨value, version⟩ read from registers 1..n, for the fast
// path only. Disabled (never consulted) when constructed with n = 0.
template <typename Value>
class VersionedCache {
 public:
  explicit VersionedCache(int n)
      : entries_(n > 0 ? static_cast<std::size_t>(n) + 1 : 0) {}

  bool enabled() const { return !entries_.empty(); }

  // Returns register j's current value, re-reading it only if its version
  // moved since the cached read. The version is sampled *before* the read,
  // so a write racing the read at worst marks the cached value stale one
  // pass early — never hides a newer value forever.
  template <typename Reg>
  const Value& fetch(int j, Reg& reg) {
    Entry& e = entries_[static_cast<std::size_t>(j)];
    const std::uint64_t ver = version_of(reg);
    if (e.version != ver) {
      e.version = ver;
      e.value = reg.read();
    }
    return e.value;
  }

 private:
  struct Entry {
    Value value{};
    std::optional<std::uint64_t> version;  // nullopt until the first read
  };
  std::vector<Entry> entries_;
};

// HelpTuple is the ⟨r_j, c_j⟩ pair an algorithm's channels carry.
template <typename HelpTuple, typename SpaceT>
class Helping {
 public:
  template <typename T>
  using SwmrT = typename SpaceT::template SwmrFor<T>;
  template <typename T>
  using SwsrT = typename SpaceT::template SwsrFor<T>;
  using Channels = std::vector<std::vector<SwsrT<HelpTuple>*>>;  // R_ij
  using Rounds = std::vector<SwmrT<RoundCounter>*>;              // C_k

  // The free-mode fast paths need per-register versions and a free_mode()
  // flag from the substrate; compiled out for substrates without them.
  static constexpr bool kVersionGate =
      requires(SpaceT& s, SwsrT<HelpTuple>& c, SwmrT<RoundCounter>& r) {
        { s.free_mode() } -> std::convertible_to<bool>;
        { c.version() } -> std::convertible_to<std::uint64_t>;
        { r.version() } -> std::convertible_to<std::uint64_t>;
      };
  // The msgpass counterpart: helpers and readers wait on local delivery.
  static constexpr bool kDeliveryGate = HasDeliveryGate<SpaceT>;

  // Checks the algorithm's resilience precondition. Creates no register:
  // each algorithm calls make_channels() and make_rounds() where its paper
  // header lists them, so the register creation order is the algorithm's.
  template <typename Config>
  Helping(SpaceT& space, const Config& cfg) : space_(&space), n_(cfg.n) {
    check_resilience(cfg.n, cfg.f, cfg.allow_suboptimal);
    channel_.assign(n_ + 1, std::vector<SwsrT<HelpTuple>*>(n_ + 1));
    round_.resize(n_ + 1);
    help_state_.resize(n_ + 1);
  }

  // R_ij for every reader p_j: p_i's helping channels, initially `initial`.
  void make_channels(int i, const HelpTuple& initial) {
    for (int j = 2; j <= n_; ++j)
      channel_[i][j] = &space_->template make_swsr<HelpTuple>(
          i, j, initial, "R" + std::to_string(i) + "," + std::to_string(j));
  }

  // C_k for every reader p_k, initially 0.
  void make_rounds() {
    for (int k = 2; k <= n_; ++k)
      round_[k] = &space_->template make_swmr<RoundCounter>(
          k, 0, "C" + std::to_string(k));
  }

  Channels* channels() { return &channel_; }
  Rounds* rounds() { return &round_; }

  // Reads every non-null register of `regs` (see read_all).
  template <typename Reg>
  auto read_all(const std::vector<Reg*>& regs) {
    return detail::read_all(*space_, regs);
  }

  // True when the version-gated fast paths may be used: substrate supports
  // them (kVersionGate) and the space runs free-mode real concurrency.
  bool fast_path() const {
    if constexpr (kVersionGate)
      return space_->free_mode();
    else
      return false;
  }

  // True in deterministic (replayable) runs, whose pinned traces fix the
  // paper-literal step sequence of Help(): one witness update per adopted
  // value. Substrates without free_mode() always run free.
  bool literal_steps() const {
    if constexpr (requires(SpaceT& s) { s.free_mode(); })
      return !space_->free_mode();
    else
      return false;
  }

  void require_self(int pid, const char* op) const {
    if (runtime::ThisProcess::id() != pid)
      throw std::logic_error(std::string(op) + " may only be called by p" +
                             std::to_string(pid));
  }
  int require_reader(const char* op) const {
    const int k = runtime::ThisProcess::id();
    if (k < 2 || k > n_)
      throw std::logic_error(std::string(op) +
                             " may only be called by a reader p2..pn");
    return k;
  }

  // ------------------------------------------------------------ reader side

  // The asking side of one reader operation (a Verify, or Algorithm 3's
  // Read), bound to reader p_k. Keeps the operation's free-mode channel
  // cache across its rounds: the wait loop re-reads only a channel whose
  // version changed, which collapses the O(n)-reads-per-retry spin to
  // O(changed). Deterministic mode keeps the paper-literal re-read loop.
  class Ask {
   public:
    Ask(Helping& h, int k)
        : h_(&h), k_(k), cache_(h.fast_path() ? h.n_ : 0) {}

    // One round: ask, then collect until some p_j with !skip(j) answered
    // this round, and return ⟨j, its tuple⟩. The smallest such pid of a
    // pass is taken (the paper allows any). Between passes in free mode,
    // `scan()` may end the wait: it returns true when the caller's witness
    // quorum completed meanwhile, and then round() returns nullopt.
    template <typename Skip, typename Scan>
    std::optional<std::pair<int, HelpTuple>> round(Skip&& skip, Scan&& scan) {
      // Alg. 1 L13 / 2 L12 / 3 L9: C_k <- C_k + 1 (single owner step; see
      // Swmr::update).
      const RoundCounter ck =
          h_->round_[k_]->update([](RoundCounter& c) { ++c; });
      // Alg. 1 L14-17 / 2 L13-16 / 3 L10-14: repeat reading R_jk of every
      // p_j not yet counted until some such p_j has c_j >= C_k.
      // The channels this pass reads (null for a p_j skipped).
      std::vector<SwsrT<HelpTuple>*> column(
          static_cast<std::size_t>(h_->n_) + 1);
      for (;;) {
        std::fill(column.begin(), column.end(), nullptr);
        for (int j = 1; j <= h_->n_; ++j) {
          if (skip(j)) continue;
          auto& channel = *h_->channel_[j][k_];
          if (cache_.enabled()) {
            const HelpTuple& t = cache_.fetch(j, channel);
            if (t.second >= ck) return std::pair{j, t};
            continue;
          }
          column[static_cast<std::size_t>(j)] = &channel;
        }
        if (!cache_.enabled()) {
          // Alg. 1 L16 / 2 L15 / 3 L13, one collect over the column.
          std::vector<HelpTuple> t = h_->read_all(column);
          // Alg. 1 L17 / 2 L16 / 3 L14 (∃ p_j: c_j >= C_k)
          for (int j = 1; j <= h_->n_; ++j)
            if (column[static_cast<std::size_t>(j)] != nullptr &&
                t[static_cast<std::size_t>(j)].second >= ck)
              return std::pair{j, std::move(t[static_cast<std::size_t>(j)])};
        }
        // The witness quorum may complete while we wait on helpers (the
        // cache is enabled exactly on the fast path).
        if (cache_.enabled() && scan()) return std::nullopt;
        if constexpr (kDeliveryGate) {
          // Next pass once an answer has reached our own replica of some
          // channel still counted: until then a pass would re-read what
          // the last one returned.
          std::vector<typename SpaceT::Watched> watched;
          for (auto* c : column)
            if (c != nullptr) watched.push_back(c);
          while (!h_->space_->await_replica_ahead(watched)) {
          }
        } else {
          std::this_thread::yield();  // free-mode politeness
        }
      }
    }

   private:
    Helping* h_;
    int k_;
    VersionedCache<HelpTuple> cache_;
  };

  Ask ask(int k) { return Ask(*this, k); }

  // ------------------------------------------------------------ helper side

  // One iteration of the while-loop body of Help(), run as the process the
  // calling thread is bound to (any of p1..pn). Returns true if it served
  // at least one asker (used for idle backoff by the runner). The
  // algorithm supplies its own steps:
  //  * answer(j) -> r_j: the witness work of a round with askers and the
  //    value to answer with (Alg. 1 L30-33, Alg. 2 L29-35, Alg. 3 L34-37);
  //  * inputs(j, watch) -> bool: calls watch(reg) for each register besides
  //    the round counters whose writes can create work for p_j and returns
  //    true, or returns false once none can (then only the round counters
  //    are watched from then on);
  //  * unasked(j): work done every round, before looking for askers
  //    (Alg. 3 L25-30).
  // Algorithms 1-2 pass only answer(): no other inputs, no unasked work.
  template <typename AnswerFn>
  bool help_round(AnswerFn&& answer) {
    return help_round(
        answer, [](int, auto&&) { return false; }, [](int) {});
  }
  template <typename AnswerFn, typename InputsFn, typename UnaskedFn>
  bool help_round(AnswerFn&& answer, InputsFn&& inputs, UnaskedFn&& unasked) {
    const int j = runtime::ThisProcess::id();
    if (j < 1 || j > n_)
      throw std::logic_error("Help requires a thread bound to p1..pn");
    HelpState& hs = help_state_[static_cast<std::size_t>(j)];

    // Version-gated wakeup (free mode): if the sum of the input versions is
    // unchanged since our last completed round, re-running the round would
    // repeat the identical reads and decisions — for Algorithms 1-2, L28's
    // asker set is empty — so skip it without a single metered read. The
    // aggregate is sampled before the reads below, so a register written
    // mid-round is picked up on the next call; our own writes bump it,
    // which costs at most one extra (idle) round before the state quiesces.
    const bool gate = fast_path();
    std::uint64_t agg = 0;
    if (gate) {
      if (!hs.settled) {
        std::uint64_t in = 0;
        if (inputs(j, [&](auto& reg) { in += version_of(reg); }))
          agg += in;
        else {
          hs.settled = true;
          hs.round_agg.reset();  // aggregate composition changed
        }
      }
      for (int k = 2; k <= n_; ++k) agg += round_version(k);
      if (hs.round_agg == agg) return false;
    }
    // Delivery gate (msgpass): the same inputs, watched through this
    // process's own replicas. A round runs once one of them holds a newer
    // write than our last quorum read of it returned; after the gate's
    // bound with none, the round is skipped — only a delay, because the
    // write reaches our replica eventually (Bracha totality) and a later
    // read then returns it (docs/ARCHITECTURE.md, "The version / wakeup
    // protocol").
    if constexpr (kDeliveryGate) {
      std::vector<typename SpaceT::Watched> watched(round_.begin() + 2,
                                                    round_.end());
      if (!hs.settled &&
          !inputs(j, [&](auto& reg) { watched.push_back(&reg); }))
        hs.settled = true;
      if (!space_->await_replica_ahead(watched)) return false;
    }

    unasked(j);

    // Alg. 1 L27 / 2 L26 / 3 L31: read every reader's round counter.
    const std::vector<RoundCounter> ck = read_all(round_);
    // Alg. 1 L28 / 2 L27 / 3 L32: askers = readers whose counter increased
    // since we last helped.
    std::vector<int> askers;
    for (int k = 2; k <= n_; ++k)
      if (ck[static_cast<std::size_t>(k)] > hs.prev_ck[k]) askers.push_back(k);
    if (!askers.empty()) {  // Alg. 1 L29 / 2 L28 / 3 L33
      const auto rj = answer(j);
      // Alg. 1 L34-36 / 2 L36-38 / 3 L38-40: answer each asker and remember
      // the round we served.
      for (int k : askers) {
        const RoundCounter c = ck[static_cast<std::size_t>(k)];
        channel_[j][k]->write({rj, c});  // Alg. 1 L35 / 2 L37 / 3 L39
        hs.prev_ck[k] = c;               // Alg. 1 L36 / 2 L38 / 3 L40
      }
    }
    if (gate) hs.round_agg = agg;
    return !askers.empty();
  }

 private:
  struct HelpState {
    std::map<int, RoundCounter> prev_ck;  // Alg. 1 L25 / 2 L24 / 3 L23
    // Aggregate input version at the last completed help round.
    std::optional<std::uint64_t> round_agg;
    bool settled = false;  // inputs() returned false: watch C_k only
  };

  std::uint64_t round_version(int k) const { return version_of(*round_[k]); }

  SpaceT* space_;
  int n_;
  Channels channel_;  // R_ij (owned by the space; raw pointers are stable)
  Rounds round_;      // C_k
  // Helper-local state, one slot per process (touched only by that
  // process's helper thread).
  std::vector<HelpState> help_state_;
};

}  // namespace swsig::core::detail
