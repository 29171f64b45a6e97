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
// Every wait here has two paths (docs/ARCHITECTURE.md, "The wakeup gate").
// The literal path re-reads every register each pass, the paper's loop:
// deterministic runs take it, because their pinned traces fix the step
// sequence (deterministic_schedule_test), and so does a space without the
// gate, such as perfbench's TimedSpace. The gated path re-reads only what
// the substrate's wakeup gate says may hold a write the caller has not
// read, and a helper round runs only then. On shared memory that is exact
// (an unchanged write counter implies an unchanged value); on msgpass a
// skipped pass is only a delay. Each loop that reads one register per pid
// is one read_all, a single collect where the substrate has one (design
// note 18 argues why the order inside the batch cannot matter).
#pragma once

#include <chrono>
#include <concepts>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "runtime/process.hpp"

namespace swsig::core::detail {

// The wakeup gate, a substrate concept: for registers it watches, tell the
// caller whether one may hold a write the caller has not read since its
// record `seen`, waiting up to `bound` for one. SpaceT::kGateBound is how
// long a gated help round waits. registers::Space and
// msgpass::EmulatedSpace implement it.
template <typename SpaceT>
concept WakeupGate = requires(SpaceT& s, typename SpaceT::Seen& seen,
                              std::span<const typename SpaceT::Watched> w) {
  { s.await_change(seen, w, SpaceT::kGateBound) } -> std::convertible_to<bool>;
};

// The gate's types, or stand-ins for a space without it (never used), and
// whether it blocks (msgpass) or answers at once (shared memory).
template <typename SpaceT>
struct GateTypes {
  struct Seen {};
  using Watched = const void*;
  static constexpr bool kWaits = false;
};
template <WakeupGate SpaceT>
struct GateTypes<SpaceT> {
  using Seen = typename SpaceT::Seen;
  using Watched = typename SpaceT::Watched;
  static constexpr bool kWaits = SpaceT::kGateBound.count() > 0;
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
  // The gated path exists on a space with the wakeup gate.
  static constexpr bool kGate = WakeupGate<SpaceT>;
  static constexpr bool kGateWaits = GateTypes<SpaceT>::kWaits;
  using Seen = typename GateTypes<SpaceT>::Seen;
  using Watched = typename GateTypes<SpaceT>::Watched;

  // True on shared memory, the substrate with a free mode, whose reads are
  // local loads: there Verify and Read may look at the witness registers
  // directly (shortcuts()). Named for what it selected when per-register
  // versions existed only there; perfbench asserts it equal on its traced
  // and untraced spaces.
  static constexpr bool kVersionGate = requires(SpaceT& s) {
    { s.free_mode() } -> std::convertible_to<bool>;
  };

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

  // True in deterministic runs, whose pinned traces fix the paper-literal
  // step sequence: the literal loops, and one witness update per adopted
  // value in Help(). Substrates without a free mode always run free.
  bool literal() const {
    if constexpr (kVersionGate)
      return !space_->free_mode();
    else
      return false;
  }

  // True on shared memory in free mode (see kVersionGate): Verify's
  // positive memo and the witness-quorum scans of Verify and Read.
  bool shortcuts() const { return kVersionGate && !literal(); }

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
  // Read), bound to reader p_k. Keeps what it read of each channel across
  // the operation's rounds: the gated path re-reads only a channel the
  // gate says may have changed, which collapses the O(n)-reads-per-retry
  // spin to O(changed).
  class Ask {
   public:
    Ask(Helping& h, int k)
        : h_(&h), k_(k), seen_(h.n_ + 1), cache_(h.n_ + 1) {}

    // One round: ask, then collect until some p_j with !skip(j) answered
    // this round, and return ⟨j, its tuple⟩. The smallest such pid of a
    // pass is taken (the paper allows any). Between passes, with
    // shortcuts(), `scan()` may end the wait: it returns true when the
    // caller's witness quorum completed meanwhile, and then round()
    // returns nullopt.
    template <typename Skip, typename Scan>
    std::optional<std::pair<int, HelpTuple>> round(Skip&& skip, Scan&& scan) {
      // Alg. 1 L13 / 2 L12 / 3 L9: C_k <- C_k + 1 (single owner step; see
      // Swmr::update).
      const RoundCounter ck =
          h_->round_[k_]->update([](RoundCounter& c) { ++c; });
      // Alg. 1 L14-17 / 2 L13-16 / 3 L10-14: repeat reading R_jk of every
      // p_j not yet counted (fixed for the round) until some such p_j has
      // c_j >= C_k. A pass reads the column.
      const auto n = static_cast<std::size_t>(h_->n_) + 1;
      std::vector<SwsrT<HelpTuple>*> counted(n), column(n);
      for (std::size_t j = 1; j < n; ++j)
        if (!skip(static_cast<int>(j))) counted[j] = h_->channel_[j][k_];
      std::vector<Watched> watched;  // what the wait between passes watches
      if constexpr (kGateWaits) watched = watch(counted);
      for (;;) {
        for (std::size_t j = 1; j < n; ++j)
          column[j] =
              counted[j] && reread(j, *counted[j]) ? counted[j] : nullptr;
        // Alg. 1 L16 / 2 L15 / 3 L13, one collect over the column.
        std::vector<HelpTuple> t = h_->read_all(column);
        for (std::size_t j = 1; j < n; ++j)
          if (column[j] != nullptr) cache_[j] = std::move(t[j]);
        // Alg. 1 L17 / 2 L16 / 3 L14 (∃ p_j: c_j >= C_k)
        for (std::size_t j = 1; j < n; ++j)
          if (counted[j] != nullptr && cache_[j]->second >= ck)
            return std::pair{static_cast<int>(j), *cache_[j]};
        // The witness quorum may complete while we wait on helpers.
        if (h_->shortcuts() && scan()) return std::nullopt;
        // Between passes. The next pass's reread() checks decide what it
        // reads; a gate that waits (msgpass) first waits for a counted
        // channel to move.
        if constexpr (kGateWaits)
          h_->await_change(wait_seen_, watched);
        else
          std::this_thread::yield();
      }
    }

   private:
    // Whether this pass reads p_j's channel c: always on the literal
    // path; on the gated path when it was never read or may have changed.
    bool reread(std::size_t j, SwsrT<HelpTuple>& c) {
      if constexpr (kGate) {
        if (!h_->literal()) {
          const Watched w = &c;
          return h_->space_->await_change(seen_[j], std::span(&w, 1),
                                          std::chrono::milliseconds(0)) ||
                 !cache_[j];
        }
      }
      return true;
    }

    Helping* h_;
    int k_;
    std::vector<Seen> seen_;  // per channel, the gate's record
    Seen wait_seen_;          // between passes, over the counted channels
    std::vector<std::optional<HelpTuple>> cache_;  // last read, per channel
  };

  Ask ask(int k) { return Ask(*this, k); }

  // The non-null registers of `regs`, as the gate watches them (once a wait).
  template <typename Reg>
  static std::vector<Watched> watch(const std::vector<Reg*>& regs) {
    std::vector<Watched> w;
    for (Reg* r : regs)
      if (r != nullptr) w.push_back(r);
    return w;
  }

  // Between two passes of a wait loop over `watched`: true when the next
  // pass should re-read them. The literal path always does, after a yield.
  // The gated path asks the substrate's gate. A gate that never waits
  // (shared memory) answers exactly, so its false skips the pass; one that
  // waits up to kGateBound (msgpass) keeps its record per process, and
  // another thread of the process may have read the change first, so a
  // lapsed bound re-reads rather than waits again.
  bool await_change(Seen& seen, std::span<const Watched> watched) {
    if constexpr (kGate) {
      if (!literal()) {
        if (space_->await_change(seen, watched, SpaceT::kGateBound))
          return true;
        std::this_thread::yield();
        return kGateWaits;
      }
    }
    std::this_thread::yield();
    return true;
  }

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

    // The gated path runs a round only once one of its inputs — the round
    // counters, and what inputs() names — may hold a write this helper has
    // not read; otherwise it returns false, at once on shared memory (the
    // round would repeat the last one's reads and decisions: for
    // Algorithms 1-2, L28's asker set is empty) and after kGateBound on
    // msgpass. The gate records what it saw before the round's reads, so a
    // write landing mid-round wakes the next call; our own writes cost at
    // most one extra idle round. The watch list is built once and cut to
    // the round counters when inputs() settles: helper states sit side by
    // side, so the steady state writes none of them.
    if constexpr (kGate) {
      if (!literal()) {
        const auto rounds = static_cast<std::size_t>(n_ - 1);
        if (hs.watched.empty()) {
          hs.watched.assign(round_.begin() + 2, round_.end());
          if (!inputs(j, [&](auto& reg) { hs.watched.push_back(&reg); }))
            hs.watched.erase(hs.watched.begin() + rounds, hs.watched.end());
        } else if (hs.watched.size() > rounds &&
                   !inputs(j, [](auto&) {})) {
          hs.watched.erase(hs.watched.begin() + rounds, hs.watched.end());
        }
        if (!space_->await_change(hs.seen, hs.watched, SpaceT::kGateBound))
          return false;
      }
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
    return !askers.empty();
  }

 private:
  struct HelpState {
    std::map<int, RoundCounter> prev_ck;  // Alg. 1 L25 / 2 L24 / 3 L23
    Seen seen;                     // the gate's record of them
    std::vector<Watched> watched;  // the inputs: C_k, then inputs()'s
  };

  SpaceT* space_;
  int n_;
  Channels channel_;  // R_ij (owned by the space; raw pointers are stable)
  Rounds round_;      // C_k
  // Helper-local state, one slot per process (touched only by that
  // process's helper thread).
  std::vector<HelpState> help_state_;
};

}  // namespace swsig::core::detail
