// The Bracha reliable-broadcast ladder behind the message-passing SWMR
// emulation (design note 15 in docs/ARCHITECTURE.md).
//
// A BrachaLadder<T> instance holds ONE process's server-side protocol state
// for one register, keyed by write sn, and answers, for each incoming
// message, what the process is allowed to do. Values are immutable shared
// handles (Ref); two handles name the same candidate iff they are the same
// pointer or their values compare equal (design note 17).
//
//   on_write(sn, v)      WRITE arrived: re-ACK (already delivered), stay
//                        inert (abort-fenced), or echo — re-issuing the
//                        ORIGINAL vote on a duplicate, never support for an
//                        equivocated value.
//   on_vote(sn, v, p)    ECHO/ACCEPT tally for candidate v by voter p:
//                        n−f echoes or f+1 accepts => send ACCEPT once
//                        (the latter is Bracha's amplification rung);
//                        n−f accepts => deliver.
//   fence(sn)            PR-8 abort fence: promise never to echo / accept /
//                        deliver sn unless a completion re-issue lifts the
//                        fence; reports unsafe if this process delivered or
//                        ever sent ACCEPT for sn.
//   crash()              lose the volatile tallies; the dedup and fence
//                        sets persist (stable storage, see below).
//
// The caller keeps everything else: message I/O, dropping malformed
// payloads, sn-monotone apply of delivered values, and the owner-side wait
// machinery. The ladder is not thread-safe — the caller holds its protocol
// mutex across every call.
//
// Persistence model: `echoed`, `delivered` and `blocked` survive a crash —
// each is a write-ahead bit flipped before the corresponding broadcast.
// Without them a rejoined server could echo a second value for an sn it
// already echoed (equivocation support), re-deliver and re-ACK old sns (the
// replay storm the delivered set exists to stop), or forget a fence it
// granted the recovering owner. The candidate tallies are volatile:
// crash() wipes them.
//
// Memory: nothing here outlives delivery. At deliver the sn's candidates
// and its echoed handle are released; only the sn itself stays, in the
// delivered set. Releasing the echoed handle is safe because on_write,
// on_vote and fence all consult `delivered` before `echoed`, so a
// delivered sn's echo slot is never read again. The delivered set is a
// watermark (DeliveredSns), so it grows with the gaps in delivery, not
// with the history.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "msgpass/detail/pid_set.hpp"

namespace swsig::msgpass::detail {

// The delivered sns of one ladder: every sn in 1..floor, plus a sparse set
// of the others (above floor + 1, or sn 0). Sns are numbered from 1 and
// mostly deliver in order, so lookups are one compare and the sparse set
// holds only the sns delivered past a gap, until the gap fills.
class DeliveredSns {
 public:
  bool contains(std::uint64_t sn) const {
    return (sn != 0 && sn <= floor_) || sparse_.contains(sn);
  }

  void insert(std::uint64_t sn) {
    if (sn != floor_ + 1) {
      if (!contains(sn)) sparse_.insert(sn);
      return;
    }
    ++floor_;
    for (auto it = sparse_.find(floor_ + 1); it != sparse_.end();
         it = sparse_.find(floor_ + 1)) {
      sparse_.erase(it);
      ++floor_;
    }
  }

  std::uint64_t floor() const { return floor_; }
  std::size_t sparse() const { return sparse_.size(); }

 private:
  std::uint64_t floor_ = 0;
  std::set<std::uint64_t> sparse_;
};

template <typename T>
class BrachaLadder {
 public:
  using Ref = std::shared_ptr<const T>;

  BrachaLadder() = default;
  BrachaLadder(int n, int f) : n_(n), f_(f) {}

  enum class WriteAction {
    kReAck,   // already delivered: the only effect left is refreshing the
              // (possibly lost) ACK — receivers dedup by sender
    kFenced,  // abort-fenced and not a completion re-issue: stay inert
    kEcho,    // echo `value` (first == false: re-issue of the original)
  };
  struct WriteStep {
    WriteAction action;
    Ref value;
    bool first = false;  // first echo for this sn (drives the echo event)
  };

  // WRITE (or the CWRITE recovery completion re-issue when `complete`)
  // carrying the well-formed value `v`. The FIRST write seen for `sn` fixes
  // the value this process echoes; a duplicate write re-issues the ORIGINAL
  // vote: idempotent refresh of a lost message, never support for an
  // equivocated second value. `complete` additionally lifts an abort
  // fence — the one message allowed to (see fence()).
  WriteStep on_write(std::uint64_t sn, bool complete, const Ref& v) {
    if (delivered_.contains(sn)) return {WriteAction::kReAck, nullptr, false};
    if (blocked_.contains(sn)) {
      if (!complete) return {WriteAction::kFenced, nullptr, false};
      blocked_.erase(sn);
    }
    const auto [it, first] = echoed_.try_emplace(sn, v);
    return {WriteAction::kEcho, it->second, first};
  }

  struct VoteStep {
    bool send_accept = false;
    // Which rung fired the accept: false = the echo quorum, true = f+1
    // accepts (Bracha's amplification).
    bool amplified = false;
    bool deliver = false;
    // The candidate's handle when send_accept or deliver fired: the value
    // to ACCEPT and to apply.
    Ref value;
  };

  // One ECHO or ACCEPT vote for candidate `v` by `voter`. Votes for
  // delivered sns are inert — the PR-4 replay guard: a Byzantine ACCEPT
  // replay landing after the candidate map is pruned cannot pool with a
  // correct straggler's vote into a fresh f+1 and re-trigger the whole
  // amplification + ACK storm. Votes for fenced sns are inert too (the
  // fence is a promise to never support the sn again). On deliver the
  // candidate map and the echoed handle are released; the delivered set
  // keeps the sn closed.
  VoteStep on_vote(std::uint64_t sn, const Ref& v, int voter, bool is_echo) {
    VoteStep out;
    if (delivered_.contains(sn) || blocked_.contains(sn)) return out;
    Candidate& c = candidate(sn, v);
    (is_echo ? c.echoes : c.accepts).insert(voter);
    if (!c.sent_accept &&
        (c.echoes.size() >= n_ - f_ || c.accepts.size() >= f_ + 1)) {
      c.sent_accept = true;
      out.send_accept = true;
      out.amplified = c.echoes.size() < n_ - f_;
      out.value = c.value;
    }
    if (c.accepts.size() >= n_ - f_) {
      out.deliver = true;
      out.value = c.value;
      delivered_.insert(sn);
      cands_.erase(sn);  // prune: c is dangling beyond this point
      echoed_.erase(sn);
    }
    return out;
  }

  // PR-8 abort fence, server side. Returns the unsafe-to-abort bit: true
  // if this process DELIVERED sn — or merely SENT ACCEPT for it. The
  // accepted case matters for finality: fencing is not retroactive for
  // ACCEPTs already in flight, so if an accept-sender could grant a
  // "clean" fence, n−f clean replies might coexist with enough pre-fence
  // ACCEPTs for some unfenced process to still deliver the value later.
  // Counting accept-senders as unsafe restores the bound: when every one
  // of n−f repliers has neither delivered nor accepted, total
  // accept-senders are at most f non-repliers + f lying Byzantine
  // repliers = 2f < n−f, forever. An undelivered sn is blocked either
  // way (a persistent promise to never echo/accept/deliver it); if the
  // owner ends up completing, its completion re-issue lifts the block.
  bool fence(std::uint64_t sn) {
    if (delivered_.contains(sn)) return true;
    bool unsafe = false;
    const auto cit = cands_.find(sn);
    if (cit != cands_.end()) {
      for (const Candidate& c : cit->second) {
        if (c.sent_accept) {
          unsafe = true;
          break;
        }
      }
    }
    blocked_.insert(sn);
    cands_.erase(sn);  // in-progress tallies for sn die with it
    return unsafe;
  }

  // Crash: in-progress tallies are volatile and die; echoed / delivered /
  // blocked persist (stable storage — see the header comment).
  void crash() { cands_.clear(); }

  // Inspection (tests, forensics).
  bool has_delivered(std::uint64_t sn) const { return delivered_.contains(sn); }
  bool is_fenced(std::uint64_t sn) const { return blocked_.contains(sn); }
  // The delivered set's shape: every sn in 1..floor is delivered, and
  // sparse_delivered() others are kept one by one.
  std::uint64_t delivered_floor() const { return delivered_.floor(); }
  std::size_t sparse_delivered() const { return delivered_.sparse(); }

 private:
  struct Candidate {
    Ref value;
    PidSet echoes;
    PidSet accepts;
    bool sent_accept = false;
  };

  // The candidate `v` votes for: the same handle first (honest processes
  // forward the handle they received, so this is the common case), then
  // equal content — a Byzantine copy of a value tallies with the original,
  // exactly as a byte-identical message would on a real network.
  Candidate& candidate(std::uint64_t sn, const Ref& v) {
    std::vector<Candidate>& cands = cands_[sn];
    for (Candidate& c : cands)
      if (c.value == v) return c;
    for (Candidate& c : cands)
      if (*c.value == *v) return c;
    cands.push_back(Candidate{v, {}, {}, false});
    return cands.back();
  }

  int n_ = 0;
  int f_ = 0;
  // Echo-once-per-sn, sn -> echoed value (persists until delivery).
  // Storing the handle rather than bare membership lets a duplicate write
  // re-issue the ORIGINAL echo.
  std::map<std::uint64_t, Ref> echoed_;
  // Delivered sns (persists): the replay guard.
  DeliveredSns delivered_;
  // Abort-fenced sns (persists): the PR-8 promise.
  std::set<std::uint64_t> blocked_;
  // Per sn: candidate values (usually 1; >1 only under equivocation).
  // Volatile — crash() wipes it.
  std::map<std::uint64_t, std::vector<Candidate>> cands_;
};

}  // namespace swsig::msgpass::detail
