// The Bracha reliable-broadcast ladder behind the message-passing SWMR
// emulation (design note 15 in docs/ARCHITECTURE.md).
//
// A BrachaLadder instance holds ONE process's server-side protocol state
// for one register, keyed by write sn, and answers, for each incoming
// message, what the process is allowed to do:
//
//   on_write(sn)         WRITE arrived: re-ACK (already delivered), stay
//                        inert (abort-fenced / refused-as-malformed), or
//                        echo — re-issuing the ORIGINAL vote on a
//                        duplicate, never support for an equivocated value.
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
// The caller keeps everything else: message I/O, value interning,
// sn-monotone apply of delivered payloads, and the owner-side wait
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
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

namespace swsig::msgpass::detail {

class BrachaLadder {
 public:
  BrachaLadder() = default;
  BrachaLadder(int n, int f) : n_(n), f_(f) {}

  enum class WriteAction {
    kReAck,    // already delivered: the only effect left is refreshing the
               // (possibly lost) ACK — receivers dedup by sender
    kFenced,   // abort-fenced and not a completion re-issue: stay inert
    kRefused,  // echoed slot holds a refusal (malformed value): stays refused
    kEcho,     // echo value_id (first == false: re-issue of the original)
  };
  struct WriteStep {
    WriteAction action;
    int value_id = -1;
    bool first = false;  // first echo for this sn (drives the echo event)
  };

  // WRITE (or the CWRITE recovery completion re-issue when `complete`).
  // `intern` runs only for the FIRST write seen for `sn` and returns the
  // value id to echo — or a negative id to refuse the payload as malformed
  // (the refusal persists in the echoed slot, so a retried copy cannot be
  // re-judged into support). A duplicate write re-issues the ORIGINAL
  // vote: idempotent refresh of a lost message, never support for an
  // equivocated second value. `complete` additionally lifts an abort
  // fence — the one message allowed to (see fence()).
  template <typename Intern>
  WriteStep on_write(std::uint64_t sn, bool complete, Intern&& intern) {
    if (delivered_.contains(sn)) return {WriteAction::kReAck, -1, false};
    if (blocked_.contains(sn)) {
      if (!complete) return {WriteAction::kFenced, -1, false};
      blocked_.erase(sn);
    }
    const auto it = echoed_.find(sn);
    if (it != echoed_.end()) {
      if (it->second < 0) return {WriteAction::kRefused, it->second, false};
      return {WriteAction::kEcho, it->second, false};
    }
    const int vid = intern();  // may throw: echoed_ stays untouched
    echoed_.emplace(sn, vid);
    if (vid < 0) return {WriteAction::kRefused, vid, true};
    return {WriteAction::kEcho, vid, true};
  }

  struct VoteStep {
    bool send_accept = false;
    // Which rung fired the accept: false = the echo quorum, true = f+1
    // accepts (Bracha's amplification).
    bool amplified = false;
    bool deliver = false;
  };

  // One ECHO or ACCEPT vote for candidate `value_id` by `voter`. Votes for
  // delivered sns are inert — the PR-4 replay guard: a Byzantine ACCEPT
  // replay landing after the candidate map is pruned cannot pool with a
  // correct straggler's vote into a fresh f+1 and re-trigger the whole
  // amplification + ACK storm. Votes for fenced sns are inert too (the
  // fence is a promise to never support the sn again). On deliver the
  // candidate map is pruned; the delivered set keeps it pruned.
  VoteStep on_vote(std::uint64_t sn, int value_id, int voter, bool is_echo) {
    VoteStep out;
    if (delivered_.contains(sn) || blocked_.contains(sn)) return out;
    Candidate& c = candidate(sn, value_id);
    (is_echo ? c.echoes : c.accepts).insert(voter);
    if (!c.sent_accept &&
        (static_cast<int>(c.echoes.size()) >= n_ - f_ ||
         static_cast<int>(c.accepts.size()) >= f_ + 1)) {
      c.sent_accept = true;
      out.send_accept = true;
      out.amplified = static_cast<int>(c.echoes.size()) < n_ - f_;
    }
    if (static_cast<int>(c.accepts.size()) >= n_ - f_) {
      out.deliver = true;
      delivered_.insert(sn);
      cands_.erase(sn);  // prune: c is dangling beyond this point
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

 private:
  struct Candidate {
    int value_id = 0;
    std::set<int> echoes;
    std::set<int> accepts;
    bool sent_accept = false;
  };

  Candidate& candidate(std::uint64_t sn, int value_id) {
    std::vector<Candidate>& cands = cands_[sn];
    for (Candidate& c : cands)
      if (c.value_id == value_id) return c;
    cands.push_back(Candidate{value_id, {}, {}, false});
    return cands.back();
  }

  int n_ = 0;
  int f_ = 0;
  // Echo-once-per-sn, sn -> echoed value id (persists). Storing the id
  // rather than bare membership lets a duplicate write re-issue the
  // ORIGINAL echo; negative ids persist refusals.
  std::map<std::uint64_t, int> echoed_;
  // Delivered sns (persists): the replay guard.
  std::set<std::uint64_t> delivered_;
  // Abort-fenced sns (persists): the PR-8 promise.
  std::set<std::uint64_t> blocked_;
  // Per sn: candidate values (usually 1; >1 only under equivocation).
  // Volatile — crash() wipes it.
  std::map<std::uint64_t, std::vector<Candidate>> cands_;
};

}  // namespace swsig::msgpass::detail
