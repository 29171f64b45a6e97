// The Bracha ladder (msgpass/detail/bracha_ladder.hpp) is the one copy of
// the echo/accept/amplify/deliver state machine behind the message-passing
// SWMR emulation (design note 15). The unit tests pin each guard once —
// echo-once, content matching of candidates, the delivered-set replay
// guard, release of the echoed value at delivery, the abort fence, crash
// persistence — and the substrate test then injects the classic
// Byzantine replays into a real network and watches the servers stay
// inert: an equivocated WRITE replay and a post-delivery ACCEPT storm.
// Message-count deltas are exact: with no faults attached every injected
// broadcast fans out to n processes and, if the guards hold, provokes
// nothing beyond at most a per-server re-ACK.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "msgpass/detail/bracha_ladder.hpp"
#include "msgpass/emulated_swmr.hpp"
#include "runtime/process.hpp"
#include "util/rng.hpp"

namespace swsig::msgpass {
namespace {

using runtime::ThisProcess;
using Ladder = detail::BrachaLadder<int>;
using Ref = Ladder::Ref;

Ref val(int v) { return std::make_shared<const int>(v); }

// n = 4, f = 1 throughout: echo quorum n−f = 3, amplification rung f+1 = 2.

// ------------------------------------------------------------ unit tests

TEST(BrachaLadder, EchoOncePerKeyReissuesOriginalVote) {
  Ladder lad(4, 1);
  const Ref three = val(3);
  auto step = lad.on_write(7, /*complete=*/false, three);
  EXPECT_EQ(step.action, Ladder::WriteAction::kEcho);
  EXPECT_EQ(step.value, three);
  EXPECT_TRUE(step.first);

  // A duplicate WRITE — even an equivocated one carrying a different value
  // — re-issues the ORIGINAL vote, so a second value cannot recruit this
  // process's echo support.
  step = lad.on_write(7, false, val(9));
  EXPECT_EQ(step.action, Ladder::WriteAction::kEcho);
  EXPECT_EQ(step.value, three);
  EXPECT_FALSE(step.first);

  // The slot holds until delivery: past the echo quorum, a duplicate
  // still re-issues the original vote.
  for (int voter = 1; voter <= 3; ++voter) lad.on_vote(7, three, voter, true);
  EXPECT_EQ(lad.on_write(7, false, val(9)).value, three);
}

TEST(BrachaLadder, QuorumRungsFireOnceEach) {
  Ladder lad(4, 1);
  const Ref v = val(3);
  // Echo quorum: the third distinct echo fires the (non-amplified) ACCEPT.
  EXPECT_FALSE(lad.on_vote(7, v, 1, /*is_echo=*/true).send_accept);
  EXPECT_FALSE(lad.on_vote(7, v, 2, true).send_accept);
  auto step = lad.on_vote(7, v, 3, true);
  EXPECT_TRUE(step.send_accept);
  EXPECT_FALSE(step.amplified);
  EXPECT_FALSE(step.deliver);
  EXPECT_EQ(step.value, v);
  // A duplicate voter neither double-counts nor re-fires the rung.
  EXPECT_FALSE(lad.on_vote(7, v, 3, true).send_accept);

  // Accept quorum: n−f accepts deliver (the ACCEPT was already sent).
  EXPECT_FALSE(lad.on_vote(7, v, 1, false).deliver);
  EXPECT_FALSE(lad.on_vote(7, v, 2, false).deliver);
  step = lad.on_vote(7, v, 3, false);
  EXPECT_TRUE(step.deliver);
  EXPECT_FALSE(step.send_accept);  // sent at the echo quorum already
  EXPECT_EQ(step.value, v);
  EXPECT_TRUE(lad.has_delivered(7));
}

// Candidates are values, not handles: an equal value under a foreign
// handle (a Byzantine copy of an honest value) tallies with the original,
// while a different value stays its own candidate.
TEST(BrachaLadder, EqualContentUnderForeignHandleTalliesTogether) {
  Ladder lad(4, 1);
  const Ref honest = val(3);
  lad.on_vote(7, honest, 1, true);
  lad.on_vote(7, val(4), 2, true);  // a different value: no help
  EXPECT_FALSE(lad.on_vote(7, honest, 3, true).send_accept);
  const auto step = lad.on_vote(7, val(3), 4, true);  // foreign copy
  EXPECT_TRUE(step.send_accept);
  EXPECT_EQ(step.value, honest);  // the candidate keeps its first handle
}

TEST(BrachaLadder, AmplificationRungFiresOnFPlusOneAccepts) {
  Ladder lad(4, 1);
  const Ref v = val(5);
  // No echoes at all: f+1 accepts alone must fire the amplified ACCEPT
  // (Bracha totality — this process vouches without having echoed).
  EXPECT_FALSE(lad.on_vote(8, v, 1, /*is_echo=*/false).send_accept);
  auto step = lad.on_vote(8, v, 2, false);
  EXPECT_TRUE(step.send_accept);
  EXPECT_TRUE(step.amplified);
}

TEST(BrachaLadder, ReplayedAcceptAfterDeliveryIsInert) {
  Ladder lad(4, 1);
  const Ref v = val(3);
  for (int voter = 1; voter <= 3; ++voter) lad.on_vote(7, v, voter, false);
  ASSERT_TRUE(lad.has_delivered(7));

  // The PR-4 guard: the candidate map is pruned at delivery, so a replayed
  // ACCEPT landing afterwards must not pool with fresh votes into a new
  // f+1 and re-trigger the amplification + ACK storm.
  for (int voter = 1; voter <= 4; ++voter) {
    const auto step = lad.on_vote(7, v, voter, false);
    EXPECT_FALSE(step.send_accept) << "voter " << voter;
    EXPECT_FALSE(step.deliver) << "voter " << voter;
  }
  // Votes for a DIFFERENT candidate of the delivered key are inert too.
  EXPECT_FALSE(lad.on_vote(7, val(9), 4, false).send_accept);
  // And a replayed WRITE only refreshes the ACK.
  EXPECT_EQ(lad.on_write(7, false, val(9)).action,
            Ladder::WriteAction::kReAck);
}

// Nothing of a delivered sn's value stays reachable from the ladder: the
// echoed handle and the candidate tallies are released at delivery. The
// delivered set alone keeps the sn closed — a replayed WRITE still only
// re-ACKs, and ECHO/ACCEPT votes carrying an equal value under a foreign
// handle stay inert.
TEST(BrachaLadder, DeliveryReleasesTheEchoedValue) {
  Ladder lad(4, 1);
  std::weak_ptr<const int> echoed;
  {
    const Ref v = val(3);
    echoed = v;
    ASSERT_EQ(lad.on_write(7, false, v).action, Ladder::WriteAction::kEcho);
    for (int voter = 1; voter <= 3; ++voter) lad.on_vote(7, v, voter, true);
    for (int voter = 1; voter <= 3; ++voter) lad.on_vote(7, v, voter, false);
    ASSERT_TRUE(lad.has_delivered(7));
  }
  EXPECT_TRUE(echoed.expired());

  EXPECT_EQ(lad.on_write(7, false, val(3)).action,
            Ladder::WriteAction::kReAck);
  for (const bool is_echo : {true, false}) {
    for (int voter = 1; voter <= 4; ++voter) {
      const auto step = lad.on_vote(7, val(3), voter, is_echo);
      EXPECT_FALSE(step.send_accept) << "voter " << voter;
      EXPECT_FALSE(step.deliver) << "voter " << voter;
      EXPECT_EQ(step.value, nullptr) << "voter " << voter;
    }
  }
  EXPECT_TRUE(lad.fence(7));  // delivered: unsafe to abort, as before
}

TEST(BrachaLadder, CrashDropsTalliesButKeepsDedupSets) {
  Ladder lad(4, 1);
  const Ref five = val(5);
  const Ref six = val(6);
  lad.on_write(1, false, five);
  lad.on_vote(1, five, 1, true);
  lad.on_vote(1, five, 2, true);
  for (int voter = 1; voter <= 3; ++voter) lad.on_vote(2, six, voter, false);
  ASSERT_TRUE(lad.has_delivered(2));

  lad.crash();

  // echoed_ is stable storage: the rejoined process re-issues its ORIGINAL
  // echo instead of judging a (possibly equivocated) retry afresh.
  const auto w = lad.on_write(1, false, val(9));
  EXPECT_EQ(w.action, Ladder::WriteAction::kEcho);
  EXPECT_EQ(w.value, five);
  EXPECT_FALSE(w.first);
  // The in-progress tally was volatile: the quorum needs three fresh votes.
  EXPECT_FALSE(lad.on_vote(1, five, 3, true).send_accept);
  EXPECT_FALSE(lad.on_vote(1, five, 1, true).send_accept);
  EXPECT_TRUE(lad.on_vote(1, five, 2, true).send_accept);
  // delivered_ persists: no replay storm through a crash either.
  EXPECT_TRUE(lad.has_delivered(2));
  EXPECT_FALSE(lad.on_vote(2, six, 4, false).send_accept);
  EXPECT_EQ(lad.on_write(2, false, six).action, Ladder::WriteAction::kReAck);
}

TEST(BrachaLadder, FenceBlocksUntilCompletionReissue) {
  Ladder lad(4, 1);
  const Ref two = val(2);
  lad.on_write(4, false, two);
  // Echoed but never accepted: fencing is clean (safe to abort) ...
  EXPECT_FALSE(lad.fence(4));
  EXPECT_TRUE(lad.is_fenced(4));
  // ... and the promise holds: plain writes and votes stay inert.
  EXPECT_EQ(lad.on_write(4, false, two).action, Ladder::WriteAction::kFenced);
  for (int voter = 1; voter <= 3; ++voter) {
    const auto step = lad.on_vote(4, two, voter, true);
    EXPECT_FALSE(step.send_accept);
    EXPECT_FALSE(step.deliver);
  }
  // Only the completion re-issue (CWRITE) lifts the fence, and it echoes
  // the ORIGINAL value whatever it carries.
  const auto w = lad.on_write(4, /*complete=*/true, val(0));
  EXPECT_EQ(w.action, Ladder::WriteAction::kEcho);
  EXPECT_EQ(w.value, two);
  EXPECT_FALSE(lad.is_fenced(4));
}

TEST(BrachaLadder, FenceReportsUnsafeAfterAcceptOrDelivery) {
  // An accept-sender must report unsafe: its ACCEPT is already in flight
  // and could combine with others into a delivery after the fence.
  const Ref one = val(1);
  Ladder sent_accept(4, 1);
  sent_accept.on_vote(5, one, 1, false);
  ASSERT_TRUE(sent_accept.on_vote(5, one, 2, false).send_accept);
  EXPECT_TRUE(sent_accept.fence(5));

  Ladder delivered(4, 1);
  for (int voter = 1; voter <= 3; ++voter)
    delivered.on_vote(5, one, voter, false);
  ASSERT_TRUE(delivered.has_delivered(5));
  EXPECT_TRUE(delivered.fence(5));

  Ladder echoed_only(4, 1);
  echoed_only.on_write(5, false, one);
  EXPECT_FALSE(echoed_only.fence(5));
}

// The delivered set is a watermark (every sn in 1..floor, plus a sparse set
// of the others). Against a reference std::set over a seeded random
// delivery order of sns 0..999 — with sn 0, gaps held open by fences, and
// crashes along the way — it answers every lookup the same, and once the
// completion re-issues fill the gaps only sn 0 stays outside the floor.
TEST(BrachaLadder, DeliveredWatermarkMatchesAReferenceSet) {
  constexpr std::uint64_t kSns = 1000;
  const Ref v = val(1);
  const auto deliver = [&](Ladder& lad, std::uint64_t sn) {
    for (int voter = 1; voter <= 3; ++voter) lad.on_vote(sn, v, voter, false);
  };
  const auto is_gap = [](std::uint64_t sn) { return sn % 10 == 3; };
  Ladder lad(4, 1);
  std::set<std::uint64_t> ref;
  const auto agree = [&] {
    for (std::uint64_t sn = 0; sn <= kSns; ++sn)
      if (lad.has_delivered(sn) != ref.contains(sn)) return false;
    return lad.sparse_delivered() + lad.delivered_floor() == ref.size();
  };
  std::vector<std::uint64_t> order(kSns);
  std::iota(order.begin(), order.end(), 0);
  util::Rng rng(7);
  std::shuffle(order.begin(), order.end(), rng);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::uint64_t sn = order[i];
    if (is_gap(sn)) {
      EXPECT_FALSE(lad.fence(sn)) << sn;
      deliver(lad, sn);  // fenced: the votes stay inert
    } else {
      deliver(lad, sn);
      ref.insert(sn);
    }
    if (i % 97 == 0) lad.crash();
    if (i % 50 == 0) {
      ASSERT_TRUE(agree()) << "after " << i << " deliveries";
    }
  }
  ASSERT_TRUE(agree());
  EXPECT_EQ(lad.delivered_floor(), 2u);  // sn 3 is the first gap
  for (std::uint64_t sn = 3; sn < kSns; sn += 10) {
    ASSERT_EQ(lad.on_write(sn, /*complete=*/true, v).action,
              Ladder::WriteAction::kEcho);
    deliver(lad, sn);
    ref.insert(sn);
  }
  ASSERT_TRUE(agree());
  EXPECT_EQ(lad.delivered_floor(), kSns - 1);
  EXPECT_EQ(lad.sparse_delivered(), 1u);  // sn 0, which no write uses
}

TEST(BrachaLadder, InOrderDeliveryKeepsNothingAboveTheFloor) {
  Ladder lad(4, 1);
  const Ref v = val(1);
  for (std::uint64_t sn = 1; sn <= 1000; ++sn) {
    for (int voter = 1; voter <= 3; ++voter) lad.on_vote(sn, v, voter, false);
    ASSERT_EQ(lad.sparse_delivered(), 0u) << sn;
  }
  EXPECT_EQ(lad.delivered_floor(), 1000u);
  EXPECT_TRUE(lad.has_delivered(1000));
  EXPECT_FALSE(lad.has_delivered(0));
  EXPECT_FALSE(lad.has_delivered(1001));
}

// ------------------------------------------------------- substrate tests

// Per-write substrate: after a write fully delivers everywhere, (a) a
// Byzantine owner replaying WRITE(sn) with an equivocated value provokes
// exactly one re-ACK per server — no echo of the new value — and (b) an
// f+1-sized forged ACCEPT storm for the delivered sn provokes nothing at
// all. Both deltas are exact because the fault-free network is reliable.
TEST(LadderOnEmulated, ReplayedWriteAndAcceptStormAreInert) {
  EmulatedSpace space({.n = 4, .f = 1});
  auto& reg = space.make_swmr<std::string>(1, "v0", "r");
  {
    ThisProcess::Binder bind(1);
    reg.write("v1");  // sn 1: delivered at all 4 servers once traffic drains
  }
  Network& net = space.network();
  space.quiesce();

  {
    const std::uint64_t base = net.messages_sent();
    ThisProcess::Binder bind(1);  // the Byzantine owner itself
    Message m;
    m.reg = 0;
    m.tag = obs::MsgTag::kWrite;
    m.sn = 1;
    m.payload = Payload::of(std::string("evil"));
    net.broadcast(m);
    // Fan-out (4) + one re-ACK per delivered server (4): the equivocated
    // value recruited no echo anywhere.
    EXPECT_EQ(space.quiesce() - base, 8u);
  }
  {
    const std::uint64_t base = net.messages_sent();
    for (const int pid : {2, 3}) {  // f+1 distinct forged accept-senders
      ThisProcess::Binder bind(pid);
      Message m;
      m.reg = 0;
      m.tag = obs::MsgTag::kAccept;
      m.sn = 1;
      m.payload = Payload::of(std::string("evil"));
      net.broadcast(m);
    }
    // Two fan-outs, zero reaction: without the delivered-set guard these
    // votes would reach f+1 and re-trigger the amplification + ACK storm.
    EXPECT_EQ(space.quiesce() - base, 8u);
  }
  ThisProcess::Binder bind(4);
  EXPECT_EQ(reg.read(), "v1");
}

}  // namespace
}  // namespace swsig::msgpass
