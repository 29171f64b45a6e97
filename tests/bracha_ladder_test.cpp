// The Bracha ladder (msgpass/detail/bracha_ladder.hpp) is the one copy of
// the echo/accept/amplify/deliver state machine behind the message-passing
// SWMR emulation (design note 15). The unit tests pin each guard once —
// echo-once, the PR-4 delivered-set replay guard, the PR-8 abort fence,
// crash persistence — and the substrate test then injects the classic
// Byzantine replays into a real network and watches the servers stay
// inert: an equivocated WRITE replay and a post-delivery ACCEPT storm.
// Message-count deltas are exact: with no faults attached every injected
// broadcast fans out to n processes and, if the guards hold, provokes
// nothing beyond at most a per-server re-ACK.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "msgpass/detail/bracha_ladder.hpp"
#include "msgpass/emulated_swmr.hpp"
#include "runtime/process.hpp"

namespace swsig::msgpass {
namespace {

using runtime::ThisProcess;
using Ladder = detail::BrachaLadder;

// n = 4, f = 1 throughout: echo quorum n−f = 3, amplification rung f+1 = 2.

// ------------------------------------------------------------ unit tests

TEST(BrachaLadder, EchoOncePerKeyReissuesOriginalVote) {
  Ladder lad(4, 1);
  int interns = 0;
  auto step = lad.on_write(7, /*complete=*/false, [&] {
    ++interns;
    return 3;
  });
  EXPECT_EQ(step.action, Ladder::WriteAction::kEcho);
  EXPECT_EQ(step.value_id, 3);
  EXPECT_TRUE(step.first);

  // A duplicate WRITE — even an equivocated one carrying a different value
  // — re-issues the ORIGINAL vote; the intern hook never runs again, so a
  // second value cannot recruit this process's echo support.
  step = lad.on_write(7, false, [&] {
    ++interns;
    return 9;  // the equivocated value, were it ever judged
  });
  EXPECT_EQ(step.action, Ladder::WriteAction::kEcho);
  EXPECT_EQ(step.value_id, 3);
  EXPECT_FALSE(step.first);
  EXPECT_EQ(interns, 1);
}

TEST(BrachaLadder, RefusalOfMalformedWritePersists) {
  Ladder lad(4, 1);
  auto step = lad.on_write(7, false, [] { return -1; });  // judged malformed
  EXPECT_EQ(step.action, Ladder::WriteAction::kRefused);
  // A retried copy is not re-judged into support.
  step = lad.on_write(7, false, [] {
    ADD_FAILURE() << "refused write was re-interned";
    return 3;
  });
  EXPECT_EQ(step.action, Ladder::WriteAction::kRefused);
}

TEST(BrachaLadder, QuorumRungsFireOnceEach) {
  Ladder lad(4, 1);
  // Echo quorum: the third distinct echo fires the (non-amplified) ACCEPT.
  EXPECT_FALSE(lad.on_vote(7, 3, 1, /*is_echo=*/true).send_accept);
  EXPECT_FALSE(lad.on_vote(7, 3, 2, true).send_accept);
  auto step = lad.on_vote(7, 3, 3, true);
  EXPECT_TRUE(step.send_accept);
  EXPECT_FALSE(step.amplified);
  EXPECT_FALSE(step.deliver);
  // A duplicate voter neither double-counts nor re-fires the rung.
  EXPECT_FALSE(lad.on_vote(7, 3, 3, true).send_accept);

  // Accept quorum: n−f accepts deliver (the ACCEPT was already sent).
  EXPECT_FALSE(lad.on_vote(7, 3, 1, false).deliver);
  EXPECT_FALSE(lad.on_vote(7, 3, 2, false).deliver);
  step = lad.on_vote(7, 3, 3, false);
  EXPECT_TRUE(step.deliver);
  EXPECT_FALSE(step.send_accept);  // sent at the echo quorum already
  EXPECT_TRUE(lad.has_delivered(7));
}

TEST(BrachaLadder, AmplificationRungFiresOnFPlusOneAccepts) {
  Ladder lad(4, 1);
  // No echoes at all: f+1 accepts alone must fire the amplified ACCEPT
  // (Bracha totality — this process vouches without having echoed).
  EXPECT_FALSE(lad.on_vote(8, 5, 1, /*is_echo=*/false).send_accept);
  auto step = lad.on_vote(8, 5, 2, false);
  EXPECT_TRUE(step.send_accept);
  EXPECT_TRUE(step.amplified);
}

TEST(BrachaLadder, ReplayedAcceptAfterDeliveryIsInert) {
  Ladder lad(4, 1);
  for (int voter = 1; voter <= 3; ++voter) lad.on_vote(7, 3, voter, false);
  ASSERT_TRUE(lad.has_delivered(7));

  // The PR-4 guard: the candidate map is pruned at delivery, so a replayed
  // ACCEPT landing afterwards must not pool with fresh votes into a new
  // f+1 and re-trigger the amplification + ACK storm.
  for (int voter = 1; voter <= 4; ++voter) {
    const auto step = lad.on_vote(7, 3, voter, false);
    EXPECT_FALSE(step.send_accept) << "voter " << voter;
    EXPECT_FALSE(step.deliver) << "voter " << voter;
  }
  // Votes for a DIFFERENT candidate of the delivered key are inert too.
  EXPECT_FALSE(lad.on_vote(7, 9, 4, false).send_accept);
  // And a replayed WRITE only refreshes the ACK.
  const auto w = lad.on_write(7, false, [] {
    ADD_FAILURE() << "delivered key was re-interned";
    return 0;
  });
  EXPECT_EQ(w.action, Ladder::WriteAction::kReAck);
}

TEST(BrachaLadder, CrashDropsTalliesButKeepsDedupSets) {
  Ladder lad(4, 1);
  lad.on_write(1, false, [] { return 5; });
  lad.on_vote(1, 5, 1, true);
  lad.on_vote(1, 5, 2, true);
  for (int voter = 1; voter <= 3; ++voter) lad.on_vote(2, 6, voter, false);
  ASSERT_TRUE(lad.has_delivered(2));

  lad.crash();

  // echoed_ is stable storage: the rejoined process re-issues its ORIGINAL
  // echo instead of judging a (possibly equivocated) retry afresh.
  const auto w = lad.on_write(1, false, [] {
    ADD_FAILURE() << "echoed key was re-interned after crash";
    return 9;
  });
  EXPECT_EQ(w.action, Ladder::WriteAction::kEcho);
  EXPECT_EQ(w.value_id, 5);
  EXPECT_FALSE(w.first);
  // The in-progress tally was volatile: the quorum needs three fresh votes.
  EXPECT_FALSE(lad.on_vote(1, 5, 3, true).send_accept);
  EXPECT_FALSE(lad.on_vote(1, 5, 1, true).send_accept);
  EXPECT_TRUE(lad.on_vote(1, 5, 2, true).send_accept);
  // delivered_ persists: no replay storm through a crash either.
  EXPECT_TRUE(lad.has_delivered(2));
  EXPECT_FALSE(lad.on_vote(2, 6, 4, false).send_accept);
  EXPECT_EQ(lad.on_write(2, false, [] { return 0; }).action,
            Ladder::WriteAction::kReAck);
}

TEST(BrachaLadder, FenceBlocksUntilCompletionReissue) {
  Ladder lad(4, 1);
  lad.on_write(4, false, [] { return 2; });
  // Echoed but never accepted: fencing is clean (safe to abort) ...
  EXPECT_FALSE(lad.fence(4));
  EXPECT_TRUE(lad.is_fenced(4));
  // ... and the promise holds: plain writes and votes stay inert.
  EXPECT_EQ(lad.on_write(4, false, [] { return 2; }).action,
            Ladder::WriteAction::kFenced);
  for (int voter = 1; voter <= 3; ++voter) {
    const auto step = lad.on_vote(4, 2, voter, true);
    EXPECT_FALSE(step.send_accept);
    EXPECT_FALSE(step.deliver);
  }
  // Only the completion re-issue (CWRITE) lifts the fence.
  const auto w = lad.on_write(4, /*complete=*/true, [] {
    ADD_FAILURE() << "fenced key was re-interned";
    return 0;
  });
  EXPECT_EQ(w.action, Ladder::WriteAction::kEcho);
  EXPECT_EQ(w.value_id, 2);
  EXPECT_FALSE(lad.is_fenced(4));
}

TEST(BrachaLadder, FenceReportsUnsafeAfterAcceptOrDelivery) {
  // An accept-sender must report unsafe: its ACCEPT is already in flight
  // and could combine with others into a delivery after the fence.
  Ladder sent_accept(4, 1);
  sent_accept.on_vote(5, 1, 1, false);
  ASSERT_TRUE(sent_accept.on_vote(5, 1, 2, false).send_accept);
  EXPECT_TRUE(sent_accept.fence(5));

  Ladder delivered(4, 1);
  for (int voter = 1; voter <= 3; ++voter) delivered.on_vote(5, 1, voter, false);
  ASSERT_TRUE(delivered.has_delivered(5));
  EXPECT_TRUE(delivered.fence(5));

  Ladder echoed_only(4, 1);
  echoed_only.on_write(5, false, [] { return 1; });
  EXPECT_FALSE(echoed_only.fence(5));
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
  const auto count = [&] { return net.messages_sent(); };
  drain_message_count(count);

  {
    const std::uint64_t base = count();
    ThisProcess::Binder bind(1);  // the Byzantine owner itself
    Message m;
    m.reg = 0;
    m.tag = obs::MsgTag::kWrite;
    m.sn = 1;
    m.payload = Payload::of(std::string("evil"));
    net.broadcast(m);
    // Fan-out (4) + one re-ACK per delivered server (4): the equivocated
    // value recruited no echo anywhere.
    EXPECT_EQ(drain_message_count(count) - base, 8u);
  }
  {
    const std::uint64_t base = count();
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
    EXPECT_EQ(drain_message_count(count) - base, 8u);
  }
  ThisProcess::Binder bind(4);
  EXPECT_EQ(reg.read(), "v1");
}

}  // namespace
}  // namespace swsig::msgpass
