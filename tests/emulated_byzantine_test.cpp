// Adversarial tests for the message-passing register emulation: Byzantine
// writers equivocate at the network level, Byzantine processes flood fake
// protocol messages and garbage payloads — none of it may violate the
// register's semantics for correct processes.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <set>
#include <thread>

#include "msgpass/emulated_swmr.hpp"
#include "runtime/process.hpp"

namespace swsig::msgpass {
namespace {

using runtime::ThisProcess;

// Waits until the network sent no new messages for several consecutive
// poll intervals, then returns the total sent count — the yardstick for
// "and nothing else happened" assertions. Ten stable 5 ms polls: a server
// thread descheduled while holding a still-cascading message would have to
// stall more than 50 ms to slip a straggler past the baseline, so the
// exact-count assertions stay sharp without being flake-prone.
std::uint64_t quiesce(Network& net) {
  return drain_message_count([&] { return net.messages_sent(); },
                             std::chrono::milliseconds(5), /*stable_polls=*/10);
}

// Byzantine writer sends DIFFERENT values for the same sequence number to
// different processes (network-level equivocation, the attack the
// echo-once-per-sn rule exists for). Correct readers may see the old value
// or whichever variant got certified — but never both variants.
TEST(EmulatedByzantine, WriterEquivocationPerSnIsResolved) {
  for (int round = 0; round < 5; ++round) {
    EmulatedSpace space({.n = 4, .f = 1});
    auto& reg = space.make_swmr<int>(1, 0, "r");
    {
      ThisProcess::Binder bind(1);
      for (int to = 1; to <= 4; ++to) {
        Message m;
        m.to = to;
        m.reg = 0;
        m.tag = obs::MsgTag::kWrite;
        m.sn = 1;
        // Two variants of write #1.
        m.payload = Payload::of((to <= 2) ? 100 : 200);
        space.network().send(m);
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    std::set<int> observed;
    for (int pid = 2; pid <= 4; ++pid) {
      ThisProcess::Binder bind(pid);
      observed.insert(reg.read());
    }
    // 0 (initial) plus at most ONE of the two variants.
    EXPECT_FALSE(observed.contains(100) && observed.contains(200))
        << "round " << round;
  }
}

// A Byzantine process floods ACCEPT messages for a value the writer never
// wrote: with only f=1 voice it stays below the f+1 amplification and the
// n−f delivery thresholds, so no correct process ever stores it.
TEST(EmulatedByzantine, FakeAcceptFloodCannotForgeValues) {
  EmulatedSpace space({.n = 4, .f = 1});
  auto& reg = space.make_swmr<int>(1, 7, "r");
  {
    ThisProcess::Binder bind(3);  // Byzantine non-writer
    for (int i = 0; i < 20; ++i) {
      Message m;
      m.reg = 0;
      m.tag = obs::MsgTag::kAccept;
      m.sn = 99;
      m.payload = Payload::of(666);
      space.network().broadcast(m);
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  for (int pid = 2; pid <= 4; ++pid) {
    ThisProcess::Binder bind(pid);
    EXPECT_EQ(reg.read(), 7) << "p" << pid;
  }
}

// Same for fake WRITE messages from a non-owner: dropped at the source
// check (only the owner's WRITEs are echoed).
TEST(EmulatedByzantine, NonOwnerWriteMessagesIgnored) {
  EmulatedSpace space({.n = 4, .f = 1});
  auto& reg = space.make_swmr<int>(1, 7, "r");
  {
    ThisProcess::Binder bind(2);
    Message m;
    m.reg = 0;
    m.tag = obs::MsgTag::kWrite;
    m.sn = 5;
    m.payload = Payload::of(123);
    space.network().broadcast(m);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ThisProcess::Binder bind(3);
  EXPECT_EQ(reg.read(), 7);
}

// Garbage payloads — a wrong type, or none at all — must not crash server
// threads, and the register must keep functioning afterwards.
TEST(EmulatedByzantine, GarbagePayloadsAreDropped) {
  EmulatedSpace space({.n = 4, .f = 1});
  auto& reg = space.make_swmr<int>(1, 0, "r");
  using State = EmulatedSwmr<int>::StatePayload;
  const Payload garbage[] = {Payload::of(std::string("not-an-int")),
                             Payload{}, Payload(std::shared_ptr<const int>()),
                             Payload::of(State{1, nullptr})};
  {
    ThisProcess::Binder bind(4);
    for (const obs::MsgTag tag :
         {obs::MsgTag::kWrite, obs::MsgTag::kEcho, obs::MsgTag::kAccept,
          obs::MsgTag::kState, obs::MsgTag::kRead, obs::MsgTag::kAbAck}) {
      for (const Payload& p : garbage) {
        Message m;
        m.reg = 0;
        m.tag = tag;
        m.sn = 1;
        m.payload = p;
        space.network().broadcast(m);
      }
    }
  }
  // The system still works end-to-end.
  {
    ThisProcess::Binder bind(1);
    reg.write(11);
  }
  ThisProcess::Binder bind(2);
  EXPECT_EQ(reg.read(), 11);
}

// Holds STATE replies: those addressed to the Byzantine p4 for 300 ms and
// those addressed to the reader p2 for 1000 ms.
class HoldStates : public FaultInjector {
 public:
  FaultDecision on_deliver(const Message& m) override {
    if (m.tag != obs::MsgTag::kState) return {};
    if (m.to == 4) return {.delay = std::chrono::milliseconds(300)};
    if (m.to == 2) return {.delay = std::chrono::milliseconds(1000)};
    return {};
  }
  bool reorder(runtime::ProcessId) override { return false; }
};

// Read ids are per reader: a STATE reply counts only for a read by the
// process it was sent to. Byzantine p4 broadcasts READ under the rid p2's
// first read will use, before the write; the honest servers' stale
// (0, initial) replies reach p4 while p2's read is open. Counted toward
// p2's read they would make n−f identical stale pairs, and p2 would read 0
// after write(11) completed — a new-old inversion. Retries are off so p2's
// first rid stays open until its own (delayed) replies arrive.
TEST(EmulatedByzantine, RepliesToAnotherProcessCannotFeedARead) {
  EmulatedSpace space({.n = 4, .f = 1, .retry = {.enabled = false}});
  auto& reg = space.make_swmr<int>(1, 0, "r");
  HoldStates hold;
  space.network().set_fault_injector(&hold);
  {
    ThisProcess::Binder bind(4);
    Message m;
    m.reg = 0;
    m.tag = obs::MsgTag::kRead;
    m.sn = 1;  // the first rid of this register
    space.network().broadcast(m);
  }
  {
    ThisProcess::Binder bind(1);
    reg.write(11);
  }
  {
    ThisProcess::Binder bind(2);
    EXPECT_EQ(reg.read(), 11);
  }
  space.network().set_fault_injector(nullptr);
}

// Messages for unknown register ids are ignored (no out-of-bounds access).
TEST(EmulatedByzantine, UnknownRegisterIdIgnored) {
  EmulatedSpace space({.n = 4, .f = 1});
  auto& reg = space.make_swmr<int>(1, 3, "r");
  {
    ThisProcess::Binder bind(2);
    Message m;
    m.reg = 999;
    m.tag = obs::MsgTag::kWrite;
    m.sn = 1;
    m.payload = Payload::of(5);
    space.network().broadcast(m);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ThisProcess::Binder bind(3);
  EXPECT_EQ(reg.read(), 3);
}

// A crashed (silent) process: writes and reads still complete with n−f
// live processes.
TEST(EmulatedByzantine, ToleratesSilentProcess) {
  EmulatedSpace space({.n = 4, .f = 1});
  // We cannot "crash" a server thread via public API, so emulate silence
  // by having the Byzantine process never participate as a CLIENT; its
  // server still runs, which only HELPS — so additionally check the
  // protocol thresholds directly: with n=4, f=1, the writer needs 3 acks
  // and a reader needs 3 matching states; both exist without p4's client.
  auto& reg = space.make_swmr<int>(1, 0, "r");
  {
    ThisProcess::Binder bind(1);
    reg.write(9);
  }
  ThisProcess::Binder bind(2);
  EXPECT_EQ(reg.read(), 9);
}

// ACCEPT replays for an already-delivered sn must be inert. Delivery prunes
// the per-sn vote tallies; without the persistent `delivered` guard, a
// Byzantine replay pooling with one correct straggler's late ACCEPT (played
// here by two test-driven senders, making the f+1 coincidence
// deterministic) re-assembled the amplification threshold on a fresh
// candidate and re-ran the whole ACCEPT/ACK storm — and every duplicate ACK
// recreated an acks_ entry at the owner that was never erased.
TEST(EmulatedByzantine, ReplayedAcceptsAfterDeliveryAreInert) {
  EmulatedSpace space({.n = 4, .f = 1});
  auto& reg = space.make_swmr<int>(1, 0, "r");
  {
    ThisProcess::Binder bind(1);
    reg.write(8);  // sn=1 delivers at every process
  }
  const std::uint64_t before = quiesce(space.network());
  for (int pid : {2, 3}) {  // f+1 distinct senders replay the real ACCEPT
    ThisProcess::Binder bind(pid);
    Message m;
    m.reg = 0;
    m.tag = obs::MsgTag::kAccept;
    m.sn = 1;
    m.payload = Payload::of(8);  // the genuinely delivered value
    space.network().broadcast(m);
  }
  // Exactly the 2 replay broadcasts (x4 recipients) and nothing else: any
  // re-amplification or duplicate ACK would add to the count.
  EXPECT_EQ(quiesce(space.network()) - before, 8u);
  ThisProcess::Binder bind(2);
  EXPECT_EQ(reg.read(), 8);
}

// Concurrent equivocation + honest traffic on a SECOND register: protocol
// instances are isolated by register id.
TEST(EmulatedByzantine, RegistersAreIsolated) {
  EmulatedSpace space({.n = 4, .f = 1});
  auto& bad = space.make_swmr<int>(1, 0, "bad");
  auto& good = space.make_swmr<int>(2, 0, "good");
  std::atomic<bool> stop{false};
  std::thread byz([&] {
    ThisProcess::Binder bind(1);
    int i = 0;
    while (!stop.load()) {
      Message m;
      m.reg = 0;  // the "bad" register
      m.tag = obs::MsgTag::kWrite;
      m.sn = 1;
      m.to = 1 + (i % 4);
      m.payload = Payload::of((i % 2) ? 100 : 200);
      space.network().send(m);
      ++i;
      std::this_thread::yield();
    }
  });
  {
    ThisProcess::Binder bind(2);
    good.write(55);
  }
  {
    ThisProcess::Binder bind(3);
    EXPECT_EQ(good.read(), 55);
  }
  stop = true;
  byz.join();
  (void)bad;
}

}  // namespace
}  // namespace swsig::msgpass
