// Message-passing substrate tests: network, MPRJ17-style emulated SWMR
// registers, witness broadcast, and the full-stack corollary — the paper's
// registers running unchanged over message passing.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <stop_token>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/sticky_register.hpp"
#include "core/verifiable_register.hpp"
#include "lincheck/checker.hpp"
#include "lincheck/history.hpp"
#include "lincheck/register_specs.hpp"
#include "msgpass/emulated_swmr.hpp"
#include "msgpass/detail/pid_set.hpp"
#include "msgpass/network.hpp"
#include "msgpass/server_pool.hpp"
#include "msgpass/witness_broadcast.hpp"
#include "runtime/harness.hpp"
#include "runtime/process.hpp"

namespace swsig::msgpass {
namespace {

using runtime::ThisProcess;

// ------------------------------------------------------------- network

TEST(Network, PointToPointDelivery) {
  Network net({.n = 3});
  {
    ThisProcess::Binder bind(1);
    Message m;
    m.to = 2;
    m.tag = obs::MsgTag::kRead;
    net.send(m);
  }
  ThisProcess::Binder bind(2);
  const auto m = net.try_recv();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->tag, obs::MsgTag::kRead);
  EXPECT_EQ(m->from, 1);  // stamped, not spoofable
}

TEST(Network, SenderIdentityIsStamped) {
  Network net({.n = 3});
  {
    ThisProcess::Binder bind(3);
    Message m;
    m.to = 2;
    m.from = 1;  // attempted spoof
    net.send(m);
  }
  ThisProcess::Binder bind(2);
  EXPECT_EQ(net.try_recv()->from, 3);
}

TEST(Network, UnboundSenderRejected) {
  Network net({.n = 3});
  Message m;
  m.to = 1;
  EXPECT_THROW(net.send(m), std::logic_error);
}

TEST(Network, BroadcastReachesEveryoneIncludingSelf) {
  Network net({.n = 3});
  {
    ThisProcess::Binder bind(1);
    Message m;
    m.tag = obs::MsgTag::kInit;
    net.broadcast(m);
  }
  for (int pid = 1; pid <= 3; ++pid) {
    ThisProcess::Binder bind(pid);
    EXPECT_TRUE(net.try_recv().has_value()) << "p" << pid;
  }
  EXPECT_EQ(net.messages_sent(), 3u);
}

TEST(Network, TryRecvEmptyInbox) {
  Network net({.n = 2});
  ThisProcess::Binder bind(1);
  EXPECT_EQ(net.try_recv(), std::nullopt);
}

// With a client endpoint, a reply (STATE, ACK, ABACK) or a READ reaches it
// before send() returns, on the sending thread bound as the addressee, and
// never enters the addressee's inbox; other server traffic still queues.
// All of it counts as sent and leaves nothing in flight.
TEST(Network, InlineMessagesLandOnTheClientEndpoint) {
  std::vector<Message> inline_msgs;
  std::vector<runtime::ProcessId> bound_as;
  Network net({.n = 3}, [&](const Message& m) {
    inline_msgs.push_back(m);
    bound_as.push_back(ThisProcess::id());
  });
  {
    ThisProcess::Binder bind(1);
    for (const obs::MsgTag tag :
         {obs::MsgTag::kState, obs::MsgTag::kAck, obs::MsgTag::kAbAck,
          obs::MsgTag::kRead}) {
      const std::size_t before = inline_msgs.size();
      Message m;
      m.to = 2;
      m.tag = tag;
      net.send(m);
      ASSERT_EQ(inline_msgs.size(), before + 1) << obs::tag_name(tag);
      EXPECT_EQ(inline_msgs.back().tag, tag);
      EXPECT_EQ(inline_msgs.back().from, 1);
      EXPECT_EQ(inline_msgs.back().to, 2);
      EXPECT_EQ(bound_as.back(), 2) << obs::tag_name(tag);
    }
    EXPECT_EQ(ThisProcess::id(), 1);  // the sender's binding is restored
    Message echo;
    echo.to = 2;
    echo.tag = obs::MsgTag::kEcho;
    net.send(echo);
  }
  EXPECT_EQ(inline_msgs.size(), 4u);  // the ECHO did not go to the endpoint
  ThisProcess::Binder bind(2);
  const auto queued = net.try_recv();
  ASSERT_TRUE(queued.has_value());
  EXPECT_EQ(queued->tag, obs::MsgTag::kEcho);
  EXPECT_EQ(net.try_recv(), std::nullopt);  // nothing inline was queued
  EXPECT_EQ(net.quiesce(), 5u);
}

// ServerPool::stop() wakes server threads parked on empty inboxes.
TEST(Network, ServerPoolStopsWithIdleInboxes) {
  Network net({.n = 4});
  for (int round = 0; round < 100; ++round) {
    detail::ServerPool pool(net, 4, [](int, const Message&) {});
    if (round % 2 == 1)  // let the threads park first
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    pool.stop();
  }
  SUCCEED();
}

// A server thread drains its whole inbox at once. With reorder_seed the
// batch comes out as a seeded permutation of what was queued, not in
// arrival order; without it, in arrival order.
TEST(Network, BatchDrainIsAPermutationUnderReorderSeed) {
  constexpr std::uint64_t kQueued = 32;
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{7}}) {
    Network net({.n = 2, .reorder_seed = seed});
    {
      ThisProcess::Binder bind(1);
      for (std::uint64_t i = 0; i < kQueued; ++i) {
        Message m;
        m.to = 2;
        m.tag = obs::MsgTag::kEcho;
        m.sn = i;
        net.send(m);
      }
    }
    ThisProcess::Binder bind(2);
    std::vector<Message> batch;
    ASSERT_TRUE(net.recv_batch(std::stop_token{}, batch));
    std::vector<std::uint64_t> order;
    for (const Message& m : batch) order.push_back(m.sn);
    std::vector<std::uint64_t> fifo(kQueued);
    for (std::uint64_t i = 0; i < kQueued; ++i) fifo[i] = i;
    EXPECT_TRUE(std::is_permutation(order.begin(), order.end(), fifo.begin(),
                                    fifo.end()))
        << "seed " << seed;
    if (seed == 0)
      EXPECT_EQ(order, fifo);
    else
      EXPECT_NE(order, fifo) << "the batch kept arrival order";
    net.handled(batch.size());
    EXPECT_EQ(net.quiesce(), kQueued);
  }
}

// The quorum tallies are 64-bit pid sets: n = 64 is a configuration error
// that names the limit, and a duplicate voter counts once.
TEST(PidSet, SixtyFourProcessesAreRejected) {
  for (const auto& make : std::vector<std::function<void()>>{
           [] { EmulatedSpace space({.n = 64, .f = 21}); },
           [] { WitnessBroadcast wb({.n = 64, .f = 21}); }}) {
    try {
      make();
      ADD_FAILURE() << "n = 64 accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("limit of 63"), std::string::npos)
          << e.what();
    }
  }
}

TEST(PidSet, DuplicateVoterCountsOnce) {
  detail::PidSet voters;
  EXPECT_TRUE(voters.insert(3));
  EXPECT_FALSE(voters.insert(3));
  EXPECT_TRUE(voters.insert(63));
  EXPECT_EQ(voters.size(), 2);
  EXPECT_THROW(voters.insert(64), std::out_of_range);
}

// ------------------------------------------------------- emulated SWMR

class EmulatedTest : public ::testing::Test {
 protected:
  EmulatedSpace space{{.n = 4, .f = 1}};
};

TEST_F(EmulatedTest, InitialValueReadable) {
  auto& reg = space.make_swmr<int>(1, 42, "r");
  ThisProcess::Binder bind(2);
  EXPECT_EQ(reg.read(), 42);
}

TEST_F(EmulatedTest, WriteThenRead) {
  auto& reg = space.make_swmr<int>(1, 0, "r");
  {
    ThisProcess::Binder bind(1);
    reg.write(7);
  }
  for (int pid = 2; pid <= 4; ++pid) {
    ThisProcess::Binder bind(pid);
    EXPECT_EQ(reg.read(), 7) << "p" << pid;
  }
}

TEST_F(EmulatedTest, SequenceOfWritesReadsLatest) {
  auto& reg = space.make_swmr<int>(1, 0, "r");
  {
    ThisProcess::Binder bind(1);
    for (int v = 1; v <= 5; ++v) reg.write(v);
  }
  ThisProcess::Binder bind(3);
  EXPECT_EQ(reg.read(), 5);
}

TEST_F(EmulatedTest, NonOwnerWriteRejected) {
  auto& reg = space.make_swmr<int>(1, 0, "r");
  ThisProcess::Binder bind(2);
  EXPECT_THROW(reg.write(5), registers::PortViolation);
  EXPECT_THROW(reg.write_async(5), registers::PortViolation);
}

// Per-process protocol state is indexed by pid: an out-of-range owner or
// reader must be a clean configuration error, not out-of-bounds UB at the
// first message. A rejected register takes no id, so the next one works.
TEST_F(EmulatedTest, OutOfRangeOwnerRejectedAtCreation) {
  EXPECT_THROW(space.make_swmr<int>(5, 0, "bad"), std::invalid_argument);
  EXPECT_THROW(space.make_swmr<int>(0, 0, "bad"), std::invalid_argument);
  EXPECT_THROW(space.make_swsr<int>(-1, 2, 0, "bad"), std::invalid_argument);
  EXPECT_THROW(space.make_swsr<int>(1, 5, 0, "bad"), std::invalid_argument);
  auto& reg = space.make_swmr<int>(4, 0, "ok");
  {
    ThisProcess::Binder bind(4);
    reg.write(3);
  }
  ThisProcess::Binder bind(1);
  EXPECT_EQ(reg.read(), 3);
}

// crash/restart/resync index crashed_ and every register's per-process
// state by pid: out-of-range pids are rejected before anything is touched.
TEST_F(EmulatedTest, OutOfRangePidRejectedByCrashRestartResync) {
  auto& reg = space.make_swmr<int>(1, 0, "r");
  for (const runtime::ProcessId pid : {0, 5, -1}) {
    EXPECT_THROW(space.crash(pid), std::invalid_argument) << "p" << pid;
    EXPECT_THROW(space.restart(pid), std::invalid_argument) << "p" << pid;
    EXPECT_THROW(space.resync(pid), std::invalid_argument) << "p" << pid;
  }
  {
    ThisProcess::Binder bind(1);
    reg.write(8);
  }
  ThisProcess::Binder bind(4);
  EXPECT_EQ(reg.read(), 8);
}

// Design note 6's message cost, pinned once traffic drains: one blocking
// write costs WRITE (n) + ECHO (n²) + ACCEPT (n²) + ACK (n) = 2n² + 2n
// messages, and one uncontended read costs READ (n) + STATE (n) = 2n.
// Retries are off, so no re-broadcast adds to the count. Every message but
// WRITE is held back briefly so each server sees the WRITE before any
// vote; otherwise a server whose WRITE copy lagged a whole ladder would
// deliver first and then re-ACK instead of echoing.
class HoldAllButWrite : public FaultInjector {
 public:
  FaultDecision on_deliver(const Message& m) override {
    if (m.tag == obs::MsgTag::kWrite) return {};
    return {.delay = std::chrono::milliseconds(10)};
  }
  bool reorder(runtime::ProcessId) override { return false; }
};

TEST(EmulatedCost, WriteAndReadMessageCountsMatchDesignNote6) {
  for (const int n : {4, 7}) {
    HoldAllButWrite hold;
    EmulatedSpace space(
        {.n = n, .f = (n - 1) / 3, .retry = {.enabled = false}});
    Network& net = space.network();
    net.set_fault_injector(&hold);
    auto& reg = space.make_swmr<int>(1, 0, "r");
    const auto nn = static_cast<std::uint64_t>(n);
    std::uint64_t base = space.quiesce();
    {
      ThisProcess::Binder bind(1);
      reg.write(7);
    }
    EXPECT_EQ(space.quiesce() - base, 2 * nn * nn + 2 * nn) << "write, n=" << n;
    base = space.quiesce();
    {
      ThisProcess::Binder bind(2);
      EXPECT_EQ(reg.read(), 7);
    }
    EXPECT_EQ(space.quiesce() - base, 2 * nn) << "read, n=" << n;
    net.set_fault_injector(nullptr);
    space.stop();
  }
}

// A collect of k registers is one READ naming all k and one STATE per
// replier carrying k pairs: 2n messages, the cost of a single read
// (design note 18).
TEST(EmulatedCost, CollectOfThreeRegistersCostsTwoNMessages) {
  for (const int n : {4, 7}) {
    HoldAllButWrite hold;
    EmulatedSpace space(
        {.n = n, .f = (n - 1) / 3, .retry = {.enabled = false}});
    Network& net = space.network();
    net.set_fault_injector(&hold);
    std::vector<EmulatedSwmr<int>*> regs;
    for (int i = 0; i < 3; ++i)
      regs.push_back(&space.make_swmr<int>(1, i, "r" + std::to_string(i)));
    {
      ThisProcess::Binder bind(1);
      regs[1]->write(7);
    }
    const std::uint64_t base = space.quiesce();
    {
      ThisProcess::Binder bind(2);
      EXPECT_EQ(space.collect(regs), (std::vector<int>{0, 7, 2}));
    }
    EXPECT_EQ(space.quiesce() - base, 2 * static_cast<std::uint64_t>(n))
        << "collect of 3 registers, n=" << n;
    net.set_fault_injector(nullptr);
    space.stop();
  }
}

// quiesce() waits for held traffic, not only for full inboxes: right after
// write_async returns, every message of the ladder but the WRITEs sits in
// the delay pump, and quiesce() must return only once all of them have
// been handled — every replica delivered and every ACK counted.
TEST(EmulatedQuiesce, WaitsUntilHeldMessagesAreHandled) {
  HoldAllButWrite hold;
  EmulatedSpace space({.n = 4, .f = 1, .retry = {.enabled = false}});
  Network& net = space.network();
  auto& reg = space.make_swmr<int>(1, 0, "r");
  const std::uint64_t base = space.quiesce();
  net.set_fault_injector(&hold);
  std::uint64_t sn = 0;
  {
    ThisProcess::Binder bind(1);
    sn = reg.write_async(7);
  }
  EXPECT_EQ(space.quiesce() - base, 2u * 4 * 4 + 2u * 4);
  EXPECT_EQ(net.queued_messages(), 0u);
  for (int pid = 1; pid <= 4; ++pid)
    EXPECT_EQ(reg.stored_state(pid), std::make_pair(std::uint64_t{1}, 7))
        << "p" << pid;
  {
    ThisProcess::Binder bind(1);
    reg.await(sn);
  }
  net.set_fault_injector(nullptr);
}

TEST_F(EmulatedTest, UpdateIsOwnerRmw) {
  auto& reg = space.make_swmr<std::set<int>>(1, {}, "r");
  {
    ThisProcess::Binder bind(1);
    reg.update([](std::set<int>& s) { s.insert(3); });
    reg.update([](std::set<int>& s) { s.insert(5); });
  }
  ThisProcess::Binder bind(2);
  EXPECT_EQ(reg.read(), (std::set<int>{3, 5}));
}

// ------------------- owner-RMW race regression (PR 4) -------------------
// update() must hold a writer-side mutex across the whole
// read-compute-write. Before the fix it read owner_view_, unlocked, then
// called write() — two owner-bound threads (the model's op thread and its
// Help() thread, which Algorithms 1–3 run concurrently) could both read
// the same view, and the second write erased the first's insert (a lost
// update).
//
// To pin that interleaving deterministically, RaceHook::Payload's copy
// constructor blocks the FIRST copy performed by the armed thread after
// arming — which is exactly write()'s by-value argument copy, the copy the
// buggy code performed outside any lock — until the partner thread's whole
// update() has completed. The fixed code performs that copy while still
// holding the writer mutex, so the partner cannot run and the hook falls
// through on its timeout instead.
namespace RaceHook {
std::atomic<bool> armed{false};
std::atomic<std::thread::id> armed_thread{};
std::atomic<bool> partner_done{false};

struct Payload {
  std::set<int> s;
  Payload() = default;
  Payload(const Payload& o) : s(o.s) { maybe_block(); }
  Payload(Payload&&) = default;
  Payload& operator=(const Payload&) = default;
  Payload& operator=(Payload&&) = default;
  bool operator==(const Payload& o) const { return s == o.s; }
  bool operator<(const Payload& o) const { return s < o.s; }

  static void maybe_block() {
    if (!armed.load(std::memory_order_acquire)) return;
    if (armed_thread.load() != std::this_thread::get_id()) return;
    if (!armed.exchange(false)) return;  // trip once
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
    while (!partner_done.load() &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
};
}  // namespace RaceHook

TEST_F(EmulatedTest, UpdateHoldsWriterMutexAcrossReadComputeWrite) {
  RaceHook::armed = false;
  RaceHook::partner_done = false;
  auto& reg = space.make_swmr<RaceHook::Payload>(1, {}, "r");
  std::thread a([&] {
    ThisProcess::Binder bind(1);
    reg.update([](RaceHook::Payload& p) {
      p.s.insert(1);
      // Arm AFTER update() captured its copy of owner_view_: the next copy
      // on this thread is the one handed to the write path.
      RaceHook::armed_thread.store(std::this_thread::get_id());
      RaceHook::armed.store(true, std::memory_order_release);
    });
  });
  std::thread b([&] {
    ThisProcess::Binder bind(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    reg.update([](RaceHook::Payload& p) { p.s.insert(2); });
    RaceHook::partner_done.store(true);
  });
  a.join();
  b.join();
  ThisProcess::Binder bind(1);
  const auto s = reg.read().s;
  EXPECT_TRUE(s.contains(1)) << "thread a's insert was lost";
  EXPECT_TRUE(s.contains(2)) << "thread b's insert was lost";
}

// Statistical companion to the deterministic test above: hammer update()
// from two owner-bound threads; every insert must survive. Run under ASan
// in CI like every other suite.
TEST_F(EmulatedTest, OwnerRmwFromTwoThreadsLosesNoUpdates) {
  auto& reg = space.make_swmr<std::set<int>>(1, {}, "r");
  constexpr int kPerThread = 40;
  std::thread a([&] {
    ThisProcess::Binder bind(1);
    for (int i = 0; i < kPerThread; ++i)
      reg.update([&](std::set<int>& s) { s.insert(i); });
  });
  std::thread b([&] {
    ThisProcess::Binder bind(1);
    for (int i = 0; i < kPerThread; ++i)
      reg.update([&](std::set<int>& s) { s.insert(1000 + i); });
  });
  a.join();
  b.join();
  {
    ThisProcess::Binder bind(1);
    EXPECT_EQ(reg.read().size(), 2u * kPerThread);  // owner-local view
  }
  ThisProcess::Binder bind(2);
  EXPECT_EQ(reg.read().size(), 2u * kPerThread);  // quorum view
}

// Regression (PR 4): the owner's local view stays coherent under
// concurrent owner writers. Pre-fix, write() assigned owner_view_ with no
// writer-side serialization and no sn ordering, so with two owner-bound
// threads writing (the model's op + Help() threads) the owner could be
// left holding the OLDER value while the higher sn was broadcast — an
// owner-local read then disagreed with the quorum. Post-fix (writer_mu_
// plus the sn-monotone assignment in allocate_sn_locked) the owner-local
// read must equal the quorum read once traffic drains.
TEST(EmulatedOwnerView, AgreesWithQuorumUnderConcurrentWriters) {
  for (int round = 0; round < 8; ++round) {
    EmulatedSpace space({.n = 4, .f = 1});
    auto& reg = space.make_swmr<int>(1, 0, "r");
    std::thread a([&] {
      ThisProcess::Binder bind(1);
      for (int v = 1; v <= 10; ++v) reg.write(v);
    });
    std::thread b([&] {
      ThisProcess::Binder bind(1);
      for (int v = 101; v <= 110; ++v) reg.write(v);
    });
    a.join();
    b.join();
    // Let the trailing f servers' protocol traffic drain so the quorum
    // read below is the converged highest-sn value.
    space.quiesce();
    int local;
    {
      ThisProcess::Binder bind(1);
      local = reg.read();  // owner-local: owner_view_
    }
    ThisProcess::Binder bind(2);
    EXPECT_EQ(local, reg.read()) << "round " << round;
  }
}

TEST_F(EmulatedTest, SwsrReaderEnforced) {
  auto& reg = space.make_swsr<int>(1, 3, 9, "r13");
  {
    ThisProcess::Binder bind(3);
    EXPECT_EQ(reg.read(), 9);
  }
  ThisProcess::Binder bind(2);
  EXPECT_THROW(reg.read(), registers::PortViolation);
}

TEST_F(EmulatedTest, NoTornOrInventedValues) {
  auto& reg = space.make_swmr<std::pair<int, int>>(1, {0, 0}, "pair");
  std::atomic<bool> stop{false};
  std::atomic<bool> bad{false};
  std::thread writer([&] {
    ThisProcess::Binder bind(1);
    for (int i = 1; i <= 30; ++i) reg.write({i, -i});
    stop = true;
  });
  std::vector<std::thread> readers;
  for (int pid = 2; pid <= 4; ++pid) {
    readers.emplace_back([&, pid] {
      ThisProcess::Binder bind(pid);
      while (!stop.load()) {
        const auto [a, b] = reg.read();
        if (a != -(-a) || b != -a) bad = true;  // torn/invented pair
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_FALSE(bad.load());
}

// Atomicity: two sequential reads by different processes never observe a
// new-old inversion.
TEST_F(EmulatedTest, NoNewOldInversion) {
  auto& reg = space.make_swmr<int>(1, 0, "r");
  std::atomic<bool> stop{false};
  std::atomic<bool> inversion{false};
  std::atomic<int> watermark{0};
  std::thread writer([&] {
    ThisProcess::Binder bind(1);
    for (int i = 1; i <= 30; ++i) reg.write(i);
    stop = true;
  });
  std::vector<std::thread> readers;
  for (int pid = 2; pid <= 4; ++pid) {
    readers.emplace_back([&, pid] {
      ThisProcess::Binder bind(pid);
      while (!stop.load()) {
        const int before = watermark.load();
        const int v = reg.read();
        if (v < before) inversion = true;
        // Raise the watermark to the value we returned: any read that
        // STARTS after this point must return >= v.
        int cur = watermark.load();
        while (cur < v && !watermark.compare_exchange_weak(cur, v)) {
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_FALSE(inversion.load());
}

TEST(EmulatedReorder, WorksUnderMessageReordering) {
  EmulatedSpace space({.n = 4, .f = 1, .reorder_seed = 99});
  auto& reg = space.make_swmr<int>(1, 0, "r");
  {
    ThisProcess::Binder bind(1);
    for (int v = 1; v <= 10; ++v) reg.write(v);
  }
  ThisProcess::Binder bind(2);
  EXPECT_EQ(reg.read(), 10);
}

// Splits the stores for good: p3 hears nothing of the write and p4's
// STATE replies are lost, so every read sees (1, v) twice and (0, initial)
// once — never n−f = 3 identical pairs — while replies keep arriving.
class SplitStores : public FaultInjector {
 public:
  FaultDecision on_deliver(const Message& m) override {
    const bool to_p3 = m.to == 3 && (m.tag == obs::MsgTag::kWrite ||
                                     m.tag == obs::MsgTag::kEcho ||
                                     m.tag == obs::MsgTag::kAccept);
    const bool state_from_p4 = m.from == 4 && m.tag == obs::MsgTag::kState;
    return {.drop = to_p3 || state_from_p4};
  }
  bool reorder(runtime::ProcessId) override { return false; }
};

// op_timeout_ms bounds a read whose replies arrive but never converge: the
// client wait loop checks the deadline on every pass, the "replies
// arrived, no pair reached n−f" re-issue included. Detaching the injector
// heals p4's replies, so the test ends either way.
TEST(EmulatedRetry, OpTimeoutBoundsANonConvergingRead) {
  EmulatedSpace::Options opt{.n = 4, .f = 1};
  opt.retry.op_timeout_ms = 300;
  EmulatedSpace space(opt);
  auto& reg = space.make_swmr<int>(1, 0, "r");
  SplitStores split;
  space.network().set_fault_injector(&split);
  {
    ThisProcess::Binder bind(1);
    reg.write(1);  // p1, p2 and p4 deliver; p3 keeps (0, 0)
  }
  std::atomic<bool> timed_out{false};
  std::atomic<bool> done{false};
  std::thread reader([&] {
    ThisProcess::Binder bind(2);
    try {
      reg.read();
    } catch (const registers::OpTimeout&) {
      timed_out = true;
    }
    done = true;
  });
  for (int spin = 0; spin < 3000 && !done; ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(done.load()) << "read ran past its deadline";
  space.network().set_fault_injector(nullptr);
  reader.join();
  EXPECT_TRUE(timed_out.load());
}

// Counts the READs p2 sends while splitting the stores as above.
class CountReadsSplitStores : public SplitStores {
 public:
  FaultDecision on_deliver(const Message& m) override {
    if (m.tag == obs::MsgTag::kRead && m.from == 2) reads.fetch_add(1);
    return SplitStores::on_deliver(m);
  }
  std::atomic<std::uint64_t> reads{0};
};

// An undelayed read is answered before its broadcast returns, so a read
// whose replies never converge must wait between its re-issues, or it
// spins for its whole deadline. The re-issue backoff doubles to a
// millisecond or more: over the 300 ms deadline that is a few hundred
// passes of n READs at most, where a spinning read sends tens of thousands.
TEST(EmulatedRetry, NonConvergingReadBacksOff) {
  EmulatedSpace::Options opt{.n = 4, .f = 1};
  opt.retry.op_timeout_ms = 300;
  EmulatedSpace space(opt);
  auto& reg = space.make_swmr<int>(1, 0, "r");
  CountReadsSplitStores split;
  space.network().set_fault_injector(&split);
  {
    ThisProcess::Binder bind(1);
    reg.write(1);  // p1, p2 and p4 deliver; p3 keeps (0, 0)
  }
  bool timed_out = false;
  const auto t0 = std::chrono::steady_clock::now();
  {
    ThisProcess::Binder bind(2);
    try {
      reg.read();
    } catch (const registers::OpTimeout&) {
      timed_out = true;
    }
  }
  const auto took = std::chrono::steady_clock::now() - t0;
  space.network().set_fault_injector(nullptr);
  EXPECT_TRUE(timed_out);
  EXPECT_GE(took, std::chrono::milliseconds(300));
  EXPECT_LE(split.reads.load(), 4u * 400) << "READs sent in "
      << std::chrono::duration<double, std::milli>(took).count() << " ms";
}

// ------------------------------------------------------------ inline READs

// A READ is handled on the delivering thread, behind the space's crash
// check: one to a crashed process is received and answered by nobody.
// quiesce() counts exactly the READ, and no STATE was even attempted (a
// crashed process's sends are squelched and counted).
TEST(InlineRead, ReadToACrashedProcessGetsNoState) {
  EmulatedSpace space({.n = 4, .f = 1});
  auto& reg = space.make_swmr<int>(1, 0, "r");
  space.crash(4);
  Network& net = space.network();
  const std::uint64_t base = space.quiesce();
  const std::uint64_t squelched = net.messages_squelched();
  {
    ThisProcess::Binder bind(1);
    Message m;
    m.to = 4;
    m.tag = obs::MsgTag::kRead;
    m.sn = 77;
    m.payload = Payload::of(ReadRequest{reg.reg_id()});
    net.send(m);
  }
  EXPECT_EQ(space.quiesce() - base, 1u);
  EXPECT_EQ(net.messages_squelched(), squelched) << "p4 answered the READ";
}

// Tallies the sender of every STATE, and holds READs back for `delay`
// (0: none), so they are answered on the delay pump.
class TallyStates : public FaultInjector {
 public:
  explicit TallyStates(std::chrono::milliseconds delay) : delay_(delay) {}
  FaultDecision on_deliver(const Message& m) override {
    if (m.tag == obs::MsgTag::kRead) return {.delay = delay_};
    if (m.tag == obs::MsgTag::kState) {
      std::scoped_lock lock(mu_);
      from_.push_back(m.from);
    }
    return {};
  }
  bool reorder(runtime::ProcessId) override { return false; }
  std::vector<int> from() {
    std::scoped_lock lock(mu_);
    return from_;
  }

 private:
  std::chrono::milliseconds delay_;
  std::mutex mu_;
  std::vector<int> from_;
};

// The thread that answers a READ — the reader's own, or the delay pump —
// is bound as the addressee meanwhile, so each STATE is stamped with the
// pid of the server that produced it: one read gets four STATEs from four
// distinct processes. Stamped with the reader's pid instead, they would be
// duplicate senders, and the read would never converge (the deadline makes
// that a timeout rather than a hang).
TEST(InlineRead, EveryStateIsStampedWithItsServer) {
  for (const auto delay :
       {std::chrono::milliseconds(0), std::chrono::milliseconds(5)}) {
    EmulatedSpace space(
        {.n = 4, .f = 1, .retry = {.op_timeout_ms = 300}});
    auto& reg = space.make_swmr<int>(1, 6, "r");
    TallyStates tally(delay);
    space.network().set_fault_injector(&tally);
    {
      ThisProcess::Binder bind(2);
      EXPECT_EQ(reg.read(), 6) << "delay " << delay.count() << " ms";
    }
    space.quiesce();
    space.network().set_fault_injector(nullptr);
    std::vector<int> from = tally.from();
    std::sort(from.begin(), from.end());
    EXPECT_EQ(from, (std::vector<int>{1, 2, 3, 4}))
        << "delay " << delay.count() << " ms";
  }
}

// Drops every ACK: writes never settle (retries re-ACK into the void).
// Drops every READ: a read's only replies are the ones a test forges.
class DropReads : public FaultInjector {
 public:
  FaultDecision on_deliver(const Message& m) override {
    return {.drop = m.tag == obs::MsgTag::kRead};
  }
  bool reorder(runtime::ProcessId) override { return false; }
};

// p4 reads while p1..p3 keep sending it identical STATEs for its rid 1;
// true iff the read returned their value before its 300 ms deadline.
bool forged_states_complete_read(bool crash_reader) {
  EmulatedSpace space(
      {.n = 4, .f = 1, .retry = {.enabled = false, .op_timeout_ms = 300}});
  auto& reg = space.make_swmr<int>(1, 0, "r");
  DropReads drop;
  space.network().set_fault_injector(&drop);
  if (crash_reader) space.crash(4);
  std::atomic<bool> done{false};
  bool completed = false;
  std::jthread reader([&] {
    ThisProcess::Binder bind(4);
    try {
      completed = reg.read() == 7;
    } catch (const registers::OpTimeout&) {
    }
    done = true;
  });
  while (!done) {
    for (int pid = 1; pid <= 3; ++pid) {
      ThisProcess::Binder bind(pid);
      Message m;
      m.to = 4;
      m.tag = obs::MsgTag::kState;
      m.sn = 1;
      m.payload = Payload::of(StateReply{{5, Payload::of(7)}});
      space.network().send(m);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  reader.join();
  space.network().set_fault_injector(nullptr);
  return completed;
}

// Replies are applied to the addressee's client on the sending thread,
// behind the space's crash check: the forged STATEs complete p4's read,
// but while p4 is crashed they are dropped and the read times out.
TEST(EmulatedCrash, RepliesToACrashedProcessAreDropped) {
  EXPECT_TRUE(forged_states_complete_read(/*crash_reader=*/false));
  EXPECT_FALSE(forged_states_complete_read(/*crash_reader=*/true));
}

class DropAcks : public FaultInjector {
 public:
  FaultDecision on_deliver(const Message& m) override {
    return {.drop = m.tag == obs::MsgTag::kAck};
  }
  bool reorder(runtime::ProcessId) override { return false; }
};

// A write that times out in the pipeline's capacity gate never got an sn:
// the timeout names the gate, not a "write sn 0".
TEST(EmulatedRetry, CapacityGateTimeoutNamesTheGate) {
  EmulatedSpace::Options opt{.n = 4, .f = 1};
  opt.retry.op_timeout_ms = 200;
  EmulatedSpace space(opt);
  auto& reg = space.make_swmr<int>(1, 0, "r");
  DropAcks drop;
  space.network().set_fault_injector(&drop);
  ThisProcess::Binder bind(1);
  reg.write_async(1);  // depth 1: fills the pipeline for good
  std::string what;
  try {
    reg.write_async(2);
  } catch (const registers::OpTimeout& e) {
    what = e.what();
  }
  EXPECT_NE(what.find("capacity gate"), std::string::npos) << what;
  EXPECT_EQ(what.find("sn 0"), std::string::npos) << what;
  space.network().set_fault_injector(nullptr);
}

// ---------------------------------------------- pipelined writes (note 15)

// A burst of async writes deeper than the pipeline: every sn settles (its
// await returns normally), sns are allocated in issue order, and the final
// value is the last write — on the owner's local view and through a quorum
// read alike.
TEST(EmulatedPipeline, AsyncBurstSettlesEverySnExactlyOnce) {
  EmulatedSpace space({.n = 4, .f = 1, .pipeline_depth = 4});
  auto& reg = space.make_swmr<int>(1, 0, "r");
  std::vector<std::uint64_t> sns;
  {
    ThisProcess::Binder bind(1);
    for (int v = 1; v <= 8; ++v)  // 8 writes through a depth-4 window
      sns.push_back(reg.write_async(v));
    for (const std::uint64_t sn : sns) EXPECT_NO_THROW(reg.await(sn));
    EXPECT_EQ(reg.read(), 8);  // owner view already reflects the burst
  }
  // sns are allocated strictly increasing — no reuse across the window.
  for (std::size_t i = 1; i < sns.size(); ++i) EXPECT_GT(sns[i], sns[i - 1]);
  ThisProcess::Binder bind(2);
  EXPECT_EQ(reg.read(), 8);
}

// Depth 1 (the default) must behave like the blocking protocol: a second
// write_async blocks in the capacity gate until the first is settled, so
// issuing + awaiting one at a time is just write(). EmulatedCost pins the
// blocking write's message count; here we pin the client-visible
// semantics.
TEST(EmulatedPipeline, DepthOneIsTheBlockingProtocol) {
  EmulatedSpace space({.n = 4, .f = 1});  // pipeline_depth defaults to 1
  auto& reg = space.make_swmr<int>(1, 0, "r");
  {
    ThisProcess::Binder bind(1);
    for (int v = 1; v <= 5; ++v) reg.await(reg.write_async(v));
  }
  ThisProcess::Binder bind(3);
  EXPECT_EQ(reg.read(), 5);
}

// Overlapping reads by threads of one process, racing a writer: each
// thread runs its own quorum through the process's one client, and the
// recorded history must be linearizable.
TEST(EmulatedPipeline, CoalescedReadBurstsLinearize) {
  EmulatedSpace space({.n = 4, .f = 1});
  auto& reg = space.make_swmr<int>(1, 0, "r");
  lincheck::HistoryRecorder rec;

  std::thread writer([&] {
    ThisProcess::Binder bind(1);
    for (int v = 1; v <= 24; ++v) {
      rec.record("r", "write", std::to_string(v),
                 [&] { reg.write(v); return true; },
                 [](bool) { return std::string("done"); });
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      // All four threads bind as process 2: one client, four open reads.
      ThisProcess::Binder bind(2);
      for (int i = 0; i < 32; ++i) {
        rec.record("r", "read", "", [&] { return reg.read(); },
                   [](int x) { return std::to_string(x); });
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();

  const auto ops = rec.operations();
  ASSERT_EQ(ops.size(), 24u + 4u * 32u);
  const lincheck::SpecFactory factory = [](const std::string&) {
    return std::make_unique<lincheck::PlainRegisterSpec>("0");
  };
  const auto result = lincheck::check_linearizable(ops, factory);
  EXPECT_EQ(result.verdict, lincheck::Verdict::kLinearizable)
      << result.detail << " (states=" << result.states_explored << ")";
}

// --------------------------------------------------- witness broadcast

TEST(WitnessBroadcastTest, DeliverToAll) {
  WitnessBroadcast wb({.n = 4, .f = 1});
  {
    ThisProcess::Binder bind(1);
    wb.broadcast(1, 77);
  }
  for (int pid = 1; pid <= 4; ++pid) {
    ThisProcess::Binder bind(pid);
    EXPECT_EQ(wb.await_delivery(1, 1), 77u) << "p" << pid;
  }
}

TEST(WitnessBroadcastTest, MultipleSendersAndSeqs) {
  WitnessBroadcast wb({.n = 4, .f = 1});
  {
    ThisProcess::Binder bind(1);
    wb.broadcast(1, 10);
    wb.broadcast(2, 20);
  }
  {
    ThisProcess::Binder bind(3);
    wb.broadcast(1, 30);
  }
  ThisProcess::Binder bind(2);
  EXPECT_EQ(wb.await_delivery(1, 1), 10u);
  EXPECT_EQ(wb.await_delivery(1, 2), 20u);
  EXPECT_EQ(wb.await_delivery(3, 1), 30u);
}

// Non-equivocation: a Byzantine sender INITs two values for the same seq;
// correct processes never deliver different values.
TEST(WitnessBroadcastTest, EquivocationYieldsAgreement) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    WitnessBroadcast wb({.n = 4, .f = 1}, seed);
    {
      // Byzantine p1 sends INIT(5) to half the processes and INIT(6) to
      // the rest — raw network access, its own identity.
      ThisProcess::Binder bind(1);
      for (int to = 1; to <= 4; ++to) {
        Message m;
        m.to = to;
        m.tag = obs::MsgTag::kInit;
        m.sn = 1;
        m.payload = Payload::of(std::uint64_t{to <= 2 ? 5u : 6u});
        wb.network().send(m);
      }
    }
    // Give the protocol a moment; then check agreement among whoever
    // delivered (delivery is not guaranteed under equivocation).
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    std::set<std::uint64_t> outcomes;
    for (int pid = 2; pid <= 4; ++pid) {
      const auto v = wb.delivered(pid, 1, 1);
      if (v) outcomes.insert(*v);
    }
    EXPECT_LE(outcomes.size(), 1u) << "seed " << seed;
  }
}

// --------------------------- full stack: paper registers over messages

// The closing corollary: a verifiable register built on message-passing-
// emulated SWMR registers, no signatures anywhere.
TEST(FullStack, VerifiableRegisterOverMessagePassing) {
  EmulatedSpace space({.n = 4, .f = 1});
  using Reg = core::VerifiableRegister<int, EmulatedSpace>;
  Reg::Config cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.v0 = 0;
  Reg reg(space, cfg);

  std::atomic<bool> stop{false};
  std::vector<std::jthread> helpers;
  for (int pid = 1; pid <= 4; ++pid) {
    helpers.emplace_back([&, pid](std::stop_token st) {
      ThisProcess::Binder bind(pid);
      while (!st.stop_requested() && !stop.load()) {
        if (!reg.help_round()) std::this_thread::yield();
      }
    });
  }

  {
    ThisProcess::Binder bind(1);
    reg.write(5);
    ASSERT_EQ(reg.sign(5), core::SignResult::kSuccess);
  }
  {
    ThisProcess::Binder bind(2);
    EXPECT_EQ(reg.read(), 5);
    EXPECT_TRUE(reg.verify(5));
    EXPECT_FALSE(reg.verify(9));
  }
  {
    ThisProcess::Binder bind(3);
    EXPECT_TRUE(reg.verify(5));  // relay across readers, over messages
  }
  stop = true;
  for (auto& t : helpers) t.request_stop();
}

// Sticky register over message passing: non-equivocation end to end.
TEST(FullStack, StickyRegisterOverMessagePassing) {
  EmulatedSpace space({.n = 4, .f = 1});
  using Reg = core::StickyRegister<int, EmulatedSpace>;
  Reg::Config cfg;
  cfg.n = 4;
  cfg.f = 1;
  Reg reg(space, cfg);

  std::atomic<bool> stop{false};
  std::vector<std::jthread> helpers;
  for (int pid = 1; pid <= 4; ++pid) {
    helpers.emplace_back([&, pid](std::stop_token st) {
      ThisProcess::Binder bind(pid);
      while (!st.stop_requested() && !stop.load()) {
        if (!reg.help_round()) std::this_thread::yield();
      }
    });
  }

  {
    ThisProcess::Binder bind(1);
    reg.write(11);
  }
  for (int pid = 2; pid <= 4; ++pid) {
    ThisProcess::Binder bind(pid);
    EXPECT_EQ(reg.read(), std::optional<int>(11)) << "p" << pid;
  }
  stop = true;
  for (auto& t : helpers) t.request_stop();
}

// Delivery gate liveness. p3 asks (C_3 <- 1) while ACCEPTs for C_3 to
// every process but p2 are held: p2's replica delivers C_3 = 1 at once,
// but p2's quorum read of C_3 still returns the older (0, 0) that p1, p3
// and p4 vouch for. The gate compares p2's replica with what p2's last
// read returned, so p2 keeps re-reading until the read catches up and
// then serves the ask. A gate keyed on "the replica changed since my last
// round" would wait forever for a delivery that never comes.
class HoldRoundAccepts : public FaultInjector {
 public:
  explicit HoldRoundAccepts(int reg) : reg_(reg) {}
  FaultDecision on_deliver(const Message& m) override {
    if (m.reg == reg_ && m.tag == obs::MsgTag::kAccept && m.to != 2)
      return {.delay = std::chrono::milliseconds(500)};
    return {};
  }
  bool reorder(runtime::ProcessId) override { return false; }

 private:
  int reg_;
};

TEST(DeliveryGate, HelperWhoseReadLagsItsReplicaStillServes) {
  EmulatedSpace space({.n = 4, .f = 1});
  using Reg = core::VerifiableRegister<int, EmulatedSpace>;
  Reg alg(space, {.n = 4, .f = 1, .v0 = 0});
  auto& c3 = *(*alg.raw().round)[3];
  HoldRoundAccepts hold(c3.reg_id());
  space.network().set_fault_injector(&hold);
  std::jthread asker([&] {
    ThisProcess::Binder bind(3);
    c3.update([](core::RoundCounter& c) { ++c; });  // L13: C_3 <- 1
  });
  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (c3.stored_state(2).first == 0 &&
         std::chrono::steady_clock::now() < until)
    std::this_thread::yield();
  ASSERT_EQ(c3.stored_state(2).first, 1u) << "p2 never delivered C_3";
  ThisProcess::Binder bind(2);
  // The replica is ahead, so the round runs; its read returns C_3 = 0.
  EXPECT_FALSE(alg.help_round());
  bool served = false;
  while (!served && std::chrono::steady_clock::now() < until)
    served = alg.help_round();
  EXPECT_TRUE(served) << "p2 never answered p3's ask";
  asker.join();
  {
    ThisProcess::Binder reader(3);
    EXPECT_EQ((*alg.raw().channel)[2][3]->read().second, 1u);  // ⟨r_2, 1⟩
  }
  space.network().set_fault_injector(nullptr);
}

// Delivers the ACCEPTs of the registers in `regs` at once to `except`
// and `delay` late to every other process (every process for except = 0).
// Counts the READs each process sends.
class DelayAccepts : public FaultInjector {
 public:
  DelayAccepts(std::set<int> regs, int except, std::chrono::milliseconds delay)
      : regs_(std::move(regs)), except_(except), delay_(delay) {}
  FaultDecision on_deliver(const Message& m) override {
    if (m.tag == obs::MsgTag::kRead) reads_[m.from].fetch_add(1);
    if (m.tag == obs::MsgTag::kAccept && regs_.contains(m.reg) &&
        m.to != except_)
      return {.delay = delay_};
    return {};
  }
  bool reorder(runtime::ProcessId) override { return false; }
  std::uint64_t reads_from(int pid) const { return reads_[pid].load(); }

 private:
  std::set<int> regs_;
  int except_;
  std::chrono::milliseconds delay_;
  std::array<std::atomic<std::uint64_t>, 8> reads_{};
};

// The reader side of the gate. p4's helper is not running, so p2's
// Verify(5) needs the answers of p1, p2 and p3 (n − f = 3). ACCEPTs of
// p3's answer on R_3,2 are held 300 ms to every process but p2: p2's
// replica delivers the answer at once, but p2's quorum reads of R_3,2
// return the old tuple until the hold lapses. The channel cache re-reads
// a channel while p2's replica is ahead of p2's last read of it, so the
// Verify completes once the others deliver. A cache keyed on "the replica
// changed since the last pass" would never read R_3,2 again: p4's helper
// starts after 5 s to let such a Verify end, and the test fails.
TEST(DeliveryGate, ReaderWhoseReadLagsItsReplicaStillCompletes) {
  EmulatedSpace space({.n = 4, .f = 1});
  using Reg = core::VerifiableRegister<int, EmulatedSpace>;
  Reg alg(space, {.n = 4, .f = 1, .v0 = 0});
  DelayAccepts hold({(*alg.raw().channel)[3][2]->reg_id()}, 2,
                    std::chrono::milliseconds(300));
  space.network().set_fault_injector(&hold);
  {
    ThisProcess::Binder bind(1);
    alg.write(5);
    ASSERT_EQ(alg.sign(5), core::SignResult::kSuccess);
  }
  std::vector<std::jthread> helpers;
  for (int pid = 1; pid <= 3; ++pid)
    helpers.emplace_back([&alg, pid](std::stop_token st) {
      ThisProcess::Binder bind(pid);
      while (!st.stop_requested()) alg.help_round();
    });
  std::atomic<bool> done{false}, rescued{false};
  helpers.emplace_back([&](std::stop_token st) {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!done && std::chrono::steady_clock::now() < until)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (done) return;
    rescued = true;
    ThisProcess::Binder bind(4);
    while (!st.stop_requested()) alg.help_round();
  });
  bool verified = false;
  {
    ThisProcess::Binder bind(2);
    verified = alg.verify(5);
  }
  EXPECT_FALSE(rescued.load()) << "p2's Verify needed p4's answer";
  done = true;
  EXPECT_TRUE(verified);
  helpers.clear();
  space.network().set_fault_injector(nullptr);
}

// Algorithm 3's Write waits for n − f witnesses on the gate. ACCEPTs of
// the witness slots are delayed 200 ms to every process, so the quorum
// forms about 200 ms after the Write starts. A Write that polls sends n
// READs per pass all that time; one on the gate re-reads when a witness
// slot reaches p1's replica, or when kGateBound lapses. p1's helper is not
// running (p2..p4 are the n − f witnesses), so every READ p1 sends is the
// Write's.
TEST(DeliveryGate, StickyWriteWaitsOnTheGate) {
  constexpr int kN = 4;
  constexpr auto kDelay = std::chrono::milliseconds(200);
  EmulatedSpace space({.n = kN, .f = 1});
  using Reg = core::StickyRegister<int, EmulatedSpace>;
  Reg reg(space, {.n = kN, .f = 1});
  std::set<int> slots;
  for (int i = 1; i <= kN; ++i) slots.insert((*reg.raw().witness)[i]->reg_id());
  DelayAccepts delay(slots, 0, kDelay);
  space.network().set_fault_injector(&delay);
  std::vector<std::jthread> helpers;
  for (int pid = 2; pid <= kN; ++pid)
    helpers.emplace_back([&reg, pid](std::stop_token st) {
      ThisProcess::Binder bind(pid);
      while (!st.stop_requested()) reg.help_round();
    });
  const auto t0 = std::chrono::steady_clock::now();
  {
    ThisProcess::Binder bind(1);
    reg.write(11);
  }
  const auto took = std::chrono::steady_clock::now() - t0;
  const std::uint64_t reads = delay.reads_from(1);
  helpers.clear();
  space.network().set_fault_injector(nullptr);
  EXPECT_GE(took, kDelay);
  // A pass is one collect, n READs (more when stores still converge). It
  // runs after L1's read, once per witness slot that reaches p1's replica
  // (a few more while that slot's quorum catches up) and once per
  // kGateBound that lapses.
  const auto lapses = static_cast<std::uint64_t>(
      took / EmulatedSpace::kGateBound + 1);
  const std::uint64_t witness_writes = kN - 1;
  EXPECT_LE(reads, kN * (2 + 8 * witness_writes + lapses))
      << "Write READs in " << std::chrono::duration<double, std::milli>(took).count()
      << " ms";
}

// One process, one client: p1 has three threads blocked at once — a
// write's ACK wait on `a`, a read of `b` and a delivery-gate wait on `c` —
// all on its client's one lock and condition variable. ACKs and STATEs to
// p1 are dropped until the gate has returned, so the write and the read
// are still blocked when it does; then all three complete.
class CutRepliesToP1 : public FaultInjector {
 public:
  std::atomic<bool> cut{true};
  FaultDecision on_deliver(const Message& m) override {
    return {.drop = cut && m.to == 1 &&
                    (m.tag == obs::MsgTag::kAck ||
                     m.tag == obs::MsgTag::kState)};
  }
  bool reorder(runtime::ProcessId) override { return false; }
};

TEST(EmulatedClient, AckReadAndGateWaitsOfOneProcessAllComplete) {
  EmulatedSpace space({.n = 4, .f = 1});
  auto& a = space.make_swmr<int>(1, 0, "a");
  auto& b = space.make_swmr<int>(2, 0, "b");
  auto& c = space.make_swmr<int>(3, 0, "c");
  {
    ThisProcess::Binder bind(2);
    b.write(5);
  }
  CutRepliesToP1 cut;
  space.network().set_fault_injector(&cut);
  std::atomic<bool> wrote{false}, read{false}, gated{false};
  int got = -1;
  std::jthread writer([&] {
    ThisProcess::Binder bind(1);
    a.write(1);
    wrote = true;
  });
  std::jthread reader([&] {
    ThisProcess::Binder bind(1);
    got = b.read();
    read = true;
  });
  std::jthread gate([&] {
    ThisProcess::Binder bind(1);
    EmulatedSpace::Seen seen;
    const EmulatedSpace::Watched watched = &c;
    while (!space.await_change(seen, std::span(&watched, 1),
                               EmulatedSpace::kGateBound)) {
    }
    gated = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    ThisProcess::Binder bind(3);
    c.write(9);  // p1's replica of c delivers sn 1: the gate opens
  }
  gate.join();
  EXPECT_TRUE(gated.load());
  EXPECT_FALSE(wrote.load()) << "the write finished without its ACKs";
  EXPECT_FALSE(read.load()) << "the read finished without its STATEs";
  cut.cut = false;  // retries now land
  writer.join();
  reader.join();
  EXPECT_TRUE(wrote.load());
  EXPECT_EQ(got, 5);
  space.network().set_fault_injector(nullptr);
}

// Full-stack history check: two owners write their emulated registers while
// reading each other's; the COMPLETE recorded multi-register history is
// verified linearizable by the partitioned checker (no truncation).
TEST(EmulatedFullStack, RecordedMultiRegisterHistoryLinearizable) {
  EmulatedSpace space{{.n = 4, .f = 1}};
  auto& r0 = space.make_swmr<int>(1, 0, "r0");
  auto& r1 = space.make_swmr<int>(2, 0, "r1");

  lincheck::HistoryRecorder rec;
  runtime::Harness h;
  const auto driver = [&](int pid, auto& own_reg, const std::string& own,
                          auto& other_reg, const std::string& other) {
    return [&, pid, own, other](std::stop_token) {
      for (int v = 1; v <= 16; ++v) {
        const int value = 100 * pid + v;
        rec.record(own, "write", std::to_string(value),
                   [&] { own_reg.write(value); return true; },
                   [](bool) { return std::string("done"); });
        rec.record(other, "read", "", [&] { return other_reg.read(); },
                   [](int x) { return std::to_string(x); });
      }
    };
  };
  h.spawn(1, "op", driver(1, r0, "r0", r1, "r1"));
  h.spawn(2, "op", driver(2, r1, "r1", r0, "r0"));
  for (int pid : {3, 4}) {
    h.spawn(pid, "op", [&](std::stop_token) {
      for (int i = 0; i < 8; ++i) {
        rec.record("r0", "read", "", [&] { return r0.read(); },
                   [](int x) { return std::to_string(x); });
        rec.record("r1", "read", "", [&] { return r1.read(); },
                   [](int x) { return std::to_string(x); });
      }
    });
  }
  h.start();
  h.join();

  const auto ops = rec.operations();
  ASSERT_GE(ops.size(), 96u);
  const lincheck::SpecFactory factory = [](const std::string&) {
    return std::make_unique<lincheck::PlainRegisterSpec>("0");
  };
  const auto result = lincheck::check_linearizable(ops, factory);
  EXPECT_EQ(result.verdict, lincheck::Verdict::kLinearizable)
      << result.detail << " (states=" << result.states_explored << ")";
  EXPECT_TRUE(lincheck::replay_witness(ops, result.witness, factory));
}

}  // namespace
}  // namespace swsig::msgpass
