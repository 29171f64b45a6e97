// Crash/rejoin regression tests for the emulated register substrate: a
// process killed mid-protocol loses its volatile replica state; on restart
// the recovery subsystem resyncs it from f+1 live peers before it serves
// again. The NoRecovery test demonstrates exactly the stale state a
// rejoined server would otherwise hold — disable recovery and the resync
// assertions here fail.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "lincheck/checker.hpp"
#include "lincheck/history.hpp"
#include "lincheck/register_specs.hpp"
#include "msgpass/emulated_swmr.hpp"
#include "runtime/process.hpp"

namespace swsig::msgpass {
namespace {

using runtime::ThisProcess;

// Kill p4 while the owner's write ladder is in full flight, keep writing
// while it is down, restart it, and assert the recovery resync brought its
// replica to the latest certified (sn, value) — then that reads and writes
// AFTER the rejoin linearize, with the rejoined process both serving and
// issuing operations.
TEST(CrashRejoin, MidLadderCrashResyncsOnRestart) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    EmulatedSpace space({.n = 4, .f = 1});
    auto& reg = space.make_swmr<std::string>(1, "v0", "r");

    // Writer streams writes; the crash lands mid-ladder for one of them
    // (the write itself completes: its quorums need only {1,2,3}).
    std::atomic<int> written{0};
    std::thread writer([&] {
      ThisProcess::Binder bind(1);
      for (int i = 1; i <= 40; ++i) {
        reg.write("v" + std::to_string(i));
        written.store(i, std::memory_order_release);
      }
    });
    while (written.load(std::memory_order_acquire) < 5) std::this_thread::yield();
    space.crash(4);
    writer.join();
    // A write returns on n−f ACKs. If the crash landed late, p4's ACK may
    // have stood in for the owner's own, whose server then still has the
    // last ladders queued: let the trailing traffic drain first.
    space.quiesce();

    // While down, the crashed replica holds its wiped post-crash state.
    EXPECT_EQ(reg.stored_state(4).first, 0u) << "seed " << seed;
    const auto owner_state = reg.stored_state(1);
    EXPECT_EQ(owner_state.second, "v40") << "seed " << seed;

    // Restart runs the f+1 resync before returning.
    space.restart(4);
    EXPECT_EQ(reg.stored_state(4).first, owner_state.first) << "seed " << seed;
    EXPECT_EQ(reg.stored_state(4).second, "v40") << "seed " << seed;

    // Post-rejoin history: owner writes race reads from p3 AND from the
    // rejoined p4; the full history must linearize.
    lincheck::HistoryRecorder rec;
    const auto render = [](const std::string& v) { return v; };
    std::thread w2([&] {
      ThisProcess::Binder bind(1);
      for (int i = 41; i <= 60; ++i) {
        const std::string v = "v" + std::to_string(i);
        rec.record("r", "write", v,
                   [&] { reg.write(v); return std::string("done"); }, render);
      }
    });
    std::thread r3([&] {
      ThisProcess::Binder bind(3);
      for (int i = 0; i < 20; ++i)
        rec.record("r", "read", "", [&] { return reg.read(); }, render);
    });
    std::thread r4([&] {
      ThisProcess::Binder bind(4);
      for (int i = 0; i < 20; ++i)
        rec.record("r", "read", "", [&] { return reg.read(); }, render);
    });
    w2.join();
    r3.join();
    r4.join();

    const auto ops = rec.operations();
    const lincheck::SpecFactory factory =
        [](const std::string&) -> std::unique_ptr<lincheck::SequentialSpec> {
      return std::make_unique<lincheck::PlainRegisterSpec>("v40");
    };
    const auto result = lincheck::check_linearizable(ops, factory);
    EXPECT_EQ(result.verdict, lincheck::Verdict::kLinearizable)
        << "REPRO: crash_rejoin seed=" << seed << " n=4 f=1 substrate=emulated"
        << ": " << result.detail;
    EXPECT_TRUE(lincheck::replay_witness(ops, result.witness, factory))
        << "seed " << seed;
    space.stop();
  }
}

// The other half of the regression: with recovery disabled the rejoined
// server keeps its wiped (0, initial) replica — the exact staleness the
// resync exists to fix. If recovery were silently disabled in the product
// path, MidLadderCrashResyncsOnRestart above fails; this test pins down
// WHAT it would fail with.
TEST(CrashRejoin, WithoutRecoveryRejoinsStale) {
  EmulatedSpace space({.n = 4, .f = 1, .recover_on_restart = false});
  auto& reg = space.make_swmr<std::string>(1, "v0", "r");
  {
    ThisProcess::Binder bind(1);
    for (int i = 1; i <= 5; ++i) reg.write("v" + std::to_string(i));
  }
  // The write returns on its ACK quorum; p4's ladder may still be in
  // flight, so wait for its replica to catch up before killing it.
  while (reg.stored_state(4).first < 5) std::this_thread::yield();
  space.crash(4);
  space.restart(4);
  // No resync: the replica restarts with the wiped initial state.
  EXPECT_EQ(reg.stored_state(4).first, 0u);
  EXPECT_EQ(reg.stored_state(4).second, "v0");
  // Quorum reads still mask the stale replica (n-f identical replies come
  // from the live majority) — which is why the soak's consistency checker
  // alone cannot catch a broken recovery path, and this test exists.
  {
    ThisProcess::Binder bind(2);
    EXPECT_EQ(reg.read(), "v5");
  }
  // An explicit resync heals it even with recover_on_restart off.
  space.resync(4);
  EXPECT_EQ(reg.stored_state(4).second, "v5");
  space.stop();
}

// Crashing one process must not disturb concurrent operations of the
// others: at most f down keeps every live quorum intact.
TEST(CrashRejoin, LiveQuorumsUnaffectedWhileOneDown) {
  EmulatedSpace space({.n = 4, .f = 1});
  auto& r2 = space.make_swmr<int>(2, 0, "r2");
  auto& r3 = space.make_swmr<int>(3, 0, "r3");
  space.crash(4);
  std::thread t2([&] {
    ThisProcess::Binder bind(2);
    for (int i = 1; i <= 30; ++i) {
      r2.write(i);
      EXPECT_EQ(r2.read(), i);
    }
  });
  std::thread t3([&] {
    ThisProcess::Binder bind(3);
    for (int i = 1; i <= 30; ++i) r3.write(i);
  });
  t2.join();
  t3.join();
  space.restart(4);
  EXPECT_EQ(r2.stored_state(4).second, 30);
  EXPECT_EQ(r3.stored_state(4).second, 30);
  space.stop();
}

// Rejoin against a NON-quiescent quorum: p4 restarts and resyncs while
// write ladders for two other registers are in full flight. The rejoined
// server must serve reads immediately and its replica must converge to the
// final certified state through organic ladder traffic alone.
TEST(CrashRejoin, RejoinUnderLoad) {
  EmulatedSpace space({.n = 4, .f = 1});
  auto& r1 = space.make_swmr<std::string>(1, "a0", "r1");
  auto& r2 = space.make_swmr<std::string>(2, "b0", "r2");
  std::atomic<bool> stop{false};
  std::atomic<int> w1{0}, w2{0};
  std::thread t1([&] {
    ThisProcess::Binder bind(1);
    for (int i = 1; !stop.load(std::memory_order_acquire); ++i) {
      r1.write("a" + std::to_string(i));
      w1.store(i, std::memory_order_release);
    }
  });
  std::thread t2([&] {
    ThisProcess::Binder bind(2);
    for (int i = 1; !stop.load(std::memory_order_acquire); ++i) {
      r2.write("b" + std::to_string(i));
      w2.store(i, std::memory_order_release);
    }
  });
  while (w1.load(std::memory_order_acquire) < 5 ||
         w2.load(std::memory_order_acquire) < 5)
    std::this_thread::yield();
  space.crash(4);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  space.restart(4);  // the resync races the live ladders of r1 and r2
  const int at1 = w1.load(std::memory_order_acquire);
  const int at2 = w2.load(std::memory_order_acquire);
  {
    // The rejoined process serves and issues operations right away.
    ThisProcess::Binder bind(4);
    EXPECT_EQ(r1.read()[0], 'a');
    EXPECT_EQ(r2.read()[0], 'b');
  }
  // The write in flight at the restart may have sent p4 its WRITE, ECHOs
  // and most ACCEPTs while p4 was down: those are lost, and no later
  // message repeats them. So the last write must start after the restart:
  // each writer completes two more writes before it stops. A read takes
  // microseconds, so without this wait the writers may not get that far.
  while (w1.load(std::memory_order_acquire) < at1 + 2 ||
         w2.load(std::memory_order_acquire) < at2 + 2)
    std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  t1.join();
  t2.join();
  const std::string fin1 = "a" + std::to_string(w1.load());
  const std::string fin2 = "b" + std::to_string(w2.load());
  {
    ThisProcess::Binder bind(3);
    EXPECT_EQ(r1.read(), fin1);
    EXPECT_EQ(r2.read(), fin2);
  }
  // Organic amplification (deliver on n-f accepts, amplify on f+1) must
  // catch the rejoined replica up without any further resync.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((r1.stored_state(4).second != fin1 ||
          r2.stored_state(4).second != fin2) &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  EXPECT_EQ(r1.stored_state(4).second, fin1);
  EXPECT_EQ(r2.stored_state(4).second, fin2);
  space.stop();
}

// Regression for an owner-read fast path that was removed: serving an
// owner-local view (pending OR ack-committed) races remote quorum reads —
// a remote reader can assemble n-f identical STATE replies and respond
// before the owner's own ACK wait finishes, so a later owner-local read
// returning the owner's view inverts the order (new-old inversion). The
// owner must take the quorum path like everyone else; this pins it.
TEST(CrashRejoin, OwnerReadsTakeTheQuorumPath) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    EmulatedSpace space({.n = 4, .f = 1});
    auto& reg = space.make_swmr<std::string>(1, "0", "r");
    lincheck::HistoryRecorder rec;
    const auto render = [](const std::string& v) { return v; };

    std::thread writer([&] {
      ThisProcess::Binder bind(1);
      for (int i = 1; i <= 150; ++i) {
        const std::string v = std::to_string(i);
        rec.record("r", "write", v,
                   [&] { reg.write(v); return std::string("done"); }, render);
      }
    });
    std::thread owner_reader([&] {
      ThisProcess::Binder bind(1);
      for (int i = 0; i < 100; ++i)
        rec.record("r", "read", "", [&] { return reg.read(); }, render);
    });
    std::thread remote_reader([&] {
      ThisProcess::Binder bind(2);
      for (int i = 0; i < 100; ++i)
        rec.record("r", "read", "", [&] { return reg.read(); }, render);
    });
    writer.join();
    owner_reader.join();
    remote_reader.join();

    const auto ops = rec.operations();
    const lincheck::SpecFactory factory =
        [](const std::string&) -> std::unique_ptr<lincheck::SequentialSpec> {
      return std::make_unique<lincheck::PlainRegisterSpec>("0");
    };
    lincheck::CheckOptions opts;
    opts.max_states = 1u << 24;
    const auto result = lincheck::check_linearizable(ops, factory, opts);
    EXPECT_NE(result.verdict, lincheck::Verdict::kViolation)
        << "REPRO: owner_read_race seed=" << seed
        << " n=4 f=1 substrate=emulated: " << result.detail;
    space.stop();
  }
}

}  // namespace
}  // namespace swsig::msgpass
