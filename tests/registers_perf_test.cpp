// Fast-path substrate tests: storage-engine selection (seqlock vs mutex),
// atomicity of the seqlock-backed Swmr under concurrent readers, sharded
// Metrics aggregation, per-register version() monotonicity, the
// devirtualized free-mode step gate, and the write-epoch parking protocol.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "registers/metrics.hpp"
#include "registers/space.hpp"
#include "registers/storage.hpp"
#include "runtime/harness.hpp"
#include "runtime/process.hpp"
#include "runtime/step_controller.hpp"
#include "util/sharded_counter.hpp"

namespace swsig::registers {
namespace {

using runtime::FreeStepController;
using runtime::ThisProcess;

// ------------------------------------------------ storage-engine selection

struct TrivialPair {
  std::uint64_t a = 0, b = 0;
};

static_assert(std::is_same_v<RegisterStorage<std::uint64_t>::type,
                             SeqlockStorage<std::uint64_t>>,
              "trivially copyable payloads must select the seqlock engine");
static_assert(std::is_same_v<RegisterStorage<TrivialPair>::type,
                             SeqlockStorage<TrivialPair>>,
              "trivially copyable structs must select the seqlock engine");
static_assert(std::is_same_v<RegisterStorage<std::set<int>>::type,
                             MutexStorage<std::set<int>>>,
              "non-trivially-copyable payloads must fall back to the mutex");
static_assert(std::is_same_v<RegisterStorage<std::string>::type,
                             MutexStorage<std::string>>,
              "std::string must fall back to the mutex engine");

class PerfSpaceTest : public ::testing::Test {
 protected:
  FreeStepController ctrl;
  Space space{ctrl};
};

// (a) Seqlock-backed Swmr round-trips values with concurrent readers: no
// torn reads, every observed value was actually written. Run under
// -DENABLE_SANITIZERS to get the ASan/UBSan guarantee.
TEST_F(PerfSpaceTest, SeqlockSwmrRoundTripsUnderConcurrentReaders) {
  auto& reg = space.make_swmr<TrivialPair>(1, {0, 0}, "pair");
  constexpr std::uint64_t kWrites = 20000;
  runtime::Harness h;
  h.spawn(1, "op", [&](std::stop_token) {
    for (std::uint64_t i = 1; i <= kWrites; ++i) reg.write({i, ~i});
  });
  for (int pid = 2; pid <= 4; ++pid) {
    h.spawn(pid, "op", [&](std::stop_token) {
      for (int i = 0; i < 20000; ++i) {
        const TrivialPair p = reg.read();
        if (p.a != 0) {
          ASSERT_EQ(p.b, ~p.a) << "torn seqlock read";
          ASSERT_LE(p.a, kWrites);
        }
      }
    });
  }
  h.start();
  h.join();
  ThisProcess::Binder bind(2);
  EXPECT_EQ(reg.read().a, kWrites);
}

// (b) Sharded per-thread Metrics aggregate to exactly the same totals the
// old single-counter implementation produced.
TEST(ShardedMetrics, AggregationEqualsSingleCounterTotals) {
  Metrics metrics;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        metrics.on_read();
        if (i % 2 == 0) metrics.on_write();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(metrics.reads(),
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(metrics.writes(),
            static_cast<std::uint64_t>(kThreads) * (kOpsPerThread / 2));
  EXPECT_EQ(metrics.total(), metrics.reads() + metrics.writes());
  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.reads, metrics.reads());
  EXPECT_EQ(snap.writes, metrics.writes());
}

TEST(ShardedCounter, ManyThreadsNeverLoseIncrements) {
  util::ShardedCounter counter;
  constexpr int kThreads = 32;
  constexpr int kAdds = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kAdds; ++i) counter.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kAdds);
}

// (c) version() is monotone across write/update, for both storage engines.
TEST_F(PerfSpaceTest, VersionMonotoneAcrossWriteAndUpdate) {
  auto& seq_reg = space.make_swmr<std::uint64_t>(1, 0, "v.seq");
  auto& mtx_reg = space.make_swmr<std::set<int>>(1, {}, "v.mtx");
  ThisProcess::Binder bind(1);

  std::uint64_t prev_seq = seq_reg.version();
  std::uint64_t prev_mtx = mtx_reg.version();
  for (int i = 1; i <= 10; ++i) {
    if (i % 2 == 0) {
      seq_reg.write(static_cast<std::uint64_t>(i));
      mtx_reg.write({i});
    } else {
      seq_reg.update([&](std::uint64_t& v) { v += 1; });
      mtx_reg.update([&](std::set<int>& s) { s.insert(i); });
    }
    EXPECT_GT(seq_reg.version(), prev_seq) << "write " << i;
    EXPECT_GT(mtx_reg.version(), prev_mtx) << "write " << i;
    prev_seq = seq_reg.version();
    prev_mtx = mtx_reg.version();
  }
  // Reads must not advance versions.
  seq_reg.read();
  mtx_reg.read();
  EXPECT_EQ(seq_reg.version(), prev_seq);
  EXPECT_EQ(mtx_reg.version(), prev_mtx);
}

TEST_F(PerfSpaceTest, SwsrVersionMonotone) {
  auto& reg = space.make_swsr<int>(1, 2, 0, "r12");
  std::uint64_t prev = reg.version();
  ThisProcess::Binder bind(1);
  for (int i = 1; i <= 5; ++i) {
    reg.write(i);
    EXPECT_GT(reg.version(), prev);
    prev = reg.version();
  }
}

// ------------------------------------------------- devirtualized step gate

TEST_F(PerfSpaceTest, FreeModeStillCountsAccessesAsSteps) {
  EXPECT_TRUE(space.free_mode());
  auto& reg = space.make_swmr<int>(1, 0, "r");
  ThisProcess::Binder bind(1);
  const auto before = ctrl.steps();
  reg.write(1);
  reg.read();
  reg.read();
  // Metered accesses count as steps even though no virtual step() ran.
  EXPECT_EQ(ctrl.steps(), before + 3);
  // Direct (virtual) steps still add on top.
  ctrl.step();
  EXPECT_EQ(ctrl.steps(), before + 4);
}

// --------------------------------------------------- write epoch / parking

TEST_F(PerfSpaceTest, WriteEpochAdvancesOnWritesOnly) {
  auto& reg = space.make_swmr<int>(1, 0, "r");
  ThisProcess::Binder bind(1);
  const auto e0 = space.write_epoch();
  reg.read();
  EXPECT_EQ(space.write_epoch(), e0);
  reg.write(1);
  EXPECT_GT(space.write_epoch(), e0);
  const auto e1 = space.write_epoch();
  reg.update([](int& v) { ++v; });
  EXPECT_GT(space.write_epoch(), e1);
}

TEST_F(PerfSpaceTest, WaitWriteEpochWakesOnWrite) {
  auto& reg = space.make_swmr<int>(1, 0, "r");
  const auto seen = space.write_epoch();
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    // Generous timeout: the write below must wake us long before it.
    space.wait_write_epoch(seen, std::chrono::microseconds(5'000'000));
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(woke.load());
  {
    ThisProcess::Binder bind(1);
    reg.write(42);
  }
  waiter.join();
  EXPECT_TRUE(woke.load());
  EXPECT_NE(space.write_epoch(), seen);
}

TEST_F(PerfSpaceTest, WaitWriteEpochReturnsImmediatelyWhenStale) {
  auto& reg = space.make_swmr<int>(1, 0, "r");
  const auto seen = space.write_epoch();
  {
    ThisProcess::Binder bind(1);
    reg.write(1);
  }
  const auto t0 = std::chrono::steady_clock::now();
  space.wait_write_epoch(seen, std::chrono::microseconds(5'000'000));
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(waited, std::chrono::seconds(1));
}

// ------------------------------------------------------- the wakeup gate

TEST_F(PerfSpaceTest, AwaitChangeReportsWatchedWritesOnly) {
  auto& a = space.make_swmr<int>(1, 0, "a");
  auto& b = space.make_swmr<std::set<int>>(1, {}, "b");
  auto& other = space.make_swmr<int>(1, 0, "other");
  const std::vector<Space::Watched> watched{&a, &b};
  const auto now = std::chrono::milliseconds(0);
  Space::Seen seen;
  EXPECT_TRUE(space.await_change(seen, watched, now)) << "no record yet";
  EXPECT_FALSE(space.await_change(seen, watched, now));
  ThisProcess::Binder bind(1);
  other.write(1);
  EXPECT_FALSE(space.await_change(seen, watched, now));
  b.update([](std::set<int>& s) { s.insert(3); });
  EXPECT_TRUE(space.await_change(seen, watched, now));
  // The gate never waits here: with nothing written, a bound is ignored.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(space.await_change(seen, watched, std::chrono::seconds(5)));
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
  // A shorter list is another list: changed.
  EXPECT_TRUE(space.await_change(seen, std::span(watched).first(1), now));
}

}  // namespace
}  // namespace swsig::registers
