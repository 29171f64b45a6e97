// Owner-crash-mid-write regression tests (design note 14): the single most
// realistic Byzantine-systems scenario — the writing process dies while its
// own WRITE ladder is in flight — must leave every register in a
// well-defined state. The contract under test:
//
//   * no acknowledged write is ever lost: if write(v) returned, v (or a
//     later write) is what reads return after any crash/restart;
//   * an in-flight write gets a DETERMINATE outcome at recovery — either
//     completed (the ladder is re-driven with CWRITE until the ACKs land)
//     or aborted (registers::WriteAborted), and an aborted value is final:
//     no read can ever return it;
//   * disabling the retry/abort layer demonstrably reintroduces the old
//     failure mode (the write dies with an indeterminate OpTimeout).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "msgpass/emulated_swmr.hpp"
#include "registers/errors.hpp"
#include "runtime/process.hpp"
#include "soak/fault_schedule.hpp"

namespace swsig::msgpass {
namespace {

using runtime::ThisProcess;

// Crash the owner at varying points of a write stream; after recovery the
// final readable value is the last write that did not abort, and no
// aborted value is ever visible.
TEST(OwnerCrash, AcknowledgedWritesSurviveMidWriteCrash) {
  for (int iter = 1; iter <= 3; ++iter) {
    EmulatedSpace space({.n = 4, .f = 1});
    auto& reg = space.make_swmr<std::string>(1, "v0", "r");
    std::atomic<int> acked{0};
    std::vector<std::string> aborted;  // writer-thread-only until join
    std::thread writer([&] {
      ThisProcess::Binder bind(1);
      for (int i = 1; i <= 30; ++i) {
        const std::string v = "v" + std::to_string(i);
        try {
          reg.write(v);
          acked.store(i, std::memory_order_release);
        } catch (const registers::WriteAborted&) {
          aborted.push_back(v);
        }
      }
    });
    while (acked.load(std::memory_order_acquire) < 3 + iter)
      std::this_thread::yield();
    space.crash(1);  // the owner dies with a write (likely) in flight
    std::this_thread::sleep_for(std::chrono::milliseconds(20 * iter));
    space.restart(1);  // recovery completes or fence-aborts the in-flight sn
    writer.join();

    // At most the one write straddling the crash can have aborted.
    EXPECT_LE(aborted.size(), 1u) << "iter " << iter;
    std::string expect = "v0";
    for (int i = 30; i >= 1; --i) {
      const std::string v = "v" + std::to_string(i);
      if (std::find(aborted.begin(), aborted.end(), v) == aborted.end()) {
        expect = v;
        break;
      }
    }
    ThisProcess::Binder bind(2);
    const std::string got = reg.read();
    EXPECT_EQ(got, expect) << "iter " << iter;
    for (const std::string& v : aborted)
      EXPECT_NE(got, v) << "aborted value resurfaced, iter " << iter;
    space.stop();
  }
}

// Deterministic abort: the write is invoked AFTER the crash, so its
// broadcast is squelched and no server ever holds a candidate — the
// recovery fence must finalize it as aborted, the value must stay
// invisible forever, and the owner must be able to write again.
TEST(OwnerCrash, UndeliveredWriteAbortsDeterministically) {
  EmulatedSpace::Options opt{.n = 4, .f = 1};
  opt.retry.base_ms = 5000;  // no retry can race the recovery fence
  EmulatedSpace space(opt);
  auto& reg = space.make_swmr<std::string>(1, "v0", "r");
  {
    ThisProcess::Binder bind(1);
    reg.write("v1");
  }
  space.crash(1);
  std::atomic<bool> threw{false};
  std::thread writer([&] {
    ThisProcess::Binder bind(1);
    try {
      reg.write("lost");  // discarded at the network: nobody sees it
      ADD_FAILURE() << "an undeliverable write completed";
    } catch (const registers::WriteAborted&) {
      threw.store(true, std::memory_order_release);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  space.restart(1);  // fence finds no echo/accept/deliver anywhere -> abort
  writer.join();
  EXPECT_TRUE(threw.load(std::memory_order_acquire));
  {
    ThisProcess::Binder bind(2);
    EXPECT_EQ(reg.read(), "v1");
  }
  // The abort rolled the owner's view back to the certified state and the
  // sn was burned, not reused: the next write runs a fresh ladder.
  std::thread w2([&] {
    ThisProcess::Binder bind(1);
    reg.write("v2");
  });
  w2.join();
  {
    ThisProcess::Binder bind(3);
    EXPECT_EQ(reg.read(), "v2");
  }
  space.stop();
}

// The failure mode the retry/abort layer exists to fix: with the layer
// disabled, an owner crash mid-write leaves the client with nothing but an
// indeterminate deadline expiry.
TEST(OwnerCrash, WithoutRetryTheWriteDiesIndeterminate) {
  EmulatedSpace::Options opt{.n = 4, .f = 1};
  opt.retry.enabled = false;
  opt.retry.op_timeout_ms = 300;
  EmulatedSpace space(opt);
  auto& reg = space.make_swmr<std::string>(1, "v0", "r");
  space.crash(1);
  std::thread writer([&] {
    ThisProcess::Binder bind(1);
    EXPECT_THROW(reg.write("lost"), registers::OpTimeout);
  });
  writer.join();
  space.restart(1);
  ThisProcess::Binder bind(2);
  EXPECT_EQ(reg.read(), "v0");
  space.stop();
}

// Unparked-mode contract, loss shape: a client whose traffic is 100%
// dropped keeps its op in flight and the retry layer completes it once the
// window heals — no parking, no error.
TEST(OwnerCrash, RetryCarriesLiveClientThroughTotalLossWindow) {
  EmulatedSpace space({.n = 4, .f = 1});
  auto& reg = space.make_swmr<std::string>(1, "v0", "r");
  soak::FaultSchedule sched({.seed = 5,
                             .kinds = soak::FaultKinds::parse("drop"),
                             .victims = {1},
                             .period_ms = 100000,
                             .active_ms = 100000,
                             .drop_permille = 1000});
  space.network().set_fault_injector(&sched);
  sched.engage(true);  // the victim's OWN client keeps operating
  const std::uint64_t retries0 = detail::retry_counter().value();
  std::thread writer([&] {
    ThisProcess::Binder bind(1);
    reg.write("v1");  // every message touching p1 is dropped right now
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  sched.engage(false);  // heal: the next backoff retry completes the write
  writer.join();
  EXPECT_GT(detail::retry_counter().value(), retries0);
  space.network().set_fault_injector(nullptr);
  {
    ThisProcess::Binder bind(2);
    EXPECT_EQ(reg.read(), "v1");
  }
  space.stop();
}

// Pipelined writes (design note 15), deterministic flavor: every sn of a
// burst issued AFTER the owner crashed is squelched at the network, so
// recovery must fence-abort all of them — and it decides the sns in
// ascending order (a later sn never settles before an earlier one is
// decided), which the settle callbacks observe directly.
TEST(OwnerCrash, PipelinedUndeliveredBurstAbortsInAscendingSnOrder) {
  EmulatedSpace::Options opt{.n = 4, .f = 1};
  opt.retry.base_ms = 5000;  // no retry can race the recovery fence
  opt.pipeline_depth = 4;
  EmulatedSpace space(opt);
  auto& reg = space.make_swmr<std::string>(1, "v0", "r");
  {
    ThisProcess::Binder bind(1);
    reg.write("v1");
  }
  space.crash(1);

  std::mutex mu;
  std::vector<std::pair<std::uint64_t, bool>> settled;  // (sn, aborted)
  std::vector<std::uint64_t> issued;
  {
    // The capacity gate (depth 4) admits three unsettled writes without
    // blocking; their broadcasts are discarded — no server ever sees them.
    ThisProcess::Binder bind(1);
    for (int i = 0; i < 3; ++i)
      issued.push_back(reg.write_async(
          "lost" + std::to_string(i), [&](std::uint64_t sn, bool aborted) {
            std::scoped_lock lock(mu);
            settled.emplace_back(sn, aborted);
          }));
  }
  space.restart(1);  // recovery fences sn 2, 3, 4 — ascending, all aborted

  {
    std::scoped_lock lock(mu);
    ASSERT_EQ(settled.size(), issued.size());
    for (std::size_t i = 0; i < settled.size(); ++i) {
      EXPECT_EQ(settled[i].first, issued[i]) << "settle order broke at " << i;
      EXPECT_TRUE(settled[i].second) << "sn " << settled[i].first;
    }
  }
  {
    ThisProcess::Binder bind(1);
    for (const std::uint64_t sn : issued)
      EXPECT_THROW(reg.await(sn), registers::WriteAborted) << "sn " << sn;
  }
  {
    ThisProcess::Binder bind(2);
    EXPECT_EQ(reg.read(), "v1");
  }
  // The aborted sns were burned, not reused: the owner writes on normally.
  {
    ThisProcess::Binder bind(1);
    reg.write("v2");
  }
  ThisProcess::Binder bind(3);
  EXPECT_EQ(reg.read(), "v2");
  space.stop();
}

// Pipelined writes, adversarial flavor: the owner dies at an arbitrary
// point of a stream of depth-4 bursts. Every issued sn must still get a
// DETERMINATE outcome from await (completed or WriteAborted — never a
// timeout, never a third thing), the final readable value is the highest
// completed write, and no aborted value is ever visible.
TEST(OwnerCrash, PipelinedCrashMidBurstSettlesEverySn) {
  for (int iter = 1; iter <= 3; ++iter) {
    EmulatedSpace::Options opt{.n = 4, .f = 1};
    opt.pipeline_depth = 4;
    EmulatedSpace space(opt);
    auto& reg = space.make_swmr<std::string>(1, "v0", "r");

    std::atomic<int> progressed{0};
    std::map<std::uint64_t, std::string> completed;  // writer-only until join
    std::set<std::string> aborted;
    std::thread writer([&] {
      ThisProcess::Binder bind(1);
      int v = 0;
      for (int burst = 0; burst < 6; ++burst) {
        std::vector<std::pair<std::uint64_t, std::string>> inflight;
        for (int i = 0; i < 4; ++i) {
          const std::string val = "v" + std::to_string(++v);
          inflight.emplace_back(reg.write_async(val), val);
        }
        for (const auto& [sn, val] : inflight) {
          try {
            reg.await(sn);
            completed.emplace(sn, val);
            progressed.fetch_add(1, std::memory_order_release);
          } catch (const registers::WriteAborted&) {
            aborted.insert(val);
          } catch (...) {
            ADD_FAILURE() << "indeterminate outcome for sn " << sn;
          }
        }
      }
    });
    while (progressed.load(std::memory_order_acquire) < 2 * iter)
      std::this_thread::yield();
    space.crash(1);  // lands mid-burst: several sns are in flight
    std::this_thread::sleep_for(std::chrono::milliseconds(15 * iter));
    space.restart(1);
    writer.join();

    ASSERT_FALSE(completed.empty());
    const std::string expect = completed.rbegin()->second;  // highest sn
    ThisProcess::Binder bind(2);
    const std::string got = reg.read();
    EXPECT_EQ(got, expect) << "iter " << iter;
    EXPECT_FALSE(aborted.contains(got))
        << "aborted value resurfaced, iter " << iter;
    space.stop();
  }
}

// Retry storm mid-pipeline: a depth-4 burst is issued while 100% of the
// owner's traffic is dropped. The awaits drive per-sn retries; once the
// window heals, every sn of the burst completes — no abort, no timeout.
TEST(OwnerCrash, RetryCarriesPipelinedBurstThroughTotalLossWindow) {
  EmulatedSpace::Options opt{.n = 4, .f = 1};
  opt.pipeline_depth = 4;
  EmulatedSpace space(opt);
  auto& reg = space.make_swmr<std::string>(1, "v0", "r");
  soak::FaultSchedule sched({.seed = 5,
                             .kinds = soak::FaultKinds::parse("drop"),
                             .victims = {1},
                             .period_ms = 100000,
                             .active_ms = 100000,
                             .drop_permille = 1000});
  space.network().set_fault_injector(&sched);
  sched.engage(true);
  const std::uint64_t retries0 = detail::retry_counter().value();
  std::thread writer([&] {
    ThisProcess::Binder bind(1);
    std::vector<std::uint64_t> burst;
    for (int i = 1; i <= 4; ++i)
      burst.push_back(reg.write_async("v" + std::to_string(i)));
    for (const std::uint64_t sn : burst) reg.await(sn);  // parks, retries
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  sched.engage(false);  // heal: backoff retries re-drive all four ladders
  writer.join();
  EXPECT_GT(detail::retry_counter().value(), retries0);
  space.network().set_fault_injector(nullptr);
  {
    ThisProcess::Binder bind(2);
    EXPECT_EQ(reg.read(), "v4");
  }
  space.stop();
}

}  // namespace
}  // namespace swsig::msgpass
