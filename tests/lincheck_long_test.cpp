// Full-history linearizability checks at stress scale — the suites the
// 64-operation cap used to truncate. Histories of 256+ operations across
// 4+ registers, recorded from BOTH substrates (shared-memory registers::
// Space and the message-passing emulation), are checked complete:
// no sampling, no truncation. CTest label "lincheck-long" lets local runs
// exclude them (ctest -LE lincheck-long); Release CI runs everything.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "lincheck/checker.hpp"
#include "lincheck/history.hpp"
#include "lincheck/register_specs.hpp"
#include "msgpass/emulated_swmr.hpp"
#include "registers/space.hpp"
#include "runtime/harness.hpp"
#include "runtime/step_controller.hpp"
#include "util/rng.hpp"

namespace swsig::lincheck {
namespace {

SpecFactory plain_factory() {
  return [](const std::string&) {
    return std::make_unique<PlainRegisterSpec>("0");
  };
}

double check_seconds(const std::vector<Operation>& ops, CheckResult& out) {
  const auto t0 = std::chrono::steady_clock::now();
  out = check_linearizable(ops, plain_factory());
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

// Acceptance bar for the partitioned checker: a seeded stress history of
// >= 256 operations across >= 4 registers, fully checked in < 5 s
// (Release). Four writers hammer their own seqlock-backed register while
// three readers sweep all four; every operation is recorded.
TEST(LincheckLong, SharedMemoryFullHistoryChecked) {
  constexpr int kRegisters = 4;
  constexpr int kWritesPerOwner = 32;
  constexpr int kReaderSweeps = 12;

  runtime::FreeStepController controller;
  registers::Space space(controller);
  std::vector<registers::Swmr<int>*> regs;
  for (int r = 0; r < kRegisters; ++r)
    regs.push_back(&space.make_swmr<int>(r + 1, 0, "r" + std::to_string(r)));

  HistoryRecorder rec;
  runtime::Harness h;
  for (int owner = 1; owner <= kRegisters; ++owner) {
    h.spawn(owner, "op", [&, owner](std::stop_token) {
      util::Rng rng(static_cast<std::uint64_t>(owner) * 7919);
      const std::string obj = "r" + std::to_string(owner - 1);
      auto& reg = *regs[static_cast<std::size_t>(owner - 1)];
      for (int v = 1; v <= kWritesPerOwner; ++v) {
        const int value = static_cast<int>(rng.uniform(1, 99));
        rec.record(obj, "write", std::to_string(value),
                   [&] { reg.write(value); return true; },
                   [](bool) { return std::string("done"); });
      }
    });
  }
  for (int pid = kRegisters + 1; pid <= kRegisters + 3; ++pid) {
    h.spawn(pid, "op", [&](std::stop_token) {
      for (int i = 0; i < kReaderSweeps; ++i) {
        for (int r = 0; r < kRegisters; ++r) {
          rec.record("r" + std::to_string(r), "read", "",
                     [&] { return regs[static_cast<std::size_t>(r)]->read(); },
                     [](int v) { return std::to_string(v); });
        }
      }
    });
  }
  h.start();
  h.join();

  const auto ops = rec.operations();
  ASSERT_GE(ops.size(), 256u);
  EXPECT_EQ(rec.pending_count(), 0u);

  CheckResult result;
  const double secs = check_seconds(ops, result);
  EXPECT_EQ(result.verdict, Verdict::kLinearizable)
      << result.detail << " (states=" << result.states_explored << ")";
  EXPECT_EQ(result.witness.size(), ops.size());  // complete: no truncation
  EXPECT_TRUE(replay_witness(ops, result.witness, plain_factory()));
#ifdef NDEBUG
  EXPECT_LT(secs, 5.0) << "states=" << result.states_explored;
#else
  (void)secs;
#endif
}

// Same bar on the message-passing substrate: four owners, sync writes +
// cross-owner quorum reads + a pipelined async burst per owner whose
// operations genuinely overlap (invoke at write_async, respond at await).
// The recorded history is checked complete.
TEST(LincheckLong, MsgpassFullHistoryChecked) {
  constexpr int kOwners = 4;
  constexpr int kSyncWrites = 30;
  constexpr int kReads = 30;
  constexpr int kBurst = 4;

  msgpass::EmulatedSpace space(
      {.n = kOwners, .f = 1, .pipeline_depth = kBurst});
  std::vector<msgpass::EmulatedSwmr<int>*> regs;
  for (int r = 0; r < kOwners; ++r)
    regs.push_back(&space.make_swmr<int>(r + 1, 0, "r" + std::to_string(r)));

  HistoryRecorder rec;
  runtime::Harness h;
  for (int pid = 1; pid <= kOwners; ++pid) {
    h.spawn(pid, "op", [&, pid](std::stop_token) {
      util::Rng rng(static_cast<std::uint64_t>(pid) * 104729);
      const std::string own = "r" + std::to_string(pid - 1);
      const int other_idx = pid % kOwners;  // the next owner's register
      const std::string other = "r" + std::to_string(other_idx);
      auto& own_reg = *regs[static_cast<std::size_t>(pid - 1)];
      auto& other_reg = *regs[static_cast<std::size_t>(other_idx)];

      for (int i = 1; i <= kSyncWrites; ++i) {
        const int value = static_cast<int>(rng.uniform(1, 999));
        rec.record(own, "write", std::to_string(value),
                   [&] { own_reg.write(value); return true; },
                   [](bool) { return std::string("done"); });
        if (i <= kReads) {
          rec.record(other, "read", "", [&] { return other_reg.read(); },
                     [](int v) { return std::to_string(v); });
        }
      }

      // Async burst: up to kBurst ladders in flight at once, so the
      // recorded write intervals genuinely overlap one another.
      std::vector<std::pair<int, std::uint64_t>> in_flight;
      for (int i = 1; i <= kBurst; ++i) {
        const int value = 1000 * pid + i;
        const int token = rec.invoke(own, "write", std::to_string(value));
        in_flight.emplace_back(token, own_reg.write_async(value));
      }
      for (const auto& [token, sn] : in_flight) {
        own_reg.await(sn);
        rec.respond(token, "done");
      }
      // Owner-local read observes the final burst value.
      rec.record(own, "read", "", [&] { return own_reg.read(); },
                 [](int v) { return std::to_string(v); });
    });
  }
  h.start();
  h.join();

  const auto ops = rec.operations();
  ASSERT_GE(ops.size(), 256u);

  CheckResult result;
  const double secs = check_seconds(ops, result);
  EXPECT_EQ(result.verdict, Verdict::kLinearizable)
      << result.detail << " (states=" << result.states_explored << ")";
  EXPECT_EQ(result.witness.size(), ops.size());
  EXPECT_TRUE(replay_witness(ops, result.witness, plain_factory()));
#ifdef NDEBUG
  EXPECT_LT(secs, 5.0) << "states=" << result.states_explored;
#else
  (void)secs;
#endif
}

}  // namespace
}  // namespace swsig::lincheck
