// Unit and property tests for Algorithm 1 (verifiable register).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/system.hpp"
#include "core/verifiable_register.hpp"
#include "runtime/harness.hpp"
#include "util/rng.hpp"

namespace swsig::core {
namespace {

using Reg = VerifiableRegister<int>;
using Sys = FreeSystem<Reg>;

Reg::Config cfg(int n, int f, int v0 = 0) {
  Reg::Config c;
  c.n = n;
  c.f = f;
  c.v0 = v0;
  return c;
}

TEST(VerifiableConfig, RejectsInsufficientResilience) {
  runtime::FreeStepController ctrl;
  registers::Space space(ctrl);
  EXPECT_THROW(Reg(space, cfg(3, 1)), std::invalid_argument);
  EXPECT_THROW(Reg(space, cfg(6, 2)), std::invalid_argument);
  EXPECT_NO_THROW(Reg(space, cfg(4, 1)));
  EXPECT_NO_THROW(Reg(space, cfg(7, 2)));
}

TEST(VerifiableConfig, SuboptimalOptIn) {
  runtime::FreeStepController ctrl;
  registers::Space space(ctrl);
  Reg::Config c = cfg(3, 1);
  c.allow_suboptimal = true;
  EXPECT_NO_THROW(Reg(space, c));
}

TEST(Verifiable, ReadReturnsInitialValue) {
  Sys sys(cfg(4, 1, 99));
  EXPECT_EQ(sys.as(2, [](Reg& r) { return r.read(); }), 99);
}

TEST(Verifiable, ReadSeesLastWrite) {
  Sys sys(cfg(4, 1));
  sys.as(1, [](Reg& r) {
    r.write(10);
    r.write(20);
  });
  EXPECT_EQ(sys.as(3, [](Reg& r) { return r.read(); }), 20);
}

TEST(Verifiable, SignFailsForUnwrittenValue) {
  Sys sys(cfg(4, 1));
  EXPECT_EQ(sys.as(1, [](Reg& r) { return r.sign(5); }), SignResult::kFail);
}

TEST(Verifiable, SignSucceedsForWrittenValue) {
  Sys sys(cfg(4, 1));
  sys.as(1, [](Reg& r) { r.write(5); });
  EXPECT_EQ(sys.as(1, [](Reg& r) { return r.sign(5); }),
            SignResult::kSuccess);
}

TEST(Verifiable, SignWorksForOlderValues) {
  // The writer may sign any previously written value, even after
  // overwriting it (Definition 10 discussion, §4).
  Sys sys(cfg(4, 1));
  sys.as(1, [](Reg& r) {
    r.write(1);
    r.write(2);
    r.write(3);
  });
  EXPECT_EQ(sys.as(1, [](Reg& r) { return r.sign(1); }),
            SignResult::kSuccess);
}

TEST(Verifiable, VerifyFalseWhenNothingSigned) {
  Sys sys(cfg(4, 1));
  sys.as(1, [](Reg& r) { r.write(5); });  // written but NOT signed
  EXPECT_FALSE(sys.as(2, [](Reg& r) { return r.verify(5); }));
}

// [validity] Observation 11: after a successful Sign(v), every Verify(v)
// returns true.
TEST(Verifiable, ValidityAfterSign) {
  Sys sys(cfg(4, 1));
  sys.as(1, [](Reg& r) {
    r.write(5);
    ASSERT_EQ(r.sign(5), SignResult::kSuccess);
  });
  for (int k = 2; k <= 4; ++k)
    EXPECT_TRUE(sys.as(k, [](Reg& r) { return r.verify(5); }))
        << "reader p" << k;
}

// [unforgeability] Observation 12: Verify of a never-signed value is false,
// repeatedly and for every reader.
TEST(Verifiable, UnforgeabilityUnsignedValue) {
  Sys sys(cfg(4, 1));
  sys.as(1, [](Reg& r) {
    r.write(5);
    ASSERT_EQ(r.sign(5), SignResult::kSuccess);
  });
  for (int k = 2; k <= 4; ++k)
    EXPECT_FALSE(sys.as(k, [](Reg& r) { return r.verify(123); }));
}

// [relay] Observation 13: once some reader's Verify(v) returns true, every
// subsequent Verify(v) by any reader returns true.
TEST(Verifiable, RelayAcrossReaders) {
  Sys sys(cfg(7, 2));
  sys.as(1, [](Reg& r) {
    r.write(42);
    ASSERT_EQ(r.sign(42), SignResult::kSuccess);
  });
  ASSERT_TRUE(sys.as(2, [](Reg& r) { return r.verify(42); }));
  for (int round = 0; round < 3; ++round)
    for (int k = 2; k <= 7; ++k)
      EXPECT_TRUE(sys.as(k, [](Reg& r) { return r.verify(42); }));
}

TEST(Verifiable, MultipleSignedValuesAllVerify) {
  Sys sys(cfg(4, 1));
  sys.as(1, [](Reg& r) {
    for (int v = 1; v <= 8; ++v) {
      r.write(v);
      ASSERT_EQ(r.sign(v), SignResult::kSuccess);
    }
  });
  for (int v = 1; v <= 8; ++v)
    EXPECT_TRUE(sys.as(3, [v](Reg& r) { return r.verify(v); }));
}

TEST(Verifiable, SignedSubsetOnlyVerifies) {
  Sys sys(cfg(4, 1));
  sys.as(1, [](Reg& r) {
    for (int v = 1; v <= 6; ++v) r.write(v);
    ASSERT_EQ(r.sign(2), SignResult::kSuccess);
    ASSERT_EQ(r.sign(4), SignResult::kSuccess);
  });
  EXPECT_FALSE(sys.as(2, [](Reg& r) { return r.verify(1); }));
  EXPECT_TRUE(sys.as(2, [](Reg& r) { return r.verify(2); }));
  EXPECT_FALSE(sys.as(2, [](Reg& r) { return r.verify(3); }));
  EXPECT_TRUE(sys.as(2, [](Reg& r) { return r.verify(4); }));
}

TEST(Verifiable, OperationsEnforceRoles) {
  Sys sys(cfg(4, 1));
  EXPECT_THROW(sys.as(2, [](Reg& r) { r.write(1); }), std::logic_error);
  EXPECT_THROW(sys.as(2, [](Reg& r) { r.sign(1); }), std::logic_error);
  EXPECT_THROW(sys.as(1, [](Reg& r) { r.read(); }), std::logic_error);
  EXPECT_THROW(sys.as(1, [](Reg& r) { r.verify(1); }), std::logic_error);
}

// Concurrent verify storm while the writer signs: all verifies terminate
// and, once one returns true, later ones must as well (relay under real
// concurrency).
TEST(Verifiable, ConcurrentVerifyRelayConsistency) {
  Sys sys(cfg(4, 1));
  std::atomic<bool> any_true{false};
  std::atomic<bool> violation{false};
  std::atomic<bool> signed_7{false};
  std::atomic<int> late_false{0};
  runtime::Harness h;
  h.spawn(1, "op", [&](std::stop_token) {
    sys.alg().write(7);
    sys.alg().sign(7);
    signed_7 = true;
  });
  for (int k = 2; k <= 4; ++k) {
    h.spawn(k, "op", [&](std::stop_token) {
      for (int i = 0; i < 50; ++i) {
        const bool seen_before = any_true.load();
        const bool ok = sys.alg().verify(7);
        if (ok) any_true = true;
        if (seen_before && !ok) violation = true;  // relay broken
      }
      // Sign(7) returned before this Verify(7) is invoked, so Definition 10
      // requires it to return true.
      while (!signed_7.load()) std::this_thread::yield();
      if (!sys.alg().verify(7)) ++late_false;
    });
  }
  h.start();
  h.join();
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(late_false.load(), 0);  // Verify after a completed Sign failed
}

// Property sweep: random write/sign/verify workloads across (n, f) and
// seeds; checks validity + unforgeability + relay on every history.
struct SweepParam {
  int n;
  int f;
  std::uint64_t seed;
};

class VerifiableSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(VerifiableSweep, RandomWorkloadHonorsSpec) {
  const auto [n, f, seed] = GetParam();
  Sys sys(cfg(n, f));
  util::Rng rng(seed);

  std::set<int> written, signed_vals;
  // Writer phase: interleave writes and signs of random values.
  sys.as(1, [&](Reg& r) {
    for (int i = 0; i < 20; ++i) {
      const int v = static_cast<int>(rng.uniform(1, 10));
      if (rng.chance(1, 2)) {
        r.write(v);
        written.insert(v);
      } else {
        const auto res = r.sign(v);
        EXPECT_EQ(res == SignResult::kSuccess, written.contains(v));
        if (res == SignResult::kSuccess) signed_vals.insert(v);
      }
    }
  });
  // Reader phase: every signed value verifies true (validity), every
  // unsigned one false (unforgeability).
  for (int v = 1; v <= 10; ++v) {
    const int reader = 2 + static_cast<int>(rng.uniform(0, n - 2));
    const bool ok = sys.as(reader, [v](Reg& r) { return r.verify(v); });
    EXPECT_EQ(ok, signed_vals.contains(v)) << "value " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, VerifiableSweep,
    ::testing::Values(SweepParam{4, 1, 1}, SweepParam{4, 1, 2},
                      SweepParam{5, 1, 3}, SweepParam{7, 2, 4},
                      SweepParam{7, 2, 5}, SweepParam{10, 3, 6},
                      SweepParam{13, 4, 7}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "n" + std::to_string(info.param.n) + "f" +
             std::to_string(info.param.f) + "s" +
             std::to_string(info.param.seed);
    });

// Deterministic mode: a full write/sign/verify scenario under the
// serialized scheduler, twice with the same seed, must produce identical
// traces and results.
TEST(VerifiableDeterministic, ReproducibleRuns) {
  auto run = [](std::uint64_t seed) {
    runtime::Harness h(
        {.deterministic = true,
         .policy = std::make_shared<runtime::RandomPolicy>(seed)});
    registers::Space space(h.controller());
    Reg reg(space, cfg(4, 1));
    std::vector<int> results;
    // Helpers stop via an in-schedule signal (the ops-done counter is only
    // read while a thread holds the step grant), NOT via request_stop():
    // a wall-clock stop would make the shutdown tail of the trace racy.
    std::atomic<int> ops_done{0};
    h.spawn(1, "op", [&](std::stop_token) {
      reg.write(5);
      reg.sign(5);
      ops_done.fetch_add(1);
    });
    h.spawn(2, "op", [&](std::stop_token) {
      results.push_back(reg.verify(5) ? 1 : 0);  // serialized: safe
      ops_done.fetch_add(1);
    });
    h.spawn(3, "op", [&](std::stop_token) {
      results.push_back(reg.verify(5) ? 1 : 0);
      ops_done.fetch_add(1);
    });
    for (int pid = 1; pid <= 4; ++pid) {
      h.spawn(pid, "help", [&reg, &ops_done](std::stop_token) {
        while (ops_done.load(std::memory_order_relaxed) < 3)
          reg.help_round();
      });
    }
    h.start();
    h.join();
    return std::pair(h.trace_hash(), results);
  };
  const auto [hash_a, res_a] = run(11);
  const auto [hash_b, res_b] = run(11);
  EXPECT_EQ(hash_a, hash_b);
  EXPECT_EQ(res_a, res_b);

  // A different seed explores a different interleaving.
  const auto [hash_c, res_c] = run(12);
  EXPECT_NE(hash_a, hash_c);
}

}  // namespace
}  // namespace swsig::core
