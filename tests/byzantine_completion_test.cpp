// Tests for the Definition-78 Byzantine-completion checker: histories of
// correct readers facing a FAULTY writer must admit a witness completion
// (and histories that violate relay must not).
#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "byzantine/behaviors.hpp"
#include "core/authenticated_register.hpp"
#include "core/system.hpp"
#include "core/verifiable_register.hpp"
#include "lincheck/byzantine_completion.hpp"
#include "lincheck/history.hpp"
#include "runtime/harness.hpp"
#include "util/rng.hpp"

namespace swsig::lincheck {
namespace {

Operation op(int id, int pid, std::string name, std::string arg,
             std::string result, std::uint64_t inv, std::uint64_t resp,
             std::string object = "") {
  Operation o;
  o.id = id;
  o.pid = pid;
  o.object = std::move(object);
  o.name = std::move(name);
  o.arg = std::move(arg);
  o.result = std::move(result);
  o.invoke_ts = inv;
  o.response_ts = resp;
  return o;
}

// ------------------------------------------------- synthetic histories

TEST(ByzantineCompletion, VerifyTrueJustifiedBySyntheticSign) {
  // Readers saw verify(5)=false then verify(5)=true: a Sign must fit in
  // between — and does.
  std::vector<Operation> h{
      op(0, 2, "verify", "5", "false", 1, 2),
      op(1, 3, "verify", "5", "true", 3, 4),
      op(2, 2, "verify", "5", "true", 5, 6),
  };
  const auto res = check_byzantine_verifiable(h, "0");
  EXPECT_TRUE(res.byzantine_linearizable) << res.reason;
  EXPECT_GE(res.inserted_ops, 2u);  // write(5) + sign(5)
}

TEST(ByzantineCompletion, RelayViolationHasNoCompletion) {
  // verify=true strictly before verify=false: no Sign placement exists.
  std::vector<Operation> h{
      op(0, 2, "verify", "5", "true", 1, 2),
      op(1, 3, "verify", "5", "false", 3, 4),
  };
  const auto res = check_byzantine_verifiable(h, "0");
  EXPECT_FALSE(res.byzantine_linearizable);
  EXPECT_NE(res.reason.find("relay"), std::string::npos) << res.reason;
}

TEST(ByzantineCompletion, ReadsJustifiedBySyntheticWrites) {
  std::vector<Operation> h{
      op(0, 2, "read", "", "7", 1, 2),
      op(1, 3, "read", "", "9", 3, 4),
      op(2, 4, "read", "", "0", 5, 6),  // back to v0: Byzantine writer may
                                        // have re-written it
  };
  // For the authenticated register the v0 read needs no justification and
  // reads re-verify, so all three are completable.
  const auto res = check_byzantine_authenticated(h, "0");
  EXPECT_TRUE(res.byzantine_linearizable) << res.reason;
}

TEST(ByzantineCompletion, VerifyFalseOverlappingReadOfSameValue) {
  // Algorithm 2's Read->1 re-verifies 1 before returning, and a concurrent
  // Verify(1) may still return false: the Byzantine writer's Write(1) can
  // come after that Verify and before the Read's end. (Seen in
  // RealChurningAuthenticatedWriterCompletes, seed 2.)
  std::vector<Operation> h{
      op(0, 4, "read", "", "1", 1, 4),
      op(1, 3, "verify", "1", "false", 2, 3),
  };
  const auto res = check_byzantine_authenticated(h, "0");
  EXPECT_TRUE(res.byzantine_linearizable) << res.reason;
}

TEST(ByzantineCompletion, VerifyFalseAfterReadOfSameValueHasNoCompletion) {
  // Once Read->1 returned, Write(1) happened before: a later Verify(1)
  // must be true (Observation 19).
  std::vector<Operation> h{
      op(0, 4, "read", "", "1", 1, 2),
      op(1, 3, "verify", "1", "false", 3, 4),
  };
  const auto res = check_byzantine_authenticated(h, "0");
  EXPECT_FALSE(res.byzantine_linearizable);
}

TEST(ByzantineCompletion, AuthenticatedInitialValueAlwaysVerifies) {
  std::vector<Operation> h{
      op(0, 2, "verify", "0", "true", 1, 2),
  };
  const auto res = check_byzantine_authenticated(h, "0");
  EXPECT_TRUE(res.byzantine_linearizable) << res.reason;
  EXPECT_EQ(res.inserted_ops, 0u);  // v0 is deemed signed
}

TEST(ByzantineCompletion, MultiRegisterHistoriesDecompose) {
  // Reader operations across two verifiable registers: the witness
  // construction is per register (windows keyed by (object, value), every
  // inserted writer op inherits its register), and the partitioned checker
  // verifies each completion independently.
  std::vector<Operation> h{
      op(0, 2, "verify", "5", "false", 1, 2, "r0"),
      op(1, 3, "verify", "5", "true", 3, 4, "r0"),
      op(2, 2, "verify", "7", "false", 5, 6, "r1"),
      op(3, 4, "verify", "7", "true", 7, 8, "r1"),
  };
  auto res = check_byzantine_verifiable(h, "0");
  EXPECT_TRUE(res.byzantine_linearizable) << res.reason;
  EXPECT_EQ(res.verdict, Verdict::kLinearizable);
  EXPECT_GE(res.inserted_ops, 4u);  // write+sign per register

  // verify=true strictly before verify=false on DIFFERENT registers is NOT
  // a relay violation (the registers are independent)...
  std::vector<Operation> cross{
      op(0, 2, "verify", "5", "true", 1, 2, "r0"),
      op(1, 3, "verify", "5", "false", 3, 4, "r1"),
  };
  EXPECT_TRUE(check_byzantine_verifiable(cross, "0").byzantine_linearizable);

  // ... but on the SAME register it still is, and the reason names it.
  h.push_back(op(4, 2, "verify", "9", "true", 9, 10, "r1"));
  h.push_back(op(5, 3, "verify", "9", "false", 11, 12, "r1"));
  res = check_byzantine_verifiable(h, "0");
  EXPECT_FALSE(res.byzantine_linearizable);
  EXPECT_NE(res.reason.find("relay"), std::string::npos) << res.reason;
  EXPECT_NE(res.reason.find("r1"), std::string::npos) << res.reason;
}

TEST(ByzantineCompletion, BudgetThreadsThroughToVerdict) {
  std::vector<Operation> h{
      op(0, 2, "verify", "5", "false", 1, 2),
      op(1, 3, "verify", "5", "true", 3, 4),
  };
  CheckOptions zero;
  zero.max_states = 0;
  const auto res = check_byzantine_verifiable(h, "0", zero);
  EXPECT_FALSE(res.byzantine_linearizable);
  EXPECT_EQ(res.verdict, Verdict::kBudgetExhausted);
  EXPECT_NE(res.reason.find("undecided"), std::string::npos) << res.reason;
}

// ------------------------------------------- histories from real runs

// Byzantine writer: writes, signs, lets readers verify, then erases and
// denies. Record ONLY the correct readers' operations and check that the
// recorded history is Byzantine linearizable via the completion.
TEST(ByzantineCompletion, RealEraserWriterHistoryCompletes) {
  using Reg = core::VerifiableRegister<int>;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    // p1's helper is the Byzantine loop below: a process runs one Help()
    // loop, and two racing on p1's help state crash the run.
    core::FreeSystem<Reg> sys(Reg::Config{4, 1, 0, false},
                              core::HelperOptions{.exclude = {1}});
    HistoryRecorder rec;
    std::atomic<bool> done{false};

    runtime::Harness h;
    // The Byzantine writer's actions are NOT recorded (it is faulty; the
    // completion has to invent a consistent writer).
    h.spawn(1, "byz", [&](std::stop_token) {
      util::Rng rng(seed);
      sys.alg().write(5);
      sys.alg().sign(5);
      while (!done.load()) {
        if (rng.chance(1, 3))
          byzantine::erase_verifiable_registers(sys.alg());
        else
          sys.alg().help_round();
      }
    });
    for (int k = 2; k <= 4; ++k) {
      h.spawn(k, "op", [&, k](std::stop_token) {
        util::Rng rng(seed * 7 + static_cast<std::uint64_t>(k));
        for (int i = 0; i < 4; ++i) {
          const int v = rng.chance(1, 2) ? 5 : 9;
          rec.record("verify", std::to_string(v),
                     [&] { return sys.alg().verify(v); },
                     [](bool b) { return std::string(b ? "true" : "false"); });
        }
      });
    }
    h.start();
    h.join_role("op");
    done = true;
    h.join();

    const auto res = check_byzantine_verifiable(rec.operations(), "0");
    EXPECT_TRUE(res.byzantine_linearizable)
        << "seed " << seed << ": " << res.reason;
  }
}

// Same for the authenticated register with a churning/erasing writer:
// reader-only histories (reads + verifies) must complete.
TEST(ByzantineCompletion, RealChurningAuthenticatedWriterCompletes) {
  using Reg = core::AuthenticatedRegister<int>;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    core::FreeSystem<Reg> sys(Reg::Config{4, 1, 0, false});
    HistoryRecorder rec;
    std::atomic<bool> done{false};

    runtime::Harness h;
    h.spawn(1, "byz", [&](std::stop_token) {
      util::Rng rng(seed);
      auto raw = sys.alg().raw();
      int i = 0;
      while (!done.load()) {
        ++i;
        if (rng.chance(1, 4)) {
          raw.writer_set->write({});  // erase everything
        } else {
          sys.alg().write(static_cast<int>(rng.uniform(1, 3)));
        }
        (void)i;
      }
    });
    for (int k = 2; k <= 4; ++k) {
      h.spawn(k, "op", [&, k](std::stop_token) {
        util::Rng rng(seed * 13 + static_cast<std::uint64_t>(k));
        for (int i = 0; i < 3; ++i) {
          if (rng.chance(1, 2)) {
            rec.record("read", "", [&] { return sys.alg().read(); },
                       [](int v) { return std::to_string(v); });
          } else {
            const int v = static_cast<int>(rng.uniform(0, 3));
            rec.record("verify", std::to_string(v),
                       [&] { return sys.alg().verify(v); },
                       [](bool b) { return std::string(b ? "true" : "false"); });
          }
        }
      });
    }
    h.start();
    h.join_role("op");
    done = true;
    h.join();

    const auto res = check_byzantine_authenticated(rec.operations(), "0");
    EXPECT_TRUE(res.byzantine_linearizable)
        << "seed " << seed << ": " << res.reason;
  }
}

}  // namespace
}  // namespace swsig::lincheck
