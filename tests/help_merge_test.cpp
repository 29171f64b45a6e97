// One Help() round writes its witness register R_j at most once (design
// note 17 in docs/ARCHITECTURE.md): outside deterministic runs, Algorithm 1
// (L31-32) and Algorithm 2 (L33-34) adopt every new value in a single
// update of R_j, and skip the update when nothing is new. Runs over the
// message-passing substrate, where every register write is a full Bracha
// ladder, so the count is read straight off R_j's write sequence numbers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "core/authenticated_register.hpp"
#include "core/verifiable_register.hpp"
#include "msgpass/emulated_swmr.hpp"
#include "runtime/process.hpp"

namespace swsig::core {
namespace {

using runtime::ThisProcess;

constexpr int kValues = 5;

// Writes of an emulated register so far: write sns count up from 1, and a
// write returns only after n−f processes delivered it, so right after a
// write returns the highest stored sn is its sn.
template <typename Reg>
std::uint64_t writes_of(const Reg& reg, int n) {
  std::uint64_t sn = 0;
  for (int pid = 1; pid <= n; ++pid)
    sn = std::max(sn, reg.stored_state(pid).first);
  return sn;
}

// Reader p3 starts a Verify round (L13 / L12: C_3 <- C_3 + 1), so p2's next
// help round has an asker.
template <typename Alg>
void ask(Alg& alg) {
  ThisProcess::Binder bind(3);
  (*alg.raw().round)[3]->update([](RoundCounter& c) { ++c; });
}

TEST(HelpMerge, VerifiableAdoptsAllNewValuesInOneWrite) {
  msgpass::EmulatedSpace space({.n = 4, .f = 1});
  VerifiableRegister<int, msgpass::EmulatedSpace> alg(space, {.n = 4, .f = 1});
  {
    ThisProcess::Binder bind(1);
    for (int v = 1; v <= kValues; ++v) {
      alg.write(v);
      ASSERT_EQ(alg.sign(v), SignResult::kSuccess);
    }
  }
  auto& r2 = *(*alg.raw().witness)[2];
  ask(alg);
  {
    ThisProcess::Binder bind(2);
    EXPECT_TRUE(alg.help_round());
  }
  EXPECT_EQ(writes_of(r2, 4), 1u) << "adopting " << kValues << " values";
  {
    ThisProcess::Binder bind(2);
    EXPECT_EQ(r2.read().size(), static_cast<std::size_t>(kValues));
  }
  ask(alg);  // nothing new to adopt: no write at all
  {
    ThisProcess::Binder bind(2);
    EXPECT_TRUE(alg.help_round());
  }
  EXPECT_EQ(writes_of(r2, 4), 1u);
}

TEST(HelpMerge, AuthenticatedAdoptsAllNewValuesInOneWrite) {
  msgpass::EmulatedSpace space({.n = 4, .f = 1});
  AuthenticatedRegister<int, msgpass::EmulatedSpace> alg(space,
                                                         {.n = 4, .f = 1});
  {
    ThisProcess::Binder bind(1);
    for (int v = 1; v <= kValues; ++v) alg.write(v);
  }
  auto& r2 = *(*alg.raw().witness)[2];
  ask(alg);
  {
    ThisProcess::Binder bind(2);
    EXPECT_TRUE(alg.help_round());
  }
  EXPECT_EQ(writes_of(r2, 4), 1u) << "adopting " << kValues << " values";
  {
    ThisProcess::Binder bind(2);
    // v0 plus every written value.
    EXPECT_EQ(r2.read().size(), static_cast<std::size_t>(kValues) + 1);
  }
  ask(alg);
  {
    ThisProcess::Binder bind(2);
    EXPECT_TRUE(alg.help_round());
  }
  EXPECT_EQ(writes_of(r2, 4), 1u);
}

}  // namespace
}  // namespace swsig::core
