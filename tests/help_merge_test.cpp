// One Help() round writes its witness register R_j at most once (design
// note 17 in docs/ARCHITECTURE.md): outside deterministic runs, Algorithm 1
// (L31-32) and Algorithm 2 (L33-34) adopt every new value in a single
// update of R_j, and skip the update when nothing is new. Runs over the
// message-passing substrate, where every register write is a full Bracha
// ladder, so the count is read straight off R_j's write sequence numbers.
//
// The adopt step itself (core/detail/adopt.hpp) merges by delta: its cost
// does not grow with the witness sets, a round with unchanged inputs
// compares nothing, and an r_i that does not extend the version last merged
// takes the full merge and still adopts by the rule of L31-32, without
// leaving what the old version held in the tally.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "core/authenticated_register.hpp"
#include "core/detail/adopt.hpp"
#include "core/shared_set.hpp"
#include "core/verifiable_register.hpp"
#include "msgpass/emulated_swmr.hpp"
#include "registers/space.hpp"
#include "runtime/process.hpp"
#include "runtime/step_controller.hpp"

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

// ---------------------------------------------------------------------------
// The adopt step alone, on a local stand-in for R_j.

// A value that counts its comparisons.
struct Cmp {
  static inline std::int64_t comparisons = 0;
  int v = 0;
  Cmp(int x) : v(x) {}  // NOLINT: implicit, for brace-init lists
  friend bool operator<(const Cmp& a, const Cmp& b) {
    ++comparisons;
    return a.v < b.v;
  }
  friend bool operator==(const Cmp& a, const Cmp& b) {
    ++comparisons;
    return a.v == b.v;
  }
};

// p_j's witness register: update() applies fn to the current value and
// counts the writes that changed it.
template <typename Set>
struct LocalRegister {
  Set value;
  int writes = 0;
  template <typename F>
  Set update(F&& fn) {
    Set next = value;
    fn(next);
    if (!(next == value)) {
      value = next;
      ++writes;
    }
    return value;
  }
};

constexpr int kN = 4, kF = 1, kJ = 2;

// L31-32 on the current sets: v ∈ r_1, or at least f+1 of r_1..r_n hold v.
std::set<int> paper_rule(const std::vector<SharedSet<int>>& r) {
  std::set<int> all, out;
  for (std::size_t i = 1; i < r.size(); ++i) all.insert(r[i].begin(), r[i].end());
  for (int v : all) {
    int holders = 0;
    for (std::size_t i = 1; i < r.size(); ++i) holders += r[i].contains(v);
    if (r[1].contains(v) || holders >= kF + 1) out.insert(v);
  }
  return out;
}

std::set<int> contents(const SharedSet<int>& s) { return {s.begin(), s.end()}; }

// With |r_j| = 10k, one new signed value in r_1 is adopted with O(log N)
// comparisons (a linear merge would make at least 10k), and a round whose
// inputs did not change makes none and writes nothing.
TEST(AdoptByDelta, CostDoesNotGrowWithTheWitnessSets) {
  constexpr int kValues = 10'000;
  std::set<Cmp> history;
  for (int v = 0; v < kValues; ++v) history.insert(v);
  LocalRegister<SharedSet<Cmp>> rj{SharedSet<Cmp>(history)};
  std::vector<SharedSet<Cmp>> r(kN + 1);
  r[1] = SharedSet<Cmp>(history);  // the writer's R_1: same values
  detail::WitnessTally<SharedSet<Cmp>> tally(kN);
  const auto round = [&] {
    r[kJ] = rj.value;
    Cmp::comparisons = 0;
    tally.adopt(rj, r, kJ, kF, /*literal=*/false);
    return Cmp::comparisons;
  };
  round();  // first sight of every set: merged in full
  EXPECT_EQ(rj.writes, 0);

  r[1].insert(kValues);  // Sign(v) of a fresh value: L5
  const std::int64_t delta = round();
  EXPECT_EQ(rj.writes, 1);
  EXPECT_TRUE(rj.value.contains(kValues));
  // contains() on r_j and the insert into R_j: two root paths of a 14-high
  // tree, at most two comparisons per level, plus the tally's own map —
  // about 4·log2 N, independent of the history for any practical N.
  EXPECT_LE(delta, 100) << "a linear merge makes >= " << kValues;

  EXPECT_LE(round(), 8);  // r_j gained the value: one tally erase
  EXPECT_EQ(round(), 0);  // nothing changed
  EXPECT_EQ(round(), 0);
  EXPECT_EQ(rj.writes, 1);
}

// An r_i that does not extend the version last merged — a Byzantine R_i
// rewritten, or a set built afresh — takes the full merge for that i, and
// the values adopted are exactly those L31-32 selects.
TEST(AdoptByDelta, NonExtendingSetsTakeTheFullMerge) {
  LocalRegister<SharedSet<int>> rj;
  std::vector<SharedSet<int>> r(kN + 1);
  r[1] = {1, 2};
  r[3] = {10, 11, 12};
  r[4] = {10};
  detail::WitnessTally<SharedSet<int>> tally(kN);
  const auto round = [&] {
    r[kJ] = rj.value;
    const std::set<int> want = paper_rule(r);
    tally.adopt(rj, r, kJ, kF, /*literal=*/false);
    std::set<int> expect = contents(r[kJ]);
    expect.insert(want.begin(), want.end());
    EXPECT_EQ(contents(rj.value), expect);
  };
  round();
  EXPECT_EQ(contents(rj.value), (std::set<int>{1, 2, 10}));

  // p3 rewrites R_3 from scratch, dropping 10 and 12; p4 adds 11. 11 now
  // has f+1 holders; 20 has one.
  r[3] = {11, 20};
  r[4].insert(11);
  round();
  EXPECT_EQ(contents(rj.value), (std::set<int>{1, 2, 10, 11}));

  // A Byzantine writer drops a signed value and signs 3 in a fresh set.
  r[1] = {1, 3};
  round();
  EXPECT_EQ(contents(rj.value), (std::set<int>{1, 2, 3, 10, 11}));

  // R_j itself wiped (the reset attack): the tally starts over and adopts
  // again what still qualifies.
  rj.value = {};
  round();
  EXPECT_EQ(contents(rj.value), (std::set<int>{1, 3, 11}));

  // Extending sets after the fallback are merged by delta again.
  r[3].insert(30);
  r[4].insert(30);
  round();
  EXPECT_EQ(contents(rj.value), (std::set<int>{1, 3, 11, 30}));
  EXPECT_EQ(rj.writes, 5);
}

// A Byzantine R_i rewritten with fresh values, round after round, leaves
// nothing in the tally: a rewrite forgets what the old version held, so the
// tally follows the live sets, not the history of writes.
TEST(AdoptByDelta, RewrittenSetsLeaveNothingInTheTally) {
  LocalRegister<SharedSet<int>> rj;
  std::vector<SharedSet<int>> r(kN + 1);
  r[1] = {1};
  detail::WitnessTally<SharedSet<int>> tally(kN);
  for (int round = 0; round < 1000; ++round) {
    // p3's fresh set: three values nobody else holds, one that p4 holds.
    r[3] = {1000 + 3 * round, 1001 + 3 * round, 1002 + 3 * round, 5};
    r[4] = {5};
    r[kJ] = rj.value;
    tally.adopt(rj, r, kJ, kF, /*literal=*/false);
    // r_j adopted 1 (signed) and 5 (f+1 holders); the tally holds p3's
    // three live values, and the adopted ones until a round sees them in
    // r_j. Keeping every old version's values would reach 3000.
    ASSERT_LE(tally.tallied(), 5u) << "round " << round;
  }
  EXPECT_EQ(contents(rj.value), (std::set<int>{1, 5}));

  // p3 empties its set: nothing it held stays tallied.
  r[3] = {};
  r[kJ] = rj.value;
  tally.adopt(rj, r, kJ, kF, /*literal=*/false);
  EXPECT_EQ(tally.tallied(), 0u);
}

// The holder sets are not capped at 64 processes: pids past 63 count, and a
// rewrite of one of them is forgotten like any other.
TEST(AdoptByDelta, CountsHoldersPastPid63) {
  constexpr int kBig = 70, kBigF = 5;
  LocalRegister<SharedSet<int>> rj;
  std::vector<SharedSet<int>> r(kBig + 1);
  detail::WitnessTally<SharedSet<int>> tally(kBig);
  const auto round = [&] {
    r[kJ] = rj.value;
    tally.adopt(rj, r, kJ, kBigF, /*literal=*/false);
  };
  for (int i = 65; i <= 69; ++i) r[static_cast<std::size_t>(i)] = {7};
  round();  // f = 5 holders: not yet
  EXPECT_FALSE(rj.value.contains(7));
  r[69] = {8};  // p69 rewritten: it no longer counts for 7
  r[70] = {7};
  round();  // still 5 holders (65..68, 70)
  EXPECT_FALSE(rj.value.contains(7));
  r[64] = {7};
  round();  // f+1 = 6
  EXPECT_TRUE(rj.value.contains(7));
}

// The core registers take any n over shared memory; here p64 helps.
TEST(AdoptByDelta, SixtyFourProcessesOverSharedMemory) {
  runtime::FreeStepController ctrl;
  registers::Space space(ctrl);
  VerifiableRegister<int> alg(space, {.n = 64, .f = 21});
  {
    ThisProcess::Binder bind(1);
    alg.write(7);
    ASSERT_EQ(alg.sign(7), SignResult::kSuccess);
  }
  ask(alg);
  ThisProcess::Binder bind(64);
  EXPECT_TRUE(alg.help_round());
  EXPECT_TRUE((*alg.raw().witness)[64]->read().contains(7));
}

}  // namespace
}  // namespace swsig::core
