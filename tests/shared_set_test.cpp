// core::SharedSet, the persistent witness set of Algorithms 1 and 2: copies
// share storage, an insert copies only the O(log N) nodes on its path, the
// lineage names exactly the values added since an older version, a long
// history is freed without recursion, and equality is by content.
#include <gtest/gtest.h>

#include <pthread.h>

#include <bit>
#include <functional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "core/shared_set.hpp"
#include "util/rng.hpp"

namespace swsig::core {
namespace {

// A value that counts its copies. Every new tree node and every lineage
// record copies its value once, so the count is the number of records an
// operation allocated.
struct Counted {
  static inline int copies = 0;
  int v = 0;
  Counted(int x) : v(x) {}  // NOLINT: implicit, for brace-init lists
  Counted(const Counted& o) : v(o.v) { ++copies; }
  Counted& operator=(const Counted& o) {
    v = o.v;
    ++copies;
    return *this;
  }
  friend bool operator<(const Counted& a, const Counted& b) {
    return a.v < b.v;
  }
  friend bool operator==(const Counted& a, const Counted& b) {
    return a.v == b.v;
  }
};

template <typename V>
std::vector<V> added_since(const SharedSet<V>& s, const SharedSet<V>& base,
                           bool& extends) {
  std::vector<V> out;
  extends = s.for_each_added_since(base, [&](const V& v) { out.push_back(v); });
  return out;
}

// Runs fn on a thread with a 512 KiB stack: deep enough for any O(log N)
// recursion, far too shallow for one frame per version of a long history.
void on_small_stack(std::function<void()> fn) {
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, 512 * 1024), 0);
  pthread_t t;
  ASSERT_EQ(pthread_create(
                &t, &attr,
                [](void* arg) -> void* {
                  (*static_cast<std::function<void()>*>(arg))();
                  return nullptr;
                },
                &fn),
            0);
  pthread_join(t, nullptr);
  pthread_attr_destroy(&attr);
}

TEST(SharedSet, CopiesShareStorage) {
  const SharedSet<int> a{1, 2, 3};
  const SharedSet<int> b = a;
  EXPECT_TRUE(b.shares_storage_with(a));
  EXPECT_EQ(b.size(), 3u);
  EXPECT_TRUE(b.contains(2));
}

TEST(SharedSet, InsertingAPresentValueAllocatesNothing) {
  const SharedSet<Counted> a{1, 2, 3};
  SharedSet<Counted> b = a;
  Counted::copies = 0;
  EXPECT_FALSE(b.insert(2));
  const std::vector<Counted> present{1, 3};
  Counted::copies = 0;
  b.insert(present.begin(), present.end());
  EXPECT_EQ(Counted::copies, 0);
  EXPECT_TRUE(b.shares_storage_with(a));
}

TEST(SharedSet, InsertingANewValueLeavesOtherCopiesUntouched) {
  const SharedSet<int> a{1, 2};
  SharedSet<int> b = a;
  EXPECT_TRUE(b.insert(5));
  EXPECT_FALSE(b.shares_storage_with(a));
  EXPECT_EQ(a, (SharedSet<int>{1, 2}));
  EXPECT_EQ(b, (SharedSet<int>{1, 2, 5}));
}

// An insert into a set whose storage another copy holds copies one root
// path (plus at most two rotated nodes) and one lineage record: O(log N),
// where a copy-on-write std::set would clone all N values.
TEST(SharedSet, InsertIntoASharedLargeSetAllocatesLogN) {
  constexpr int kN = 100'000;
  std::set<Counted> values;
  for (int v = 0; v < kN; ++v) values.insert(2 * v);
  const SharedSet<Counted> big(values);
  SharedSet<Counted> copy = big;
  const int log_n = std::bit_width(static_cast<unsigned>(kN));  // 17
  // An AVL tree of N nodes is at most 1.44·log2(N + 2) high.
  const int per_insert = (3 * log_n) / 2 + 3;

  Counted::copies = 0;
  EXPECT_TRUE(copy.insert(kN + 1));  // odd: new
  EXPECT_LE(Counted::copies, per_insert);
  EXPECT_GE(Counted::copies, log_n);  // the path really is copied

  const std::vector<Counted> more{3, 5, 7, 9};
  Counted::copies = 0;
  copy.insert(more.begin(), more.end());
  EXPECT_LE(Counted::copies, 4 * per_insert);

  EXPECT_EQ(big.size(), static_cast<std::size_t>(kN));
  EXPECT_FALSE(big.contains(kN + 1));
  EXPECT_EQ(copy.size(), static_cast<std::size_t>(kN) + 5);
}

TEST(SharedSet, EqualityIsByContentAcrossDistinctStorage) {
  SharedSet<int> a{1, 2};
  SharedSet<int> b{2};
  b.insert(1);
  EXPECT_FALSE(a.shares_storage_with(b));
  EXPECT_EQ(a, b);
  b.insert(3);
  EXPECT_NE(a, b);
  EXPECT_EQ(SharedSet<int>{}, SharedSet<int>(std::set<int>{}));
  EXPECT_TRUE(SharedSet<int>{}.empty());
}

TEST(SharedSet, IteratesInOrder) {
  SharedSet<int> a{3, 1};
  a.insert(2);
  EXPECT_EQ(std::vector<int>(a.begin(), a.end()), (std::vector<int>{1, 2, 3}));
}

// The balanced tree against std::set over random inserts, with every
// intermediate version kept alive and checked again at the end.
TEST(SharedSet, MatchesStdSetUnderRandomInserts) {
  util::Rng rng(7);
  SharedSet<int> s;
  std::set<int> ref;
  std::vector<std::pair<SharedSet<int>, std::set<int>>> versions;
  for (int i = 0; i < 3000; ++i) {
    const int v = static_cast<int>(rng() % 5000);
    EXPECT_EQ(s.insert(v), ref.insert(v).second);
    if (i % 97 == 0) versions.emplace_back(s, ref);
  }
  EXPECT_EQ(std::vector<int>(s.begin(), s.end()),
            std::vector<int>(ref.begin(), ref.end()));
  EXPECT_EQ(s.size(), ref.size());
  EXPECT_EQ(s.back(), *ref.rbegin());
  for (int v = -1; v <= 5000; ++v) ASSERT_EQ(s.contains(v), ref.contains(v));
  for (const auto& [old, old_ref] : versions)
    EXPECT_EQ(std::vector<int>(old.begin(), old.end()),
              std::vector<int>(old_ref.begin(), old_ref.end()));
}

// Across branching copies, the lineage delta is exactly the set difference,
// and a set that is not derived from the base reports so.
TEST(SharedSet, LineageDeltaIsTheSetDifference) {
  SharedSet<int> base{1, 5, 9};
  SharedSet<int> left = base;
  left.insert(3);
  left.insert(7);
  SharedSet<int> right = base;
  const std::vector<int> more{2, 5, 11};
  right.insert(more.begin(), more.end());
  SharedSet<int> grand = left;
  grand.insert(4);

  bool extends = false;
  EXPECT_EQ(added_since(left, base, extends), (std::vector<int>{7, 3}));
  EXPECT_TRUE(extends);
  EXPECT_EQ(added_since(right, base, extends), (std::vector<int>{11, 2}));
  EXPECT_TRUE(extends);
  EXPECT_EQ(added_since(grand, base, extends), (std::vector<int>{4, 7, 3}));
  EXPECT_TRUE(extends);
  EXPECT_EQ(added_since(grand, left, extends), (std::vector<int>{4}));
  EXPECT_TRUE(extends);
  EXPECT_TRUE(added_since(base, base, extends).empty());
  EXPECT_TRUE(extends);
  EXPECT_EQ(added_since(base, SharedSet<int>{}, extends),
            (std::vector<int>{9, 5, 1}));
  EXPECT_TRUE(extends);

  // Siblings, an ancestor, and an equal set built separately do not extend.
  EXPECT_TRUE(added_since(right, left, extends).empty());
  EXPECT_FALSE(extends);
  EXPECT_TRUE(added_since(base, left, extends).empty());
  EXPECT_FALSE(extends);
  const SharedSet<int> rebuilt{1, 3, 5, 7, 9};
  EXPECT_EQ(rebuilt, left);
  EXPECT_TRUE(added_since(rebuilt, base, extends).empty());
  EXPECT_FALSE(extends);

  // Every (descendant, ancestor) pair of a random branching history.
  util::Rng rng(11);
  std::vector<std::pair<SharedSet<int>, int>> family{{base, -1}};
  for (int i = 0; i < 200; ++i) {
    const int from = static_cast<int>(rng() % family.size());
    SharedSet<int> child = family[static_cast<std::size_t>(from)].first;
    for (int k = static_cast<int>(rng() % 3); k >= 0; --k)
      child.insert(static_cast<int>(rng() % 400));
    family.emplace_back(std::move(child), from);
  }
  for (std::size_t d = 0; d < family.size(); ++d)
    for (int a = static_cast<int>(d); a >= 0;
         a = family[static_cast<std::size_t>(a)].second) {
      const SharedSet<int>& desc = family[d].first;
      const SharedSet<int>& anc = family[static_cast<std::size_t>(a)].first;
      std::set<int> got;
      desc.for_each_added_since(anc, [&](int v) { got.insert(v); });
      std::set<int> want;
      for (int v : desc)
        if (!anc.contains(v)) want.insert(v);
      ASSERT_EQ(got, want) << "version " << d << " over " << a;
    }
}

// 100k single-value versions form a 100k-record lineage; releasing it must
// not recurse once per record.
TEST(SharedSet, DestroyingALongHistoryDoesNotRecurse) {
  constexpr int kVersions = 100'000;
  auto* history = new SharedSet<int>;
  for (int v = 0; v < kVersions; ++v) history->insert(v);
  SharedSet<int> mid;
  for (int v = 0; v < kVersions / 2; ++v) mid.insert(v);
  on_small_stack([&] { delete history; });
  on_small_stack([&] { mid = SharedSet<int>(); });
  EXPECT_TRUE(mid.empty());
}

// Four threads copy one shared set and insert into their copies; nodes and
// lineage records are shared across threads throughout.
TEST(SharedSet, ConcurrentCopiesAndInserts) {
  std::set<int> init;
  for (int v = 0; v < 2000; ++v) init.insert(4 * v);
  const SharedSet<int> shared(init);
  constexpr int kThreads = 4;
  std::vector<SharedSet<int>> result(kThreads);
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        SharedSet<int> mine = shared;
        for (int round = 0; round < 500; ++round) {
          SharedSet<int> next = mine;  // the version a reader would see
          next.insert(4 * round + t % 3 + 1);
          ASSERT_TRUE(next.contains(4 * round));
          mine = next;
        }
        result[static_cast<std::size_t>(t)] = mine;
      });
  }
  EXPECT_EQ(shared.size(), init.size());
  for (int t = 0; t < kThreads; ++t) {
    const SharedSet<int>& mine = result[static_cast<std::size_t>(t)];
    EXPECT_EQ(mine.size(), init.size() + 500);
    std::set<int> added;
    EXPECT_TRUE(mine.for_each_added_since(shared,
                                          [&](int v) { added.insert(v); }));
    EXPECT_EQ(added.size(), 500u);
  }
}

}  // namespace
}  // namespace swsig::core
