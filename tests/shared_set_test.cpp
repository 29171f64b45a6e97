// core::SharedSet, the copy-on-write witness set of Algorithms 1 and 2:
// copies share storage, a mutation clones only what it must, and equality
// is by content.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/shared_set.hpp"

namespace swsig::core {
namespace {

// A value that counts its copies, so a test can see whether (and how
// often) a set was cloned.
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

TEST(SharedSet, CopiesShareStorage) {
  const SharedSet<int> a{1, 2, 3};
  const SharedSet<int> b = a;
  EXPECT_TRUE(b.shares_storage_with(a));
  EXPECT_EQ(b.size(), 3u);
  EXPECT_TRUE(b.contains(2));
}

TEST(SharedSet, InsertingAPresentValueDoesNotClone) {
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

TEST(SharedSet, InsertingANewValueClonesOnlySharedStorage) {
  const SharedSet<int> a{1, 2};
  SharedSet<int> b = a;
  EXPECT_TRUE(b.insert(5));
  EXPECT_FALSE(b.shares_storage_with(a));
  EXPECT_EQ(a, (SharedSet<int>{1, 2}));  // the other copy is untouched
  EXPECT_EQ(b, (SharedSet<int>{1, 2, 5}));
}

TEST(SharedSet, RangeInsertClonesOnce) {
  const SharedSet<Counted> a{1, 2, 3, 4, 5};
  SharedSet<Counted> b = a;
  const std::vector<Counted> more{2, 6, 7, 8};
  Counted::copies = 0;
  b.insert(more.begin(), more.end());
  // One clone (5 copies) plus the 3 new values; a clone per insert would
  // copy 5 + 6 + 7 elements.
  EXPECT_EQ(Counted::copies, 5 + 3);
  EXPECT_EQ(b.size(), 8u);
  EXPECT_EQ(a.size(), 5u);
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

}  // namespace
}  // namespace swsig::core
