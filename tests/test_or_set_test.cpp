// Tests for the test-or-set object (§10) built from each register type
// (Observation 30) and for Lemma 28's correct-process properties.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/system.hpp"
#include "core/test_or_set.hpp"
#include "runtime/harness.hpp"

namespace swsig::core {
namespace {

enum class Backend { kVerifiable, kAuthenticated, kSticky };

// Wraps backend construction so every test runs against all three
// implementations of Observation 30.
class TestOrSetSystem {
 public:
  TestOrSetSystem(Backend backend, int n, int f)
      : space_(controller_) {
    switch (backend) {
      case Backend::kVerifiable: {
        VerifiableRegister<int>::Config c;
        c.n = n;
        c.f = f;
        auto impl = std::make_unique<TestOrSetFromVerifiable>(space_, c);
        help_ = [reg = &impl->reg()] { return reg->help_round(); };
        tos_ = std::move(impl);
        break;
      }
      case Backend::kAuthenticated: {
        AuthenticatedRegister<int>::Config c;
        c.n = n;
        c.f = f;
        auto impl = std::make_unique<TestOrSetFromAuthenticated>(space_, c);
        help_ = [reg = &impl->reg()] { return reg->help_round(); };
        tos_ = std::move(impl);
        break;
      }
      case Backend::kSticky: {
        StickyRegister<int>::Config c;
        c.n = n;
        c.f = f;
        auto impl = std::make_unique<TestOrSetFromSticky>(space_, c);
        help_ = [reg = &impl->reg()] { return reg->help_round(); };
        tos_ = std::move(impl);
        break;
      }
    }
    for (int pid = 1; pid <= n; ++pid) {
      helpers_.emplace_back([this, pid](std::stop_token st) {
        runtime::ThisProcess::Binder bind(pid);
        while (!st.stop_requested()) {
          if (!help_()) std::this_thread::yield();
        }
      });
    }
  }

  ~TestOrSetSystem() {
    for (auto& t : helpers_) t.request_stop();
  }

  TestOrSet& tos() { return *tos_; }

  template <typename F>
  auto as(int pid, F&& fn) {
    runtime::ThisProcess::Binder bind(pid);
    return std::forward<F>(fn)(*tos_);
  }

 private:
  runtime::FreeStepController controller_;
  registers::Space space_;
  std::unique_ptr<TestOrSet> tos_;
  std::function<bool()> help_;
  std::vector<std::jthread> helpers_;
};

class TestOrSetAllBackends : public ::testing::TestWithParam<Backend> {};

TEST_P(TestOrSetAllBackends, TestBeforeSetReturnsZero) {
  TestOrSetSystem sys(GetParam(), 4, 1);
  EXPECT_EQ(sys.as(2, [](TestOrSet& t) { return t.test(); }), 0);
  EXPECT_EQ(sys.as(3, [](TestOrSet& t) { return t.test(); }), 0);
}

// Observation 27(1): Set before Test implies Test returns 1.
TEST_P(TestOrSetAllBackends, SetThenTestReturnsOne) {
  TestOrSetSystem sys(GetParam(), 4, 1);
  sys.as(1, [](TestOrSet& t) { t.set(); });
  for (int k = 2; k <= 4; ++k)
    EXPECT_EQ(sys.as(k, [](TestOrSet& t) { return t.test(); }), 1);
}

// Observation 27(3) / Lemma 28(3): Test=1 relays to all later Tests.
TEST_P(TestOrSetAllBackends, TestOneRelays) {
  TestOrSetSystem sys(GetParam(), 7, 2);
  sys.as(1, [](TestOrSet& t) { t.set(); });
  ASSERT_EQ(sys.as(2, [](TestOrSet& t) { return t.test(); }), 1);
  for (int round = 0; round < 2; ++round)
    for (int k = 2; k <= 7; ++k)
      EXPECT_EQ(sys.as(k, [](TestOrSet& t) { return t.test(); }), 1);
}

// Lemma 28(2) direction for correct setter: a Test can only return 1 after
// the Set was invoked — concurrent testers that started strictly before the
// Set must return 0 ... unless concurrent with Set. Here we check the
// sequential case only: with no Set at all, storms of Tests all return 0.
TEST_P(TestOrSetAllBackends, NoSetMeansAllTestsZero) {
  TestOrSetSystem sys(GetParam(), 4, 1);
  std::atomic<int> ones{0};
  runtime::Harness h;
  for (int k = 2; k <= 4; ++k) {
    h.spawn(k, "op", [&](std::stop_token) {
      for (int i = 0; i < 10; ++i)
        if (sys.tos().test() == 1) ones.fetch_add(1);
    });
  }
  h.start();
  h.join();
  EXPECT_EQ(ones.load(), 0);
}

// Concurrent Set and Test storm: once any tester sees 1, all later testers
// see 1 (relay under concurrency).
TEST_P(TestOrSetAllBackends, ConcurrentRelayConsistency) {
  TestOrSetSystem sys(GetParam(), 4, 1);
  std::atomic<bool> one_seen{false};
  std::atomic<bool> violation{false};
  std::atomic<bool> set_done{false};
  std::atomic<int> late_zero{0};
  runtime::Harness h;
  h.spawn(1, "op", [&](std::stop_token) {
    sys.tos().set();
    set_done = true;
  });
  for (int k = 2; k <= 4; ++k) {
    h.spawn(k, "op", [&](std::stop_token) {
      for (int i = 0; i < 25; ++i) {
        const bool before = one_seen.load();
        const int r = sys.tos().test();
        if (r == 1) one_seen = true;
        if (before && r == 0) violation = true;
      }
      // Set returned before this Test is invoked, so Definition 26 requires
      // it to return 1.
      while (!set_done.load()) std::this_thread::yield();
      if (sys.tos().test() != 1) ++late_zero;
    });
  }
  h.start();
  h.join();
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(late_zero.load(), 0);  // Test after a completed Set returned 0
}

INSTANTIATE_TEST_SUITE_P(Backends, TestOrSetAllBackends,
                         ::testing::Values(Backend::kVerifiable,
                                           Backend::kAuthenticated,
                                           Backend::kSticky),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           switch (info.param) {
                             case Backend::kVerifiable:
                               return "Verifiable";
                             case Backend::kAuthenticated:
                               return "Authenticated";
                             default:
                               return "Sticky";
                           }
                         });

}  // namespace
}  // namespace swsig::core
