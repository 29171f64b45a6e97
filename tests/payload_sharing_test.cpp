// Shared immutable payloads on the message-passing substrate (design note
// 17 in docs/ARCHITECTURE.md): a written value is built once and
// every message, server store and ladder slot shares it, so the number of
// value copies per operation does not grow with n, and a value is freed
// once nothing reaches it. Quorums count equal values, so a Byzantine copy
// of an honest value tallies with it, while an equivocating value still
// cannot certify.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>

#include "msgpass/emulated_swmr.hpp"
#include "runtime/process.hpp"

namespace swsig::msgpass {
namespace {

using runtime::ThisProcess;

// A register value that counts its copies (moves are free) and its live
// instances.
struct Counted {
  static inline std::atomic<int> copies{0};
  static inline std::atomic<int> live{0};

  int v = 0;
  Counted() { live.fetch_add(1); }
  explicit Counted(int x) : v(x) { live.fetch_add(1); }
  Counted(const Counted& o) : v(o.v) {
    copies.fetch_add(1);
    live.fetch_add(1);
  }
  Counted(Counted&& o) noexcept : v(o.v) { live.fetch_add(1); }
  ~Counted() { live.fetch_sub(1); }
  Counted& operator=(const Counted& o) {
    v = o.v;
    copies.fetch_add(1);
    return *this;
  }
  Counted& operator=(Counted&&) noexcept = default;
  friend bool operator==(const Counted& a, const Counted& b) {
    return a.v == b.v;
  }
  friend bool operator<(const Counted& a, const Counted& b) {
    return a.v < b.v;
  }
};

std::uint64_t quiesce(const std::function<std::uint64_t()>& sent) {
  return drain_message_count(sent, std::chrono::milliseconds(5),
                             /*stable_polls=*/10);
}

// Copies made by one write by p1 plus one read by p2, trailing protocol
// traffic included.
int copies_per_write_and_read(EmulatedSpace& space) {
  const auto sent = [&] { return space.network().messages_sent(); };
  auto& reg = space.make_swmr<Counted>(1, Counted(0), "r");
  quiesce(sent);
  Counted::copies = 0;
  {
    ThisProcess::Binder bind(1);
    reg.write(Counted(42));
  }
  {
    ThisProcess::Binder bind(2);
    EXPECT_EQ(reg.read().v, 42);
  }
  quiesce(sent);
  return Counted::copies.load();
}

// One copy is the read's return value; nothing on the protocol path copies.
constexpr int kMaxCopies = 1;

TEST(PayloadSharing, EmulatedCopiesDoNotGrowWithN) {
  int copies[2];
  int i = 0;
  for (const int n : {4, 7}) {
    EmulatedSpace space({.n = n, .f = (n - 1) / 3});
    copies[i++] = copies_per_write_and_read(space);
  }
  EXPECT_LE(copies[0], kMaxCopies);
  EXPECT_EQ(copies[0], copies[1]) << "n=4 vs n=7";
}

// Memory tracks live state, not history: once traffic quiesces, every
// server stores only the latest value and the ladders have released every
// delivered sn's value, so the number of live values does not grow with
// the number of writes.
TEST(PayloadSharing, LiveValuesDoNotGrowWithWrites) {
  EmulatedSpace space({.n = 4, .f = 1});
  const auto sent = [&] { return space.network().messages_sent(); };
  auto& reg = space.make_swmr<Counted>(1, Counted(0), "r");
  int next = 0;
  const auto live_after = [&](int writes) {
    {
      ThisProcess::Binder bind(1);
      for (int i = 0; i < writes; ++i) reg.write(Counted(++next));
    }
    quiesce(sent);
    return Counted::live.load();
  };
  const int after20 = live_after(20);
  const int after200 = live_after(180);
  EXPECT_EQ(after200, after20);
  ThisProcess::Binder bind(2);
  EXPECT_EQ(reg.read().v, 200);
}

// Drops the ECHOes that p3's and p4's server threads send for sn 1, so the
// honest echo tally for write #1 tops out at 2 < n−f = 3. Messages sent
// while `forging` is set on the sending thread (the Byzantine p4's forged
// traffic) pass. on_deliver runs on the sender's thread (faults.hpp).
thread_local bool forging = false;
class MuteEchoes : public FaultInjector {
 public:
  FaultDecision on_deliver(const Message& m) override {
    if (m.tag == obs::MsgTag::kEcho && m.sn == 1 && m.from >= 3 && !forging)
      return {.drop = true};
    return {};
  }
  bool reorder(runtime::ProcessId) override { return false; }
};

// Byzantine p4 forges one ECHO(1, 42) built under its own handle. Only
// matching candidates by content lets it pool with the honest echoes of p1 and p2 into
// the n−f quorum that certifies write #1 — with handle-keyed tallies the
// write would time out. Then p4 forges ECHO and ACCEPT for a value the
// owner never wrote, ahead of write #2: one voter cannot certify it.
TEST(PayloadSharing, ForeignHandleOfHonestValueTalliesWithIt) {
  EmulatedSpace::Options opt{.n = 4, .f = 1};
  opt.retry.op_timeout_ms = 5000;
  EmulatedSpace space(opt);
  auto& reg = space.make_swmr<int>(1, 0, "r");
  MuteEchoes mute;
  space.network().set_fault_injector(&mute);
  const auto forge = [&](obs::MsgTag tag, std::uint64_t sn, int value) {
    ThisProcess::Binder bind(4);
    forging = true;
    Message m;
    m.reg = 0;
    m.tag = tag;
    m.sn = sn;
    m.payload = Payload::of(value);  // p4's own handle
    space.network().broadcast(std::move(m));
    forging = false;
  };
  std::thread writer([&] {
    ThisProcess::Binder bind(1);
    EXPECT_NO_THROW(reg.write(42));
  });
  forge(obs::MsgTag::kEcho, 1, 42);
  writer.join();
  {
    ThisProcess::Binder bind(2);
    EXPECT_EQ(reg.read(), 42);
  }

  forge(obs::MsgTag::kEcho, 2, 666);
  forge(obs::MsgTag::kAccept, 2, 666);
  {
    ThisProcess::Binder bind(1);
    reg.write(43);
  }
  space.network().set_fault_injector(nullptr);
  quiesce([&] { return space.network().messages_sent(); });
  for (int pid = 1; pid <= 4; ++pid) {
    EXPECT_NE(reg.stored_state(pid).second, 666) << "p" << pid;
    ThisProcess::Binder bind(pid);
    EXPECT_EQ(reg.read(), 43) << "p" << pid;
  }
}

}  // namespace
}  // namespace swsig::msgpass
