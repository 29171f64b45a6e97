// Seeded fault-schedule tests: the soak harness's fault decisions must be
// a pure function of (seed, window, message) — reproducible bit-for-bit —
// and the schedule's contract with the protocol must hold: impairing at
// most f processes never blocks the quorums of honest operations, and
// delayed messages are held, not lost.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "msgpass/batched_space.hpp"
#include "msgpass/emulated_swmr.hpp"
#include "runtime/process.hpp"
#include "soak/fault_schedule.hpp"

namespace swsig::soak {
namespace {

using msgpass::Message;
using runtime::ThisProcess;

Message make_message(obs::MsgTag tag, int from, int to, std::uint64_t sn,
                     int reg) {
  Message m;
  m.tag = tag;
  m.from = from;
  m.to = to;
  m.sn = sn;
  m.reg = reg;
  return m;
}

// Every decision surface — per-message drop/delay, victim rotation, crash
// windows — replays identically for an identical config. The sweep covers
// both phases of many windows and all protocol message types.
TEST(FaultSchedule, SameSeedSameDecisions) {
  const FaultScheduleConfig config{.seed = 42,
                                  .kinds = FaultKinds::parse("drop+delay"),
                                  .victims = {3, 4},
                                  .period_ms = 100,
                                  .active_ms = 40,
                                  .max_delay_ms = 4,
                                  .drop_permille = 500,
                                  .delay_permille = 300};
  FaultSchedule a(config);
  FaultSchedule b(config);
  const obs::MsgTag kTags[] = {obs::MsgTag::kWrite, obs::MsgTag::kEcho,
                               obs::MsgTag::kAccept, obs::MsgTag::kAck,
                               obs::MsgTag::kRead, obs::MsgTag::kState};
  std::uint64_t drops = 0, delays = 0;
  for (std::uint64_t t = 0; t < 1200; t += 7) {
    EXPECT_EQ(a.victim_of(a.window_at(t)), b.victim_of(b.window_at(t)));
    for (const obs::MsgTag tag : kTags) {
      const char* type = obs::tag_name(tag);
      for (int from = 1; from <= 4; ++from) {
        const Message m = make_message(tag, from, 5 - from, t % 9, 2);
        const auto da = a.decide(t, m);
        const auto db = b.decide(t, m);
        EXPECT_EQ(da.drop, db.drop) << type << " from " << from << " t " << t;
        EXPECT_EQ(da.delay.count(), db.delay.count())
            << type << " from " << from << " t " << t;
        drops += da.drop ? 1 : 0;
        delays += da.delay.count() > 0 ? 1 : 0;
      }
    }
  }
  // The sweep must actually exercise both fault kinds to mean anything.
  EXPECT_GT(drops, 0u);
  EXPECT_GT(delays, 0u);
}

// A different seed yields a genuinely different schedule (statistically
// certain with 500‰/300‰ rates over hundreds of draws).
TEST(FaultSchedule, DifferentSeedsDiffer) {
  FaultScheduleConfig config{.seed = 1,
                             .kinds = FaultKinds::parse("drop+delay"),
                             .victims = {4},
                             .period_ms = 100,
                             .active_ms = 100,
                             .drop_permille = 500,
                             .delay_permille = 300};
  FaultSchedule a(config);
  config.seed = 2;
  FaultSchedule b(config);
  bool differ = false;
  for (std::uint64_t t = 0; t < 500 && !differ; ++t) {
    const Message m = make_message(obs::MsgTag::kEcho, 4, 1, t, 0);
    const auto da = a.decide(t, m);
    const auto db = b.decide(t, m);
    differ = da.drop != db.drop || da.delay != db.delay;
  }
  EXPECT_TRUE(differ);
}

TEST(FaultSchedule, WindowGeometryAndCrashCadence) {
  FaultSchedule s({.seed = 7,
                   .kinds = FaultKinds::parse("drop+crash"),
                   .victims = {2, 3, 4},
                   .period_ms = 400,
                   .active_ms = 150,
                   .crash_every = 4});
  EXPECT_EQ(s.window_at(0), 0u);
  EXPECT_EQ(s.window_at(399), 0u);
  EXPECT_EQ(s.window_at(400), 1u);
  EXPECT_TRUE(s.active_at(0));
  EXPECT_TRUE(s.active_at(149));
  EXPECT_FALSE(s.active_at(150));
  EXPECT_FALSE(s.active_at(399));
  for (std::uint64_t w = 0; w < 64; ++w) {
    // Victim always drawn from the pool; crash windows on the exact cadence.
    const auto victim = s.victim_of(w);
    EXPECT_TRUE(victim == 2 || victim == 3 || victim == 4) << "window " << w;
    EXPECT_EQ(s.crash_window(w), w % 4 == 3) << "window " << w;
  }
  // No impairing kind => no victim, regardless of the pool.
  FaultSchedule delay_only({.seed = 7,
                            .kinds = FaultKinds::parse("delay"),
                            .victims = {2, 3, 4}});
  EXPECT_EQ(delay_only.victim_of(5), runtime::kNoProcess);
}

TEST(FaultSchedule, DropsRequireTheEngagedGate) {
  FaultSchedule s({.seed = 3,
                   .kinds = FaultKinds::parse("drop"),
                   .victims = {4},
                   .period_ms = 100,
                   .active_ms = 100,
                   .drop_permille = 1000});
  s.set_clock([] { return std::uint64_t{10}; });
  const Message m = make_message(obs::MsgTag::kState, 4, 1, 1, 0);
  ASSERT_TRUE(s.decide(10, m).drop);  // time says drop...
  EXPECT_FALSE(s.on_deliver(m).drop);  // ...but the gate is not engaged
  s.engage(true);
  EXPECT_TRUE(s.on_deliver(m).drop);
  s.engage(false);
  EXPECT_FALSE(s.on_deliver(m).drop);
}

TEST(FaultKindsGrammar, ParseAndRoundTrip) {
  EXPECT_FALSE(FaultKinds::parse("none").any());
  EXPECT_FALSE(FaultKinds::parse("").any());
  const FaultKinds k = FaultKinds::parse("drop+delay+reorder+crash+partition");
  EXPECT_TRUE(k.drop && k.delay && k.reorder && k.crash && k.partition);
  EXPECT_EQ(k.to_string(), "drop+delay+reorder+crash+partition");
  EXPECT_EQ(FaultKinds::parse("delay+crash").to_string(), "delay+crash");
  EXPECT_EQ(FaultKinds::parse("drop+partition").to_string(),
            "drop+partition");
  EXPECT_TRUE(FaultKinds::parse("crash").impairing());
  EXPECT_TRUE(FaultKinds::parse("partition").impairing());
  EXPECT_FALSE(FaultKinds::parse("delay+reorder").impairing());
  EXPECT_THROW(FaultKinds::parse("drop+lag"), std::invalid_argument);
  EXPECT_THROW(FaultKinds::parse("dropdelay"), std::invalid_argument);
}

// A typo is self-diagnosing: the error names the offending token AND the
// full list of valid kinds.
TEST(FaultKindsGrammar, UnknownKindErrorListsValidKinds) {
  try {
    FaultKinds::parse("drop+dorp");
    FAIL() << "parse accepted a typo";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("dorp"), std::string::npos) << what;
    EXPECT_NE(what.find("valid: drop, delay, reorder, crash, partition, none"),
              std::string::npos)
        << what;
  }
}

// Partition decisions are seeded and pure: the cut follows the window's
// mode exactly (inbound / outbound / symmetric), never touches bystander
// links or self-delivery, and all three directions occur over a long run.
TEST(FaultSchedule, PartitionCutsFollowTheSeededMode) {
  FaultSchedule s({.seed = 21,
                   .kinds = FaultKinds::parse("partition"),
                   .victims = {4},
                   .period_ms = 100,
                   .active_ms = 100});
  bool saw[3] = {false, false, false};
  for (std::uint64_t w = 0; w < 64; ++w) {
    ASSERT_TRUE(s.partition_window(w));  // no drop scheduled: every window
    const PartitionMode mode = s.partition_mode(w);
    saw[static_cast<int>(mode)] = true;
    const std::uint64_t t = w * 100 + 10;
    EXPECT_EQ(s.decide(t, make_message(obs::MsgTag::kEcho, 2, 4, 1, 0)).drop,
              mode != PartitionMode::kOutbound)
        << "window " << w;
    EXPECT_EQ(s.decide(t, make_message(obs::MsgTag::kEcho, 4, 2, 1, 0)).drop,
              mode != PartitionMode::kInbound)
        << "window " << w;
    EXPECT_FALSE(s.decide(t, make_message(obs::MsgTag::kEcho, 2, 3, 1, 0)).drop);
    EXPECT_FALSE(s.decide(t, make_message(obs::MsgTag::kEcho, 4, 4, 1, 0)).drop)
        << "self-delivery must never be cut";
  }
  EXPECT_TRUE(saw[0] && saw[1] && saw[2]);
}

// With drop also scheduled the two loss shapes alternate on a seeded coin,
// and crash windows take precedence over both.
TEST(FaultSchedule, PartitionAlternatesWithDropAndYieldsToCrash) {
  FaultSchedule s({.seed = 33,
                   .kinds = FaultKinds::parse("drop+crash+partition"),
                   .victims = {4},
                   .period_ms = 100,
                   .active_ms = 100,
                   .crash_every = 4});
  bool part = false, plain = false;
  for (std::uint64_t w = 0; w < 64; ++w) {
    if (s.crash_window(w)) {
      EXPECT_FALSE(s.partition_window(w)) << "window " << w;
      continue;
    }
    (s.partition_window(w) ? part : plain) = true;
  }
  EXPECT_TRUE(part);
  EXPECT_TRUE(plain);
}

// End-to-end partition: 100% loss on the victim's cut links, yet the
// quorums of the other n-1 processes complete untouched, and the post-heal
// resync brings the victim current whatever the cut direction was.
TEST(FaultInjection, PartitionHealsAndVictimCatchesUp) {
  msgpass::EmulatedSpace space({.n = 4, .f = 1});
  auto& r1 = space.make_swmr<int>(1, 0, "r1");
  FaultSchedule sched({.seed = 17,
                       .kinds = FaultKinds::parse("partition"),
                       .victims = {4},
                       .period_ms = 1000000,
                       .active_ms = 1000000});
  space.network().set_fault_injector(&sched);
  sched.engage(true);
  for (int i = 1; i <= 10; ++i) {
    ThisProcess::Binder bind(1);
    r1.write(i);
    EXPECT_EQ(r1.read(), i);
  }
  sched.engage(false);
  space.resync(4);
  EXPECT_EQ(r1.stored_state(4).second, 10);
  space.network().set_fault_injector(nullptr);
  space.stop();
}

// The f-budget contract, emulated substrate: with EVERY message touching
// the single victim dropped (permille 1000, always active), operations of
// the n-1 honest processes still complete — their quorums (n-f echoes,
// accepts, ACKs, STATE replies) never require the victim. Afterwards a
// resync heals the victim's staleness once drops disengage.
TEST(FaultInjection, DropsBelowFNeverBlockQuorum) {
  msgpass::EmulatedSpace space({.n = 4, .f = 1});
  auto& r1 = space.make_swmr<int>(1, 0, "r1");
  auto& r2 = space.make_swmr<int>(2, 0, "r2");
  FaultSchedule sched({.seed = 9,
                       .kinds = FaultKinds::parse("drop"),
                       .victims = {4},
                       .period_ms = 1000,
                       .active_ms = 1000,
                       .drop_permille = 1000});
  space.network().set_fault_injector(&sched);
  sched.engage(true);

  for (int i = 1; i <= 20; ++i) {
    {
      ThisProcess::Binder bind(1);
      r1.write(i);
    }
    {
      ThisProcess::Binder bind(2);
      r2.write(100 + i);
      EXPECT_EQ(r1.read(), i);
    }
    {
      ThisProcess::Binder bind(3);
      EXPECT_EQ(r2.read(), 100 + i);
    }
  }
  EXPECT_GT(space.network().messages_dropped(), 0u);
  // The victim's replica is stale (every certificate to it was dropped);
  // the post-window heal brings it current.
  EXPECT_LT(r1.stored_state(4).first, r1.stored_state(1).first);
  sched.engage(false);
  space.resync(4);
  EXPECT_EQ(r1.stored_state(4).first, r1.stored_state(1).first);
  EXPECT_EQ(r1.stored_state(4).second, 20);
  space.network().set_fault_injector(nullptr);
  space.stop();
}

// Same contract on the batched substrate, injector attached to every shard.
TEST(FaultInjection, DropsBelowFNeverBlockQuorumBatched) {
  msgpass::BatchedEmulatedSpace space(
      {.n = 4, .f = 1, .shards = 2, .batch_max = 4});
  auto& r1 = space.make_swmr<int>(1, 0, "r1");
  auto& r2 = space.make_swmr<int>(3, 0, "r2");
  FaultSchedule sched({.seed = 11,
                       .kinds = FaultKinds::parse("drop"),
                       .victims = {4},
                       .period_ms = 1000,
                       .active_ms = 1000,
                       .drop_permille = 1000});
  for (int s = 0; s < space.shard_count(); ++s)
    space.shard(s).network().set_fault_injector(&sched);
  sched.engage(true);

  for (int i = 1; i <= 20; ++i) {
    {
      ThisProcess::Binder bind(1);
      r1.write(i);
    }
    {
      ThisProcess::Binder bind(3);
      r2.write(100 + i);
      EXPECT_EQ(r1.read(), i);
    }
    {
      ThisProcess::Binder bind(2);
      EXPECT_EQ(r2.read(), 100 + i);
    }
  }
  std::uint64_t dropped = 0;
  for (int s = 0; s < space.shard_count(); ++s)
    dropped += space.shard(s).network().messages_dropped();
  EXPECT_GT(dropped, 0u);
  sched.engage(false);
  for (int s = 0; s < space.shard_count(); ++s)
    space.shard(s).network().set_fault_injector(nullptr);
  space.stop();
}

// Delay is loss-free: with EVERY message held back (permille 1000), all
// operations still complete — just later. This also hammers the delay
// pump's heap under concurrent pushes (regression: the pump once slept on
// a deadline held by reference into the heap; a concurrent push moved the
// element and the pump slept forever on the dangling value, wedging every
// quorum wait in the system).
TEST(FaultInjection, DelayEventuallyDelivers) {
  msgpass::EmulatedSpace space({.n = 4, .f = 1});
  auto& r1 = space.make_swmr<int>(1, 0, "r1");
  auto& r2 = space.make_swmr<int>(2, 0, "r2");
  FaultSchedule sched({.seed = 13,
                       .kinds = FaultKinds::parse("delay"),
                       .victims = {},
                       .period_ms = 1000,
                       .active_ms = 1000,
                       .max_delay_ms = 3,
                       .delay_permille = 1000});
  space.network().set_fault_injector(&sched);

  std::thread t1([&] {
    ThisProcess::Binder bind(1);
    for (int i = 1; i <= 60; ++i) r1.write(i);
  });
  std::thread t2([&] {
    ThisProcess::Binder bind(2);
    for (int i = 1; i <= 60; ++i) r2.write(-i);
  });
  std::thread t3([&] {
    ThisProcess::Binder bind(3);
    int last1 = 0, last2 = 0;
    for (int i = 0; i < 40; ++i) {
      const int v1 = r1.read();
      const int v2 = r2.read();
      EXPECT_GE(v1, last1);  // writer is monotone; reads may not regress
      EXPECT_LE(v2, last2);
      last1 = v1;
      last2 = v2;
    }
  });
  t1.join();
  t2.join();
  t3.join();
  EXPECT_GT(space.network().messages_delayed(), 0u);
  {
    ThisProcess::Binder bind(4);
    EXPECT_EQ(r1.read(), 60);
    EXPECT_EQ(r2.read(), -60);
  }
  space.network().set_fault_injector(nullptr);
  space.stop();
}

}  // namespace
}  // namespace swsig::soak
