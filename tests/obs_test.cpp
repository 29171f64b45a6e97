// Flight recorder, metrics registry, and wedge forensics.
//
// Covers the observability substrate end to end: event word packing, ring
// wraparound and torn-slot discipline under concurrent writers (run under
// ASan/UBSan in CI), histogram bucket math against util::Samples' exact
// percentiles, registry counters/gauges, and — the payoff — a forced
// protocol wedge whose trace dump names the stalled ladder and the last
// rung it reached.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "msgpass/emulated_swmr.hpp"
#include "msgpass/faults.hpp"
#include "msgpass/message.hpp"
#include "obs/event.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "registers/metrics.hpp"
#include "runtime/process.hpp"
#include "util/stats.hpp"

namespace swsig {
namespace {

using obs::Event;
using obs::EventKind;
using obs::FlightRecorder;
using obs::LogHistogram;
using obs::MsgTag;

TEST(ObsEvent, PackUnpackRoundTrip) {
  Event e;
  e.ts_ns = 0x123456789abcdefull;
  e.kind = EventKind::kPhaseDeliver;
  e.tag = MsgTag::kCWrite;
  e.pid = 7;
  e.peer = -3;
  e.reg = -2;  // witness sentinel: negative regs must survive packing
  e.origin = 1000000;
  e.sn = ~0ull - 5;
  e.aux = 0xdeadbeefull;
  std::uint64_t w[5];
  obs::pack(e, w);
  const Event back = obs::unpack(w);
  EXPECT_EQ(back.ts_ns, e.ts_ns);
  EXPECT_EQ(back.kind, e.kind);
  EXPECT_EQ(back.tag, e.tag);
  EXPECT_EQ(back.pid, e.pid);
  EXPECT_EQ(back.peer, e.peer);
  EXPECT_EQ(back.reg, e.reg);
  EXPECT_EQ(back.origin, e.origin);
  EXPECT_EQ(back.sn, e.sn);
  EXPECT_EQ(back.aux, e.aux);
}

TEST(ObsEvent, TagNamesAreDistinct) {
  // Counter names ("net.send.<TAG>") and dumps key on tag_name: every tag
  // must name itself uniquely.
  std::set<std::string> names;
  for (std::size_t t = 0; t < static_cast<std::size_t>(MsgTag::kCount); ++t) {
    const std::string name = obs::tag_name(static_cast<MsgTag>(t));
    EXPECT_NE(name, "?");
    EXPECT_TRUE(names.insert(name).second) << "duplicate tag " << name;
  }
}

// The ring and wedge tests drive obs::record(), which a SWSIG_OBS=OFF
// build compiles to nothing — gate them on the kill switch (the event
// packing, histogram, and registry tests are not gated, those layers
// stay compiled either way).
#if defined(SWSIG_OBS_ENABLED)

// Wraparound: record 3x capacity; the snapshot must contain exactly the
// last `capacity - 1` events (the oldest slot of a full ring is one
// wraparound behind the writer and never attempted), contiguous and
// bit-exact.
TEST(ObsRecorder, WraparoundKeepsContiguousTail) {
  FlightRecorder& rec = FlightRecorder::instance();
  rec.clear();
  constexpr std::uint64_t kTotal = 3 * FlightRecorder::kRingCapacity;
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    Event e;
    e.ts_ns = i + 1;  // nonzero so record() doesn't re-stamp
    e.kind = EventKind::kMsgSend;
    e.sn = i;
    e.aux = i ^ 0x5a5a5a5aull;
    obs::record(e);
  }
  const std::vector<Event> events = rec.snapshot();
  ASSERT_EQ(events.size(), FlightRecorder::kRingCapacity - 1);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::uint64_t expect_sn = kTotal - events.size() + i;
    EXPECT_EQ(events[i].sn, expect_sn);
    EXPECT_EQ(events[i].aux, expect_sn ^ 0x5a5a5a5aull);
    EXPECT_EQ(events[i].kind, EventKind::kMsgSend);
  }
  EXPECT_GE(rec.events_recorded(), kTotal);
  rec.clear();
}

// Concurrent writers wrapping their rings while a reader snapshots
// continuously: every decoded event must be internally consistent (the
// torn-slot check discards mixed slots, it must never emit one). Run under
// sanitizers in CI; the slot words are relaxed atomics, so this is
// race-free by construction — the assertion is about torn DATA.
TEST(ObsRecorder, ConcurrentWritersNeverYieldTornEvents) {
  FlightRecorder& rec = FlightRecorder::instance();
  rec.clear();
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 3 * FlightRecorder::kRingCapacity;
  std::atomic<bool> go{false};
  std::atomic<int> done{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t, &go, &done] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        Event e;
        e.ts_ns = 1;  // fixed: contiguity is checked via sn, not time
        e.kind = EventKind::kMsgRecv;
        e.pid = static_cast<std::int16_t>(t + 1);
        e.sn = (static_cast<std::uint64_t>(t) << 32) | i;
        e.aux = e.sn ^ 0xabcdef0123ull;
        obs::record(e);
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }
  go.store(true, std::memory_order_release);
  // Reader: snapshot while writers are mid-wraparound. Every event that
  // survives the torn-slot filter must satisfy the aux invariant. Keep
  // snapshotting until something was observed — the writers can outrace
  // the first scan, but once they finish the rings stay full, so a later
  // pass always sees events and the loop terminates.
  std::size_t reader_saw = 0;
  do {
    for (const Event& e : rec.snapshot()) {
      if (e.kind != EventKind::kMsgRecv) continue;
      EXPECT_EQ(e.aux, e.sn ^ 0xabcdef0123ull);
      ++reader_saw;
    }
  } while (done.load(std::memory_order_acquire) < kThreads ||
           reader_saw == 0);
  for (auto& w : writers) w.join();
  EXPECT_GT(reader_saw, 0u);
  // Quiescent final snapshot: each writer's tail is the full reachable
  // window (ring capacity - 1), contiguous per thread.
  std::map<int, std::set<std::uint64_t>> per_thread;
  for (const Event& e : rec.snapshot()) {
    if (e.kind != EventKind::kMsgRecv) continue;
    EXPECT_EQ(e.aux, e.sn ^ 0xabcdef0123ull);
    per_thread[e.pid].insert(e.sn & 0xffffffffull);
  }
  ASSERT_EQ(per_thread.size(), static_cast<std::size_t>(kThreads));
  for (const auto& [pid, sns] : per_thread) {
    EXPECT_EQ(sns.size(), FlightRecorder::kRingCapacity - 1) << "pid " << pid;
    EXPECT_EQ(*sns.rbegin(), kPerThread - 1) << "pid " << pid;
    EXPECT_EQ(*sns.rbegin() - *sns.begin() + 1, sns.size())
        << "pid " << pid << ": tail not contiguous";
  }
  rec.clear();
}

TEST(ObsRecorder, RuntimeToggleStopsRecording) {
  FlightRecorder& rec = FlightRecorder::instance();
  rec.clear();
  rec.set_enabled(false);
  Event e;
  e.ts_ns = 1;
  e.kind = EventKind::kCrash;
  obs::record(e);
  EXPECT_TRUE(rec.snapshot().empty());
  rec.set_enabled(true);
  obs::record(e);
  EXPECT_EQ(rec.snapshot().size(), 1u);
  rec.clear();
}

#endif  // SWSIG_OBS_ENABLED (recorder tests)

// Bucket bounds: every in-range value lands in a bucket whose [lo, hi)
// contains it. The representable range is [2^(kMinExp-1), 2^(kMaxExp-1))
// microseconds (frexp mantissas live in [0.5, 1)).
TEST(ObsHistogram, BucketBoundsContainValue) {
  for (double v : {1e-3, 0.5, 1.0, 1.5, 2.0, 3.7, 100.0, 12345.6, 4e8}) {
    const int b = LogHistogram::bucket_of(v);
    EXPECT_LE(LogHistogram::bucket_lo(b), v) << v;
    EXPECT_GT(LogHistogram::bucket_hi(b), v) << v;
  }
  // Clamps, not UB, at the extremes.
  EXPECT_EQ(LogHistogram::bucket_of(-1.0), 0);
  EXPECT_EQ(LogHistogram::bucket_of(0.0), 0);
  EXPECT_EQ(LogHistogram::bucket_of(9e8), LogHistogram::kBuckets - 1);
  EXPECT_EQ(LogHistogram::bucket_of(1e300), LogHistogram::kBuckets - 1);
}

// Percentile reconstruction against util::Samples' exact percentiles: the
// geometric-midpoint estimate must stay within half a bucket's relative
// width (sqrt(1 + 1/kSub) - 1 ~ 1.6%) of the exact value, across a
// latency-like log-spread sample.
TEST(ObsHistogram, PercentilesTrackExactSamples) {
  LogHistogram hist;
  util::Samples exact;
  // Deterministic log-uniform spread over [1us, 10ms] — the shape of real
  // quorum latencies (long right tail).
  std::uint64_t state = 42;
  for (int i = 0; i < 20000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double u =
        static_cast<double>(state >> 11) / static_cast<double>(1ull << 53);
    const double v = std::exp(std::log(1.0) + u * std::log(10000.0));
    hist.add(v);
    exact.add(v);
  }
  EXPECT_EQ(hist.count(), 20000u);
  for (double p : {50.0, 99.0, 99.9}) {
    const double got = hist.quantile(p);
    const double want = exact.percentile(p);
    EXPECT_NEAR(got / want, 1.0, 0.02)
        << "p" << p << ": hist " << got << " vs exact " << want;
  }
  hist.reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.quantile(50.0), 0.0);
}

TEST(ObsRegistry, CountersHistogramsAndGauges) {
  obs::MetricsRegistry reg;
  util::ShardedCounter& c1 = reg.counter("test.a");
  util::ShardedCounter& c1_again = reg.counter("test.a");
  EXPECT_EQ(&c1, &c1_again);  // stable reference
  c1.add();
  c1.add();
  reg.counter("other.b").add();
  std::uint64_t gauge_src = 40;
  {
    const auto handle =
        reg.gauge("test.g", [&gauge_src] { return gauge_src + 2; });
    const auto counters = reg.counters("test.");
    ASSERT_EQ(counters.size(), 2u);
    std::map<std::string, std::uint64_t> by_name;
    for (const auto& c : counters) by_name[c.name] = c.value;
    EXPECT_EQ(by_name.at("test.a"), 2u);
    EXPECT_EQ(by_name.at("test.g"), 42u);
  }
  // Handle destruction deregisters the gauge.
  EXPECT_EQ(reg.counters("test.").size(), 1u);

  reg.histogram("test.h").add(5.0);
  reg.histogram("keep.h").add(7.0);
  const auto hists = reg.histograms("test.");
  ASSERT_EQ(hists.size(), 1u);
  EXPECT_EQ(hists[0].count, 1u);
  reg.reset_histograms("test.");
  EXPECT_EQ(reg.histograms("test.")[0].count, 0u);
  EXPECT_EQ(reg.histograms("keep.")[0].count, 1u);  // prefix respected
}

TEST(ObsRegistry, RegisterMetricsPublishAsGauges) {
  obs::MetricsRegistry reg;
  registers::Metrics m;
  m.on_read();
  m.on_read();
  m.on_write();
  {
    const auto published = m.publish(reg, "regs.test");
    std::map<std::string, std::uint64_t> by_name;
    for (const auto& c : reg.counters("regs.test.")) by_name[c.name] = c.value;
    EXPECT_EQ(by_name.at("regs.test.reads"), 2u);
    EXPECT_EQ(by_name.at("regs.test.writes"), 1u);
  }
  EXPECT_TRUE(reg.counters("regs.test.").empty());
}

#if defined(SWSIG_OBS_ENABLED)

// The payoff test: wedge a write ladder on purpose — drop every ECHO and
// ACCEPT for one register — and assert the wedge report names the stalled
// (origin, sn) and the last rung any process completed ("echo": servers
// echoed the WRITE, but no echo quorum could assemble).
class LadderWedger : public msgpass::FaultInjector {
 public:
  msgpass::FaultDecision on_deliver(const msgpass::Message& m) override {
    if (m.tag == MsgTag::kEcho || m.tag == MsgTag::kAccept)
      return {.drop = true};
    return {};
  }
  bool reorder(runtime::ProcessId) override { return false; }
};

TEST(ObsWedge, ForcedWedgeDumpNamesStalledLadderAndPhase) {
  FlightRecorder::instance().clear();
  constexpr int kN = 4;
  msgpass::EmulatedSpace space(
      msgpass::EmulatedSpace::Options{kN, 1, 0, true});
  auto& reg = space.make_swmr<std::string>(1, "0", "wedge-reg");
  (void)reg;
  LadderWedger wedger;
  space.network().set_fault_injector(&wedger);

  // Owner side, done manually: a real write() would block forever on its
  // ACK quorum. Broadcasting the WRITE under the owner's identity runs the
  // genuine server path — every server echoes, no echo ever arrives.
  {
    runtime::ThisProcess::Binder bind(1);
    Event start;
    start.kind = EventKind::kWriteStart;
    start.pid = 1;
    start.reg = 0;
    start.origin = 1;
    start.sn = 1;
    obs::record(start);
    msgpass::Message m;
    m.reg = 0;
    m.tag = obs::MsgTag::kWrite;
    m.sn = 1;
    m.payload = msgpass::Payload::of(std::string("doomed"));
    space.network().broadcast(m);
  }

  // Wait until every server has echoed (the echo events are recorded
  // before the ECHO broadcast, so this also bounds the test).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::vector<Event> events;
  std::size_t echoes = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    events = FlightRecorder::instance().snapshot();
    echoes = 0;
    for (const Event& e : events)
      if (e.kind == EventKind::kPhaseEcho && e.reg == 0 && e.sn == 1)
        ++echoes;
    if (echoes >= kN) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(echoes, static_cast<std::size_t>(kN));

  const auto ladders = obs::correlate_ladders(events);
  const obs::LadderSummary* stalled = nullptr;
  for (const auto& l : ladders)
    if (l.reg == 0 && l.origin == 1 && l.sn == 1) stalled = &l;
  ASSERT_NE(stalled, nullptr);
  EXPECT_TRUE(stalled->stalled());
  EXPECT_EQ(std::string(stalled->last_phase()), "echo");
  EXPECT_EQ(stalled->echoed.size(), static_cast<std::size_t>(kN));

  std::ostringstream report;
  obs::wedge_report(report, events);
  const std::string text = report.str();
  EXPECT_NE(text.find("STALLED"), std::string::npos) << text;
  EXPECT_NE(text.find("reg=0 origin=p1 sn=1"), std::string::npos) << text;
  EXPECT_NE(text.find("last phase echo"), std::string::npos) << text;

  space.network().set_fault_injector(nullptr);
  space.stop();
  FlightRecorder::instance().clear();
}

#endif  // SWSIG_OBS_ENABLED (wedge test)

}  // namespace
}  // namespace swsig
