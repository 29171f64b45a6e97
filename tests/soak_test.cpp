// Soak-harness component tests: the liveness monitor's stall/error
// accounting, the repro line every failure prints, and a short sanitizer-
// friendly end-to-end run_soak() with a crash/recovery cycle. The full
// wall-clock soak is the Release-only `soak_smoke` CTest and the long-soak
// workflow; these tests keep the harness itself honest in every build.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "msgpass/emulated_swmr.hpp"
#include "soak/liveness.hpp"
#include "soak/report.hpp"
#include "soak/runner.hpp"

namespace swsig::soak {
namespace {

TEST(LivenessMonitor, FlagsStallsOncePerEpisode) {
  LivenessMonitor mon({.stall_budget_ms = 40});
  mon.attach("c1");
  mon.attach("c2");
  mon.success("c1");
  mon.success("c2");
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  mon.success("c2");
  LivenessMonitor::Report r = mon.check();
  EXPECT_EQ(r.violations, 1u);
  ASSERT_EQ(r.stalled.size(), 1u);
  EXPECT_EQ(r.stalled[0], "c1");
  EXPECT_GE(r.max_stall_ms, 40u);
  // Still stalled: same episode, not re-counted.
  r = mon.check();
  EXPECT_EQ(r.violations, 1u);
  // Recovery re-arms the detector for a future episode.
  mon.success("c1");
  r = mon.check();
  EXPECT_EQ(r.violations, 1u);
  EXPECT_TRUE(r.stalled.empty());
}

TEST(LivenessMonitor, DetachedClientsAreExempt) {
  LivenessMonitor mon({.stall_budget_ms = 30});
  mon.attach("parked");
  mon.detach("parked");  // the harness parks it on purpose (checkpoint)
  std::this_thread::sleep_for(std::chrono::milliseconds(70));
  EXPECT_EQ(mon.check().violations, 0u);
  // Re-attach re-arms the clock — no retroactive stall.
  mon.attach("parked");
  EXPECT_EQ(mon.check().violations, 0u);
}

TEST(LivenessMonitor, ErrorBudget) {
  LivenessMonitor mon({.stall_budget_ms = 1000, .error_budget = 1});
  mon.attach("c");
  EXPECT_FALSE(mon.error_budget_exceeded());
  mon.error("c");
  EXPECT_FALSE(mon.error_budget_exceeded());
  mon.error("c");
  EXPECT_TRUE(mon.error_budget_exceeded());
  EXPECT_EQ(mon.check().errors, 2u);
}

// Every soak failure prints cfg.repro_line(); it must carry everything a
// replay needs: n/f, scale, duration, fault schedule and seed.
TEST(SoakConfigRepro, LineIsComplete) {
  SoakConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.registers = 64;
  cfg.clients = 4;
  cfg.duration_ms = 4000;
  cfg.seed = 8;
  cfg.faults = FaultKinds::parse("drop+delay+crash");
  cfg.byzantine = 1;
  const std::string line = cfg.repro_line();
  EXPECT_NE(line.find("soak_driver"), std::string::npos);
  EXPECT_NE(line.find("--n 4"), std::string::npos);
  EXPECT_NE(line.find("--f 1"), std::string::npos);
  EXPECT_NE(line.find("--registers 64"), std::string::npos);
  EXPECT_NE(line.find("--clients 4"), std::string::npos);
  EXPECT_NE(line.find("--duration 4"), std::string::npos);
  EXPECT_NE(line.find("--faults drop+delay+crash"), std::string::npos);
  EXPECT_NE(line.find("--byzantine 1"), std::string::npos);
  EXPECT_NE(line.find("--seed 8"), std::string::npos);
}

TEST(SoakMetricsReport, SloGatesOnItsCounters) {
  SoakMetrics m;
  m.duration_ms = 1000;
  m.reads = 900;
  m.writes = 100;
  EXPECT_TRUE(m.slo_ok());
  EXPECT_EQ(m.total_ops(), 1000u);
  EXPECT_DOUBLE_EQ(m.ops_per_s(), 1000.0);
  m.window_violations = 1;
  EXPECT_FALSE(m.slo_ok());
  m.window_violations = 0;
  m.liveness_violations = 1;
  EXPECT_FALSE(m.slo_ok());
  m.liveness_violations = 0;
  m.op_errors = 1;
  EXPECT_FALSE(m.slo_ok());
  m.op_errors = 0;
  m.byz_failures = 1;
  EXPECT_FALSE(m.slo_ok());
  m.byz_failures = 0;
  EXPECT_TRUE(m.slo_ok());
  // A window the checker gave up on proves nothing: a run whose every
  // window exhausted the budget must not pass.
  m.windows_checked = 3;
  m.windows_undecided = 3;
  EXPECT_FALSE(m.slo_ok());
}

// The JSON report carries the undecided-window count next to the other
// SLO counters, and names the window count for what it counts. Keys keep
// their "soak.emulated." prefix so they compare against older baselines.
TEST(SoakMetricsReport, EmitsUndecidedWindows) {
  SoakMetrics m;
  m.windows_checked = 7;
  m.windows_undecided = 2;
  const std::string path =
      (std::filesystem::temp_directory_path() / "soak_report_test.json")
          .string();
  {
    std::string prog = "soak_test", flag = "--json", out = path;
    char* argv[] = {prog.data(), flag.data(), out.data()};
    bench::Reporter rep(3, argv, "soak");
    m.emit(rep);
  }
  std::ifstream in(path);
  std::stringstream json;
  json << in.rdbuf();
  std::filesystem::remove(path);
  EXPECT_NE(json.str().find("\"soak.emulated.slo.windows_undecided\": 2"),
            std::string::npos)
      << json.str();
  EXPECT_NE(json.str().find("\"soak.emulated.windows_checked\": 7"),
            std::string::npos)
      << json.str();
  EXPECT_EQ(json.str().find("windows_checked_ops"), std::string::npos);
}

// End-to-end, scaled for sanitizer builds: a short run with crash/rejoin
// cycles and online checking must meet its SLO — every sampled window
// linearizable, no stalls, and at least one crash/recovery exercised. The
// crash victims include honest owners with writes in flight, so owner
// recovery (complete or fence-abort) runs too.
TEST(SoakEndToEnd, ShortRunWithCrashRecoveryMeetsSlo) {
  msgpass::EmulatedSpace space({.n = 4, .f = 1});
  SoakConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.registers = 16;
  cfg.clients = 2;
  cfg.duration_ms = 2600;
  cfg.seed = 3;
  cfg.faults = FaultKinds::parse("crash");
  cfg.byzantine = 0;
  cfg.window_ops = 64;
  cfg.stall_budget_ms = 20000;  // sanitizer headroom
  const SoakOutcome out = run_soak(space, cfg);
  EXPECT_TRUE(out.ok()) << cfg.repro_line();
  for (const std::string& failure : out.failures)
    ADD_FAILURE() << failure;
  EXPECT_GT(out.metrics.total_ops(), 0u);
  EXPECT_GE(out.metrics.windows_checked, 1u);
  EXPECT_EQ(out.metrics.window_violations, 0u);
  EXPECT_EQ(out.metrics.liveness_violations, 0u);
  // Default schedule: every 4th 400 ms window crashes its victim, so a
  // 2.6 s run sees at least one full crash/restart/resync cycle.
  EXPECT_GE(out.metrics.crashes, 1u);
  EXPECT_GE(out.metrics.resyncs, out.metrics.crashes);
  space.stop();
}

}  // namespace
}  // namespace swsig::soak
