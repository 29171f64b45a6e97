// Persisted benchmark baselines.
//
// Every bench binary constructs a Reporter from (argc, argv) and records
// its headline numbers as flat key -> double metrics. With
//
//   bench_<name> --json [path]
//
// the metrics are dumped as JSON (default path BENCH_<name>.json) on exit;
// without --json the Reporter is inert. tools/bench_compare.py diffs two
// dumps with a regression threshold, and bench/baselines/ holds committed
// snapshots so perf PRs can prove their wins (see README, "Benchmark
// baselines").
//
// Conventions: metric keys are dot-separated paths ("read.n4.plain_us");
// lower is better, except keys ending in "_per_s", "_ops" or "_speedup",
// which bench_compare.py treats as higher-is-better.
//
// Every dump also states where it was measured: a "meta" object with the
// machine's hardware thread count (nproc), the build type, which the build
// passes in as SWSIG_BUILD_TYPE, and steal_frac, the share of the
// machine's CPU time the hypervisor stole between the Reporter's
// construction and the dump (from /proc/stat; absent where that file is
// not). bench_compare.py prints both sides' meta, warns when nproc or the
// build type differ, and warns when either side's steal is above 5%: a
// neighbour's load then moves the numbers as much as the code does.
#pragma once

#include <array>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#ifndef SWSIG_BUILD_TYPE
#define SWSIG_BUILD_TYPE "unknown"
#endif

namespace swsig::bench {

// The machine's CPU time so far, in /proc/stat ticks: {steal, total}, or
// {0, 0} when the file cannot be read.
inline std::array<std::uint64_t, 2> cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t field = 0, total = 0, steal = 0;
  in >> cpu;  // "cpu": the all-CPU line comes first
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted in user and nice).
  for (int i = 0; i < 8 && in >> field; ++i) {
    total += field;
    if (i == 7) steal = field;
  }
  return {steal, total};
}

class Reporter {
 public:
  Reporter(int argc, char** argv, std::string name)
      : name_(std::move(name)), ticks0_(cpu_ticks()) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--json") {
        enabled_ = true;
        path_ = "BENCH_" + name_ + ".json";
        if (i + 1 < argc && argv[i + 1][0] != '-') path_ = argv[++i];
      }
    }
  }

  Reporter(const Reporter&) = delete;
  Reporter& operator=(const Reporter&) = delete;

  ~Reporter() {
    if (enabled_ && !written_) write();
  }

  bool enabled() const { return enabled_; }

  void metric(const std::string& key, double value) {
    metrics_.emplace_back(key, value);
  }

  void write() {
    written_ = true;
    if (!enabled_) return;
    std::ofstream out(path_);
    if (!out) {
      std::cerr << "bench: cannot write " << path_ << "\n";
      return;
    }
    out << "{\n  \"bench\": \"" << name_ << "\",\n  \"meta\": {\"nproc\": "
        << std::thread::hardware_concurrency() << ", \"build_type\": \""
        << SWSIG_BUILD_TYPE << "\"";
    const auto ticks = cpu_ticks();
    if (ticks[1] > ticks0_[1])
      out << ", \"steal_frac\": "
          << fmt(static_cast<double>(ticks[0] - ticks0_[0]) /
                 static_cast<double>(ticks[1] - ticks0_[1]));
    out << "},\n  \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      out << (i == 0 ? "\n" : ",\n");
      out << "    \"" << metrics_[i].first << "\": " << fmt(metrics_[i].second);
    }
    out << "\n  }\n}\n";
    std::cerr << "bench: wrote " << path_ << " (" << metrics_.size()
              << " metrics)\n";
  }

 private:
  static std::string fmt(double v) {
    std::ostringstream os;
    os.precision(9);
    os << v;
    const std::string s = os.str();
    // JSON numbers: "inf"/"nan" are not representable; clamp to null-safe 0.
    if (s.find("inf") != std::string::npos ||
        s.find("nan") != std::string::npos)
      return "0";
    return s;
  }

  std::string name_;
  std::array<std::uint64_t, 2> ticks0_;  // cpu_ticks() at construction
  std::string path_;
  bool enabled_ = false;
  bool written_ = false;
  std::vector<std::pair<std::string, double>> metrics_;
};

}  // namespace swsig::bench
