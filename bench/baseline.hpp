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
// machine's hardware thread count (nproc) and the build type, which the
// build passes in as SWSIG_BUILD_TYPE. bench_compare.py prints both sides'
// meta and warns when they differ.
#pragma once

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

class Reporter {
 public:
  Reporter(int argc, char** argv, std::string name) : name_(std::move(name)) {
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
        << SWSIG_BUILD_TYPE << "\"},\n  \"metrics\": {";
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
  std::string path_;
  bool enabled_ = false;
  bool written_ = false;
  std::vector<std::pair<std::string, double>> metrics_;
};

}  // namespace swsig::bench
