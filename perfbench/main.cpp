// perfbench: the repository benchmark, one workload per invocation.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--spans-out <file.csv>]
//
// --trace 0 measures the workload for <s> seconds with tracing off.
// --trace 1 measures it twice for <s>/2 seconds each, untraced then traced,
// and reports the per-layer numbers of the traced half, the tracing
// overhead, and whether both halves gave the same per-op verdicts.
//
// The last line of standard output is one JSON object: run metadata, every
// metric with its unit (and, for quantiles, the sample count and the
// quantile taken), the attempted/failed operation counts, and the errors.
// Exits 1 if any output was wrong, 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

namespace pb = swsig::perfbench;
using pb::PhaseOptions;
using pb::PhaseResult;

struct Workload {
  const char* name;
  PhaseResult (*run)(const PhaseOptions&);
  int setups;  // set-ups per untraced run; setup_s is their median
};

// shm-broadcast sets a system up for every 3 x 32 broadcasts, so its runs
// already hold many set-ups.
constexpr Workload kWorkloads[] = {
    {"fullstack-verify", pb::run_fullstack_verify, 9},
    {"register-mix", pb::run_register_mix, 9},
    {"register-faults", pb::run_register_faults, 9},
    {"shm-broadcast", pb::run_shm_broadcast, 1},
};

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--commit <id>] [--spans-out <file>]\n"
               "workloads:";
  for (const Workload& w : kWorkloads) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        for (const Workload& w : kWorkloads)
          if (value == w.name) a.workload = &w;
        if (!a.workload) usage("unknown workload '" + value + "'");
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
        if (!(a.seconds > 0 && a.seconds <= 120))
          usage("--seconds out of range");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else if (flag == "--commit") {
        a.commit = value;
      } else if (flag == "--spans-out") {
        a.spans_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!a.workload) usage("--workload is required");
  return a;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// The per-op verdict sequences of two runs of one seed agree on every
// thread's common prefix (closed loops issue different op counts).
bool same_verdicts(const PhaseResult& a, const PhaseResult& b,
                   std::uint64_t& compared) {
  compared = 0;
  if (a.verdicts.size() != b.verdicts.size()) return false;
  for (std::size_t t = 0; t < a.verdicts.size(); ++t) {
    const std::size_t n = std::min(a.verdicts[t].size(), b.verdicts[t].size());
    for (std::size_t i = 0; i < n; ++i)
      if (a.verdicts[t][i] != b.verdicts[t][i]) return false;
    compared += n;
  }
  return true;
}

// Spans of the traced run as CSV, at most kMaxRows rows.
void write_spans(const std::string& path) {
  constexpr std::size_t kMaxRows = 200000;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perfbench: cannot write " << path << "\n";
    return;
  }
  out << "thread,index,parent,op_id,span,start_ns,end_ns\n";
  std::size_t rows = 0;
  pb::Tracer::instance().for_each_log([&](const pb::SpanLog& log) {
    for (std::size_t i = 0; i < log.spans.size() && rows < kMaxRows;
         ++i, ++rows) {
      const pb::Span& s = log.spans[i];
      out << log.thread_ix << ',' << i << ',' << s.parent << ',' << s.op_id
          << ',' << pb::span_name(s.kind) << ',' << s.start_ns << ','
          << s.end_ns << '\n';
    }
  });
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  PhaseResult result;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  const auto absorb_counts = [&](const PhaseResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
  };
  try {
    if (!args.trace) {
      result = args.workload->run(
          PhaseOptions{args.seed, args.seconds, false, args.workload->setups});
      absorb_counts(result);
    } else {
      const double half = args.seconds / 2;
      const PhaseResult plain =
          args.workload->run(PhaseOptions{args.seed, half, false, 1});
      absorb_counts(plain);
      result = args.workload->run(PhaseOptions{args.seed, half, true, 1});
      absorb_counts(result);
      const double plain_rate = plain.metrics.at("ops_per_s").value;
      const double traced_rate = result.metrics.at("ops_per_s").value;
      result.set("trace.overhead_frac",
                 plain_rate > 0 ? 1.0 - traced_rate / plain_rate : 0.0,
                 "ratio");
      std::uint64_t compared = 0;
      const bool same = same_verdicts(plain, result, compared);
      result.set("trace.verdicts_compared", static_cast<double>(compared),
                 "count");
      if (!same) {
        ++failed;
        errors.push_back("traced and untraced runs of one seed disagree on "
                         "per-op verdicts");
      }
      if (!args.spans_out.empty()) write_spans(args.spans_out);
    }
  } catch (const std::exception& e) {
    ++failed;
    errors.push_back(std::string("workload aborted: ") + e.what());
  }
  if (attempted == 0) {
    ++failed;
    errors.push_back("no operation completed");
  }
  result.set("op_fail_ratio",
             attempted > 0 ? static_cast<double>(failed) /
                                 static_cast<double>(attempted)
                           : 1.0,
             "ratio");
  // peak_rss_mb is the set-up system's footprint (each workload samples it
  // before load starts); this is the whole run's, including the benchmark's
  // own recorded history, which grows with throughput.
  result.set("peak_rss_run_mb", pb::peak_rss_mb(), "MB");
  const bool correct = failed == 0 && errors.empty();

  std::ostringstream os;
  os << "{\"workload\":" << json_string(args.workload->name)
     << ",\"seed\":" << args.seed
     << ",\"seconds\":" << json_number(args.seconds)
     << ",\"trace\":" << (args.trace ? 1 : 0)
     << ",\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
     << ",\"commit\":" << json_string(args.commit)
     << ",\"correct\":" << (correct ? "true" : "false")
     << ",\"attempted\":" << attempted << ",\"failed\":" << failed
     << ",\"errors\":[";
  for (std::size_t i = 0; i < errors.size(); ++i)
    os << (i ? "," : "") << json_string(errors[i]);
  os << "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : result.metrics) {
    os << (first ? "" : ",") << json_string(name) << ":{\"value\":"
       << json_number(m.value) << ",\"unit\":" << json_string(m.unit);
    if (m.percentile >= 0)
      os << ",\"samples\":" << m.samples
         << ",\"percentile\":" << json_number(m.percentile);
    os << "}";
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
  return correct ? 0 : 1;
}
