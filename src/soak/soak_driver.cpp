// soak_driver: fault-injecting soak harness over the msgpass substrate.
//
//   soak_driver --duration 60 --faults drop+delay+crash --byzantine 1
//
// Runs the adversarial workload of soak/runner.hpp for the given budget on
// an EmulatedSpace; prints the throughput / latency / SLO report and, with
// --json, dumps it in bench format for tools/bench_compare.py. Exit status
// 1 if the run missed its SLO — with the full reproduction line, so a
// failure is one command away from replay. docs/ARCHITECTURE.md design
// note 12 explains the architecture and how to read the numbers.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench/baseline.hpp"
#include "msgpass/emulated_swmr.hpp"
#include "obs/export.hpp"
#include "obs/recorder.hpp"
#include "soak/fault_schedule.hpp"
#include "soak/report.hpp"
#include "soak/runner.hpp"

namespace {

using swsig::soak::FaultKinds;
using swsig::soak::SoakConfig;
using swsig::soak::SoakOutcome;

[[noreturn]] void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --duration SECONDS   wall-clock budget (default 60)\n"
      << "  --faults SPEC        '+'-separated fault schedule (default\n"
      << "                       drop+delay; 'none' disables). Kinds:\n"
      << "                         drop       victim-targeted message loss\n"
      << "                         delay      bounded hold of any message\n"
      << "                         reorder    receive-side reordering\n"
      << "                         crash      crash+restart the window's\n"
      << "                                    victim (owner recovery runs\n"
      << "                                    on restart)\n"
      << "                         partition  cut the victim's links for\n"
      << "                                    the active phase — symmetric\n"
      << "                                    or asymmetric per seeded\n"
      << "                                    window — healed at window end\n"
      << "                       Unknown kinds are rejected with the valid\n"
      << "                       list (no silent typos).\n"
      << "  --byzantine K        Byzantine processes, <= f (default 0);\n"
      << "                       their decoy registers are sampled through\n"
      << "                       the byzantine_completion checker\n"
      << "  --pipeline-depth D   overlapping async writes per client burst\n"
      << "                       (default 1 = blocking writes; D > 1 makes\n"
      << "                       each write turn issue D write_asyncs on one\n"
      << "                       register and await them in order, so owner\n"
      << "                       crashes land mid-pipeline). Must be >= 1.\n"
      << "  --n N --f F          system size (default 4/1, n > 3f)\n"
      << "  --registers R        honest registers (default 2048)\n"
      << "  --clients C          worker threads (default 8)\n"
      << "  --seed S             schedule + workload seed (default 1)\n"
      << "  --json [PATH]        bench-JSON report (default BENCH_soak.json)\n";
  std::exit(2);
}

SoakOutcome run_one(const SoakConfig& cfg, swsig::bench::Reporter& rep) {
  std::cout << "soak: n=" << cfg.n << " f=" << cfg.f
            << " registers=" << cfg.registers << " clients=" << cfg.clients
            << " faults=" << cfg.faults.to_string()
            << " byzantine=" << cfg.byzantine << " seed=" << cfg.seed
            << " duration=" << cfg.duration_ms / 1000 << "s"
            << (cfg.pipeline_depth > 1
                    ? " pipeline-depth=" + std::to_string(cfg.pipeline_depth)
                    : "")
            << std::endl;
  swsig::msgpass::EmulatedSpace::Options opt;
  opt.n = cfg.n;
  opt.f = cfg.f;
  opt.recover_on_restart = true;
  // The space's capacity gate must match the workload's burst depth, or
  // the (depth+1)-th write_async would just block behind the gate.
  opt.pipeline_depth = cfg.pipeline_depth;
  swsig::msgpass::EmulatedSpace space(opt);
  SoakOutcome out = swsig::soak::run_soak(space, cfg);
  space.stop();
  out.metrics.print(std::cout);
  out.metrics.emit(rep);
  if (!out.ok()) {
    std::cout << "SOAK FAILURE:\n";
    for (const auto& f : out.failures) std::cout << "  " << f << "\n";
    // SLO breach forensics: ladder correlation + last events to stderr,
    // full machine trace to a file CI uploads as a failure artifact.
    const std::vector<swsig::obs::Event> events =
        swsig::obs::FlightRecorder::instance().snapshot();
    swsig::obs::wedge_report(std::cerr, events);
    const std::string trace_path = "soak_trace.txt";
    if (swsig::obs::write_trace_file(trace_path, events))
      std::cerr << "trace written to " << trace_path << "\n";
    std::cout << "REPRO: " << cfg.repro_line() << std::endl;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  SoakConfig cfg;
  cfg.faults = FaultKinds::parse("drop+delay");
  swsig::bench::Reporter rep(argc, argv, "soak");
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    try {
      if (arg == "--duration") {
        cfg.duration_ms = std::stoull(value()) * 1000;
      } else if (arg == "--faults") {
        cfg.faults = FaultKinds::parse(value());
      } else if (arg == "--byzantine") {
        cfg.byzantine = std::stoi(value());
      } else if (arg == "--n") {
        cfg.n = std::stoi(value());
      } else if (arg == "--f") {
        cfg.f = std::stoi(value());
      } else if (arg == "--registers") {
        cfg.registers = std::stoi(value());
      } else if (arg == "--clients") {
        cfg.clients = std::stoi(value());
      } else if (arg == "--pipeline-depth") {
        const std::string raw = value();
        cfg.pipeline_depth = std::stoi(raw);
        // Same contract as FaultKinds::parse: a bad value throws
        // invalid_argument and the handler below prints it with usage.
        if (cfg.pipeline_depth < 1)
          throw std::invalid_argument("invalid pipeline depth '" + raw +
                                      "': must be >= 1 (1 = blocking "
                                      "writes, >1 = overlapping bursts)");
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(value());
      } else if (arg == "--json") {
        if (i + 1 < argc && argv[i + 1][0] != '-') ++i;  // Reporter took it
      } else if (arg == "--help" || arg == "-h") {
        usage(argv[0]);
      } else {
        std::cerr << "unknown option " << arg << "\n";
        usage(argv[0]);
      }
    } catch (const std::invalid_argument& e) {
      std::cerr << e.what() << "\n";
      usage(argv[0]);
    }
  }
  if (cfg.n <= 3 * cfg.f || cfg.byzantine > cfg.f || cfg.byzantine < 0 ||
      cfg.registers < 1 || cfg.clients < 1) {
    std::cerr << "invalid configuration: need n > 3f, 0 <= byzantine <= f\n";
    return 2;
  }

  return run_one(cfg, rep).ok() ? 0 : 1;
}
