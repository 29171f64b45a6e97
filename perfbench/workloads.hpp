// The four benchmark workloads (README.md says why each exists). Each call
// sets the system up opts.setups times, measures for opts.seconds with the
// last set-up, checks every output, and returns the phase's metrics.
#pragma once

#include "harness.hpp"

namespace swsig::perfbench {

PhaseResult run_fullstack_verify(const PhaseOptions& opts);
PhaseResult run_register_mix(const PhaseOptions& opts);
PhaseResult run_register_faults(const PhaseOptions& opts);
PhaseResult run_shm_broadcast(const PhaseOptions& opts);

}  // namespace swsig::perfbench
