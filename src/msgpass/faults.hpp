// Fault-injection seam for the simulated network.
//
// A FaultInjector attached to a Network observes every delivery and may
// drop it, hold it for a bounded delay, or request receive-side reordering
// — the three failure modes the soak harness schedules (src/soak/). The
// network stays a reliable authenticated channel by default; faults exist
// only while an injector is attached, so protocol code never changes.
//
// Contract for implementations:
//  * on_deliver runs on the sender's thread under no network lock; it must
//    be cheap and must not call back into the network.
//  * Decisions must be deterministic functions of (seed, schedule window,
//    message fields) so a failing run is replayable from its seed — see
//    soak::FaultSchedule and the determinism tests in
//    tests/fault_injection_test.cpp.
//  * Dropping is LOSS on a channel the protocols assume reliable: a drop
//    schedule must keep the set of affected processes within the f
//    fault budget (design note 12 in docs/ARCHITECTURE.md). The network
//    itself never retransmits; lost messages are recovered only by the
//    clients' retry layer (RetryPolicy, design note 14), which re-issues
//    a blocked quorum wait's requests after each backoff slice — with
//    retries disabled, a quorum wait that lost its messages blocks until
//    its deadline. Delay and reorder are loss-free and may touch any
//    process.
#pragma once

#include <chrono>
#include <cstdint>

#include "runtime/process.hpp"

namespace swsig::msgpass {

struct Message;

struct FaultDecision {
  bool drop = false;
  // > 0: hold the message for this long before enqueueing it (bounded
  // delay; the message is still delivered, modeling a slow link).
  std::chrono::milliseconds delay{0};
};

class FaultInjector {
 public:
  virtual ~FaultInjector() = default;

  // Called once per point-to-point delivery, before the message is
  // enqueued into the receiver's inbox or handed to the client endpoint.
  virtual FaultDecision on_deliver(const Message& m) = 0;

  // True while receive-side reordering should be active for `receiver`
  // (each batch its inbox drains is then handled in a seeded-random order,
  // exactly like Network::Options::reorder_seed; READs and replies never
  // queue, so only delay reorders them).
  virtual bool reorder(runtime::ProcessId receiver) = 0;
};

}  // namespace swsig::msgpass
