// Simulated asynchronous reliable network.
//
// Reliable, authenticated, point-to-point channels between n processes:
// messages between correct processes are eventually delivered, unordered
// delivery is modeled by thread scheduling (and an optional seeded
// reordering of each inbox). There is no synchrony assumption anywhere —
// receivers block until something arrives.
//
// Where each message is handled. With a client endpoint (given at
// construction), the replies (STATE, ACK, ABACK) and READ are handled on
// the delivering thread — the sender's, or the delay pump's for a
// held-back message — after the fault injector's drop and delay
// decisions, exactly where an enqueue would have happened, with the
// thread bound as the addressee (obs::is_inline). A READ's STATE is thus
// sent by the addressee and, on the same thread, reaches the reader's
// client: an undelayed quorum read is answered before its broadcast
// returns. WRITE, ECHO, ACCEPT and the rest queue in the addressee's inbox
// for its server thread, which drains the whole inbox under one lock
// (recv_batch); an enqueue wakes that thread only if it is parked on an
// empty inbox. Rule: send an inline message holding no lock the endpoint
// takes (for EmulatedSpace, no replica lock and no client lock). Without
// an endpoint everything queues.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stop_token>
#include <thread>
#include <vector>

#include "msgpass/faults.hpp"
#include "msgpass/message.hpp"
#include "obs/event.hpp"
#include "obs/metrics.hpp"
#include "runtime/process.hpp"
#include "util/rng.hpp"
#include "util/sharded_counter.hpp"

namespace swsig::msgpass {

class Network {
 public:
  struct Options {
    int n = 4;
    // If > 0, each batch an inbox drains is handled in a seeded-random
    // order instead of the order it arrived in, modeling out-of-order
    // asynchrony (seeded => reproducible). Inline messages never sit in an
    // inbox, so this does not reorder them; injected delay still does.
    std::uint64_t reorder_seed = 0;
  };

  // Where inline messages go; see the top of this file.
  using Endpoint = std::function<void(const Message&)>;

  explicit Network(Options options, Endpoint endpoint = {});
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Stops and joins the delay pump; what it still holds is never
  // delivered. The pump hands held-back inline messages to the endpoint,
  // so an owner stops it before tearing down what the endpoint touches.
  void stop();

  // Sends m to m.to; the sender identity is stamped from the calling
  // thread's bound process (authenticated channels).
  void send(Message m);

  // Sends m to every process 1..n, including the sender itself (protocol
  // symmetry: the sender is also a server).
  void broadcast(Message m);

  // Blocking batch receive for the bound process: clears `batch` (so an
  // idle receiver holds no payload), waits for its inbox to fill, then
  // moves everything queued there into `batch` under one lock — in
  // arrival order, or shuffled by the inbox's seeded rng while reordering
  // is on. Returns false, leaving the inbox as it is, once `st` is
  // stopped. A parked receiver sees the stop
  // only when woken: the caller registers one std::stop_callback calling
  // wake(pid) for as long as it receives (detail::ServerPool does). The
  // batch stays in flight until handled(batch.size()).
  bool recv_batch(std::stop_token st, std::vector<Message>& batch);

  // Wakes pid's receiver if it is parked, so it rechecks its stop token.
  void wake(runtime::ProcessId pid);

  // Non-blocking receive of the oldest queued message, for driving a
  // network without server threads: it counts as handled once returned.
  std::optional<Message> try_recv();

  // The bound process finished handling k messages that recv_batch()
  // returned, sends included. Until then they count as in flight.
  void handled(std::size_t k = 1);

  // Blocks, without polling, until no message is in flight — none queued
  // in an inbox, held by the delay pump or inside a handler — then returns
  // messages_sent(). A handler's sends happen before its message is
  // handled, so a cascade keeps the count above zero until it has died
  // out: client operations return on n−f replies with the trailing
  // servers' traffic still running, and tests and benchmarks that count
  // messages wait here for that tail. Needs every inbox served (the
  // server threads running); traffic that client threads start meanwhile
  // delays the return.
  std::uint64_t quiesce();

  // Attaches (or, with nullptr, detaches) a fault injector. The injector
  // must outlive its attachment; the first attach starts the delay pump
  // thread that re-delivers held-back messages when their hold expires.
  void set_fault_injector(FaultInjector* injector);

  // Crash model, sender side: while squelched, every send/broadcast from
  // pid is silently discarded at the network boundary — a crashed process
  // does not send. (The receive side is the dispatcher's job.) Messages
  // already in flight — inboxes, the delay pump — still deliver: they left
  // the sender before it died. Squelched sends are counted separately from
  // injector drops so fault accounting stays exact.
  void set_squelched(runtime::ProcessId pid, bool on);
  std::uint64_t messages_squelched() const;

  std::uint64_t messages_sent() const;
  // Fault accounting (0 unless an injector dropped/held something).
  std::uint64_t messages_dropped() const;
  std::uint64_t messages_delayed() const;
  // Messages currently sitting in inboxes or the delay pump — the
  // in-flight backlog. With pipelined writers a wedge can hide behind a
  // deep backlog rather than a silent network, so the soak forensics
  // report it alongside the send/drop totals. O(n) lock acquisitions;
  // diagnostics only, not for the hot path.
  std::uint64_t queued_messages() const;
  int n() const { return options_.n; }

  // Per-message-type counters ("net.send.WRITE", "net.recv.ECHO",
  // "net.drop.ACK", ...) in the global obs::MetricsRegistry, shared by
  // every Network in the process, and the queueing-delay histogram
  // "net.queue_us": the time a message sat in its receiver's inbox, from
  // enqueue to dequeue (held-back messages count from when the delay pump
  // enqueued them, so injected delay is not queueing), for every
  // kQueueSample-th message of each inbox — timing every one costs two
  // clock reads and a shared-histogram add per message, several percent
  // of a register op. Inline messages never sit in an inbox, so
  // net.queue_us covers queued server traffic only.
  // Resolved once, here; the per-message cost is one sharded relaxed add.
  struct TypeCounters {
    util::ShardedCounter* send[static_cast<std::size_t>(obs::MsgTag::kCount)];
    util::ShardedCounter* recv[static_cast<std::size_t>(obs::MsgTag::kCount)];
    util::ShardedCounter* drop[static_cast<std::size_t>(obs::MsgTag::kCount)];
    obs::LogHistogram* queue_us;
    TypeCounters();
    static TypeCounters& get();  // process-wide singleton
  };

 private:
  static constexpr std::uint64_t kQueueSample = 16;

  // A message in an inbox; a sampled one is stamped when it was enqueued.
  struct Queued {
    Message m;
    std::chrono::steady_clock::time_point at{};  // epoch: not sampled
  };
  struct Inbox {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<Queued> queue;
    // The receiver waits on cv for an empty queue to fill: the one enqueue
    // that finds it set clears it and notifies; every other enqueue skips
    // the notify.
    bool parked = false;
    std::uint64_t enqueued = 0;  // picks the sampled messages
    // The receiver's own: the batch it drained (its buffer swaps with
    // queue, so a steady state allocates nothing) and the reorder stream.
    std::vector<Queued> drained;
    util::Rng rng{0};
  };
  struct Delayed {
    std::chrono::steady_clock::time_point due;
    Message m;
  };

  Inbox& inbox_for(runtime::ProcessId pid);
  // note_send records the flight-recorder send event; broadcast() passes
  // false after recording one consolidated event for the whole fan-out.
  void deliver(Message m, bool note_send = true);
  // Final step: into the receiver's inbox, or to the endpoint for an
  // inline message.
  void enqueue(Message m);
  void pump(std::stop_token st);
  // Dequeue bookkeeping shared by recv_batch() and try_recv(): counters,
  // the queueing-delay histogram and the receive event.
  Message received(runtime::ProcessId self, Queued q);

  // True while the pid may not send (crashed). Checked lock-free on every
  // send/broadcast.
  bool is_squelched(runtime::ProcessId pid) const;

  Options options_;
  Endpoint endpoint_;
  std::vector<std::unique_ptr<Inbox>> inboxes_;  // index by pid
  std::vector<std::unique_ptr<std::atomic<bool>>> squelched_;  // by pid
  std::atomic<std::uint64_t> squelched_count_{0};
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> delayed_total_{0};
  std::atomic<FaultInjector*> injector_{nullptr};
  // Held-back (delayed) messages, re-delivered by the pump thread.
  // (mutable: queued_messages() is logically const.)
  mutable std::mutex delay_mu_;
  std::condition_variable delay_cv_;
  std::vector<Delayed> delayed_;  // min-heap by due
  std::jthread pump_;             // started lazily by set_fault_injector
  // Quiescence: messages delivered (not dropped) and not yet handled, and
  // the quiesce() callers to wake when that count reaches zero.
  std::atomic<std::int64_t> in_flight_{0};
  std::atomic<int> quiescers_{0};
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
};

}  // namespace swsig::msgpass
