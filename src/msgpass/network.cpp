#include "msgpass/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace swsig::msgpass {

Network::TypeCounters::TypeCounters() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  for (std::size_t t = 0; t < static_cast<std::size_t>(obs::MsgTag::kCount);
       ++t) {
    const std::string suffix = obs::tag_name(static_cast<obs::MsgTag>(t));
    send[t] = &reg.counter("net.send." + suffix);
    recv[t] = &reg.counter("net.recv." + suffix);
    drop[t] = &reg.counter("net.drop." + suffix);
  }
  queue_us = &reg.histogram("net.queue_us");
}

Network::TypeCounters& Network::TypeCounters::get() {
  static TypeCounters counters;
  return counters;
}

namespace {

// One flight-recorder event for a message crossing the network plane.
inline void record_msg(obs::EventKind kind, int pid, int peer,
                       const Message& m, std::uint64_t aux = 0) {
  obs::Event e;
  e.kind = kind;
  e.tag = m.tag;
  e.pid = static_cast<std::int16_t>(pid);
  e.peer = static_cast<std::int16_t>(peer);
  e.reg = m.reg;
  e.sn = m.sn;
  e.aux = aux;
  obs::record(e);
}

}  // namespace

Network::Network(Options options, Endpoint endpoint)
    : options_(options), endpoint_(std::move(endpoint)) {
  if (options_.n < 1) throw std::invalid_argument("network needs n >= 1");
  inboxes_.reserve(static_cast<std::size_t>(options_.n) + 1);
  squelched_.reserve(static_cast<std::size_t>(options_.n) + 1);
  for (int pid = 0; pid <= options_.n; ++pid) {
    squelched_.push_back(std::make_unique<std::atomic<bool>>(false));
    inboxes_.push_back(std::make_unique<Inbox>());
    // Per-inbox streams are always seeded (reorder_seed may be 0): the rng
    // is only consulted when reordering is active — via reorder_seed or a
    // fault injector's reorder window — and must be deterministic in both.
    inboxes_.back()->rng =
        util::Rng(options_.reorder_seed + static_cast<std::uint64_t>(pid));
  }
}

// The pump goes first: it uses the members declared after it.
Network::~Network() { stop(); }

void Network::stop() {
  std::jthread pump;
  {
    std::scoped_lock lock(delay_mu_);
    pump = std::move(pump_);
  }
  // pump's destructor requests the stop and joins, outside delay_mu_.
}

Network::Inbox& Network::inbox_for(runtime::ProcessId pid) {
  if (pid < 1 || pid > options_.n)
    throw std::invalid_argument("no inbox for p" + std::to_string(pid));
  return *inboxes_[static_cast<std::size_t>(pid)];
}

void Network::set_squelched(runtime::ProcessId pid, bool on) {
  if (pid < 1 || pid > options_.n) return;
  squelched_[static_cast<std::size_t>(pid)]->store(on,
                                                   std::memory_order_release);
}

bool Network::is_squelched(runtime::ProcessId pid) const {
  return pid >= 1 && pid <= options_.n &&
         squelched_[static_cast<std::size_t>(pid)]->load(
             std::memory_order_acquire);
}

std::uint64_t Network::messages_squelched() const {
  return squelched_count_.load(std::memory_order_relaxed);
}

void Network::send(Message m) {
  const runtime::ProcessId self = runtime::ThisProcess::id();
  if (self < 1 || self > options_.n)
    throw std::logic_error("send requires a thread bound to p1..pn");
  if (is_squelched(self)) {  // crashed: the send never happens
    squelched_count_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  m.from = self;  // authenticated channel: identity cannot be spoofed
  deliver(std::move(m));
}

void Network::broadcast(Message m) {
  const runtime::ProcessId self = runtime::ThisProcess::id();
  if (self < 1 || self > options_.n)
    throw std::logic_error("broadcast requires a thread bound to p1..pn");
  if (is_squelched(self)) {
    squelched_count_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  m.from = self;
  // One consolidated send event for the n-way fan-out (peer = -1, aux = n):
  // a broadcast is one protocol action, and per-destination events would
  // multiply the hot-path event volume by n for no forensic value — the
  // receive side already records what actually arrived where.
  record_msg(obs::EventKind::kMsgSend, self, -1, m,
             static_cast<std::uint64_t>(options_.n));
  for (int pid = 1; pid <= options_.n; ++pid) {
    Message copy = m;
    copy.to = pid;
    deliver(std::move(copy), /*note_send=*/false);
  }
}

void Network::set_fault_injector(FaultInjector* injector) {
  {
    std::scoped_lock lock(delay_mu_);
    if (injector != nullptr && !pump_.joinable())
      pump_ = std::jthread([this](std::stop_token st) { pump(st); });
  }
  injector_.store(injector, std::memory_order_release);
  // Detaching flushes held-back messages immediately: the channel is
  // reliable again, so nothing may stay parked behind a dead schedule.
  if (injector == nullptr) delay_cv_.notify_all();
}

void Network::deliver(Message m, bool note_send) {
  // The send event precedes the fault decision: a dropped message was
  // still sent, and the drop event right after it is the forensic signal.
  if (note_send)
    record_msg(obs::EventKind::kMsgSend, m.from, m.to, m);
  FaultInjector* fi = injector_.load(std::memory_order_acquire);
  const FaultDecision d = fi != nullptr ? fi->on_deliver(m) : FaultDecision{};
  if (d.drop) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    TypeCounters::get().drop[static_cast<std::size_t>(m.tag)]->add();
    record_msg(obs::EventKind::kMsgDrop, m.from, m.to, m);
    return;
  }
  // In flight from here until its receiver has handled it; a bad receiver
  // throws first.
  inbox_for(m.to);
  in_flight_.fetch_add(1);
  if (d.delay.count() > 0) {
    delayed_total_.fetch_add(1, std::memory_order_relaxed);
    record_msg(obs::EventKind::kMsgDelay, m.from, m.to, m,
               static_cast<std::uint64_t>(d.delay.count()));
    {
      std::scoped_lock lock(delay_mu_);
      delayed_.push_back(
          Delayed{std::chrono::steady_clock::now() + d.delay, std::move(m)});
      std::push_heap(delayed_.begin(), delayed_.end(),
                     [](const Delayed& a, const Delayed& b) {
                       return a.due > b.due;  // min-heap by due time
                     });
    }
    delay_cv_.notify_all();
    return;
  }
  enqueue(std::move(m));
}

void Network::enqueue(Message m) {
  TypeCounters::get().send[static_cast<std::size_t>(m.tag)]->add();
  // Counted before the receiver can see it, so quiesce() never returns
  // before the count of a message that has already been handled.
  sent_.fetch_add(1, std::memory_order_relaxed);
  if (endpoint_ && obs::is_inline(m.tag)) {
    // Received and handled right here, as the addressee.
    const runtime::ProcessId to = m.to;
    {
      const runtime::ThisProcess::Binder bind(to);
      endpoint_(received(to, Queued{std::move(m)}));
    }
    handled();
    return;
  }
  Inbox& inbox = inbox_for(m.to);
  bool wake_receiver;
  {
    std::scoped_lock lock(inbox.mu);
    Queued q{std::move(m)};
    if (++inbox.enqueued % kQueueSample == 0)
      q.at = std::chrono::steady_clock::now();
    inbox.queue.push_back(std::move(q));
    wake_receiver = std::exchange(inbox.parked, false);
  }
  if (wake_receiver) inbox.cv.notify_one();
}

void Network::wake(runtime::ProcessId pid) {
  Inbox& inbox = inbox_for(pid);
  // Taking the lock orders this wake after a receiver's stop check: either
  // it has not checked yet and will see the stop, or it is already waiting.
  { std::scoped_lock lock(inbox.mu); }
  inbox.cv.notify_all();
}

// Delay pump: sleeps until the earliest held message is due (or a new one
// arrives, or the injector detaches), then re-delivers everything due. With
// no injector attached, any remaining messages are flushed unconditionally.
void Network::pump(std::stop_token st) {
  const auto heap_cmp = [](const Delayed& a, const Delayed& b) {
    return a.due > b.due;
  };
  const std::stop_callback on_stop(st, [this] {
    { std::scoped_lock lock(delay_mu_); }
    delay_cv_.notify_all();
  });
  std::unique_lock lock(delay_mu_);
  while (!st.stop_requested()) {
    if (delayed_.empty()) {
      delay_cv_.wait(lock);
      continue;
    }
    const bool flush_all = injector_.load(std::memory_order_acquire) == nullptr;
    const auto now = std::chrono::steady_clock::now();
    if (flush_all || delayed_.front().due <= now) {
      std::pop_heap(delayed_.begin(), delayed_.end(), heap_cmp);
      Message m = std::move(delayed_.back().m);
      delayed_.pop_back();
      lock.unlock();
      enqueue(std::move(m));
      lock.lock();
      continue;
    }
    // Copy the deadline out of the heap: wait_until binds its abs_time
    // parameter by reference and releases the lock while blocked, so a
    // concurrent deliver() pushing into delayed_ (reallocation / heap sift)
    // would leave the reference dangling — the pump then re-sleeps on a
    // garbage deadline forever and parked messages never flush.
    const auto due = delayed_.front().due;
    delay_cv_.wait_until(lock, due);
  }
}

bool Network::recv_batch(std::stop_token st, std::vector<Message>& batch) {
  const runtime::ProcessId self = runtime::ThisProcess::id();
  Inbox& inbox = inbox_for(self);
  // Release the last batch's payloads before parking: an idle server must
  // not keep values alive.
  batch.clear();
  std::vector<Queued>& drained = inbox.drained;
  drained.clear();
  {
    std::unique_lock lock(inbox.mu);
    // No timed polling: a delivery to the parked receiver, or the caller's
    // stop callback (wake()), ends the wait.
    for (;;) {
      if (st.stop_requested()) return false;
      if (!inbox.queue.empty()) break;
      inbox.parked = true;
      inbox.cv.wait(lock);
      inbox.parked = false;
    }
    drained.swap(inbox.queue);
  }
  bool reorder = options_.reorder_seed != 0;
  if (!reorder) {
    FaultInjector* fi = injector_.load(std::memory_order_acquire);
    reorder = fi != nullptr && fi->reorder(self);
  }
  if (reorder) inbox.rng.shuffle(drained);
  batch.reserve(drained.size());
  for (Queued& q : drained) batch.push_back(received(self, std::move(q)));
  return true;
}

std::optional<Message> Network::try_recv() {
  const runtime::ProcessId self = runtime::ThisProcess::id();
  Inbox& inbox = inbox_for(self);
  std::unique_lock lock(inbox.mu);
  if (inbox.queue.empty()) return std::nullopt;
  Queued q = std::move(inbox.queue.front());
  inbox.queue.erase(inbox.queue.begin());
  lock.unlock();
  Message m = received(self, std::move(q));
  handled();
  return m;
}

// Sequentially consistent on both sides: either quiesce() sees the count
// at zero, or the handler that zeroed it sees the waiter and wakes it
// under idle_mu_.
void Network::handled(std::size_t k) {
  const auto count = static_cast<std::int64_t>(k);
  if (in_flight_.fetch_sub(count) == count && quiescers_.load() > 0) {
    { std::scoped_lock lock(idle_mu_); }
    idle_cv_.notify_all();
  }
}

std::uint64_t Network::quiesce() {
  quiescers_.fetch_add(1);
  {
    std::unique_lock lock(idle_mu_);
    idle_cv_.wait(lock, [&] { return in_flight_.load() == 0; });
  }
  quiescers_.fetch_sub(1);
  return messages_sent();
}

Message Network::received(runtime::ProcessId self, Queued q) {
  TypeCounters& tc = TypeCounters::get();
  tc.recv[static_cast<std::size_t>(q.m.tag)]->add();
  std::uint64_t queued_ns = 0;
  if (q.at != std::chrono::steady_clock::time_point{}) {
    queued_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - q.at)
            .count());
    tc.queue_us->add(static_cast<double>(queued_ns) / 1e3);
  }
  record_msg(obs::EventKind::kMsgRecv, self, q.m.from, q.m, queued_ns);
  return std::move(q.m);
}

std::uint64_t Network::messages_sent() const {
  return sent_.load(std::memory_order_relaxed);
}

std::uint64_t Network::messages_dropped() const {
  return dropped_.load(std::memory_order_relaxed);
}

std::uint64_t Network::messages_delayed() const {
  return delayed_total_.load(std::memory_order_relaxed);
}

std::uint64_t Network::queued_messages() const {
  std::uint64_t total = 0;
  // Per-inbox locks, taken one at a time: the count is a snapshot, not a
  // consistent cut — good enough for the wedge forensics it feeds.
  for (const auto& inbox : inboxes_) {
    std::scoped_lock lock(inbox->mu);
    total += inbox->queue.size();
  }
  {
    std::scoped_lock lock(delay_mu_);
    total += delayed_.size();
  }
  return total;
}

}  // namespace swsig::msgpass
