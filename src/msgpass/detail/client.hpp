// The client side of the emulated registers. In the emulation the paper's
// closing corollary runs on (Mostéfaoui et al.), each process is one
// sequential client beside its server; detail::Client is that client, one
// per process of a msgpass::EmulatedSpace. It holds everything the process
// waits on:
//  * its open quorum reads — single reads, k-register collects and
//    recovery reads, all one implementation;
//  * the in-flight writes (ACK slots) and abort fences of the registers it
//    owns;
//  * per register, the sn its last quorum read returned and the sn its own
//    replica holds — the delivery gate's two inputs.
// One mutex guards all of it, and every wait — the read quorum, the
// pipeline's capacity gate, the ACK prefix, the abort fence and the
// delivery gate — is one wait_with_retry on that mutex and the client's
// one condition variable.
//
// Lock order: code may hold a register's replica lock (EmulatedSwmr::mu_)
// while it takes a client lock — the delivery path feeds the replica's sn
// to its process's client — never the reverse. A client never calls into a
// replica under its own lock, so the gate tests only client state. Replies
// (STATE, ACK, ABACK) reach on_reply on the thread that sends them (the
// network's client endpoint), so a reply is sent holding no replica lock
// and no client lock.
//
// This file also holds the retry/deadline policy and HandlerBase, the face
// of a register that the space's servers and clients use.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "msgpass/detail/pid_set.hpp"
#include "msgpass/message.hpp"
#include "msgpass/network.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "registers/errors.hpp"
#include "runtime/process.hpp"
#include "util/sharded_counter.hpp"

namespace swsig::msgpass {

// Client-operation deadline/retry policy. A blocked quorum wait re-issues
// its request after a bounded-exponential backoff slice — safe because
// every re-issue is idempotent at the servers (sn-keyed dedup: a retried
// WRITE/READ can refresh lost messages but never re-certify or split a
// quorum; design note 14). op_timeout_ms bounds the whole operation: 0
// means retry forever (the soak default — fault windows heal, so liveness
// comes from the schedule, and an acknowledged-write guarantee must never
// be traded for a deadline).
struct RetryPolicy {
  bool enabled = true;
  std::uint64_t base_ms = 40;      // first backoff slice
  std::uint64_t max_ms = 640;      // backoff cap
  std::uint64_t op_timeout_ms = 0;  // overall deadline; 0 = none
};

// READ payload: the ids of the registers a quorum read asks about.
using ReadRequest = std::vector<int>;
// STATE payload: the replier's stored (sn, value) pair of every register
// the READ named, in the READ's order; each value is a handle to the
// stored value, not a copy of it.
using StateEntry = std::pair<std::uint64_t, Payload>;
using StateReply = std::vector<StateEntry>;

namespace detail {

using Clock = std::chrono::steady_clock;

// One flight-recorder event for a ladder/read phase of register `reg`,
// keyed (reg, origin, sn) for trace correlation (obs/export.hpp).
inline void record_phase(obs::EventKind kind, int pid, int reg, int origin,
                         std::uint64_t sn, std::uint64_t aux = 0) {
  obs::Event e;
  e.kind = kind;
  e.pid = static_cast<std::int16_t>(pid);
  e.reg = reg;
  e.origin = origin;
  e.sn = sn;
  e.aux = aux;
  obs::record(e);
}

// Process-wide retry/abort telemetry (obs::MetricsRegistry), resolved once.
inline util::ShardedCounter& retry_counter() {
  static util::ShardedCounter& c =
      obs::MetricsRegistry::global().counter("msgpass.op_retry");
  return c;
}
inline util::ShardedCounter& timeout_counter() {
  static util::ShardedCounter& c =
      obs::MetricsRegistry::global().counter("msgpass.op_timeout");
  return c;
}
inline util::ShardedCounter& abort_counter() {
  static util::ShardedCounter& c =
      obs::MetricsRegistry::global().counter("msgpass.write_abort");
  return c;
}

// An operation started at t0 must finish by this; max() = no deadline.
inline Clock::time_point deadline_from(const RetryPolicy& retry,
                                       Clock::time_point t0) {
  return retry.op_timeout_ms > 0
             ? t0 + std::chrono::milliseconds(retry.op_timeout_ms)
             : Clock::time_point::max();
}

// One register of a space, as the space's server threads and its clients
// see it.
class HandlerBase {
 public:
  HandlerBase(int reg_id, runtime::ProcessId owner, std::string name)
      : reg_id_(reg_id), owner_(owner), name_(std::move(name)) {}
  virtual ~HandlerBase() = default;

  int reg_id() const { return reg_id_; }
  runtime::ProcessId owner() const { return owner_; }
  const std::string& name() const { return name_; }

  // Runs on the server thread of the receiving process (bound to its pid).
  // READ goes to the space's server (EmulatedSpace::serve_read); STATE,
  // ACK and ABACK never come here: the network hands them to the receiving
  // process's client.
  virtual void handle(const Message& m) = 0;
  // Crash model (driven by the owning Space): wipe the volatile protocol
  // state process pid held for this register. Stable-storage state (the
  // echoed/delivered dedup sets) survives — see EmulatedSwmr::crash_process.
  virtual void crash_process(int pid) = 0;
  // Recovery: the calling thread is bound as process `self` (rejoined after
  // a crash); replay the missed certificates from f+1 live peers.
  virtual void resync_process(int self) = 0;
  // Client-role recovery after the OWNER restarted with recovery on (thread
  // bound as pid): decide the fate of writes pid had in flight when it
  // crashed.
  virtual void owner_restarted(int pid) = 0;

  // Read side, for the clients' quorum reads and the space's READ server.
  // Process pid's stored pair, as a STATE entry.
  virtual StateEntry stored_entry(int pid) const = 0;
  // True iff v is a non-null handle of this register's value type.
  virtual bool holds_value(const Payload& v) const = 0;
  // Two handles accepted by holds_value() name the same value: the same
  // pointer or equal content.
  virtual bool same_value(const Payload& a, const Payload& b) const = 0;

 protected:
  const int reg_id_;
  const runtime::ProcessId owner_;
  const std::string name_;
};

// One process's client (see the top of this file).
//
// Reads. A read names k registers (k = 1 for a plain read): one READ
// carries the k ids, one STATE per replier carries k stored pairs, so a
// collect costs 2n messages whatever k is. For each register the value is
// chosen by the single-register rule — the highest (sn, value) pair
// vouched identically by `support` distinct repliers — and a register
// whose replies have not converged is asked about again, alone with the
// other unconverged ones, under a fresh rid. Each register's result is
// thus an ordinary quorum read whose interval lies inside the collect's,
// and linearizability being local, the k results are k linearizable reads
// in some order inside that interval (design note 18). Threads of one
// process that read at once each run their own quorum: the paper's
// processes run one operation at a time (design note 2).
//
// Writes. The owner's write path opens an ACK slot per sn before
// broadcasting the WRITE, waits for the ACK prefix, and retries by
// re-broadcasting; crash recovery interrupts, fences and settles those
// slots (design notes 14 and 15).
class Client {
 public:
  Client(Network& net, int self, int n, int f, RetryPolicy retry)
      : net_(&net), self_(self), n_(n), f_(f), retry_(retry) {}

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Runs fn() under the client's lock. The registers this process owns
  // keep their owner-side state (sn counter, local view) under it.
  template <typename F>
  decltype(auto) locked(F&& fn) {
    std::scoped_lock lock(mu_);
    return fn();
  }

  // --------------------------------------------------------------- reads

  // A client read of `regs`: the n−f quorum. Records each result as this
  // process's last read of its register (the delivery gate's baseline).
  std::vector<StateEntry> read(const std::vector<HandlerBase*>& regs) {
    std::vector<StateEntry> res = quorum(regs, n_ - f_);
    std::scoped_lock lock(mu_);
    for (std::size_t x = 0; x < regs.size(); ++x) {
      std::uint64_t& last = view(regs[x]->reg_id()).last_read;
      last = std::max(last, res[x].first);
    }
    return res;
  }

  // The quorum loop shared by reads and recovery: broadcast READ, return
  // per register the highest (sn, value) pair vouched identically by >=
  // `support` distinct repliers, asking again about unconverged registers
  // with fresh rids until each has one. Reads use support = n−f
  // (self-certifying, design note 6); recovery uses support = f+1 —
  // enough to pin at least one correct voucher, i.e. a certificate the
  // Bracha ladder really delivered.
  //
  // Retry layer (design note 14): a reply quorum that fails to assemble
  // within the current backoff slice — replies lost to drops, partitions,
  // or a crashed server — re-broadcasts with a FRESH rid (reads have no
  // server-side effects; stale STATE replies to the abandoned rid are
  // ignored by on_reply).
  std::vector<StateEntry> quorum(const std::vector<HandlerBase*>& regs,
                                 int support) {
    static obs::LogHistogram& quorum_hist =
        obs::MetricsRegistry::global().histogram("msgpass.read_quorum_us");
    const auto t0 = Clock::now();
    const HandlerBase& head = *regs.front();  // trace key of the read
    std::vector<StateEntry> out(regs.size());
    std::vector<std::size_t> pending(regs.size());  // indexes into regs
    for (std::size_t x = 0; x < regs.size(); ++x) pending[x] = x;
    std::unique_lock lock(mu_);
    std::uint64_t rid = 0;
    const auto issue = [&] {  // under lock; drops it for the broadcast
      reads_.erase(rid);
      rid = ++next_rid_;
      ReadWait& w = reads_[rid];  // open the wait slot before broadcasting
      ReadRequest ids;
      for (const std::size_t x : pending) {
        w.regs.push_back(regs[x]);
        ids.push_back(regs[x]->reg_id());
      }
      w.support.resize(pending.size());
      lock.unlock();
      record_phase(obs::EventKind::kReadStart, self_, head.reg_id(),
                   head.owner(), rid, static_cast<std::uint64_t>(support));
      Message m;
      m.reg = head.reg_id();
      m.tag = obs::MsgTag::kRead;
      m.sn = rid;
      m.payload = Payload::of(std::move(ids));
      net_->broadcast(std::move(m));
      record_phase(obs::EventKind::kQuorumWait, self_, head.reg_id(),
                   head.owner(), rid, static_cast<std::uint64_t>(n_ - f_));
      lock.lock();
    };
    const auto deadline = deadline_from(retry_, t0);
    issue();
    for (;;) {
      const bool replied = wait_with_retry(
          lock, deadline,
          [&] { return reads_.at(rid).senders.size() >= n_ - f_; },
          [&](std::uint64_t backoff) {  // replies were lost
            record_phase(obs::EventKind::kOpRetry, self_, head.reg_id(),
                         head.owner(), rid, backoff);
            retry_counter().add();
            issue();
          });
      if (!replied) {
        reads_.erase(rid);
        lock.unlock();
        throw_op_timeout(head.reg_id(), head.owner(), rid, read_op(regs));
      }
      // Per register: the highest pair reported identically by >= support
      // distinct processes.
      const ReadWait& w = reads_.at(rid);
      std::vector<std::size_t> unconverged;
      for (std::size_t x = 0; x < pending.size(); ++x) {
        const Support* best = nullptr;
        for (const Support& s : w.support[x])
          if (s.vouchers.size() >= support &&
              (best == nullptr || s.sn > best->sn))
            best = &s;
        if (best != nullptr)
          out[pending[x]] = {best->sn, best->value};
        else
          unconverged.push_back(pending[x]);
      }
      if (unconverged.empty()) {
        reads_.erase(rid);
        lock.unlock();
        quorum_hist.add(
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count());
        for (std::size_t x = 0; x < regs.size(); ++x)
          record_phase(obs::EventKind::kReadDone, self_, regs[x]->reg_id(),
                       regs[x]->owner(), rid, out[x].first);
        return out;
      }
      // Some register has no sufficiently-supported pair among these
      // replies (stores still converging): ask about those again now, no
      // backoff — replies ARE arriving, the stores just have not converged
      // yet. The next wait still checks the deadline.
      pending = std::move(unconverged);
      lock.unlock();
      record_phase(obs::EventKind::kReadRetry, self_, head.reg_id(),
                   head.owner(), rid);
      std::this_thread::yield();
      lock.lock();
      issue();
    }
  }

  // A reply addressed to this process: STATE for one of its reads, ACK or
  // ABACK for one of its writes or fences, applied on the delivering thread
  // (the sender's, or the delay pump's). Each counts only for an
  // operation this process has open — it is looked up among this client's
  // own slots, so a reply sent to another process (say, to a Byzantine
  // READ reusing a live rid) answers nothing here, and late or replayed
  // replies never recreate a slot.
  void on_reply(const Message& m) {
    switch (m.tag) {
      case obs::MsgTag::kState:
        on_state(m);
        return;
      case obs::MsgTag::kAck: {
        std::unique_lock lock(mu_);
        const auto it = writes_.find({m.reg, m.sn});
        if (it == writes_.end()) return;
        // Settled at n−f: only that ACK can end a wait.
        if (it->second.acks.insert(m.from) &&
            it->second.acks.size() == n_ - f_)
          wake(lock);
        return;
      }
      case obs::MsgTag::kAbAck: {
        const bool* unsafe = m.payload.get<bool>();
        if (unsafe == nullptr) return;  // malformed payload: dropped
        std::unique_lock lock(mu_);
        const auto it = fences_.find({m.reg, m.sn});
        if (it == fences_.end()) return;  // reply to a finished fence
        if (*unsafe) it->second.unsafe_any = true;
        if (it->second.repliers.insert(m.from) &&
            it->second.repliers.size() == n_ - f_)
          wake(lock);
        return;
      }
      default:
        return;
    }
  }

  // ------------------------------------------------------ delivery gate

  // This process's replica of `reg` now holds write sn (called by the
  // delivery path and the crash wipe, under that replica's lock). Wakes
  // the gate's waiters, if any, once the replica gets ahead of the last
  // read.
  void replica_is(int reg, std::uint64_t sn) {
    std::unique_lock lock(mu_);
    View& v = view(reg);
    const bool was_ahead = v.replica > v.last_read;
    v.replica = sn;
    if (gate_waiters_ > 0 && !was_ahead && v.replica > v.last_read)
      wake(lock);
  }

  // The delivery gate: blocks for at most `bound` until this process's
  // replica of one of `watched` holds a higher sn than its last quorum
  // read of that register returned. True iff one does.
  bool await_ahead(std::span<const HandlerBase* const> watched,
                   std::chrono::milliseconds bound) {
    std::unique_lock lock(mu_);
    ++gate_waiters_;
    const bool ahead = wait_with_retry(
        lock, Clock::now() + bound,
        [&] {
          for (const HandlerBase* reg : watched) {
            const View& v = view(reg->reg_id());
            if (v.replica > v.last_read) return true;
          }
          return false;
        },
        [](std::uint64_t) {});
    --gate_waiters_;
    return ahead;
  }

  // -------------------------------------------------------------- writes

  // Issue half of a pipelined write of `reg` by its owner (this process),
  // caller serializing the owner's writers. Blocks only on the capacity
  // gate (unsettled in-flight >= depth), which drives retries of the
  // in-flight sns so a lossy window cannot wedge an issuer behind ladders
  // whose awaiters have not started waiting yet. Then, under the lock,
  // alloc() allocates the sn (and updates the owner's view); the ACK slot
  // opens before the WRITE carrying `v` is broadcast, so the ACK path can
  // tell the in-flight write from stale/replayed sns. Returns the sn.
  template <typename Alloc>
  std::uint64_t open_write(const HandlerBase& reg, int depth, Payload v,
                           Alloc&& alloc) {
    const auto t0 = Clock::now();
    const int id = reg.reg_id();
    std::unique_lock lock(mu_);
    if (!wait_with_retry(
            lock, deadline_from(retry_, t0),
            [&] { return unsettled(id) < depth; },
            [&](std::uint64_t backoff) {
              resend(lock, id, std::numeric_limits<std::uint64_t>::max(),
                     backoff);
            })) {
      lock.unlock();
      throw_op_timeout(id, self_, 0,
                       "write on '" + reg.name() +
                           "' waiting in the capacity gate (" +
                           std::to_string(depth) + " in flight)");
    }
    const std::uint64_t sn = alloc();
    const int slot = unsettled(id);  // writes already in flight
    Write& w = writes_[{id, sn}];
    w.value = v;
    w.slot = slot;
    w.t0 = t0;
    lock.unlock();
    record_phase(obs::EventKind::kWriteStart, self_, id, self_, sn,
                 static_cast<std::uint64_t>(slot));
    Message m;
    m.reg = id;
    m.tag = obs::MsgTag::kWrite;
    m.sn = sn;
    m.payload = std::move(v);
    net_->broadcast(std::move(m));
    record_phase(obs::EventKind::kQuorumWait, self_, id, self_, sn,
                 static_cast<std::uint64_t>(n_ - f_));
    return sn;
  }

  // Settle half: waits for every in-flight sn <= target of `reg`, then
  // reports target's fate and releases (only) its slot: returns normally
  // on completion, throws registers::WriteAborted if recovery finalized
  // target as aborted, or registers::OpTimeout past the op deadline.
  void await_write(const HandlerBase& reg, std::uint64_t target) {
    static obs::LogHistogram& ack_hist =
        obs::MetricsRegistry::global().histogram("msgpass.write_ack_wait_us");
    const int id = reg.reg_id();
    std::unique_lock lock(mu_);
    const auto it0 = writes_.find({id, target});
    if (it0 == writes_.end()) return;  // already awaited (or timed out)
    const auto t0 = it0->second.t0;
    if (!wait_with_retry(
            lock, deadline_from(retry_, t0),
            [&] {
              for (auto it = writes_.lower_bound({id, 0});
                   it != writes_.end() && it->first <= WriteKey{id, target};
                   ++it)
                if (!settled(it->second)) return false;
              return true;
            },
            [&](std::uint64_t backoff) {
              resend(lock, id, target, backoff);
            })) {
      writes_.erase({id, target});
      lock.unlock();
      throw_op_timeout(id, self_, target,
                       write_op(reg, target) + " (outcome indeterminate)");
    }
    const auto it = writes_.find({id, target});
    if (it == writes_.end()) return;  // raced with a concurrent await
    const bool was_aborted = it->second.aborted;
    writes_.erase(it);
    lock.unlock();
    if (was_aborted) {
      record_phase(obs::EventKind::kWriteAbort, self_, id, self_, target);
      abort_counter().add();
      throw registers::WriteAborted(
          write_op(reg, target) +
          " aborted: owner crashed before the value could deliver");
    }
    const auto elapsed = Clock::now() - t0;
    ack_hist.add(std::chrono::duration<double, std::micro>(elapsed).count());
    record_phase(
        obs::EventKind::kWriteDone, self_, id, self_, target,
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()));
  }

  // --------------------------------------------------- crash and recovery

  // This process crashed: its in-flight writes just lost their owner. They
  // are marked interrupted, so the retry timers stop re-broadcasting (the
  // network squelch already discards the sends) and the blocked writer
  // threads park until restart, when recovery decides each fate.
  void interrupt() { set_interrupted(true); }
  // Restart without recovery: only the retry suppression is lifted.
  void resume() { set_interrupted(false); }

  // The unsettled in-flight sns of `reg`, ascending.
  std::vector<std::uint64_t> in_flight(int reg) {
    std::scoped_lock lock(mu_);
    std::vector<std::uint64_t> out;
    for (auto it = writes_.lower_bound({reg, 0});
         it != writes_.end() && it->first.first == reg; ++it)
      if (!settled(it->second)) out.push_back(it->first.second);
    return out;
  }

  // Broadcast ABORT(sn) for `reg` until n−f ABACKs arrive, re-broadcasting
  // on every lapsed backoff slice (retries enabled). There is no deadline:
  // recovery must decide the sn. Returns true if the fence fully committed
  // (write aborted): every replier had neither delivered nor accepted sn.
  // False means some replier is unsafe — complete instead.
  bool fence(int reg, std::uint64_t sn) {
    Message m;
    m.reg = reg;
    m.tag = obs::MsgTag::kAbort;
    m.sn = sn;
    std::unique_lock lock(mu_);
    Fence& fw = fences_[{reg, sn}];  // open the wait slot before broadcasting
    const auto send = [&](std::uint64_t) {
      lock.unlock();
      net_->broadcast(m);
      lock.lock();
    };
    send(0);
    wait_with_retry(
        lock, Clock::time_point::max(),
        [&] { return fw.repliers.size() >= n_ - f_; },
        send);
    const bool unsafe_any = fw.unsafe_any;
    fences_.erase({reg, sn});
    return !unsafe_any;
  }

  enum class Recovery { kCompleted, kAborted, kVanished };
  // Applies recovery's verdict to the interrupted write sn of `reg`:
  // aborted (its awaiter gets WriteAborted), or completed — its retries
  // switch to CWRITE, which also lifts any fences granted before the
  // delivery was found, and one CWRITE goes out now rather than a backoff
  // slice later. On kCompleted, `value` is the write's value. kVanished:
  // the writer gave up (op timeout) meanwhile.
  Recovery recover(int reg, std::uint64_t sn, bool complete, Payload& value) {
    std::unique_lock lock(mu_);
    const auto it = writes_.find({reg, sn});
    if (it == writes_.end()) return Recovery::kVanished;
    Write& w = it->second;
    w.interrupted = false;
    if (!complete) {
      w.aborted = true;
      wake(lock);
      return Recovery::kAborted;
    }
    w.recovered = true;
    value = w.value;
    lock.unlock();
    Message cm;
    cm.reg = reg;
    cm.tag = obs::MsgTag::kCWrite;
    cm.sn = sn;
    cm.payload = value;
    net_->broadcast(std::move(cm));
    return Recovery::kCompleted;
  }

 private:
  // Candidate pair of one register among a read's replies.
  struct Support {
    std::uint64_t sn;
    Payload value;
    PidSet vouchers;
  };
  // One open READ: the registers it names, who replied, and per register
  // which processes vouch for each pair.
  struct ReadWait {
    std::vector<HandlerBase*> regs;
    PidSet senders;
    std::vector<std::vector<Support>> support;  // parallel to regs
  };
  // Owner-side wait slot for one in-flight write sn.
  struct Write {
    Payload value;  // for retry re-broadcasts
    PidSet acks;
    // Owner crashed with this write in flight: suppresses the client's
    // retry timer until restart (recovery owns the sn meanwhile).
    bool interrupted = false;
    // Recovery proved the sn delivered somewhere: retries switch to CWRITE
    // so they also lift any fences granted before the delivery was found.
    bool recovered = false;
    int slot = 0;            // writes already in flight at issue (obs)
    Clock::time_point t0{};  // issue time (latency)
    bool aborted = false;    // recovery's final verdict
  };
  // Owner-side wait slot for one abort fence (recovery only).
  struct Fence {
    PidSet repliers;
    // Some replier delivered sn or had already sent ACCEPT for it: the
    // write must complete, not abort (see BrachaLadder::fence).
    bool unsafe_any = false;
  };
  // The delivery gate's inputs for one register at this process.
  struct View {
    std::uint64_t last_read = 0;  // highest sn a quorum read returned
    std::uint64_t replica = 0;    // sn this process's replica holds
  };
  using WriteKey = std::pair<int, std::uint64_t>;  // (register, sn)

  // The one client wait loop (design note 14) behind every wait: the read
  // quorum, the capacity gate, the ACK prefix, the abort fence and the
  // delivery gate. Blocks on cv_ under `lock` (on mu_) until done(). Each
  // backoff slice (base_ms doubling to max_ms) that lapses calls
  // on_retry(backoff), which re-issues what the wait depends on and may
  // drop `lock` meanwhile; with retries disabled the wait is one slice up
  // to the deadline. Every pass checks `deadline`: once it has passed
  // without done() the loop returns false, and the caller throws through
  // throw_op_timeout.
  template <typename Done, typename OnRetry>
  bool wait_with_retry(std::unique_lock<std::mutex>& lock,
                       Clock::time_point deadline, Done&& done,
                       OnRetry&& on_retry) {
    std::uint64_t backoff = std::max<std::uint64_t>(retry_.base_ms, 1);
    for (;;) {
      if (done()) return true;
      const auto now = Clock::now();
      if (now >= deadline) return false;
      if (!retry_.enabled && deadline == Clock::time_point::max()) {
        cv_.wait(lock, done);
        return true;
      }
      const auto until =
          retry_.enabled
              ? std::min(now + std::chrono::milliseconds(backoff), deadline)
              : deadline;
      if (cv_.wait_until(lock, until, done)) return true;
      if (retry_.enabled && Clock::now() < deadline) {
        on_retry(backoff);
        backoff =
            std::min(backoff * 2, std::max(retry_.max_ms, retry_.base_ms));
      }
    }
  }

  // Deadline expiry of the operation `what` of this process on `reg`,
  // keyed (reg, origin, key) on the trace: counts it and throws
  // registers::OpTimeout (an indeterminate outcome). Call with no lock
  // held.
  [[noreturn]] void throw_op_timeout(int reg, int origin, std::uint64_t key,
                                     const std::string& what) const {
    record_phase(obs::EventKind::kOpTimeout, self_, reg, origin, key);
    timeout_counter().add();
    throw registers::OpTimeout(what + " timed out after " +
                               std::to_string(retry_.op_timeout_ms) + " ms");
  }

  void on_state(const Message& m) {
    const StateReply* reply = m.payload.get<StateReply>();
    if (reply == nullptr) return;
    std::unique_lock lock(mu_);
    const auto it = reads_.find(m.sn);
    if (it == reads_.end()) return;  // reply to a finished read
    ReadWait& w = it->second;
    // Dropped whole when malformed: the wrong number of entries, or an
    // entry that is not a value of its register's type. Replies vouch for
    // the same pair of a register iff their sns match and their values do
    // — the same handle or equal content.
    if (reply->size() != w.regs.size()) return;
    for (std::size_t x = 0; x < reply->size(); ++x)
      if (!w.regs[x]->holds_value((*reply)[x].second)) return;
    if (!w.senders.insert(m.from)) return;  // dup sender
    for (std::size_t x = 0; x < reply->size(); ++x) {
      const auto& [sn, v] = (*reply)[x];
      std::vector<Support>& candidates = w.support[x];
      auto s = std::find_if(candidates.begin(), candidates.end(),
                            [&](const Support& e) {
                              return e.sn == sn &&
                                     w.regs[x]->same_value(e.value, v);
                            });
      if (s == candidates.end())
        s = candidates.insert(s, Support{sn, v, {}});
      s->vouchers.insert(m.from);
    }
    // Only the n−f-th reply can end the read's wait.
    if (w.senders.size() == n_ - f_) wake(lock);
  }

  // Wakes every wait of this client after a change to what it tests, made
  // under `lock`; notifies after unlocking, so the woken threads do not
  // block on the mutex straight away.
  void wake(std::unique_lock<std::mutex>& lock) {
    lock.unlock();
    cv_.notify_all();
  }

  // Callers hold mu_.
  View& view(int reg) {
    if (static_cast<std::size_t>(reg) >= views_.size())
      views_.resize(static_cast<std::size_t>(reg) + 1);
    return views_[static_cast<std::size_t>(reg)];
  }

  bool settled(const Write& w) const {
    return w.acks.size() >= n_ - f_ || w.aborted;
  }

  int unsettled(int reg) const {
    int k = 0;
    for (auto it = writes_.lower_bound({reg, 0});
         it != writes_.end() && it->first.first == reg; ++it)
      if (!settled(it->second)) ++k;
    return k;
  }

  void set_interrupted(bool on) {
    std::scoped_lock lock(mu_);
    for (auto& [key, w] : writes_)
      if (!settled(w)) w.interrupted = on;
  }

  // The write path's retry: re-broadcasts every unsettled, non-interrupted
  // in-flight sn <= limit of `reg` — WRITE, or CWRITE once recovery proved
  // the sn delivered. Retries are pure refreshes of lost messages,
  // idempotent at every server (echo-once re-issues the original echo,
  // delivered servers just re-ACK), so a retry can never re-certify a
  // quorum or recruit equivocation support (design note 14). Drops `lock`
  // to send.
  void resend(std::unique_lock<std::mutex>& lock, int reg,
              std::uint64_t limit, std::uint64_t backoff) {
    std::vector<Message> out;
    for (auto it = writes_.lower_bound({reg, 0});
         it != writes_.end() && it->first <= WriteKey{reg, limit}; ++it) {
      const Write& w = it->second;
      if (settled(w) || w.interrupted) continue;
      Message rm;
      rm.reg = reg;
      rm.tag = w.recovered ? obs::MsgTag::kCWrite : obs::MsgTag::kWrite;
      rm.sn = it->first.second;
      rm.payload = w.value;
      out.push_back(std::move(rm));
    }
    if (out.empty()) return;
    lock.unlock();
    for (Message& rm : out) {
      record_phase(obs::EventKind::kOpRetry, self_, reg, self_, rm.sn,
                   backoff);
      retry_counter().add();
      net_->broadcast(std::move(rm));
    }
    lock.lock();
  }

  static std::string write_op(const HandlerBase& reg, std::uint64_t sn) {
    return "write sn " + std::to_string(sn) + " on '" + reg.name() + "'";
  }

  std::string read_op(const std::vector<HandlerBase*>& regs) const {
    std::string what = "read of '" + regs.front()->name() + "'";
    if (regs.size() > 1)
      what += " and " + std::to_string(regs.size() - 1) + " more registers";
    return what + " by p" + std::to_string(self_);
  }

  Network* const net_;
  const int self_;
  const int n_;
  const int f_;
  const RetryPolicy retry_;

  std::mutex mu_;  // guards everything below
  std::condition_variable cv_;
  std::uint64_t next_rid_ = 0;
  std::map<std::uint64_t, ReadWait> reads_;  // open reads, by rid
  std::map<WriteKey, Write> writes_;         // in-flight writes it owns
  std::map<WriteKey, Fence> fences_;         // recovering sns it owns
  std::vector<View> views_;                  // by register id
  int gate_waiters_ = 0;  // threads in await_ahead
};

// The clients of one space, indexed by pid (slot 0 unused).
using Clients = std::vector<std::unique_ptr<Client>>;

}  // namespace detail

}  // namespace swsig::msgpass
