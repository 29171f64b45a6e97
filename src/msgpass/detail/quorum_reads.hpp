// The client side of the emulated registers' reads, shared by every
// register of one msgpass::EmulatedSpace: the retry/deadline policy and its
// one client wait loop, the interface the space's server threads and
// quorum reads use to reach a register, and QuorumReads — the one
// quorum-read implementation (single reads, k-register collects, recovery
// reads) and the delivery gate built on its results.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

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
inline util::ShardedCounter& coalesce_counter() {
  static util::ShardedCounter& c =
      obs::MetricsRegistry::global().counter("msgpass.read_coalesced");
  return c;
}

// An operation started at t0 must finish by this; max() = no deadline.
inline Clock::time_point deadline_from(const RetryPolicy& retry,
                                       Clock::time_point t0) {
  return retry.op_timeout_ms > 0
             ? t0 + std::chrono::milliseconds(retry.op_timeout_ms)
             : Clock::time_point::max();
}

// The one client wait loop (design note 14) behind every quorum wait:
// reads, the ACK prefix, the pipeline's capacity gate, the coalesced-read
// park and the abort fence. Blocks on `cv` under `lock` until done(). Each
// backoff slice (base_ms doubling to max_ms) that lapses calls
// on_retry(backoff), which re-issues what the wait depends on and may drop
// `lock` meanwhile; with retries disabled the wait is one slice up to the
// deadline. Every pass checks `deadline`: once it has passed without
// done() the loop returns false, and the caller throws through
// throw_op_timeout.
template <typename Done, typename OnRetry>
bool wait_with_retry(const RetryPolicy& retry, std::condition_variable& cv,
                     std::unique_lock<std::mutex>& lock,
                     Clock::time_point deadline, Done&& done,
                     OnRetry&& on_retry) {
  std::uint64_t backoff = std::max<std::uint64_t>(retry.base_ms, 1);
  for (;;) {
    if (done()) return true;
    const auto now = Clock::now();
    if (now >= deadline) return false;
    if (!retry.enabled && deadline == Clock::time_point::max()) {
      cv.wait(lock, done);
      return true;
    }
    const auto until =
        retry.enabled
            ? std::min(now + std::chrono::milliseconds(backoff), deadline)
            : deadline;
    if (cv.wait_until(lock, until, done)) return true;
    if (retry.enabled && Clock::now() < deadline) {
      on_retry(backoff);
      backoff = std::min(backoff * 2, std::max(retry.max_ms, retry.base_ms));
    }
  }
}

// Deadline expiry of the operation `what` by `pid`, keyed (reg, origin,
// key) on the trace: counts it and throws registers::OpTimeout (an
// indeterminate outcome). Call with no lock held.
[[noreturn]] inline void throw_op_timeout(const RetryPolicy& retry, int pid,
                                          int reg, int origin,
                                          std::uint64_t key,
                                          const std::string& what) {
  record_phase(obs::EventKind::kOpTimeout, pid, reg, origin, key);
  timeout_counter().add();
  throw registers::OpTimeout(what + " timed out after " +
                             std::to_string(retry.op_timeout_ms) + " ms");
}

// One register of a space, as the space's server threads and its quorum
// reads see it.
class HandlerBase {
 public:
  HandlerBase(int reg_id, runtime::ProcessId owner, std::string name)
      : reg_id_(reg_id), owner_(owner), name_(std::move(name)) {}
  virtual ~HandlerBase() = default;

  int reg_id() const { return reg_id_; }
  runtime::ProcessId owner() const { return owner_; }
  const std::string& name() const { return name_; }

  // Runs on the server thread of the receiving process (bound to its pid).
  // READ and STATE are the space's (EmulatedSpace::dispatch).
  virtual void handle(const Message& m) = 0;
  // Crash model (driven by the owning Space): wipe the volatile protocol
  // state process pid held for this register. Stable-storage state (the
  // echoed/delivered dedup sets) survives — see EmulatedSwmr::crash_process.
  virtual void crash_process(int pid) = 0;
  // Recovery: the calling thread is bound as process `self` (rejoined after
  // a crash); replay the missed certificates from f+1 live peers.
  virtual void resync_process(int self) = 0;
  // Client-role recovery after the OWNER restarted (thread bound as pid):
  // decide the fate of writes pid had in flight when it crashed. With
  // `recover` false only the retry suppression is lifted (no fence).
  virtual void owner_restarted(int pid, bool recover) {
    (void)pid;
    (void)recover;
  }

  // Read side, for QuorumReads and the space's READ server.
  // Process pid's stored pair, as a STATE entry.
  virtual StateEntry stored_entry(int pid) const = 0;
  // True iff v is a non-null handle of this register's value type.
  virtual bool holds_value(const Payload& v) const = 0;
  // Two handles accepted by holds_value() name the same value: the same
  // pointer or equal content.
  virtual bool same_value(const Payload& a, const Payload& b) const = 0;
  // A quorum read by pid returned write sn of this register.
  virtual void note_read(int pid, std::uint64_t sn) = 0;
  // pid's own replica holds a higher sn than pid's last quorum read of
  // this register returned (the delivery gate's test).
  virtual bool replica_ahead(int pid) const = 0;

 protected:
  const int reg_id_;
  const runtime::ProcessId owner_;
  const std::string name_;
};

// The quorum reads of one space: every client read, collect and recovery
// read of its registers, and the delivery gate built on their results.
//
// A read names k registers (k = 1 for a plain read): one READ carries the
// k ids, one STATE per replier carries k stored pairs, so a collect costs
// 2n messages whatever k is. For each register the value is chosen by the
// single-register rule — the highest (sn, value) pair vouched identically
// by `support` distinct repliers — and a register whose replies have not
// converged is asked about again, alone with the other unconverged ones,
// under a fresh rid. Each register's result is thus an ordinary quorum
// read whose interval lies inside the collect's, and linearizability being
// local, the k results are k linearizable reads in some order inside that
// interval (design note 18).
class QuorumReads {
 public:
  QuorumReads(Network& net, int n, int f, RetryPolicy retry)
      : net_(&net), n_(n), f_(f), retry_(retry) {
    for (int pid = 0; pid <= n_; ++pid)
      clients_.push_back(std::make_unique<Client>());
  }

  const RetryPolicy& retry() const { return retry_; }

  // A client read of `regs` by process `self`: the n−f quorum, coalesced
  // with overlapping reads of the same registers by the same process.
  // Records each result as self's last read of its register (note_read).
  std::vector<StateEntry> read(int self,
                               const std::vector<HandlerBase*>& regs) {
    std::vector<StateEntry> res = coalesced(self, regs);
    for (std::size_t x = 0; x < regs.size(); ++x)
      regs[x]->note_read(self, res[x].first);
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
  // ignored by accept_state).
  std::vector<StateEntry> quorum(int self,
                                 const std::vector<HandlerBase*>& regs,
                                 int support, Clock::time_point deadline) {
    static obs::LogHistogram& quorum_hist =
        obs::MetricsRegistry::global().histogram("msgpass.read_quorum_us");
    const auto t0 = Clock::now();
    const HandlerBase& head = *regs.front();  // trace key of the read
    std::vector<StateEntry> out(regs.size());
    std::vector<std::size_t> pending(regs.size());  // indexes into regs
    for (std::size_t x = 0; x < regs.size(); ++x) pending[x] = x;
    std::condition_variable cv;  // outlives every ReadWait of this read
    Client& c = client(self);
    std::unique_lock lock(c.mu);
    std::uint64_t rid = 0;
    const auto issue = [&] {  // under lock; drops it for the broadcast
      c.reads.erase(rid);
      rid = ++c.next_rid;
      ReadWait& w = c.reads[rid];  // open the wait slot before broadcasting
      w.cv = &cv;
      ReadRequest ids;
      for (const std::size_t x : pending) {
        w.regs.push_back(regs[x]);
        ids.push_back(regs[x]->reg_id());
      }
      w.support.resize(pending.size());
      lock.unlock();
      record_phase(obs::EventKind::kReadStart, self, head.reg_id(),
                   head.owner(), rid, static_cast<std::uint64_t>(support));
      Message m;
      m.reg = head.reg_id();
      m.tag = obs::MsgTag::kRead;
      m.sn = rid;
      m.payload = Payload::of(std::move(ids));
      net_->broadcast(std::move(m));
      record_phase(obs::EventKind::kQuorumWait, self, head.reg_id(),
                   head.owner(), rid, static_cast<std::uint64_t>(n_ - f_));
      lock.lock();
    };
    issue();
    for (;;) {
      const bool replied = wait_with_retry(
          retry_, cv, lock, deadline,
          [&] {
            return static_cast<int>(c.reads.at(rid).senders.size()) >=
                   n_ - f_;
          },
          [&](std::uint64_t backoff) {  // replies were lost
            record_phase(obs::EventKind::kOpRetry, self, head.reg_id(),
                         head.owner(), rid, backoff);
            retry_counter().add();
            issue();
          });
      if (!replied) {
        c.reads.erase(rid);
        lock.unlock();
        throw_op_timeout(retry_, self, head.reg_id(), head.owner(), rid,
                         read_op(self, regs));
      }
      // Per register: the highest pair reported identically by >= support
      // distinct processes.
      const ReadWait& w = c.reads.at(rid);
      std::vector<std::size_t> unconverged;
      for (std::size_t x = 0; x < pending.size(); ++x) {
        const Support* best = nullptr;
        for (const Support& s : w.support[x])
          if (static_cast<int>(s.vouchers.size()) >= support &&
              (best == nullptr || s.sn > best->sn))
            best = &s;
        if (best != nullptr)
          out[pending[x]] = {best->sn, best->value};
        else
          unconverged.push_back(pending[x]);
      }
      if (unconverged.empty()) {
        c.reads.erase(rid);
        lock.unlock();
        quorum_hist.add(
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count());
        for (std::size_t x = 0; x < regs.size(); ++x)
          record_phase(obs::EventKind::kReadDone, self, regs[x]->reg_id(),
                       regs[x]->owner(), rid, out[x].first);
        return out;
      }
      // Some register has no sufficiently-supported pair among these
      // replies (stores still converging): ask about those again now, no
      // backoff — replies ARE arriving, the stores just have not converged
      // yet. The next wait still checks the deadline.
      pending = std::move(unconverged);
      lock.unlock();
      record_phase(obs::EventKind::kReadRetry, self, head.reg_id(),
                   head.owner(), rid);
      std::this_thread::yield();
      lock.lock();
      issue();
    }
  }

  // Client side of a read: account a STATE reply received by `self`. It
  // counts only for a read `self` is running: it is looked up among self's
  // own open reads, so a reply sent to another process — say, to a
  // Byzantine READ reusing a live rid — is no answer to this read. It is
  // dropped when malformed: not a StateReply, the wrong number of entries,
  // or an entry that is not a value of its register's type. Replies vouch
  // for the same pair of a register iff their sns match and their values
  // do — the same handle or equal content.
  void accept_state(int self, const Message& m) {
    const StateReply* reply = m.payload.get<StateReply>();
    if (reply == nullptr) return;
    Client& c = client(self);
    std::scoped_lock lock(c.mu);
    const auto it = c.reads.find(m.sn);
    if (it == c.reads.end()) return;  // reply to a finished read
    ReadWait& w = it->second;
    if (reply->size() != w.regs.size()) return;
    for (std::size_t x = 0; x < reply->size(); ++x)
      if (!w.regs[x]->holds_value((*reply)[x].second)) return;
    if (!w.senders.insert(m.from).second) return;  // dup sender
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
    w.cv->notify_all();
  }

  // ------------------------------------------------------ delivery gate

  // A register's replica at pid advanced (called under that register's
  // lock): wakes pid's gate waiters.
  void delivered(int pid) {
    Client& c = client(pid);
    {
      std::scoped_lock lock(c.wake_mu);
      ++c.epoch;
    }
    c.wake_cv.notify_all();
  }

  // Blocks `self` for at most `bound` until one of `watched` is ahead at
  // self (HandlerBase::replica_ahead). True iff one is.
  bool await_ahead(int self, const std::vector<const HandlerBase*>& watched,
                   std::chrono::milliseconds bound) {
    Client& c = client(self);
    const auto until = Clock::now() + bound;
    std::unique_lock lock(c.wake_mu);
    for (;;) {
      // Sample the epoch before testing, so a delivery landing between the
      // test and the wait still wakes us.
      const std::uint64_t epoch = c.epoch;
      lock.unlock();
      for (const HandlerBase* reg : watched)
        if (reg->replica_ahead(self)) return true;
      lock.lock();
      if (!c.wake_cv.wait_until(lock, until,
                                [&] { return c.epoch != epoch; }))
        return false;
    }
  }

 private:
  // Candidate pair of one register among a read's replies.
  struct Support {
    std::uint64_t sn;
    Payload value;
    std::set<int> vouchers;
  };
  // Client side of one READ: the registers it names, who replied, and per
  // register which processes vouch for each pair.
  struct ReadWait {
    std::condition_variable* cv = nullptr;  // the waiting read's
    std::vector<HandlerBase*> regs;
    std::set<int> senders;
    std::vector<std::vector<Support>> support;  // parallel to regs
  };
  // Coalescing state for one process's reads of one list of registers
  // (design note 15): overlapping reads of the same registers by the same
  // process share quorum rounds instead of each broadcasting their own.
  struct ReadRound {
    std::uint64_t round = 0;       // generations led so far
    bool in_flight = false;        // some thread is leading a round now
    int parked = 0;                // threads waiting to adopt a result
    std::uint64_t done_round = 0;  // highest generation published
    std::vector<StateEntry> done;  // its result
    std::condition_variable cv;
  };
  // One process's client side: its open reads (rids are per process),
  // its coalescing rounds, and its delivery-gate signal.
  struct Client {
    std::mutex mu;  // guards next_rid, reads and rounds
    std::uint64_t next_rid = 0;
    std::map<std::uint64_t, ReadWait> reads;  // open reads, by rid
    std::map<ReadRequest, ReadRound> rounds;  // coalescing, by register ids
    std::mutex wake_mu;  // guards epoch
    std::condition_variable wake_cv;
    std::uint64_t epoch = 0;  // deliveries at this process so far
  };

  Client& client(int pid) { return *clients_[static_cast<std::size_t>(pid)]; }

  std::string read_op(int self, const std::vector<HandlerBase*>& regs) const {
    std::string what = "read of '" + regs.front()->name() + "'";
    if (regs.size() > 1)
      what += " and " + std::to_string(regs.size() - 1) + " more registers";
    return what + " by p" + std::to_string(self);
  }

  // Coalesced READ quorum rounds (design note 15): reads of the same
  // registers by the same process that overlap in time share quorum rounds
  // instead of each broadcasting their own. At most one round per key is
  // in flight: the thread that finds none becomes the leader and runs the
  // plain n−f quorum; the others pick a target GENERATION — strictly after
  // their arrival — and adopt the result of the first generation >= it.
  //
  // Linearizability is inherited, not re-argued: the adopted result came
  // from a full n−f quorum round whose READ broadcast happened after the
  // adopting read was invoked (the generation counter is advanced under the
  // lock only after the target was fixed) and whose result landed before
  // it returns — so the quorum round's linearization point lies inside the
  // adopting read's own interval. Waiters never return a round led before
  // they arrived; the generation arithmetic is what rules that out.
  //
  // If a leader throws (op deadline), it releases leadership and wakes the
  // waiters; one of them leads a fresh generation — still >= every parked
  // target, so one successful round releases everyone. A key's state is
  // dropped once no thread leads or waits on it.
  std::vector<StateEntry> coalesced(int self,
                                    const std::vector<HandlerBase*>& regs) {
    const auto deadline = deadline_from(retry_, Clock::now());
    ReadRequest key;
    for (const HandlerBase* r : regs) key.push_back(r->reg_id());
    Client& c = client(self);
    std::unique_lock lock(c.mu);
    const auto it = c.rounds.try_emplace(std::move(key)).first;
    ReadRound& rr = it->second;  // node-stable while anyone uses it
    const auto release = [&] {   // under lock
      if (!rr.in_flight && rr.parked == 0) c.rounds.erase(it);
    };
    std::uint64_t target = 0;  // 0 = not parked yet
    for (;;) {
      if (target != 0 && rr.done_round >= target) {
        const std::uint64_t adopted = rr.done_round;
        std::vector<StateEntry> res = rr.done;
        --rr.parked;
        release();
        lock.unlock();
        coalesce_counter().add();
        record_phase(obs::EventKind::kReadCoalesced, self,
                     regs.front()->reg_id(), regs.front()->owner(), adopted,
                     res.front().first);
        return res;
      }
      if (!rr.in_flight) {
        if (target != 0) --rr.parked;  // leads now instead
        rr.in_flight = true;
        const std::uint64_t gen = ++rr.round;
        lock.unlock();
        std::vector<StateEntry> res;
        try {
          res = quorum(self, regs, n_ - f_, deadline);
        } catch (...) {
          lock.lock();
          rr.in_flight = false;  // hand leadership to a parked waiter
          rr.cv.notify_all();
          release();
          throw;
        }
        lock.lock();
        rr.done_round = std::max(rr.done_round, gen);
        rr.done = res;
        rr.in_flight = false;
        rr.cv.notify_all();
        release();
        return res;
      }
      if (target == 0) {
        target = rr.round + 1;
        ++rr.parked;
      }
      // Parked: the leader does the retrying.
      if (!wait_with_retry(
              retry_, rr.cv, lock, deadline,
              [&] { return rr.done_round >= target || !rr.in_flight; },
              [](std::uint64_t) {})) {
        --rr.parked;
        release();
        lock.unlock();
        throw_op_timeout(retry_, self, regs.front()->reg_id(),
                         regs.front()->owner(), target, read_op(self, regs));
      }
    }
  }

  Network* const net_;
  const int n_;
  const int f_;
  const RetryPolicy retry_;
  std::vector<std::unique_ptr<Client>> clients_;  // by pid
};

}  // namespace detail

}  // namespace swsig::msgpass
