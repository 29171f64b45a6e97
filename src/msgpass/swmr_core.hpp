// Shared register core for the message-passing SWMR emulations.
//
// EmulatedSwmr (per-write ladder) and BatchedSwmr (per-round ladder) differ
// only in how a write reaches the servers; everything else — the owner's
// writer-mutex discipline and sn-monotone local view, value interning, the
// per-process stored (sn, value) state, and the READ/STATE quorum read —
// is identical and lives here so a protocol fix lands in both substrates
// at once (the same reason detail::ServerPool owns the server loops).
//
// Values are held as immutable shared handles (Ref): a written value is
// built once and the same bytes back the WRITE broadcast, every ECHO /
// ACCEPT / STATE that carries it, every server's stored pair and the
// intern table (design note 17 in docs/ARCHITECTURE.md). Protocol maps key
// on interned value ids; interning is by content, so ids stay a function
// of the value alone no matter whose handle carried it.
#pragma once

#include <algorithm>
#include <chrono>
#include <concepts>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "msgpass/network.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "registers/errors.hpp"
#include "runtime/process.hpp"
#include "util/sharded_counter.hpp"

namespace swsig::msgpass {

// Client-operation deadline/retry policy, shared by both substrates. A
// blocked quorum wait re-issues its request after a bounded-exponential
// backoff slice — safe because every re-issue is idempotent at the servers
// (sn-keyed dedup: a retried WRITE/READ/BWRITE can refresh lost messages
// but never re-certify or split a quorum; design note 14). op_timeout_ms
// bounds the whole operation: 0 means retry forever (the soak default —
// fault windows heal, so liveness comes from the schedule, and an
// acknowledged-write guarantee must never be traded for a deadline).
struct RetryPolicy {
  bool enabled = true;
  std::uint64_t base_ms = 40;      // first backoff slice
  std::uint64_t max_ms = 640;      // backoff cap
  std::uint64_t op_timeout_ms = 0;  // overall deadline; 0 = none
};

namespace detail {

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

template <typename T>
class SwmrCore {
  static_assert(requires(const T& a, const T& b) {
    { a == b } -> std::convertible_to<bool>;
    { a < b } -> std::convertible_to<bool>;
  }, "emulated register values need == and < (content interning)");

 public:
  // Immutable shared handle to one value.
  using Ref = std::shared_ptr<const T>;
  // STATE reply payload: a server's stored (sn, value) pair.
  using StatePayload = std::pair<std::uint64_t, Ref>;

  const std::string& name() const { return name_; }
  runtime::ProcessId owner() const { return owner_; }

  // Inspection hook for crash/recovery tests and the soak harness: process
  // pid's stored (sn, value) pair.
  std::pair<std::uint64_t, T> stored_state(int pid) const {
    std::scoped_lock lock(mu_);
    const StoredState& st = state_.at(static_cast<std::size_t>(pid));
    return {st.stored_sn, *st.stored_val};
  }

 protected:
  SwmrCore(int reg_id, int n, int f, runtime::ProcessId owner, T initial,
           std::string name, runtime::ProcessId sole_reader,
           RetryPolicy retry = {})
      : reg_id_(reg_id),
        n_(n),
        f_(f),
        owner_(owner),
        sole_reader_(sole_reader),
        name_(std::move(name)),
        initial_(std::make_shared<const T>(std::move(initial))),
        retry_(retry),
        owner_view_(initial_) {
    state_.resize(static_cast<std::size_t>(n_) + 1,
                  StoredState{0, initial_});
  }

  struct StoredState {
    std::uint64_t stored_sn = 0;
    Ref stored_val;
  };
  struct ReadWait {
    std::set<int> senders;
    // (sn, value_id) -> supporting processes
    std::map<std::pair<std::uint64_t, int>, std::set<int>> support;
  };
  // Per-(register, reader-pid) coalescing state for batched READ quorum
  // rounds (design note 15): overlapping reads by the same process share
  // quorum rounds instead of each broadcasting their own.
  struct ReadRound {
    std::uint64_t round = 0;       // generations led so far
    bool in_flight = false;        // some thread is leading a round now
    std::uint64_t done_round = 0;  // highest generation published
    std::uint64_t done_sn = 0;     // its result pair
    int done_vid = -1;
  };

  void require_owner(const char* op) const {
    if (runtime::ThisProcess::id() != owner_)
      throw registers::PortViolation(std::string(op) + " on emulated '" +
                                     name_ + "' by non-owner p" +
                                     std::to_string(runtime::ThisProcess::id()));
  }

  // Interns a value under mu_ (caller holds it), returning a stable id
  // (ids keep the protocol maps cheap). Lookup is the handle first — honest
  // processes forward the canonical handle they got from values_, so the
  // common case is one hash probe — then the content index, O(log V); it
  // never scans. Equal content always maps to one id, whoever built the
  // handle: a Byzantine copy of an honest value tallies with it, which is
  // exactly the value-equality the ladder's quorum arguments count by.
  int intern_locked(const Ref& v) {
    if (const auto it = by_handle_.find(v.get()); it != by_handle_.end())
      return it->second;
    const auto [it, inserted] =
        by_content_.try_emplace(v.get(), static_cast<int>(values_.size()));
    if (inserted) {
      // Only canonical handles enter by_handle_: values_ keeps them alive,
      // so their addresses can never be reused by an unrelated payload.
      values_.push_back(v);
      by_handle_.emplace(v.get(), it->second);
    }
    return it->second;
  }

  // intern_locked for a received payload: -1 when it is empty or not a T
  // (a malformed Byzantine message — the caller drops it).
  int intern_payload_locked(const Payload& p) {
    const T* v = p.get<T>();
    if (v == nullptr) return -1;
    if (const auto it = by_handle_.find(v); it != by_handle_.end())
      return it->second;
    return intern_locked(p.share<T>());
  }

  // The canonical handle of an interned value, as a message payload.
  // Caller holds mu_.
  Payload payload_locked(int vid) const {
    return Payload(values_[static_cast<std::size_t>(vid)]);
  }

  // Allocates the next write sn and updates owner_view_ sn-monotonically,
  // so an owner-local RMW never observes an older value after a higher sn
  // was handed to the write path. Returns the sn and the interned id of v.
  // Caller holds writer_mu_.
  std::pair<std::uint64_t, int> allocate_sn_locked(Ref v) {
    std::scoped_lock lock(mu_);
    const std::uint64_t sn = ++write_sn_;
    const int vid = intern_locked(v);
    if (sn >= owner_view_sn_) {
      owner_view_ = std::move(v);
      owner_view_sn_ = sn;
    }
    return {sn, vid};
  }

  // Owner read-modify-write, shared by both substrates (they differ only in
  // how the new value reaches the servers — the `commit` step). Holds
  // writer_mu_ across the whole read-compute-commit: without it, two owner
  // threads both read the same owner_view_, each apply their fn, and the
  // second commit erases the first's modification (lost update). `commit`
  // receives the new value's one shared handle, runs with writer_mu_ held
  // and must block until the write is durable.
  template <typename F, typename Commit>
  T update_with(F&& fn, Commit&& commit) {
    std::scoped_lock wl(writer_mu_);
    T next;
    {
      std::scoped_lock lock(mu_);
      next = *owner_view_;
      fn(next);
      if (next == *owner_view_) return next;
    }
    Ref ref = std::make_shared<const T>(std::move(next));
    commit(ref);
    return *ref;
  }

  // Read by any process (or the sole reader, for SWSR use): broadcast READ
  // on `net`, return the value of the highest (sn, value) pair reported
  // identically by n−f distinct processes; retry until stores converge.
  //
  // The owner takes the same quorum path as everyone else. Any owner-local
  // shortcut is unsound in one direction or the other: serving the pending
  // owner_view_ surfaces a value before remote readers can see it (old-new
  // inversion against a later remote read), while serving the last
  // ACK-quorum-committed value LAGS remote visibility — a remote read can
  // assemble its n−f identical STATEs and respond before the owner's ACK
  // wait finishes, so a later owner-local read of the committed view
  // returns the older value (new-old inversion; caught fault-free by the
  // soak's windowed checker and the owner-read race regression test).
  // Linearizability of the quorum path itself is self-certifying: n−f
  // identical replies pin every later read at that sn or higher.
  T read_via(Network& net) {
    const runtime::ProcessId self = runtime::ThisProcess::id();
    if (sole_reader_ != runtime::kNoProcess && self != sole_reader_ &&
        self != owner_) {
      throw registers::PortViolation("read of emulated SWSR '" + name_ +
                                     "' by p" + std::to_string(self));
    }
    const auto [sn, vid] = coalesced_quorum_pair(net, self);
    (void)sn;
    Ref v;
    {
      std::scoped_lock lock(mu_);
      v = values_.at(static_cast<std::size_t>(vid));
    }
    return *v;  // the read's one copy, made outside the protocol mutex
  }

  // Batched READ quorum rounds (design note 15): k reads of this register
  // by the same process that overlap in time share quorum rounds instead of
  // broadcasting k of them. At most one round per (register, reader) is in
  // flight: the thread that finds none becomes the leader and runs the
  // plain n−f quorum; the others pick a target GENERATION — strictly after
  // their arrival — and adopt the result of the first generation >= it.
  //
  // Linearizability is inherited, not re-argued: the adopted result came
  // from a full n−f quorum round whose READ broadcast happened after the
  // adopting read was invoked (the generation counter is advanced under mu_
  // only after the target was fixed) and whose result landed before it
  // returns — so the quorum round's linearization point lies inside the
  // adopting read's own interval. Waiters never return a round led before
  // they arrived; the generation arithmetic is what rules that out.
  //
  // If a leader throws (op deadline), it releases leadership and wakes the
  // waiters; one of them leads a fresh generation — still >= every parked
  // target, so one successful round releases everyone.
  std::pair<std::uint64_t, int> coalesced_quorum_pair(Network& net, int self) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto op_deadline =
        retry_.op_timeout_ms > 0
            ? t0 + std::chrono::milliseconds(retry_.op_timeout_ms)
            : std::chrono::steady_clock::time_point::max();
    std::unique_lock lock(mu_);
    ReadRound& rr = read_rounds_[self];  // node-stable reference
    std::uint64_t target = 0;            // 0 = not parked yet
    for (;;) {
      if (target != 0 && rr.done_round >= target) {
        const std::uint64_t adopted = rr.done_round;
        const std::pair<std::uint64_t, int> res{rr.done_sn, rr.done_vid};
        lock.unlock();
        coalesce_counter().add();
        record_phase(obs::EventKind::kReadCoalesced, self, reg_id_, owner_,
                     adopted, res.first);
        return res;
      }
      if (!rr.in_flight) {
        rr.in_flight = true;
        const std::uint64_t gen = ++rr.round;
        lock.unlock();
        std::pair<std::uint64_t, int> res;
        try {
          res = quorum_pair_via(net, n_ - f_);
        } catch (...) {
          std::scoped_lock relock(mu_);
          rr.in_flight = false;  // hand leadership to a parked waiter
          cv_.notify_all();
          throw;
        }
        lock.lock();
        rr.done_round = std::max(rr.done_round, gen);
        rr.done_sn = res.first;
        rr.done_vid = res.second;
        rr.in_flight = false;
        cv_.notify_all();
        lock.unlock();
        return res;
      }
      if (target == 0) target = rr.round + 1;
      const auto parked = [&] {
        return rr.done_round >= target || !rr.in_flight;
      };
      if (retry_.op_timeout_ms > 0) {
        if (!cv_.wait_until(lock, op_deadline, parked)) {
          lock.unlock();
          record_phase(obs::EventKind::kOpTimeout, self, reg_id_, owner_,
                       target);
          timeout_counter().add();
          throw registers::OpTimeout(
              "read of '" + name_ + "' by p" + std::to_string(self) +
              " timed out after " + std::to_string(retry_.op_timeout_ms) +
              " ms");
        }
      } else {
        cv_.wait(lock, parked);
      }
    }
  }

  // The quorum loop shared by reads and recovery: broadcast READ, return
  // the highest (sn, value-id) pair vouched identically by >= `support`
  // distinct repliers, retrying with fresh rids until one emerges. Reads
  // use support = n−f (self-certifying, design note 6); recovery uses
  // support = f+1 — enough to pin at least one correct voucher, i.e. a
  // certificate the Bracha ladder really delivered.
  //
  // Retry layer (design note 14): a reply quorum that fails to assemble
  // within the current backoff slice — replies lost to drops, partitions,
  // or a crashed server — re-broadcasts with a FRESH rid (reads have no
  // server-side effects; stale STATE replies to the abandoned rid are
  // ignored by accept_state). retry_.op_timeout_ms, if set, bounds the
  // whole operation with registers::OpTimeout.
  std::pair<std::uint64_t, int> quorum_pair_via(Network& net, int support) {
    static obs::LogHistogram& quorum_hist =
        obs::MetricsRegistry::global().histogram("msgpass.read_quorum_us");
    const int self = runtime::ThisProcess::id();
    const auto t0 = std::chrono::steady_clock::now();
    const auto op_deadline =
        retry_.op_timeout_ms > 0
            ? t0 + std::chrono::milliseconds(retry_.op_timeout_ms)
            : std::chrono::steady_clock::time_point::max();
    std::uint64_t backoff = std::max<std::uint64_t>(retry_.base_ms, 1);
    for (;;) {
      std::uint64_t rid;
      {
        std::scoped_lock lock(mu_);
        rid = ++read_rid_;
        reads_[rid];  // create wait slot
      }
      record_phase(obs::EventKind::kReadStart, self, reg_id_, owner_, rid,
                   static_cast<std::uint64_t>(support));
      Message m;
      m.reg = reg_id_;
      m.tag = obs::MsgTag::kRead;
      m.sn = rid;
      net.broadcast(m);
      record_phase(obs::EventKind::kQuorumWait, self, reg_id_, owner_, rid,
                   static_cast<std::uint64_t>(n_ - f_));
      std::unique_lock lock(mu_);
      const auto reply_quorum = [&] {
        return static_cast<int>(reads_[rid].senders.size()) >= n_ - f_;
      };
      bool replied = true;
      if (!retry_.enabled) {
        if (retry_.op_timeout_ms > 0)
          replied = cv_.wait_until(lock, op_deadline, reply_quorum);
        else
          cv_.wait(lock, reply_quorum);
      } else {
        const auto until = std::min(
            std::chrono::steady_clock::now() +
                std::chrono::milliseconds(backoff),
            op_deadline);
        replied = cv_.wait_until(lock, until, reply_quorum);
      }
      if (replied) {
        // Highest pair reported identically by >= support distinct
        // processes.
        std::uint64_t best_sn = 0;
        int best_vid = -1;
        for (const auto& [key, vouchers] : reads_[rid].support) {
          if (static_cast<int>(vouchers.size()) >= support &&
              (best_vid < 0 || key.first > best_sn)) {
            best_sn = key.first;
            best_vid = key.second;
          }
        }
        reads_.erase(rid);
        if (best_vid >= 0) {
          lock.unlock();
          quorum_hist.add(
              std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - t0)
                  .count());
          record_phase(obs::EventKind::kReadDone, self, reg_id_, owner_, rid,
                       best_sn);
          return {best_sn, best_vid};
        }
        // No sufficiently-supported pair among these replies (stores still
        // converging): retry with a fresh request, no backoff — replies ARE
        // arriving, the stores just have not converged yet.
        lock.unlock();
        record_phase(obs::EventKind::kReadRetry, self, reg_id_, owner_, rid);
        std::this_thread::yield();
        continue;
      }
      // Backoff slice lapsed short of a reply quorum: replies were lost.
      reads_.erase(rid);
      lock.unlock();
      if (std::chrono::steady_clock::now() >= op_deadline) {
        record_phase(obs::EventKind::kOpTimeout, self, reg_id_, owner_, rid);
        timeout_counter().add();
        throw registers::OpTimeout(
            "read of '" + name_ + "' by p" + std::to_string(self) +
            " timed out after " + std::to_string(retry_.op_timeout_ms) +
            " ms");
      }
      record_phase(obs::EventKind::kOpRetry, self, reg_id_, owner_, rid,
                   backoff);
      retry_counter().add();
      backoff = std::min(backoff * 2, std::max(retry_.max_ms, retry_.base_ms));
    }
  }

  // ---------------------------------------------------- crash / recovery

  // Wipes process pid's server-side stored pair back to (0, initial) — the
  // volatile state lost in a crash. The subclass wipes its own ladder
  // tallies; echo/delivery dedup sets persist (modeled as a stable-storage
  // write-ahead bit, exactly what keeps a rejoined server from
  // re-supporting an equivocation it already refused). Caller holds mu_.
  void reset_stored_locked(int pid) {
    state_[static_cast<std::size_t>(pid)] = StoredState{0, initial_};
  }

  // The recovery subsystem: a rejoining server (calling thread bound as
  // `self`) replays the certificates it missed by adopting the highest
  // (sn, value) pair vouched by f+1 live peers — at least one of them
  // correct, so the pair was genuinely certified by a delivered ladder.
  // Safe against Byzantine repliers by the f+1 threshold and idempotent /
  // monotone by the sn-guarded apply. Requires n−f live repliers (the
  // driver restarts one process at a time, within the fault budget).
  void resync_via(Network& net, int self) {
    const auto [sn, vid] = quorum_pair_via(net, f_ + 1);
    std::scoped_lock lock(mu_);
    apply_locked(self, sn, vid);
  }

  // Server side of read_via: reply with process `self`'s stored pair (a
  // handle to the stored value, not a copy of it).
  void serve_read(Network& net, int self, const Message& m) {
    Message reply;
    reply.reg = reg_id_;
    reply.tag = obs::MsgTag::kState;
    reply.sn = m.sn;  // rid
    reply.to = m.from;
    StatePayload state;
    {
      std::scoped_lock lock(mu_);
      const StoredState& st = state_[static_cast<std::size_t>(self)];
      state = {st.stored_sn, st.stored_val};
    }
    reply.payload = Payload::of(std::move(state));
    net.send(std::move(reply));
  }

  // Client side of read_via: account a STATE reply. A malformed one (empty
  // or wrong-typed payload, null value handle) is dropped.
  void accept_state(const Message& m) {
    const StatePayload* state = m.payload.get<StatePayload>();
    if (state == nullptr || state->second == nullptr) return;
    std::scoped_lock lock(mu_);
    auto it = reads_.find(m.sn);
    if (it == reads_.end()) return;  // reply to a finished/foreign read
    if (!it->second.senders.insert(m.from).second) return;  // dup sender
    it->second.support[{state->first, intern_locked(state->second)}].insert(
        m.from);
    cv_.notify_all();
  }

  // Applies a delivered (sn, value id) to process `self`'s stored state,
  // sn-monotone — late or reordered deliveries cannot roll it back.
  // Caller holds mu_.
  void apply_locked(int self, std::uint64_t sn, int vid) {
    StoredState& st = state_[static_cast<std::size_t>(self)];
    if (sn > st.stored_sn) {
      st.stored_sn = sn;
      st.stored_val = values_[static_cast<std::size_t>(vid)];
    }
  }

  const int reg_id_;
  const int n_;
  const int f_;
  const runtime::ProcessId owner_;
  const runtime::ProcessId sole_reader_;  // kNoProcess = SWMR
  const std::string name_;
  const Ref initial_;  // crash wipes a server's store back to this
  const RetryPolicy retry_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  // Serializes the owner's writing threads (op + Help) whole-operation —
  // the seqlock engine's writer-mutex discipline (registers/storage.hpp);
  // never touched by readers.
  std::mutex writer_mu_;
  // The intern table: id -> canonical handle, plus its two lookup indexes.
  // It keeps every value the register ever held (design note 17).
  struct DerefLess {
    bool operator()(const T* a, const T* b) const { return *a < *b; }
  };
  std::vector<Ref> values_;
  std::unordered_map<const T*, int> by_handle_;  // canonical handles only
  std::map<const T*, int, DerefLess> by_content_;
  std::vector<StoredState> state_;   // per process
  std::uint64_t write_sn_ = 0;       // owner-local
  Ref owner_view_;                   // owner-local latest (possibly pending)
  std::uint64_t owner_view_sn_ = 0;  // sn owner_view_ corresponds to
  std::uint64_t read_rid_ = 0;
  std::map<std::uint64_t, ReadWait> reads_;
  std::map<int, ReadRound> read_rounds_;  // per reader pid (coalescing)
};

}  // namespace detail
}  // namespace swsig::msgpass
