// Signature-free emulation of atomic SWMR registers in an asynchronous
// Byzantine message-passing system with n > 3f — the substrate behind the
// paper's closing corollary ("SWMR registers can be implemented in
// message-passing systems with n > 3f [11], hence so can our registers").
//
// This is a documented reconstruction in the spirit of Mostéfaoui,
// Petrolia, Raynal, Jard (2017) — their exact pseudo-code is not in the
// reproduced paper. Structure (per register, writer w):
//
//   Write(sn, v)   by w: broadcast WRITE(sn, v); wait for ACK(sn) from
//                  n−f distinct processes.
//   on WRITE(sn,v) first WRITE seen for this sn: broadcast ECHO(sn, v)
//                  (echo-once-per-sn blocks equivocation support).
//   on n−f ECHO(sn,v):   broadcast ACCEPT(sn, v)         [once per pair]
//   on f+1 ACCEPT(sn,v): broadcast ACCEPT(sn, v)         [amplification]
//   on n−f ACCEPT(sn,v): deliver — store (sn,v) if sn is the highest
//                  delivered so far; send ACK(sn) to w.
//
//   Read()   by r: broadcast READ(rid); wait for STATE(rid, sn, v) replies;
//            return v of the highest pair reported identically by n−f
//            distinct processes; if no pair reaches n−f support among the
//            replies, retry with a fresh rid.
//
// Why it is safe (n > 3f):
//  * Per sn, only one value can gather n−f echoes (echo-once + quorum
//    intersection), so delivered pairs are unique per sn.
//  * The ECHO→ACCEPT→amplify→deliver ladder is Bracha's totality argument:
//    if any correct process delivers (sn,v), every correct process
//    eventually delivers it. Hence a read that returns (sn,v) — which
//    requires n−f identical STATEs, i.e. at least f+1 correct holders —
//    guarantees every later read sees at least sn: at most n−f−(f+1)+f =
//    n−f−1 < n−f processes can still report an older pair. No write-back
//    phase is needed because the n−f read threshold self-certifies.
//  * Liveness: reads terminate once the writer quiesces (correct stores
//    converge via totality); under an infinite write storm a read may
//    retry unboundedly — the shared-memory algorithms built on top issue
//    finitely many writes per operation. Recorded as design note 6 in docs/ARCHITECTURE.md.
//
// The server-side state machine itself — echo-once / accept-once /
// amplify / deliver tallies, the delivered-set replay guard, and the
// abort-fence state — is detail::BrachaLadder (bracha_ladder.hpp); this
// file keeps the message I/O policy around it, the owner's client-side
// state (writer mutex, sn-monotone local view) and the READ/STATE quorum.
//
// Values are immutable shared handles (Ref): a written value is built once
// and the same bytes back the WRITE broadcast, every ECHO / ACCEPT / STATE
// that carries it and every server's stored pair (design note 17 in
// docs/ARCHITECTURE.md). Protocol state holds handles, and two handles
// name the same value iff they are the same pointer or compare equal, so a
// value lives exactly as long as some stored pair, ladder slot, in-flight
// operation or message still reaches it.
//
// Pipelined writes (design note 15): the owner may keep up to
// pipeline_depth ladders in flight at once. write_async(v) allocates the
// next sn, opens its ACK-wait slot, broadcasts the WRITE, and returns the
// sn without waiting; await(sn) blocks until every in-flight sn <= that
// one has settled (quorum ACKs, a recovery completion, or an abort) and
// then reports sn's own fate — so client-visible completion is
// sn-monotone even though ladders race freely. Safety needs no new
// argument: each sn is its own candidate key (per-key dedup), servers
// apply deliveries sn-monotonically, and the owner's view was already
// updated at allocation, exactly as in the blocking path. write(v) is
// write_async + await with depth-1 semantics — byte-identical message
// traces to the pre-pipeline protocol.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <concepts>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "msgpass/detail/bracha_ladder.hpp"
#include "msgpass/network.hpp"
#include "msgpass/server_pool.hpp"
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

class EmulatedSpace;

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

struct HandlerBase {
  virtual ~HandlerBase() = default;
  // Runs on the server thread of the receiving process (bound to its pid).
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
};
}  // namespace detail

// One emulated SWMR register: protocol state for all n processes plus the
// client-side operations. All state is guarded by one mutex; message
// handling runs on per-process server threads owned by the EmulatedSpace.
template <typename T>
class EmulatedSwmr : public detail::HandlerBase {
  static_assert(requires(const T& a, const T& b) {
    { a == b } -> std::convertible_to<bool>;
  }, "emulated register values need == (quorums count equal values)");

  using Ladder = detail::BrachaLadder<T>;
  using Clock = std::chrono::steady_clock;

 public:
  // Immutable shared handle to one value.
  using Ref = std::shared_ptr<const T>;
  // STATE reply payload: a server's stored (sn, value) pair.
  using StatePayload = std::pair<std::uint64_t, Ref>;

  EmulatedSwmr(Network& net, int reg_id, int n, int f,
               runtime::ProcessId owner, T initial, std::string name,
               runtime::ProcessId sole_reader = runtime::kNoProcess,
               RetryPolicy retry = {}, int pipeline_depth = 1)
      : reg_id_(reg_id),
        n_(n),
        f_(f),
        owner_(owner),
        sole_reader_(sole_reader),
        name_(std::move(name)),
        initial_(std::make_shared<const T>(std::move(initial))),
        retry_(retry),
        net_(&net),
        pipeline_depth_(std::max(pipeline_depth, 1)),
        owner_view_(initial_) {
    state_.resize(static_cast<std::size_t>(n_) + 1, StoredState{0, initial_});
    ladder_.assign(static_cast<std::size_t>(n_) + 1, Ladder(n_, f_));
  }

  const std::string& name() const { return name_; }
  runtime::ProcessId owner() const { return owner_; }

  // Inspection hook for crash/recovery tests and the soak harness: process
  // pid's stored (sn, value) pair.
  std::pair<std::uint64_t, T> stored_state(int pid) const {
    std::scoped_lock lock(mu_);
    const StoredState& st = state_.at(static_cast<std::size_t>(pid));
    return {st.stored_sn, *st.stored_val};
  }

  // ------------------------------------------------------------- client

  // Write by the owner: completes after n−f ACKs. The model has a single
  // writing *process*, but that process may write from two threads (its op
  // thread and its Help() thread — Algorithms 1–3 do both). writer_mu_
  // serializes those whole-operation, the same discipline as the seqlock
  // engine's writer mutex (registers/storage.hpp); readers never touch it.
  void write(T v) {
    require_owner("write");
    std::scoped_lock wl(writer_mu_);
    await_locked(write_async_locked(std::make_shared<const T>(std::move(v))));
  }

  // Asynchronous write: broadcasts the WRITE and returns its sn without
  // waiting for the ACK quorum. At most pipeline_depth writes may be
  // unsettled at once — past that the call blocks (driving retries of the
  // in-flight ladders) until a slot frees. Every async write must
  // eventually be awaited: await(sn) reports its fate (WriteAborted if the
  // owner crashed and recovery fenced it) and releases its slot.
  std::uint64_t write_async(T v) {
    require_owner("write_async");
    std::scoped_lock wl(writer_mu_);
    return write_async_locked(std::make_shared<const T>(std::move(v)));
  }

  // Blocks until every in-flight write with sn' <= sn has settled, then
  // reports sn's own outcome: returns normally on completion, throws
  // registers::WriteAborted if recovery finalized sn as aborted, or
  // registers::OpTimeout past retry_.op_timeout_ms. Waiting for the whole
  // prefix keeps client-visible completion sn-monotone: a later write is
  // never observed settled while an earlier one is still undecided.
  void await(std::uint64_t sn) {
    require_owner("await");
    await_locked(sn);
  }

  // Owner read-modify-write (single-writer, so the owner's local view IS
  // the register's last written value). Holds writer_mu_ across the whole
  // read-compute-commit: without it, two owner threads both read the same
  // owner_view_, each apply their fn, and the second commit erases the
  // first's modification (lost update).
  template <typename F>
  T update(F&& fn) {
    require_owner("update");
    std::scoped_lock wl(writer_mu_);
    T next;
    {
      std::scoped_lock lock(mu_);
      next = *owner_view_;
      fn(next);
      if (next == *owner_view_) return next;
    }
    Ref ref = std::make_shared<const T>(std::move(next));
    await_locked(write_async_locked(ref));
    return *ref;
  }

  // Read by any process (or the sole reader, for SWSR use): broadcast READ,
  // return the value of the highest (sn, value) pair reported identically
  // by n−f distinct processes; retry until stores converge.
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
  T read() {
    const runtime::ProcessId self = runtime::ThisProcess::id();
    if (sole_reader_ != runtime::kNoProcess && self != sole_reader_ &&
        self != owner_) {
      throw registers::PortViolation("read of emulated SWSR '" + name_ +
                                     "' by p" + std::to_string(self));
    }
    // The read's one copy, made outside the protocol mutex.
    return *coalesced_quorum_pair(self).second;
  }

  // ------------------------------------------------------------- server

  void handle(const Message& m) override {
    const runtime::ProcessId self = runtime::ThisProcess::id();
    switch (m.tag) {
      case obs::MsgTag::kWrite:
        if (m.from != owner_) return;  // only the owner's writes count
        on_write(self, m, /*complete=*/false);
        return;
      case obs::MsgTag::kCWrite:
        // Completion re-issue from the owner's crash recovery: the only
        // message that lifts an abort fence (a plain retried WRITE must
        // stay inert at fenced servers or a delayed pre-crash copy could
        // undo a finalized abort).
        if (m.from != owner_) return;
        on_write(self, m, /*complete=*/true);
        return;
      case obs::MsgTag::kEcho:
        on_vote_msg(self, m, /*is_echo=*/true);
        return;
      case obs::MsgTag::kAccept:
        on_vote_msg(self, m, /*is_echo=*/false);
        return;
      case obs::MsgTag::kAck:
        on_ack(self, m);
        return;
      case obs::MsgTag::kAbort:
        if (m.from != owner_) return;  // only the owner fences its sns
        on_abort(self, m);
        return;
      case obs::MsgTag::kAbAck:
        if (self != owner_) return;
        on_aback(m);
        return;
      case obs::MsgTag::kRead:
        serve_read(self, m);
        return;
      case obs::MsgTag::kState:
        accept_state(self, m);
        return;
      default:
        return;
    }
  }

  // Crash semantics: a crash loses the server's volatile state — its stored
  // (sn, value) pair, wiped back to (0, initial), and any in-progress
  // ladder tallies (echo/accept vote counts for undelivered sns). The
  // ladder's echoed / delivered / blocked dedup sets are modeled as stable
  // storage (a write-ahead bit flipped before the corresponding broadcast):
  // without them a rejoined server could echo a second value for an sn it
  // already echoed — becoming equivocation support the safety argument
  // forbids — or re-deliver and re-ACK old sns (see bracha_ladder.hpp).
  void crash_process(int pid) override {
    std::scoped_lock lock(mu_);
    state_[static_cast<std::size_t>(pid)] = StoredState{0, initial_};
    ladder_[static_cast<std::size_t>(pid)].crash();
    if (pid == owner_) {
      // In-flight writes just lost their owner: mark them interrupted so
      // the client's retry timer stops re-broadcasting (the network
      // squelch already discards its sends) and the blocked writer thread
      // parks until restart, when owner_restarted decides each fate.
      for (auto& [sn, w] : acks_)
        if (w.fate == AckWait::Fate::kPending) w.interrupted = true;
      cv_.notify_all();
    }
  }

  // The recovery subsystem: a rejoining server (calling thread bound as
  // `self`) replays the certificates it missed by adopting the highest
  // (sn, value) pair vouched by f+1 live peers — at least one of them
  // correct, so the pair was genuinely certified by a delivered ladder.
  // Safe against Byzantine repliers by the f+1 threshold and idempotent /
  // monotone by the sn-guarded apply. Requires n−f live repliers (the
  // driver restarts one process at a time, within the fault budget).
  void resync_process(int self) override {
    const auto [sn, v] = quorum_pair(f_ + 1, deadline_from(Clock::now()));
    std::scoped_lock lock(mu_);
    apply_locked(self, sn, v);
  }

  // Owner-side crash recovery (design note 14). Runs bound as `pid` after
  // the server-side resync healed this process's replica. Each write that
  // was in flight when the owner died gets a determinate outcome:
  //  * the resynced state already carries sn (some correct quorum certified
  //    it) -> complete: re-drive the ladder with CWRITE until the ACKs land.
  //  * otherwise run the abort fence: broadcast ABORT(sn) until n−f
  //    processes reply ABACK. A replier that delivered sn — or had already
  //    sent ACCEPT for it — says so (unsafe) -> complete after all.
  //    Repliers that had done neither promise never to echo/accept/deliver
  //    sn. With n−f clean fences, accept-senders are capped at 2f < n−f
  //    forever (f non-repliers + f lying Byzantine repliers; see
  //    BrachaLadder::fence): no correct process ever delivers sn, so no
  //    read (n−f vouchers) or resync (f+1 vouchers, inductively no correct
  //    holder) can surface it. The abort is FINAL; the writer gets
  //    registers::WriteAborted from await.
  //
  // With several writes in flight (pipelining), the sns are decided in
  // ascending order, so the client-visible settle order stays sn-monotone:
  // a later sn never completes-or-aborts before an earlier one was decided.
  // The owner's local view is then rolled back ONLY if the write it mirrors
  // was itself aborted — to the highest surviving write: the best completed
  // in-flight sn or, if lower, the quorum-certified pair the resync adopted
  // (a per-sn rollback would let an early abort clobber the view of a later
  // completed write). write_sn_ is never rolled back — sns are never
  // reused, or stale echo-once slots would wedge the next write.
  //
  // With `recover` false (recovery subsystem disabled), only the retry
  // suppression is lifted: client retries resume, nothing is decided.
  void owner_restarted(int pid, bool recover) override {
    if (pid != owner_) return;
    std::vector<std::uint64_t> inflight;  // ascending (map order)
    {
      std::scoped_lock lock(mu_);
      for (auto& [sn, w] : acks_) {
        if (settled_locked(w)) continue;
        if (recover)
          inflight.push_back(sn);
        else
          w.interrupted = false;
      }
      if (!recover) {
        cv_.notify_all();
        return;
      }
    }
    std::set<std::uint64_t> aborted;
    std::uint64_t live_sn = 0;  // highest in-flight sn that completed
    Ref live;
    for (const std::uint64_t sn : inflight) {
      Recovered out = recover_write(sn);
      if (out.outcome == Recovered::Outcome::kCompleted) {
        live_sn = sn;
        live = std::move(out.value);
      } else if (out.outcome == Recovered::Outcome::kAborted) {
        aborted.insert(sn);
      }
    }
    std::scoped_lock lock(mu_);
    if (owner_view_sn_ != 0 && aborted.contains(owner_view_sn_)) {
      const StoredState& own = state_[static_cast<std::size_t>(owner_)];
      if (live && live_sn >= own.stored_sn) {
        owner_view_ = std::move(live);
        owner_view_sn_ = live_sn;
      } else {
        owner_view_ = own.stored_val;
        owner_view_sn_ = own.stored_sn;
      }
    }
  }

 private:
  struct StoredState {
    std::uint64_t stored_sn = 0;
    Ref stored_val;
  };
  // Client side of one READ round: the reading process, who replied, and
  // which processes vouch for each (sn, value) pair reported.
  struct ReadWait {
    struct Support {
      std::uint64_t sn;
      Ref value;
      std::set<int> vouchers;
    };
    int reader = runtime::kNoProcess;
    std::set<int> senders;
    std::vector<Support> support;
  };
  // Per-(register, reader-pid) coalescing state for shared READ quorum
  // rounds (design note 15): overlapping reads by the same process share
  // quorum rounds instead of each broadcasting their own.
  struct ReadRound {
    std::uint64_t round = 0;       // generations led so far
    bool in_flight = false;        // some thread is leading a round now
    std::uint64_t done_round = 0;  // highest generation published
    std::pair<std::uint64_t, Ref> done;  // its result pair
  };
  // Owner-side wait slot for one in-flight write sn.
  struct AckWait {
    enum class Fate { kPending, kCompleted, kAborted };
    Ref value;  // for retry re-broadcasts
    std::set<int> acks;
    // Owner crashed with this write in flight: suppresses the client's
    // retry timer until restart (recovery owns the sn meanwhile).
    bool interrupted = false;
    // Recovery proved the sn delivered somewhere: retries switch to CWRITE
    // so they also lift any fences granted before the delivery was found.
    bool recovered = false;
    int slot = 0;                // writes already in flight at issue (obs)
    Clock::time_point t0{};      // issue time (latency)
    Fate fate = Fate::kPending;
  };
  // Owner-side wait slot for one abort fence (recovery only).
  struct FenceWait {
    std::set<int> repliers;
    // Some replier delivered sn or had already sent ACCEPT for it: the
    // write must complete, not abort (see BrachaLadder::fence).
    bool unsafe_any = false;
  };

  void require_owner(const char* op) const {
    if (runtime::ThisProcess::id() != owner_)
      throw registers::PortViolation(std::string(op) + " on emulated '" +
                                     name_ + "' by non-owner p" +
                                     std::to_string(runtime::ThisProcess::id()));
  }

  // ------------------------------------------------- the client wait loop

  // An operation started at t0 must finish by this; max() = no deadline.
  Clock::time_point deadline_from(Clock::time_point t0) const {
    return retry_.op_timeout_ms > 0
               ? t0 + std::chrono::milliseconds(retry_.op_timeout_ms)
               : Clock::time_point::max();
  }

  // The one client wait loop (design note 14) behind every quorum wait:
  // reads, the ACK prefix, the pipeline's capacity gate, the coalesced-read
  // park and the abort fence. Blocks on cv_ under `lock` (mu_) until
  // done(). Each backoff slice (base_ms doubling to max_ms) that lapses
  // calls retry(backoff), which re-issues what the wait depends on and may
  // drop `lock` meanwhile; with retries disabled the wait is one slice up
  // to the deadline. Every pass checks `deadline`: once it has passed
  // without done() the loop returns false, and the caller throws through
  // op_timeout.
  template <typename Done, typename Retry>
  bool wait_locked(std::unique_lock<std::mutex>& lock,
                   Clock::time_point deadline, Done&& done, Retry&& retry) {
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
        retry(backoff);
        backoff =
            std::min(backoff * 2, std::max(retry_.max_ms, retry_.base_ms));
      }
    }
  }

  // Deadline expiry of the operation `what` by `pid`, keyed `key` on the
  // trace: counts it and throws registers::OpTimeout (an indeterminate
  // outcome). Releases `lock`.
  [[noreturn]] void op_timeout(std::unique_lock<std::mutex>& lock, int pid,
                               std::uint64_t key, const std::string& what) {
    lock.unlock();
    detail::record_phase(obs::EventKind::kOpTimeout, pid, reg_id_, owner_,
                         key);
    detail::timeout_counter().add();
    throw registers::OpTimeout(what + " timed out after " +
                               std::to_string(retry_.op_timeout_ms) + " ms");
  }

  // ---------------------------------------------------------------- read

  // Coalesced READ quorum rounds (design note 15): k reads of this register
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
  std::pair<std::uint64_t, Ref> coalesced_quorum_pair(int self) {
    const auto deadline = deadline_from(Clock::now());
    std::unique_lock lock(mu_);
    ReadRound& rr = read_rounds_[self];  // node-stable reference
    std::uint64_t target = 0;            // 0 = not parked yet
    for (;;) {
      if (target != 0 && rr.done_round >= target) {
        const std::uint64_t adopted = rr.done_round;
        auto res = rr.done;
        lock.unlock();
        detail::coalesce_counter().add();
        detail::record_phase(obs::EventKind::kReadCoalesced, self, reg_id_,
                             owner_, adopted, res.first);
        return res;
      }
      if (!rr.in_flight) {
        rr.in_flight = true;
        const std::uint64_t gen = ++rr.round;
        lock.unlock();
        std::pair<std::uint64_t, Ref> res;
        try {
          res = quorum_pair(n_ - f_, deadline);
        } catch (...) {
          std::scoped_lock relock(mu_);
          rr.in_flight = false;  // hand leadership to a parked waiter
          cv_.notify_all();
          throw;
        }
        lock.lock();
        rr.done_round = std::max(rr.done_round, gen);
        rr.done = res;
        rr.in_flight = false;
        cv_.notify_all();
        lock.unlock();
        return res;
      }
      if (target == 0) target = rr.round + 1;
      // Parked: the leader does the retrying.
      if (!wait_locked(
              lock, deadline,
              [&] { return rr.done_round >= target || !rr.in_flight; },
              [](std::uint64_t) {}))
        op_timeout(lock, self, target, read_op(self));
    }
  }

  std::string read_op(int self) const {
    return "read of '" + name_ + "' by p" + std::to_string(self);
  }

  // The quorum loop shared by reads and recovery: broadcast READ, return
  // the highest (sn, value) pair vouched identically by >= `support`
  // distinct repliers, retrying with fresh rids until one emerges. Reads
  // use support = n−f (self-certifying, design note 6); recovery uses
  // support = f+1 — enough to pin at least one correct voucher, i.e. a
  // certificate the Bracha ladder really delivered.
  //
  // Retry layer (design note 14): a reply quorum that fails to assemble
  // within the current backoff slice — replies lost to drops, partitions,
  // or a crashed server — re-broadcasts with a FRESH rid (reads have no
  // server-side effects; stale STATE replies to the abandoned rid are
  // ignored by accept_state).
  std::pair<std::uint64_t, Ref> quorum_pair(int support,
                                            Clock::time_point deadline) {
    static obs::LogHistogram& quorum_hist =
        obs::MetricsRegistry::global().histogram("msgpass.read_quorum_us");
    const int self = runtime::ThisProcess::id();
    const auto t0 = Clock::now();
    std::unique_lock lock(mu_);
    std::uint64_t rid = 0;
    const auto issue = [&] {  // under lock; drops it for the broadcast
      reads_.erase(rid);
      rid = ++read_rid_;
      reads_[rid].reader = self;  // open the wait slot before broadcasting
      lock.unlock();
      detail::record_phase(obs::EventKind::kReadStart, self, reg_id_, owner_,
                           rid, static_cast<std::uint64_t>(support));
      Message m;
      m.reg = reg_id_;
      m.tag = obs::MsgTag::kRead;
      m.sn = rid;
      net_->broadcast(m);
      detail::record_phase(obs::EventKind::kQuorumWait, self, reg_id_, owner_,
                           rid, static_cast<std::uint64_t>(n_ - f_));
      lock.lock();
    };
    issue();
    for (;;) {
      const bool replied = wait_locked(
          lock, deadline,
          [&] {
            return static_cast<int>(reads_[rid].senders.size()) >= n_ - f_;
          },
          [&](std::uint64_t backoff) {  // replies were lost
            detail::record_phase(obs::EventKind::kOpRetry, self, reg_id_,
                                 owner_, rid, backoff);
            detail::retry_counter().add();
            issue();
          });
      if (!replied) {
        reads_.erase(rid);
        op_timeout(lock, self, rid, read_op(self));
      }
      // Highest pair reported identically by >= support distinct
      // processes.
      const typename ReadWait::Support* best = nullptr;
      for (const auto& s : reads_[rid].support)
        if (static_cast<int>(s.vouchers.size()) >= support &&
            (best == nullptr || s.sn > best->sn))
          best = &s;
      if (best != nullptr) {
        std::pair<std::uint64_t, Ref> res{best->sn, best->value};
        reads_.erase(rid);
        lock.unlock();
        quorum_hist.add(
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count());
        detail::record_phase(obs::EventKind::kReadDone, self, reg_id_,
                             owner_, rid, res.first);
        return res;
      }
      // No sufficiently-supported pair among these replies (stores still
      // converging): re-issue now, no backoff — replies ARE arriving, the
      // stores just have not converged yet. The next wait still checks the
      // deadline.
      lock.unlock();
      detail::record_phase(obs::EventKind::kReadRetry, self, reg_id_, owner_,
                           rid);
      std::this_thread::yield();
      lock.lock();
      issue();
    }
  }

  // --------------------------------------------------------------- write

  bool settled_locked(const AckWait& w) const {
    return static_cast<int>(w.acks.size()) >= n_ - f_ ||
           w.fate != AckWait::Fate::kPending;
  }

  int unsettled_locked() const {
    int k = 0;
    for (const auto& [sn, w] : acks_)
      if (!settled_locked(w)) ++k;
    return k;
  }

  std::string write_op(std::uint64_t sn) const {
    return "write sn " + std::to_string(sn) + " on '" + name_ + "'";
  }

  // The write path's retry: re-broadcasts every unsettled, non-interrupted
  // in-flight sn <= limit — WRITE, or CWRITE once recovery proved the sn
  // delivered. Retries are pure refreshes of lost messages, idempotent at
  // every server (echo-once re-issues the original echo, delivered servers
  // just re-ACK), so a retry can never re-certify a quorum or recruit
  // equivocation support (design note 14). Drops `lock` to send.
  void resend_locked(std::unique_lock<std::mutex>& lock, std::uint64_t limit,
                     std::uint64_t backoff) {
    std::vector<Message> resend;
    for (const auto& [sn, w] : acks_) {
      if (sn > limit) break;
      if (settled_locked(w) || w.interrupted) continue;
      Message rm;
      rm.reg = reg_id_;
      rm.tag = w.recovered ? obs::MsgTag::kCWrite : obs::MsgTag::kWrite;
      rm.sn = sn;
      rm.payload = Payload(w.value);
      resend.push_back(std::move(rm));
    }
    if (resend.empty()) return;
    lock.unlock();
    for (Message& rm : resend) {
      detail::record_phase(obs::EventKind::kOpRetry, owner_, reg_id_, owner_,
                           rm.sn, backoff);
      detail::retry_counter().add();
      net_->broadcast(std::move(rm));
    }
    lock.lock();
  }

  // Issue half of the pipelined write path: caller holds writer_mu_.
  // Blocks only on the capacity gate (unsettled in-flight >= depth), which
  // drives retries of the in-flight sns so a lossy window cannot wedge an
  // issuer behind ladders whose awaiters have not started waiting yet.
  // Allocates the next sn and updates owner_view_ sn-monotonically, so an
  // owner-local RMW never observes an older value after a higher sn was
  // handed to the write path. `v` is the value's one shared copy; the
  // WRITE carries it.
  std::uint64_t write_async_locked(Ref v) {
    const auto t0 = Clock::now();
    std::unique_lock lock(mu_);
    if (!wait_locked(
            lock, deadline_from(t0),
            [&] { return unsettled_locked() < pipeline_depth_; },
            [&](std::uint64_t backoff) {
              resend_locked(lock, std::numeric_limits<std::uint64_t>::max(),
                            backoff);
            }))
      op_timeout(lock, owner_, 0, write_op(0));
    const std::uint64_t sn = ++write_sn_;
    if (sn >= owner_view_sn_) {
      owner_view_ = v;
      owner_view_sn_ = sn;
    }
    // Open the ACK wait slot before broadcasting so the ACK handler can
    // tell the in-flight write from stale/replayed sns.
    const int slot = unsettled_locked();  // writes already in flight
    AckWait& w = acks_[sn];
    w.value = v;
    w.slot = slot;
    w.t0 = t0;
    lock.unlock();
    detail::record_phase(obs::EventKind::kWriteStart, owner_, reg_id_, owner_,
                         sn, static_cast<std::uint64_t>(slot));
    Message m;
    m.reg = reg_id_;
    m.tag = obs::MsgTag::kWrite;
    m.sn = sn;
    m.payload = Payload(std::move(v));
    net_->broadcast(std::move(m));
    detail::record_phase(obs::EventKind::kQuorumWait, owner_, reg_id_, owner_,
                         sn, static_cast<std::uint64_t>(n_ - f_));
    return sn;
  }

  // Settle half: waits for every in-flight sn <= target, then reports
  // target's fate and releases (only) its slot. See await() for semantics.
  void await_locked(std::uint64_t target) {
    static obs::LogHistogram& ack_hist =
        obs::MetricsRegistry::global().histogram("msgpass.write_ack_wait_us");
    std::unique_lock lock(mu_);
    const auto it0 = acks_.find(target);
    if (it0 == acks_.end()) return;  // already awaited (or timed out)
    const auto t0 = it0->second.t0;
    if (!wait_locked(
            lock, deadline_from(t0),
            [&] {
              for (auto it = acks_.begin();
                   it != acks_.end() && it->first <= target; ++it)
                if (!settled_locked(it->second)) return false;
              return true;
            },
            [&](std::uint64_t backoff) {
              resend_locked(lock, target, backoff);
            })) {
      acks_.erase(target);
      op_timeout(lock, owner_, target,
                 write_op(target) + " (outcome indeterminate)");
    }
    const auto it = acks_.find(target);
    if (it == acks_.end()) return;  // raced with a concurrent await(target)
    const bool was_aborted = it->second.fate == AckWait::Fate::kAborted;
    acks_.erase(it);
    lock.unlock();
    if (was_aborted) {
      detail::record_phase(obs::EventKind::kWriteAbort, owner_, reg_id_,
                           owner_, target);
      detail::abort_counter().add();
      throw registers::WriteAborted(
          write_op(target) +
          " aborted: owner crashed before the value could deliver");
    }
    const auto elapsed = Clock::now() - t0;
    ack_hist.add(std::chrono::duration<double, std::micro>(elapsed).count());
    detail::record_phase(
        obs::EventKind::kWriteDone, owner_, reg_id_, owner_, target,
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()));
  }

  // -------------------------------------------------------- server side

  // WRITE and CWRITE. The ladder decides (bracha_ladder.hpp): a delivered
  // server re-ACKs, a fenced server stays inert unless this is the
  // completion re-issue, an echoed server re-broadcasts its ORIGINAL echo
  // (receivers dedup votes by sender, so tallies never double-count — and
  // an equivocating retry cannot recruit this server's support either).
  // A malformed payload is dropped before the ladder sees it, so it never
  // occupies the sn's echo slot.
  void on_write(int self, const Message& m, bool complete) {
    Ref v = m.payload.share<T>();
    if (v == nullptr) return;
    typename Ladder::WriteStep step;
    {
      std::scoped_lock lock(mu_);
      step = ladder_[static_cast<std::size_t>(self)].on_write(m.sn, complete,
                                                              v);
    }
    switch (step.action) {
      case Ladder::WriteAction::kReAck:
        send_ack(m.sn);
        return;
      case Ladder::WriteAction::kFenced:
        return;
      case Ladder::WriteAction::kEcho:
        break;
    }
    detail::record_phase(obs::EventKind::kPhaseEcho, self, reg_id_, owner_,
                         m.sn);
    Message echo;
    echo.reg = reg_id_;
    echo.tag = obs::MsgTag::kEcho;
    echo.sn = m.sn;
    echo.payload = Payload(std::move(step.value));
    net_->broadcast(std::move(echo));
  }

  // ECHO and ACCEPT: one vote into the ladder; act on what it fired. The
  // ladder matches the vote to a candidate by handle, then by content, so a
  // copy of a value under a foreign handle tallies with the original.
  void on_vote_msg(int self, const Message& m, bool is_echo) {
    const Ref v = m.payload.share<T>();
    if (v == nullptr) return;  // malformed payload: dropped
    typename Ladder::VoteStep step;
    {
      std::scoped_lock lock(mu_);
      step = ladder_[static_cast<std::size_t>(self)].on_vote(m.sn, v, m.from,
                                                             is_echo);
      if (step.deliver) apply_locked(self, m.sn, step.value);
    }
    if (step.send_accept)
      detail::record_phase(step.amplified ? obs::EventKind::kPhaseAmplify
                                          : obs::EventKind::kPhaseAccept,
                           self, reg_id_, owner_, m.sn);
    if (step.deliver) {
      detail::record_phase(obs::EventKind::kPhaseDeliver, self, reg_id_,
                           owner_, m.sn);
      detail::record_phase(obs::EventKind::kPhaseAck, self, reg_id_, owner_,
                           m.sn);
    }
    if (step.send_accept) {
      Message acc;
      acc.reg = reg_id_;
      acc.tag = obs::MsgTag::kAccept;
      acc.sn = m.sn;
      acc.payload = Payload(step.value);
      net_->broadcast(std::move(acc));
    }
    if (step.deliver) send_ack(m.sn);
  }

  void send_ack(std::uint64_t sn) {
    Message ack;
    ack.reg = reg_id_;
    ack.tag = obs::MsgTag::kAck;
    ack.sn = sn;
    ack.to = owner_;
    net_->send(std::move(ack));
  }

  // ACK(sn) at the owner. Only ACKs for writes currently in flight count
  // (the slot is opened by write_async_locked before the broadcast): late
  // or replayed ACKs would otherwise recreate map entries that are never
  // erased.
  void on_ack(int self, const Message& m) {
    if (self != owner_) return;
    std::scoped_lock lock(mu_);
    const auto it = acks_.find(m.sn);
    if (it == acks_.end()) return;
    it->second.acks.insert(m.from);
    cv_.notify_all();
  }

  // Server side of the abort fence — BrachaLadder::fence holds the safety
  // argument (delivered-or-accepted repliers are unsafe; the rest promise
  // never to support sn again).
  void on_abort(int self, const Message& m) {
    bool unsafe;
    {
      std::scoped_lock lock(mu_);
      unsafe = ladder_[static_cast<std::size_t>(self)].fence(m.sn);
    }
    Message r;
    r.reg = reg_id_;
    r.tag = obs::MsgTag::kAbAck;
    r.sn = m.sn;
    r.to = m.from;
    r.payload = Payload::of(unsafe);
    net_->send(std::move(r));
  }

  void on_aback(const Message& m) {
    const bool* unsafe = m.payload.get<bool>();
    if (unsafe == nullptr) return;  // malformed payload: dropped
    std::scoped_lock lock(mu_);
    const auto it = fence_.find(m.sn);
    if (it == fence_.end()) return;  // reply to a finished fence
    it->second.repliers.insert(m.from);
    if (*unsafe) it->second.unsafe_any = true;
    cv_.notify_all();
  }

  // Server side of read(): reply with process `self`'s stored pair (a
  // handle to the stored value, not a copy of it).
  void serve_read(int self, const Message& m) {
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
    net_->send(std::move(reply));
  }

  // Client side of read(): account a STATE reply received by `self`. A
  // malformed one (empty or wrong-typed payload, null value handle) is
  // dropped, and so is one for a read `self` is not running: rids are
  // per register, and a reply sent to another process — say, to a
  // Byzantine READ reusing a live rid — is no answer to this read. Replies
  // vouch for the same pair iff their sns match and their values do — the
  // same handle or equal content.
  void accept_state(int self, const Message& m) {
    const StatePayload* state = m.payload.get<StatePayload>();
    if (state == nullptr || state->second == nullptr) return;
    const auto& [sn, v] = *state;
    std::scoped_lock lock(mu_);
    auto it = reads_.find(m.sn);
    if (it == reads_.end() || it->second.reader != self)
      return;  // reply to a finished or foreign read
    ReadWait& w = it->second;
    if (!w.senders.insert(m.from).second) return;  // dup sender
    auto s = std::find_if(w.support.begin(), w.support.end(), [&](auto& e) {
      return e.sn == sn && (e.value == v || *e.value == *v);
    });
    if (s == w.support.end())
      s = w.support.insert(s, typename ReadWait::Support{sn, v, {}});
    s->vouchers.insert(m.from);
    cv_.notify_all();
  }

  // Applies a delivered (sn, value) to process `self`'s stored state,
  // sn-monotone — late or reordered deliveries cannot roll it back.
  // Caller holds mu_.
  void apply_locked(int self, std::uint64_t sn, const Ref& v) {
    StoredState& st = state_[static_cast<std::size_t>(self)];
    if (sn > st.stored_sn) {
      st.stored_sn = sn;
      st.stored_val = v;
    }
  }

  // ------------------------------------------------------------ recovery

  // Recovery for one interrupted write sn (thread bound as the owner; see
  // owner_restarted for the safety argument). Decides complete-vs-abort and
  // applies the outcome to the writer's wait slot; owner_restarted folds
  // the outcomes into the owner-view rollback decision.
  struct Recovered {
    enum class Outcome { kCompleted, kAborted, kVanished };
    Outcome outcome = Outcome::kVanished;
    Ref value;
  };
  Recovered recover_write(std::uint64_t sn) {
    bool certified;
    {
      // The server-side resync just adopted the highest f+1-vouched pair
      // into our own replica: if it carries sn, the write delivered
      // somewhere and must complete.
      std::scoped_lock lock(mu_);
      certified = state_[static_cast<std::size_t>(owner_)].stored_sn >= sn;
    }
    const bool complete = certified || !fence_write(sn);
    std::unique_lock lock(mu_);
    const auto it = acks_.find(sn);
    if (it == acks_.end())
      return {};  // writer gave up (op timeout) meanwhile
    AckWait& w = it->second;
    w.interrupted = false;
    cv_.notify_all();
    if (!complete) {
      w.fate = AckWait::Fate::kAborted;
      return {Recovered::Outcome::kAborted, nullptr};
    }
    w.recovered = true;
    // Kick the completion now rather than waiting a backoff slice: the
    // CWRITE lifts any fences granted mid-recovery and re-drives the
    // ladder toward the missing ACKs (the writer's own retries continue
    // as CWRITE from here).
    Message cm;
    cm.reg = reg_id_;
    cm.tag = obs::MsgTag::kCWrite;
    cm.sn = sn;
    cm.payload = Payload(w.value);
    Recovered out{Recovered::Outcome::kCompleted, w.value};
    lock.unlock();
    net_->broadcast(std::move(cm));
    return out;
  }

  // Broadcast ABORT(sn) until n−f ABACKs arrive, re-broadcasting on every
  // lapsed backoff slice (retries enabled). There is no deadline: recovery
  // must decide the sn. Returns true if the fence fully committed (write aborted): every
  // replier had neither delivered nor accepted sn. False means some
  // replier is unsafe — complete instead.
  bool fence_write(std::uint64_t sn) {
    Message m;
    m.reg = reg_id_;
    m.tag = obs::MsgTag::kAbort;
    m.sn = sn;
    std::unique_lock lock(mu_);
    FenceWait& fw = fence_[sn];  // open the wait slot before broadcasting
    const auto send = [&](std::uint64_t) {
      lock.unlock();
      net_->broadcast(m);
      lock.lock();
    };
    send(0);
    wait_locked(
        lock, Clock::time_point::max(),
        [&] { return static_cast<int>(fw.repliers.size()) >= n_ - f_; },
        send);
    const bool unsafe_any = fw.unsafe_any;
    fence_.erase(sn);
    return !unsafe_any;
  }

  const int reg_id_;
  const int n_;
  const int f_;
  const runtime::ProcessId owner_;
  const runtime::ProcessId sole_reader_;  // kNoProcess = SWMR
  const std::string name_;
  const Ref initial_;  // crash wipes a server's store back to this
  const RetryPolicy retry_;
  Network* const net_;
  const int pipeline_depth_;  // max unsettled async writes

  mutable std::mutex mu_;
  std::condition_variable cv_;
  // Serializes the owner's writing threads (op + Help) whole-operation —
  // the seqlock engine's writer-mutex discipline (registers/storage.hpp);
  // never touched by readers.
  std::mutex writer_mu_;
  std::vector<StoredState> state_;   // per process
  std::vector<Ladder> ladder_;       // per process
  std::uint64_t write_sn_ = 0;       // owner-local
  Ref owner_view_;                   // owner-local latest (possibly pending)
  std::uint64_t owner_view_sn_ = 0;  // sn owner_view_ corresponds to
  std::uint64_t read_rid_ = 0;
  std::map<std::uint64_t, ReadWait> reads_;
  std::map<int, ReadRound> read_rounds_;      // per reader pid (coalescing)
  std::map<std::uint64_t, AckWait> acks_;     // per in-flight write sn
  std::map<std::uint64_t, FenceWait> fence_;  // per recovering sn (owner)
};

// SWSR flavor: same protocol, read restricted to one process.
template <typename T>
class EmulatedSwsr : public EmulatedSwmr<T> {
 public:
  using EmulatedSwmr<T>::EmulatedSwmr;
};

// Factory + server threads. API-compatible with registers::Space for the
// operations the core algorithms use, so Algorithms 1–3 run unchanged on
// top of message passing (see core/* template parameter SpaceT).
class EmulatedSpace {
 public:
  template <typename T>
  using SwmrFor = EmulatedSwmr<T>;
  template <typename T>
  using SwsrFor = EmulatedSwsr<T>;

  struct Options {
    int n = 4;
    int f = 1;
    std::uint64_t reorder_seed = 0;
    // Run the quorum resync when a crashed process restarts. Disabled only
    // by the crash/rejoin regression test, to demonstrate the stale state a
    // rejoined server would otherwise serve.
    bool recover_on_restart = true;
    // Client-op retry/deadline policy, applied to every register created by
    // this space (design note 14).
    RetryPolicy retry{};
    // Max unsettled write_async ladders per register owner (design note
    // 15). 1 (the default) reproduces the blocking protocol exactly.
    int pipeline_depth = 1;
  };

  explicit EmulatedSpace(Options options)
      : options_(options),
        net_(Network::Options{options.n, options.reorder_seed}),
        crashed_(static_cast<std::size_t>(options.n) + 1),
        pool_(net_, options.n,
              [this](int pid, const Message& m) { dispatch(pid, m); }) {
    for (auto& c : crashed_) c.store(false, std::memory_order_relaxed);
  }

  ~EmulatedSpace() { stop(); }

  void stop() { pool_.stop(); }

  // ---------------------------------------------------- crash / restart
  //
  // A crash may land mid-operation: pid's server thread keeps running but
  // drops everything it receives, the network squelches everything it would
  // send, and each register wipes pid's volatile protocol state. Writes pid
  // had in flight as a CLIENT are suspended (their retry timers park) until
  // restart, when the recovery pass gives each one a determinate outcome —
  // completed or aborted (EmulatedSwmr::owner_restarted). At most f
  // processes may be down at once or quorum waits of live clients stall
  // until the window heals.

  void crash(runtime::ProcessId pid) {
    check_pid(pid, "crash");
    detail::record_phase(obs::EventKind::kCrash, pid, -1, pid, 0);
    std::vector<detail::HandlerBase*> regs = handlers();
    net_.set_squelched(pid, true);
    crashed_[static_cast<std::size_t>(pid)].store(true,
                                                  std::memory_order_release);
    for (auto* reg : regs) reg->crash_process(pid);
  }

  // Brings pid back. With recover_on_restart the rejoining server replays
  // the certificates it missed from f+1 live peers (resync) before the
  // call returns, then the client-role recovery pass settles any writes pid
  // had in flight when it died (complete or abort; design note 14). Without
  // it the server rejoins with its wiped (0, initial) state and serves
  // stale STATE replies until organic traffic catches it up — exactly what
  // the regression test demonstrates — and interrupted writes just resume
  // their retry timers.
  void restart(runtime::ProcessId pid) {
    check_pid(pid, "restart");
    detail::record_phase(obs::EventKind::kRestart, pid, -1, pid, 0);
    net_.set_squelched(pid, false);
    crashed_[static_cast<std::size_t>(pid)].store(false,
                                                  std::memory_order_release);
    if (options_.recover_on_restart) resync(pid);
    runtime::ThisProcess::Binder bind(pid);
    for (auto* reg : handlers())
      reg->owner_restarted(pid, options_.recover_on_restart);
  }

  // Quorum resync of every register's state for pid, callable on its own —
  // the soak driver also uses it to heal drop-window staleness.
  void resync(runtime::ProcessId pid) {
    check_pid(pid, "resync");
    detail::record_phase(obs::EventKind::kResync, pid, -1, pid, 0);
    runtime::ThisProcess::Binder bind(pid);
    for (auto* reg : handlers()) reg->resync_process(pid);
  }

  template <typename T>
  EmulatedSwmr<T>& make_swmr(runtime::ProcessId owner, T initial,
                             std::string name) {
    check_pid(owner, "owner", name);
    std::scoped_lock lock(mu_);
    const int id = static_cast<int>(registry_.size());
    auto reg = std::make_unique<EmulatedSwmr<T>>(
        net_, id, options_.n, options_.f, owner, std::move(initial),
        std::move(name), runtime::kNoProcess, options_.retry,
        options_.pipeline_depth);
    auto& ref = *reg;
    registry_.push_back(std::move(reg));
    return ref;
  }

  template <typename T>
  EmulatedSwsr<T>& make_swsr(runtime::ProcessId owner,
                             runtime::ProcessId reader, T initial,
                             std::string name) {
    check_pid(owner, "owner", name);
    check_pid(reader, "reader", name);
    std::scoped_lock lock(mu_);
    const int id = static_cast<int>(registry_.size());
    auto reg = std::make_unique<EmulatedSwsr<T>>(
        net_, id, options_.n, options_.f, owner, std::move(initial),
        std::move(name), reader, options_.retry, options_.pipeline_depth);
    auto& ref = *reg;
    registry_.push_back(std::move(reg));
    return ref;
  }

  Network& network() { return net_; }
  const Options& options() const { return options_; }

 private:
  // crashed_ and every register's per-process state are indexed by pid, so
  // a pid outside 1..n is a caller error, not a process to act on. `reg`
  // names the register being created, if any.
  void check_pid(runtime::ProcessId pid, const char* role,
                 const std::string& reg = "") const {
    if (pid >= 1 && pid <= options_.n) return;
    throw std::invalid_argument(
        "EmulatedSpace " + std::string(role) +
        (reg.empty() ? "" : " of '" + reg + "'") + ": p" +
        std::to_string(pid) + " outside 1.." + std::to_string(options_.n));
  }

  void dispatch(int pid, const Message& m) {
    // Crashed process: neither receives nor reacts (and since all its
    // protocol sends happen from this handler, it does not send either).
    if (crashed_[static_cast<std::size_t>(pid)].load(
            std::memory_order_acquire))
      return;
    detail::HandlerBase* handler = nullptr;
    {
      std::scoped_lock lock(mu_);
      if (m.reg >= 0 && m.reg < static_cast<int>(registry_.size()))
        handler = registry_[static_cast<std::size_t>(m.reg)].get();
    }
    // Handlers drop malformed payloads themselves (Payload::get).
    if (handler) handler->handle(m);
  }

  std::vector<detail::HandlerBase*> handlers() {
    std::scoped_lock lock(mu_);
    std::vector<detail::HandlerBase*> out;
    out.reserve(registry_.size());
    for (auto& reg : registry_) out.push_back(reg.get());
    return out;
  }

  Options options_;
  Network net_;
  std::mutex mu_;
  std::vector<std::unique_ptr<detail::HandlerBase>> registry_;
  std::vector<std::atomic<bool>> crashed_;  // index by pid
  detail::ServerPool pool_;  // last member: threads stop before state dies
};

}  // namespace swsig::msgpass
