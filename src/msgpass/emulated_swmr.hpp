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
// file keeps only the message I/O policy around it. The owner's
// client-side state (writer mutex, sn-monotone local view) and the
// READ/STATE quorum machinery live in detail::SwmrCore
// (msgpass/swmr_core.hpp).
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

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "msgpass/detail/bracha_ladder.hpp"
#include "msgpass/network.hpp"
#include "msgpass/server_pool.hpp"
#include "msgpass/swmr_core.hpp"
#include "registers/errors.hpp"
#include "runtime/process.hpp"

namespace swsig::msgpass {

class EmulatedSpace;

namespace detail {
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
class EmulatedSwmr : public detail::HandlerBase, public detail::SwmrCore<T> {
  using Core = detail::SwmrCore<T>;
  using Ladder = detail::BrachaLadder;
  using Ref = typename Core::Ref;

 public:
  // Fired once when an async write settles: (sn, aborted). Runs on the
  // thread that observed the settle (the owner's server thread for the ACK
  // quorum, the recovery thread for an abort) — keep it non-blocking and
  // do not call back into this register's write path from it.
  using SettleCallback = std::function<void(std::uint64_t, bool)>;

  EmulatedSwmr(Network& net, int reg_id, int n, int f,
               runtime::ProcessId owner, T initial, std::string name,
               runtime::ProcessId sole_reader = runtime::kNoProcess,
               RetryPolicy retry = {}, int pipeline_depth = 1)
      : Core(reg_id, n, f, owner, std::move(initial), std::move(name),
             sole_reader, retry),
        net_(&net),
        pipeline_depth_(std::max(pipeline_depth, 1)) {
    ladder_.assign(static_cast<std::size_t>(n) + 1, Ladder(n, f));
  }

  // ------------------------------------------------------------- client

  // Write by the owner: completes after n−f ACKs. The model has a single
  // writing *process*, but that process may write from two threads (its op
  // thread and its Help() thread — Algorithms 1–3 do both). writer_mu_
  // serializes those whole-operation, the same discipline as the seqlock
  // engine's writer mutex (registers/storage.hpp); readers never touch it.
  void write(T v) {
    this->require_owner("write");
    std::scoped_lock wl(this->writer_mu_);
    await_locked(
        write_async_locked(std::make_shared<const T>(std::move(v)), {}));
  }

  // Asynchronous write: broadcasts the WRITE and returns its sn without
  // waiting for the ACK quorum. At most pipeline_depth writes may be
  // unsettled at once — past that the call blocks (driving retries of the
  // in-flight ladders) until a slot frees. Every async write must
  // eventually be awaited: await(sn) reports its fate (WriteAborted if the
  // owner crashed and recovery fenced it) and releases its slot. The
  // optional callback fires once at settle time, before any await returns.
  std::uint64_t write_async(T v) { return write_async(std::move(v), {}); }
  std::uint64_t write_async(T v, SettleCallback on_settled) {
    this->require_owner("write_async");
    std::scoped_lock wl(this->writer_mu_);
    return write_async_locked(std::make_shared<const T>(std::move(v)),
                              std::move(on_settled));
  }

  // Blocks until every in-flight write with sn' <= sn has settled, then
  // reports sn's own outcome: returns normally on completion, throws
  // registers::WriteAborted if recovery finalized sn as aborted, or
  // registers::OpTimeout past retry_.op_timeout_ms. Waiting for the whole
  // prefix keeps client-visible completion sn-monotone: a later write is
  // never observed settled while an earlier one is still undecided.
  void await(std::uint64_t sn) {
    this->require_owner("await");
    await_locked(sn);
  }

  // Owner read-modify-write (single-writer, so the owner's local view IS
  // the register's last written value). Atomicity against the owner's other
  // writing thread lives in SwmrCore::update_with.
  template <typename F>
  T update(F&& fn) {
    this->require_owner("update");
    return this->update_with(std::forward<F>(fn), [this](Ref v) {
      await_locked(write_async_locked(std::move(v), {}));
    });
  }

  // Read by any process (or the sole reader, for SWSR use).
  T read() { return this->read_via(*net_); }

  // ------------------------------------------------------------- server

  void handle(const Message& m) override {
    const runtime::ProcessId self = runtime::ThisProcess::id();
    switch (m.tag) {
      case obs::MsgTag::kWrite:
        if (m.from != this->owner_) return;  // only the owner's writes count
        on_write(self, m, /*complete=*/false);
        return;
      case obs::MsgTag::kCWrite:
        // Completion re-issue from the owner's crash recovery: the only
        // message that lifts an abort fence (a plain retried WRITE must
        // stay inert at fenced servers or a delayed pre-crash copy could
        // undo a finalized abort).
        if (m.from != this->owner_) return;
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
        if (m.from != this->owner_) return;  // only the owner fences its sns
        on_abort(self, m);
        return;
      case obs::MsgTag::kAbAck:
        if (self != this->owner_) return;
        on_aback(m);
        return;
      case obs::MsgTag::kRead:
        this->serve_read(*net_, self, m);
        return;
      case obs::MsgTag::kState:
        this->accept_state(m);
        return;
      default:
        return;
    }
  }

  // Crash semantics: a crash loses the server's volatile state — its stored
  // (sn, value) pair and any in-progress ladder tallies (echo/accept vote
  // counts for undelivered sns). The ladder's echoed / delivered / blocked
  // dedup sets are modeled as stable storage (a write-ahead bit flipped
  // before the corresponding broadcast): without them a rejoined server
  // could echo a second value for an sn it already echoed — becoming
  // equivocation support the safety argument forbids — or re-deliver and
  // re-ACK old sns (see bracha_ladder.hpp).
  void crash_process(int pid) override {
    std::scoped_lock lock(this->mu_);
    this->reset_stored_locked(pid);
    ladder_[static_cast<std::size_t>(pid)].crash();
    if (pid == this->owner_) {
      // In-flight writes just lost their owner: mark them interrupted so
      // the client's retry timer stops re-broadcasting (the network
      // squelch already discards its sends) and the blocked writer thread
      // parks until restart, when owner_restarted decides each fate.
      for (auto& [sn, w] : acks_)
        if (w.fate == AckWait::Fate::kPending) w.interrupted = true;
      this->cv_.notify_all();
    }
  }

  void resync_process(int self) override { this->resync_via(*net_, self); }

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
  // reused, or stale echo-once refusals would wedge the next write.
  //
  // With `recover` false (recovery subsystem disabled), only the retry
  // suppression is lifted: client retries resume, nothing is decided.
  void owner_restarted(int pid, bool recover) override {
    if (pid != this->owner_) return;
    std::vector<std::uint64_t> inflight;  // ascending (map order)
    {
      std::scoped_lock lock(this->mu_);
      for (auto& [sn, w] : acks_) {
        if (settled_locked(w)) continue;
        if (recover)
          inflight.push_back(sn);
        else
          w.interrupted = false;
      }
      if (!recover) {
        this->cv_.notify_all();
        return;
      }
    }
    std::set<std::uint64_t> aborted;
    std::uint64_t live_sn = 0;  // highest in-flight sn that completed
    int live_vid = -1;
    for (const std::uint64_t sn : inflight) {
      const Recovered out = recover_write(sn);
      if (out.outcome == Recovered::Outcome::kCompleted) {
        live_sn = sn;
        live_vid = out.vid;
      } else if (out.outcome == Recovered::Outcome::kAborted) {
        aborted.insert(sn);
      }
    }
    std::scoped_lock lock(this->mu_);
    if (this->owner_view_sn_ != 0 && aborted.contains(this->owner_view_sn_)) {
      const auto& own = this->state_[static_cast<std::size_t>(this->owner_)];
      if (live_vid >= 0 && live_sn >= own.stored_sn) {
        this->owner_view_ = this->values_[static_cast<std::size_t>(live_vid)];
        this->owner_view_sn_ = live_sn;
      } else {
        this->owner_view_ = own.stored_val;
        this->owner_view_sn_ = own.stored_sn;
      }
    }
  }

 private:
  // Owner-side wait slot for one in-flight write sn.
  struct AckWait {
    enum class Fate { kPending, kCompleted, kAborted };
    int vid = -1;  // interned value, for retry re-broadcasts
    std::set<int> acks;
    // Owner crashed with this write in flight: suppresses the client's
    // retry timer until restart (recovery owns the sn meanwhile).
    bool interrupted = false;
    // Recovery proved the sn delivered somewhere: retries switch to CWRITE
    // so they also lift any fences granted before the delivery was found.
    bool recovered = false;
    bool fired = false;          // settle callback fired (at most once)
    SettleCallback on_settled;   // optional, from write_async
    int slot = 0;                // writes already in flight at issue (obs)
    std::chrono::steady_clock::time_point t0{};  // issue time (latency)
    Fate fate = Fate::kPending;
  };

  // Owner-side wait slot for one abort fence (recovery only).
  struct FenceWait {
    std::set<int> repliers;
    // Some replier delivered sn or had already sent ACCEPT for it: the
    // write must complete, not abort (see BrachaLadder::fence).
    bool unsafe_any = false;
  };

  bool settled_locked(const AckWait& w) const {
    return static_cast<int>(w.acks.size()) >= this->n_ - this->f_ ||
           w.fate != AckWait::Fate::kPending;
  }

  int unsettled_locked() const {
    int k = 0;
    for (const auto& [sn, w] : acks_)
      if (!settled_locked(w)) ++k;
    return k;
  }

  [[noreturn]] void throw_op_timeout(std::unique_lock<std::mutex>& lock,
                                     std::uint64_t victim) {
    if (victim != 0) acks_.erase(victim);
    lock.unlock();
    detail::record_phase(obs::EventKind::kOpTimeout, this->owner_,
                         this->reg_id_, this->owner_, victim);
    detail::timeout_counter().add();
    throw registers::OpTimeout(
        "write sn " + std::to_string(victim) + " on '" + this->name_ +
        "' timed out after " + std::to_string(this->retry_.op_timeout_ms) +
        " ms (outcome indeterminate)");
  }

  // The shared quorum-wait loop of the pipelined write path: waits under
  // `lock` (mu_) until pred(); each lapsed backoff slice re-broadcasts
  // every unsettled, non-interrupted in-flight sn <= limit — WRITE, or
  // CWRITE once recovery proved the sn delivered. Retries are pure
  // refreshes of lost messages, idempotent at every server (echo-once
  // re-issues the original echo, delivered servers just re-ACK), so a
  // retry can never re-certify a quorum or recruit equivocation support
  // (design note 14). Throws registers::OpTimeout at op_deadline, erasing
  // `victim`'s slot (0 = none — the capacity gate has no slot yet).
  template <typename Pred>
  void drive_quorum_locked(std::unique_lock<std::mutex>& lock,
                           std::chrono::steady_clock::time_point op_deadline,
                           std::uint64_t limit, std::uint64_t victim,
                           Pred&& pred) {
    std::uint64_t backoff = std::max<std::uint64_t>(this->retry_.base_ms, 1);
    for (;;) {
      if (pred()) return;
      if (!this->retry_.enabled) {
        if (this->retry_.op_timeout_ms > 0) {
          if (!this->cv_.wait_until(lock, op_deadline, pred))
            throw_op_timeout(lock, victim);
        } else {
          this->cv_.wait(lock, pred);
        }
        continue;
      }
      const auto until = std::min(std::chrono::steady_clock::now() +
                                      std::chrono::milliseconds(backoff),
                                  op_deadline);
      if (this->cv_.wait_until(lock, until, pred)) return;
      if (std::chrono::steady_clock::now() >= op_deadline)
        throw_op_timeout(lock, victim);
      std::vector<Message> resend;
      for (const auto& [sn, w] : acks_) {
        if (sn > limit) break;
        if (settled_locked(w) || w.interrupted) continue;
        Message rm;
        rm.reg = this->reg_id_;
        rm.tag = w.recovered ? obs::MsgTag::kCWrite : obs::MsgTag::kWrite;
        rm.sn = sn;
        rm.payload = this->payload_locked(w.vid);
        resend.push_back(std::move(rm));
      }
      if (!resend.empty()) {
        lock.unlock();
        for (Message& rm : resend) {
          detail::record_phase(obs::EventKind::kOpRetry, this->owner_,
                               this->reg_id_, this->owner_, rm.sn, backoff);
          detail::retry_counter().add();
          net_->broadcast(std::move(rm));
        }
        lock.lock();
      }
      backoff = std::min(backoff * 2,
                         std::max(this->retry_.max_ms, this->retry_.base_ms));
    }
  }

  // Issue half of the pipelined write path: caller holds writer_mu_.
  // Blocks only on the capacity gate (unsettled in-flight >= depth). `v` is
  // the value's one shared copy; the WRITE carries its canonical handle.
  std::uint64_t write_async_locked(Ref v, SettleCallback on_settled) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto op_deadline =
        this->retry_.op_timeout_ms > 0
            ? t0 + std::chrono::milliseconds(this->retry_.op_timeout_ms)
            : std::chrono::steady_clock::time_point::max();
    {
      // Capacity gate. The wait drives retries of the in-flight sns so a
      // lossy window cannot wedge an issuer behind ladders whose awaiters
      // have not started waiting yet.
      std::unique_lock lock(this->mu_);
      drive_quorum_locked(lock, op_deadline,
                          std::numeric_limits<std::uint64_t>::max(),
                          /*victim=*/0,
                          [&] { return unsettled_locked() < pipeline_depth_; });
    }
    const auto [sn, vid] = this->allocate_sn_locked(std::move(v));
    int slot;
    Message m;
    m.reg = this->reg_id_;
    m.tag = obs::MsgTag::kWrite;
    m.sn = sn;
    {
      // Open the ACK wait slot before broadcasting so the ACK handler can
      // tell the in-flight write from stale/replayed sns.
      std::scoped_lock lock(this->mu_);
      slot = unsettled_locked();  // writes already in flight (0 = none)
      AckWait& w = acks_[sn];
      w.vid = vid;
      w.on_settled = std::move(on_settled);
      w.slot = slot;
      w.t0 = t0;
      m.payload = this->payload_locked(vid);
    }
    detail::record_phase(obs::EventKind::kWriteStart, this->owner_,
                         this->reg_id_, this->owner_, sn,
                         static_cast<std::uint64_t>(slot));
    net_->broadcast(std::move(m));
    detail::record_phase(obs::EventKind::kQuorumWait, this->owner_,
                         this->reg_id_, this->owner_, sn,
                         static_cast<std::uint64_t>(this->n_ - this->f_));
    return sn;
  }

  // Settle half: waits for every in-flight sn <= target, then reports
  // target's fate and releases (only) its slot. See await() for semantics.
  void await_locked(std::uint64_t target) {
    static obs::LogHistogram& ack_hist =
        obs::MetricsRegistry::global().histogram("msgpass.write_ack_wait_us");
    std::unique_lock lock(this->mu_);
    const auto it0 = acks_.find(target);
    if (it0 == acks_.end()) return;  // already awaited (or timed out)
    const auto t0 = it0->second.t0;
    const auto op_deadline =
        this->retry_.op_timeout_ms > 0
            ? t0 + std::chrono::milliseconds(this->retry_.op_timeout_ms)
            : std::chrono::steady_clock::time_point::max();
    drive_quorum_locked(lock, op_deadline, target, /*victim=*/target, [&] {
      for (auto it = acks_.begin(); it != acks_.end() && it->first <= target;
           ++it)
        if (!settled_locked(it->second)) return false;
      return true;
    });
    const auto it = acks_.find(target);
    if (it == acks_.end()) return;  // raced with a concurrent await(target)
    const bool was_aborted = it->second.fate == AckWait::Fate::kAborted;
    acks_.erase(it);
    lock.unlock();
    if (was_aborted) {
      detail::record_phase(obs::EventKind::kWriteAbort, this->owner_,
                           this->reg_id_, this->owner_, target);
      detail::abort_counter().add();
      throw registers::WriteAborted(
          "write sn " + std::to_string(target) + " on '" + this->name_ +
          "' aborted: owner crashed before the value could deliver");
    }
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    ack_hist.add(std::chrono::duration<double, std::micro>(elapsed).count());
    detail::record_phase(
        obs::EventKind::kWriteDone, this->owner_, this->reg_id_, this->owner_,
        target,
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()));
  }

  // WRITE and CWRITE. The ladder decides (bracha_ladder.hpp): a delivered
  // server re-ACKs, a fenced server stays inert unless this is the
  // completion re-issue, an echoed server re-broadcasts its ORIGINAL echo
  // (receivers dedup votes by sender, so tallies never double-count — and
  // an equivocating retry cannot recruit this server's support either).
  // A malformed payload is dropped before the ladder sees it, so it never
  // occupies the sn's echo slot.
  void on_write(int self, const Message& m, bool complete) {
    if (m.payload.get<T>() == nullptr) return;
    typename Ladder::WriteStep step;
    Message echo;
    {
      std::scoped_lock lock(this->mu_);
      step = ladder_[static_cast<std::size_t>(self)].on_write(
          m.sn, complete, [&] { return this->intern_payload_locked(m.payload); });
      if (step.action == Ladder::WriteAction::kEcho)
        echo.payload = this->payload_locked(step.value_id);
    }
    switch (step.action) {
      case Ladder::WriteAction::kReAck: {
        Message ack;
        ack.reg = this->reg_id_;
        ack.tag = obs::MsgTag::kAck;
        ack.sn = m.sn;
        ack.to = this->owner_;
        net_->send(ack);
        return;
      }
      case Ladder::WriteAction::kFenced:
      case Ladder::WriteAction::kRefused:
        return;
      case Ladder::WriteAction::kEcho:
        break;
    }
    detail::record_phase(obs::EventKind::kPhaseEcho, self, this->reg_id_,
                         this->owner_, m.sn);
    echo.reg = this->reg_id_;
    echo.tag = obs::MsgTag::kEcho;
    echo.sn = m.sn;
    net_->broadcast(std::move(echo));
  }

  // ECHO and ACCEPT: one vote into the ladder; act on what it fired. The
  // vote counts for the interned id of the payload's CONTENT, so a copy of
  // a value under a foreign handle tallies with the original.
  void on_vote_msg(int self, const Message& m, bool is_echo) {
    int vid;
    typename Ladder::VoteStep step;
    Message acc;
    {
      std::scoped_lock lock(this->mu_);
      vid = this->intern_payload_locked(m.payload);
      if (vid < 0) return;  // malformed payload: dropped
      step = ladder_[static_cast<std::size_t>(self)].on_vote(m.sn, vid,
                                                             m.from, is_echo);
      if (step.deliver) this->apply_locked(self, m.sn, vid);
      if (step.send_accept) acc.payload = this->payload_locked(vid);
    }
    if (step.send_accept)
      detail::record_phase(step.amplified ? obs::EventKind::kPhaseAmplify
                                          : obs::EventKind::kPhaseAccept,
                           self, this->reg_id_, this->owner_, m.sn);
    if (step.deliver) {
      detail::record_phase(obs::EventKind::kPhaseDeliver, self, this->reg_id_,
                           this->owner_, m.sn, static_cast<std::uint64_t>(vid));
      detail::record_phase(obs::EventKind::kPhaseAck, self, this->reg_id_,
                           this->owner_, m.sn);
    }
    if (step.send_accept) {
      acc.reg = this->reg_id_;
      acc.tag = obs::MsgTag::kAccept;
      acc.sn = m.sn;
      net_->broadcast(std::move(acc));
    }
    if (step.deliver) {
      Message ack;
      ack.reg = this->reg_id_;
      ack.tag = obs::MsgTag::kAck;
      ack.sn = m.sn;
      ack.to = this->owner_;
      net_->send(ack);
    }
  }

  // ACK(sn) at the owner. Only ACKs for writes currently in flight count
  // (the slot is opened by write_async_locked before the broadcast): late
  // or replayed ACKs would otherwise recreate map entries that are never
  // erased.
  void on_ack(int self, const Message& m) {
    if (self != this->owner_) return;
    SettleCallback cb;
    {
      std::scoped_lock lock(this->mu_);
      const auto it = acks_.find(m.sn);
      if (it == acks_.end()) return;
      AckWait& w = it->second;
      w.acks.insert(m.from);
      if (static_cast<int>(w.acks.size()) >= this->n_ - this->f_ &&
          w.fate == AckWait::Fate::kPending && !w.fired && w.on_settled) {
        w.fired = true;
        cb = std::move(w.on_settled);
      }
      this->cv_.notify_all();
    }
    if (cb) cb(m.sn, /*aborted=*/false);
  }

  // Server side of the abort fence — BrachaLadder::fence holds the safety
  // argument (delivered-or-accepted repliers are unsafe; the rest promise
  // never to support sn again).
  void on_abort(int self, const Message& m) {
    bool unsafe;
    {
      std::scoped_lock lock(this->mu_);
      unsafe = ladder_[static_cast<std::size_t>(self)].fence(m.sn);
    }
    Message r;
    r.reg = this->reg_id_;
    r.tag = obs::MsgTag::kAbAck;
    r.sn = m.sn;
    r.to = m.from;
    r.payload = Payload::of(unsafe);
    net_->send(std::move(r));
  }

  void on_aback(const Message& m) {
    const bool* unsafe = m.payload.get<bool>();
    if (unsafe == nullptr) return;  // malformed payload: dropped
    std::scoped_lock lock(this->mu_);
    const auto it = fence_.find(m.sn);
    if (it == fence_.end()) return;  // reply to a finished fence
    it->second.repliers.insert(m.from);
    if (*unsafe) it->second.unsafe_any = true;
    this->cv_.notify_all();
  }

  // Recovery for one interrupted write sn (thread bound as the owner; see
  // owner_restarted for the safety argument). Decides complete-vs-abort and
  // applies the outcome to the writer's wait slot; owner_restarted folds
  // the outcomes into the owner-view rollback decision.
  struct Recovered {
    enum class Outcome { kCompleted, kAborted, kVanished };
    Outcome outcome = Outcome::kVanished;
    int vid = -1;
  };
  Recovered recover_write(std::uint64_t sn) {
    bool certified;
    {
      // The server-side resync just adopted the highest f+1-vouched pair
      // into our own replica: if it carries sn, the write delivered
      // somewhere and must complete.
      std::scoped_lock lock(this->mu_);
      certified =
          this->state_[static_cast<std::size_t>(this->owner_)].stored_sn >= sn;
    }
    const bool complete = certified || !fence_write(sn);
    SettleCallback cb;
    std::unique_lock lock(this->mu_);
    const auto it = acks_.find(sn);
    if (it == acks_.end())
      return {};  // writer gave up (op timeout) meanwhile
    AckWait& w = it->second;
    const int vid = w.vid;
    if (complete) {
      w.recovered = true;
      w.interrupted = false;
      this->cv_.notify_all();
      // Kick the completion now rather than waiting a backoff slice: the
      // CWRITE lifts any fences granted mid-recovery and re-drives the
      // ladder toward the missing ACKs (the writer's own retries continue
      // as CWRITE from here).
      Message cm;
      cm.reg = this->reg_id_;
      cm.tag = obs::MsgTag::kCWrite;
      cm.sn = sn;
      cm.payload = this->payload_locked(vid);
      lock.unlock();
      net_->broadcast(std::move(cm));
      return {Recovered::Outcome::kCompleted, vid};
    }
    w.fate = AckWait::Fate::kAborted;
    w.interrupted = false;
    if (!w.fired && w.on_settled) {
      w.fired = true;
      cb = std::move(w.on_settled);
    }
    this->cv_.notify_all();
    lock.unlock();
    if (cb) cb(sn, /*aborted=*/true);
    return {Recovered::Outcome::kAborted, vid};
  }

  // Broadcast ABORT(sn) until n−f ABACKs arrive (bounded-exponential
  // re-broadcast, like every other quorum wait). Returns true if the fence
  // fully committed (write aborted): every replier had neither delivered
  // nor accepted sn. False means some replier is unsafe — complete instead.
  bool fence_write(std::uint64_t sn) {
    {
      std::scoped_lock lock(this->mu_);
      fence_[sn];  // open the wait slot before broadcasting
    }
    std::uint64_t backoff = std::max<std::uint64_t>(this->retry_.base_ms, 1);
    Message m;
    m.reg = this->reg_id_;
    m.tag = obs::MsgTag::kAbort;
    m.sn = sn;
    for (;;) {
      net_->broadcast(m);
      std::unique_lock lock(this->mu_);
      const auto quorum = [&] {
        return static_cast<int>(fence_[sn].repliers.size()) >=
               this->n_ - this->f_;
      };
      if (this->cv_.wait_for(lock, std::chrono::milliseconds(backoff),
                             quorum)) {
        const bool unsafe_any = fence_[sn].unsafe_any;
        fence_.erase(sn);
        return !unsafe_any;
      }
      backoff = std::min(backoff * 2,
                         std::max(this->retry_.max_ms, this->retry_.base_ms));
    }
  }

  Network* net_;
  const int pipeline_depth_;                // max unsettled async writes
  std::vector<Ladder> ladder_;              // per process
  std::map<std::uint64_t, AckWait> acks_;   // per in-flight write sn (owner)
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
