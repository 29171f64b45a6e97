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
//   Read()   by r: broadcast READ(rid, ids); wait for STATE(rid, pairs)
//            replies, one stored (sn, v) pair per register named; for each
//            register return v of the highest pair reported identically by
//            n−f distinct processes; ask again, with a fresh rid, about the
//            registers whose replies have not converged. A read of one
//            register is the k = 1 case of this collect (design note 18).
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
// file keeps the message I/O policy around it and the owner's register-
// specific state (writer mutex, sn-monotone local view). Everything a
// process waits on — its quorum reads, its ACK and fence waits, the
// delivery gate the core algorithms' helpers wait on — is its one client,
// detail::Client (client.hpp).
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
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "msgpass/detail/bracha_ladder.hpp"
#include "msgpass/detail/client.hpp"
#include "msgpass/detail/pid_set.hpp"
#include "msgpass/network.hpp"
#include "msgpass/server_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "registers/errors.hpp"
#include "runtime/process.hpp"

namespace swsig::msgpass {

// One emulated SWMR register: the server replicas of all n processes plus
// the owner's client-side operations. Each replica (one process's ladder
// and stored pair) has its own lock, so the server threads of different
// processes never contend on a register. Queued messages are handled on
// per-process server threads owned by the EmulatedSpace, READs on the
// delivering thread. What a client waits on lives in its detail::Client.
template <typename T>
class EmulatedSwmr : public detail::HandlerBase {
  static_assert(requires(const T& a, const T& b) {
    { a == b } -> std::convertible_to<bool>;
  }, "emulated register values need == (quorums count equal values)");

  using Ladder = detail::BrachaLadder<T>;

 public:
  using Value = T;
  // Immutable shared handle to one value.
  using Ref = std::shared_ptr<const T>;

  // Created by EmulatedSpace, whose per-process clients run this
  // register's reads and waits. `sole_reader` restricts read() to one
  // process (SWSR use).
  EmulatedSwmr(Network& net, const detail::Clients& clients, int reg_id,
               int n, int f, runtime::ProcessId owner, T initial,
               std::string name, runtime::ProcessId sole_reader,
               int pipeline_depth)
      : HandlerBase(reg_id, owner, std::move(name)),
        n_(n),
        f_(f),
        sole_reader_(sole_reader),
        initial_(std::make_shared<const T>(std::move(initial))),
        net_(&net),
        clients_(&clients),
        pipeline_depth_(std::max(pipeline_depth, 1)),
        replicas_(static_cast<std::size_t>(n_) + 1),
        owner_view_(initial_) {
    for (Replica& r : replicas_) {
      r.state = StoredState{0, initial_};
      r.ladder = Ladder(n_, f_);
    }
  }

  // Inspection hook for crash/recovery tests and the soak harness: process
  // pid's stored (sn, value) pair.
  std::pair<std::uint64_t, T> stored_state(int pid) const {
    const Replica& r = replicas_.at(static_cast<std::size_t>(pid));
    std::scoped_lock lock(r.mu);
    return {r.state.stored_sn, *r.state.stored_val};
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
    const std::uint64_t sn =
        write_async_locked(std::make_shared<const T>(std::move(v)));
    client(owner_).await_write(*this, sn);
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
  // registers::OpTimeout past the retry policy's op_timeout_ms. Waiting for
  // the whole prefix keeps client-visible completion sn-monotone: a later
  // write is never observed settled while an earlier one is still
  // undecided.
  void await(std::uint64_t sn) {
    require_owner("await");
    client(owner_).await_write(*this, sn);
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
    const Ref cur = client(owner_).locked([&] { return owner_view_; });
    T next = *cur;
    fn(next);
    if (next == *cur) return next;
    Ref ref = std::make_shared<const T>(std::move(next));
    client(owner_).await_write(*this, write_async_locked(ref));
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
    require_readable(self);
    // The read's one copy, made outside every lock.
    return *client(self).read({this}).front().second.template get<T>();
  }

  // Throws registers::PortViolation unless `self` may read this register.
  void require_readable(runtime::ProcessId self) const {
    if (sole_reader_ != runtime::kNoProcess && self != sole_reader_ &&
        self != owner_) {
      throw registers::PortViolation("read of emulated SWSR '" + name_ +
                                     "' by p" + std::to_string(self));
    }
  }

  // ------------------------------------------------------------- server

  // The server messages. Replies to clients (STATE, ACK, ABACK) go to the
  // receiving process's detail::Client instead, on the delivering thread;
  // so send_ack and on_abort send holding no lock.
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
      case obs::MsgTag::kAbort:
        if (m.from != owner_) return;  // only the owner fences its sns
        on_abort(self, m);
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
  // The writes pid had in flight as a client are its client's
  // (detail::Client::interrupt).
  void crash_process(int pid) override {
    Replica& r = replica(pid);
    std::scoped_lock lock(r.mu);
    r.state = StoredState{0, initial_};
    r.ladder.crash();
    client(pid).replica_is(reg_id_, 0);
  }

  // The recovery subsystem: a rejoining server (calling thread bound as
  // `self`) replays the certificates it missed by adopting the highest
  // (sn, value) pair vouched by f+1 live peers — at least one of them
  // correct, so the pair was genuinely certified by a delivered ladder.
  // Safe against Byzantine repliers by the f+1 threshold and idempotent /
  // monotone by the sn-guarded apply. Requires n−f live repliers (the
  // driver restarts one process at a time, within the fault budget).
  void resync_process(int self) override {
    const StateEntry e = client(self).quorum({this}, f_ + 1).front();
    std::scoped_lock lock(replica(self).mu);
    apply_locked(self, e.first, e.second.template share<T>());
  }

  // ------------------------------------------------ read side (clients)

  StateEntry stored_entry(int pid) const override {
    const Replica& r = replicas_[static_cast<std::size_t>(pid)];
    std::scoped_lock lock(r.mu);
    return {r.state.stored_sn, Payload(r.state.stored_val)};
  }

  bool holds_value(const Payload& v) const override {
    return v.get<T>() != nullptr;
  }

  bool same_value(const Payload& a, const Payload& b) const override {
    const T* x = a.get<T>();
    const T* y = b.get<T>();
    return x == y || *x == *y;
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
  void owner_restarted(int pid) override {
    if (pid != owner_) return;
    detail::Client& c = client(owner_);
    std::set<std::uint64_t> aborted;
    std::uint64_t live_sn = 0;  // highest in-flight sn that completed
    Ref live;
    for (const std::uint64_t sn : c.in_flight(reg_id_)) {
      bool certified;
      {
        // The server-side resync just adopted the highest f+1-vouched pair
        // into our own replica: if it carries sn, the write delivered
        // somewhere and must complete.
        std::scoped_lock lock(replica(owner_).mu);
        certified = replica(owner_).state.stored_sn >= sn;
      }
      Payload value;
      switch (c.recover(reg_id_, sn, certified || !c.fence(reg_id_, sn),
                        value)) {
        case detail::Client::Recovery::kCompleted:
          live_sn = sn;
          live = value.share<T>();
          break;
        case detail::Client::Recovery::kAborted:
          aborted.insert(sn);
          break;
        case detail::Client::Recovery::kVanished:
          break;
      }
    }
    // The owner's replica lock first, then its client's.
    std::scoped_lock lock(replica(owner_).mu);
    const StoredState& own = replica(owner_).state;
    c.locked([&] {
      if (owner_view_sn_ == 0 || !aborted.contains(owner_view_sn_)) return;
      if (live && live_sn >= own.stored_sn) {
        owner_view_ = std::move(live);
        owner_view_sn_ = live_sn;
      } else {
        owner_view_ = own.stored_val;
        owner_view_sn_ = own.stored_sn;
      }
    });
  }

 private:
  struct StoredState {
    std::uint64_t stored_sn = 0;
    Ref stored_val;
  };
  // One process's server replica of this register, under its own lock.
  struct Replica {
    mutable std::mutex mu;  // guards state and ladder
    StoredState state;
    Ladder ladder;
  };

  void require_owner(const char* op) const {
    if (runtime::ThisProcess::id() != owner_)
      throw registers::PortViolation(std::string(op) + " on emulated '" +
                                     name_ + "' by non-owner p" +
                                     std::to_string(runtime::ThisProcess::id()));
  }

  detail::Client& client(int pid) const {
    return *(*clients_)[static_cast<std::size_t>(pid)];
  }

  Replica& replica(int pid) {
    return replicas_[static_cast<std::size_t>(pid)];
  }

  // Issue half of the pipelined write path: caller holds writer_mu_. The
  // owner's client runs the capacity gate and the ACK slot; here, under
  // its lock, the next sn is allocated and owner_view_ updated
  // sn-monotonically, so an owner-local RMW never observes an older value
  // after a higher sn was handed to the write path. `v` is the value's one
  // shared copy; the WRITE carries it.
  std::uint64_t write_async_locked(const Ref& v) {
    return client(owner_).open_write(*this, pipeline_depth_, Payload(v), [&] {
      const std::uint64_t sn = ++write_sn_;
      if (sn >= owner_view_sn_) {
        owner_view_ = v;
        owner_view_sn_ = sn;
      }
      return sn;
    });
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
      Replica& r = replica(self);
      std::scoped_lock lock(r.mu);
      step = r.ladder.on_write(m.sn, complete, v);
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
      Replica& r = replica(self);
      std::scoped_lock lock(r.mu);
      step = r.ladder.on_vote(m.sn, v, m.from, is_echo);
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

  // Server side of the abort fence — BrachaLadder::fence holds the safety
  // argument (delivered-or-accepted repliers are unsafe; the rest promise
  // never to support sn again).
  void on_abort(int self, const Message& m) {
    bool unsafe;
    {
      Replica& r = replica(self);
      std::scoped_lock lock(r.mu);
      unsafe = r.ladder.fence(m.sn);
    }
    Message r;
    r.reg = reg_id_;
    r.tag = obs::MsgTag::kAbAck;
    r.sn = m.sn;
    r.to = m.from;
    r.payload = Payload::of(unsafe);
    net_->send(std::move(r));
  }

  // Applies a delivered (sn, value) to process `self`'s stored state,
  // sn-monotone — late or reordered deliveries cannot roll it back — and
  // feeds the new sn to self's client, whose delivery gate wakes on it.
  // Caller holds self's replica lock.
  void apply_locked(int self, std::uint64_t sn, const Ref& v) {
    StoredState& st = replica(self).state;
    if (sn > st.stored_sn) {
      st.stored_sn = sn;
      st.stored_val = v;
      client(self).replica_is(reg_id_, sn);
    }
  }

  const int n_;
  const int f_;
  const runtime::ProcessId sole_reader_;  // kNoProcess = SWMR
  const Ref initial_;  // crash wipes a server's store back to this
  Network* const net_;
  const detail::Clients* const clients_;  // the space's, by pid
  const int pipeline_depth_;  // max unsettled async writes

  // Serializes the owner's writing threads (op + Help) whole-operation —
  // the seqlock engine's writer-mutex discipline (registers/storage.hpp);
  // never touched by readers.
  std::mutex writer_mu_;
  std::vector<Replica> replicas_;  // per process, slot 0 unused; never resized
  // Owner-side, guarded by the owner's client lock (Client::locked).
  std::uint64_t write_sn_ = 0;
  Ref owner_view_;                   // latest (possibly pending) value
  std::uint64_t owner_view_sn_ = 0;  // sn owner_view_ corresponds to
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
  // The wakeup gate (docs/ARCHITECTURE.md, "The wakeup gate";
  // registers::Space has the other implementation). A watched register:
  // any EmulatedSwmr<T>*.
  using Watched = const detail::HandlerBase*;
  // A caller's record is its process's: the client's last quorum read of
  // each register, kept by every read the process makes.
  struct Seen {};
  // How long a gated help_round() waits here at most. Fixed, not an
  // option: it only bounds how long a call that finds nothing to do takes
  // to return, so a caller looping on it can check for stop.
  static constexpr std::chrono::milliseconds kGateBound{50};

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

  // Throws std::invalid_argument for n > 63 (detail::PidSet).
  explicit EmulatedSpace(Options options)
      : options_(checked(options)),
        net_(Network::Options{options.n, options.reorder_seed},
             [this](const Message& m) { on_inline(m); }),
        clients_(make_clients(net_, options)),
        crashed_(static_cast<std::size_t>(options.n) + 1),
        pool_(net_, options.n,
              [this](int pid, const Message& m) { dispatch(pid, m); }) {
    for (auto& c : crashed_) c.store(false, std::memory_order_relaxed);
  }

  ~EmulatedSpace() { stop(); }

  // Stops the server threads and the network's delay pump, the threads
  // that act on the space's state from inside it.
  void stop() {
    pool_.stop();
    net_.stop();
  }

  // Blocks, without polling, until no message is queued, held by the delay
  // pump or inside a handler, then returns messages_sent() — the yardstick
  // for exact message counts (Network::quiesce). Needs the servers running
  // (not after stop()).
  std::uint64_t quiesce() { return net_.quiesce(); }

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
    client(pid).interrupt();
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
    if (!options_.recover_on_restart) {
      client(pid).resume();
      return;
    }
    resync(pid);
    runtime::ThisProcess::Binder bind(pid);
    for (auto* reg : handlers()) reg->owner_restarted(pid);
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
    return add<EmulatedSwmr<T>>(owner, std::move(initial), std::move(name),
                                runtime::kNoProcess);
  }

  template <typename T>
  EmulatedSwsr<T>& make_swsr(runtime::ProcessId owner,
                             runtime::ProcessId reader, T initial,
                             std::string name) {
    check_pid(owner, "owner", name);
    check_pid(reader, "reader", name);
    return add<EmulatedSwsr<T>>(owner, std::move(initial), std::move(name),
                                reader);
  }

  // Reads every register of `regs` (all of one value type) as the calling
  // process with one quorum exchange: one READ naming them all, one STATE
  // per replier carrying all their pairs — 2n messages for any number of
  // registers. Each value is what read() of that register would return;
  // slot i of the result is regs[i]'s (design note 18).
  template <typename Reg>
  std::vector<typename Reg::Value> collect(const std::vector<Reg*>& regs) {
    const runtime::ProcessId self = runtime::ThisProcess::id();
    std::vector<detail::HandlerBase*> handlers;
    handlers.reserve(regs.size());
    for (Reg* reg : regs) {
      reg->require_readable(self);
      handlers.push_back(reg);
    }
    std::vector<typename Reg::Value> out;
    if (handlers.empty()) return out;
    out.reserve(handlers.size());
    for (const StateEntry& e : client(self).read(handlers))
      out.push_back(*e.second.template get<typename Reg::Value>());
    return out;
  }

  // The delivery gate: blocks the calling process p for at most `bound`
  // until p's own replica of one of `watched` holds a higher sn than p's
  // last quorum read of that register returned. True iff one does. A
  // replica merely changing is not enough — a read can return an older
  // pair than the replica already holds, and then only the
  // replica-versus-last-read test still sees the newer write.
  bool await_change(Seen&, std::span<const Watched> watched,
                    std::chrono::milliseconds bound) {
    return client(runtime::ThisProcess::id()).await_ahead(watched, bound);
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

  static const Options& checked(const Options& o) {
    detail::require_tally_fits(o.n, "EmulatedSpace");
    return o;
  }

  // A crashed process neither receives nor reacts (and since all its
  // protocol sends happen from its server and client, it does not send
  // either).
  bool crashed(int pid) const {
    return crashed_[static_cast<std::size_t>(pid)].load(
        std::memory_order_acquire);
  }

  // Queued server traffic (WRITE, ECHO, ACCEPT, ABORT, CWRITE), on pid's
  // server thread. Handlers drop malformed payloads themselves
  // (Payload::get).
  void dispatch(int pid, const Message& m) {
    if (crashed(pid)) return;
    if (detail::HandlerBase* handler = registry_.find(m.reg))
      handler->handle(m);
  }

  // The network's client endpoint: a READ, STATE, ACK or ABACK for process
  // m.to, on the delivering thread bound as m.to.
  void on_inline(const Message& m) {
    if (crashed(m.to)) return;
    if (m.tag == obs::MsgTag::kRead)
      serve_read(m.to, m);
    else
      client(m.to).on_reply(m);
  }

  // Server side of a read: reply to READ(rid, ids) with process `self`'s
  // stored pair of every register named — handles to the stored values,
  // not copies of them. A READ that is malformed or names an unknown
  // register gets no reply at all. Each pair is read under its own replica
  // lock, so a STATE is not a snapshot across its registers (design note
  // 18 says why none is needed).
  void serve_read(int self, const Message& m) {
    const ReadRequest* ids = m.payload.get<ReadRequest>();
    if (ids == nullptr || ids->empty()) return;
    StateReply state;
    state.reserve(ids->size());
    for (const int id : *ids) {
      const detail::HandlerBase* reg = registry_.find(id);
      if (reg == nullptr) return;
      state.push_back(reg->stored_entry(self));
    }
    Message reply;
    reply.reg = m.reg;
    reply.tag = obs::MsgTag::kState;
    reply.sn = m.sn;  // rid
    reply.to = m.from;
    reply.payload = Payload::of(std::move(state));
    net_.send(std::move(reply));
  }

  static detail::Clients make_clients(Network& net, const Options& o) {
    detail::Clients out(static_cast<std::size_t>(o.n) + 1);
    for (int pid = 1; pid <= o.n; ++pid)
      out[static_cast<std::size_t>(pid)] =
          std::make_unique<detail::Client>(net, pid, o.n, o.f, o.retry);
    return out;
  }

  detail::Client& client(int pid) {
    return *clients_[static_cast<std::size_t>(pid)];
  }

  std::vector<detail::HandlerBase*> handlers() const {
    std::vector<detail::HandlerBase*> out;
    const int size = registry_.size();
    out.reserve(static_cast<std::size_t>(size));
    for (int id = 0; id < size; ++id) out.push_back(registry_.find(id));
    return out;
  }

  // Creates the next register. Its id is the registry's next slot, taken
  // and filled under mu_; a rejected register (its constructor threw)
  // takes none.
  template <typename Reg, typename T>
  Reg& add(runtime::ProcessId owner, T initial, std::string name,
           runtime::ProcessId sole_reader) {
    std::scoped_lock lock(mu_);
    auto reg = std::make_unique<Reg>(
        net_, clients_, registry_.size(), options_.n, options_.f, owner,
        std::move(initial), std::move(name), sole_reader,
        options_.pipeline_depth);
    Reg& ref = *reg;
    registry_.append(std::move(reg));
    return ref;
  }

  // The registers by id, for lookups that take no lock — one per server
  // message and k per READ. Ids are dense and only ever appended, so an
  // append publishes its register with a release store of the size, and a
  // lookup that sees size() > id sees register id. Chunk c holds the
  // kFirst·2^c ids from kFirst·(2^c − 1) on, so no entry ever moves.
  class Registry {
   public:
    // One appender at a time (the space's mu_).
    void append(std::unique_ptr<detail::HandlerBase> reg) {
      const int id = size_.load(std::memory_order_relaxed);
      const auto [c, at] = locate(id);
      if (!chunks_[c])
        chunks_[c] = std::make_unique<std::unique_ptr<detail::HandlerBase>[]>(
            kFirst << c);
      chunks_[c][at] = std::move(reg);
      size_.store(id + 1, std::memory_order_release);
    }

    // Register id, or nullptr if there is none.
    detail::HandlerBase* find(int id) const {
      if (id < 0 || id >= size_.load(std::memory_order_acquire))
        return nullptr;
      const auto [c, at] = locate(id);
      return chunks_[c][at].get();
    }

    int size() const { return size_.load(std::memory_order_acquire); }

   private:
    static constexpr std::size_t kFirst = 64;

    // (chunk, offset) of id.
    static std::pair<std::size_t, std::size_t> locate(int id) {
      const auto i = static_cast<std::size_t>(id);
      const auto c =
          static_cast<std::size_t>(std::bit_width(i / kFirst + 1)) - 1;
      return {c, i - kFirst * ((std::size_t{1} << c) - 1)};
    }

    // 26 chunks cover every non-negative int.
    std::array<std::unique_ptr<std::unique_ptr<detail::HandlerBase>[]>, 26>
        chunks_;
    std::atomic<int> size_{0};
  };

  Options options_;
  Network net_;
  detail::Clients clients_;  // one per process, by pid
  std::mutex mu_;  // serializes register creation
  Registry registry_;
  std::vector<std::atomic<bool>> crashed_;  // index by pid
  detail::ServerPool pool_;  // last member: threads stop before state dies
};

}  // namespace swsig::msgpass
