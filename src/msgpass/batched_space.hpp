// Batched + sharded emulation of atomic SWMR registers over Byzantine
// message passing — the "heavy traffic" substrate (design note 10 in
// docs/ARCHITECTURE.md).
//
// The per-write protocol in emulated_swmr.hpp costs one full
// ECHO/ACCEPT/ACK ladder per write: ~2n² + 2n messages each. Algorithms
// 1–3 issue many small register writes from the same owner (witness-set
// updates, helping-channel writes), so the substrate here amortizes the
// ladder over *rounds*:
//
//   * Each owner's pending writes — across ALL of its registers on a shard
//     — are drained into a round of at most `batch_max` ops. One round
//     carries a vector of (reg, sn, value) ops and runs ONE ladder:
//
//       BWRITE(round, ops)        broadcast by the owner (round leader)
//       on first BWRITE for (origin, round): intern the batch to a digest
//                                 id; broadcast BECHO(origin, round, digest)
//       on n−f  BECHO(o,r,d):     broadcast BACCEPT(o,r,d)     [once]
//       on f+1  BACCEPT(o,r,d):   broadcast BACCEPT(o,r,d)     [amplify]
//       on n−f  BACCEPT(o,r,d):   deliver — apply every op sn-monotonically
//                                 to its register; send BACK(r) to origin.
//       origin, on n−f BACK(r):   round complete — wake waiting writers,
//                                 lead the next round if ops are pending.
//
//     Messages per round: n + 2n² + n, i.e. per write the unbatched cost
//     divided by the achieved batch size.
//   * Registers are sharded round-robin across `shards` independent
//     Network instances (each with its own server threads), so writes to
//     independent registers on different shards never serialize through
//     one inbox queue or one protocol mutex.
//
// Safety is the same quorum argument as the unbatched protocol, lifted
// from values to batch digests: echo-once-per-(origin, round) means at
// most one digest gathers n−f echoes per round, the ACCEPT ladder is
// Bracha totality, and per-register sn-monotone apply makes out-of-order
// round delivery harmless. One invariant does NOT lift for free: the
// unbatched echo-once-per-sn rule also made values unique per register sn,
// and rounds are independent candidate keys — so servers additionally
// echo-support each (reg, sn) op at most once ACROSS rounds. The state
// machine enforcing all of this — tallies, replay guard, cross-round op
// claims — is detail::BrachaLadder<(origin, round)> (bracha_ladder.hpp),
// the SAME code the per-write substrate runs; this file keeps only the
// batching policy around it. Without the cross-round claim, a Byzantine
// owner could certify two values for the
// same register sn via two rounds, splitting correct servers' stored state
// and livelocking honest quorum reads. Batching only ever *groups* writes of a single
// owner; it never reorders them (rounds are led FIFO, one in flight per
// owner), so the register-level semantics are exactly those of
// EmulatedSwmr — tests/batched_msgpass_test.cpp checks trace equivalence
// against the unbatched space under a deterministic reorder seed.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "msgpass/detail/bracha_ladder.hpp"
#include "msgpass/message.hpp"
#include "msgpass/network.hpp"
#include "msgpass/server_pool.hpp"
#include "msgpass/swmr_core.hpp"
#include "registers/errors.hpp"
#include "runtime/process.hpp"

namespace swsig::msgpass {

namespace detail {

// Register-side hooks the shard protocol needs. One implementation per
// register type T (BatchedSwmr<T>); the shard itself stays untemplated.
struct BatchRegOps {
  virtual ~BatchRegOps() = default;
  virtual runtime::ProcessId reg_owner() const = 0;
  // Interns an op's value payload, returning a stable per-register value
  // id — or -1 for a malformed (empty or wrong-typed, Byzantine) payload.
  virtual int intern(const Payload& value) = 0;
  // Applies a delivered op to process `self`'s stored state, sn-monotone.
  virtual void apply(int self, std::uint64_t sn, int vid) = 0;
  // Serves per-register READ/STATE messages (same as the unbatched path).
  virtual void handle(const Message& m) = 0;
  // Crash/recovery hooks — same contract as detail::HandlerBase in
  // emulated_swmr.hpp (the shard wipes its own round tallies).
  virtual void crash_process(int pid) = 0;
  virtual void resync_process(int self) = 0;
};

}  // namespace detail

// One write op inside a round's batch. The value is the register's shared
// handle: batching a write copies a reference, not the value.
struct BatchOp {
  int reg = 0;
  std::uint64_t sn = 0;
  Payload value;
};
using Batch = std::vector<BatchOp>;

// One shard: an independent Network plus the round protocol state for all
// n processes and the registers assigned to this shard.
class BatchShard {
 public:
  // Round-protocol messages are dispatched at shard level, not to a
  // register; they use this sentinel in Message::reg.
  static constexpr int kBatchProto = -1;

  // The candidate key of one ladder run is (origin, round); the cross-run
  // op-dedup key is (reg, sn) — structurally the same pair, semantically
  // distinct (see bracha_ladder.hpp for why both guards live in the one
  // ladder, shared with the per-write substrate).
  using RoundKey = std::pair<int, std::uint64_t>;
  using Ladder = detail::BrachaLadder<RoundKey, RoundKey>;

  BatchShard(int n, int f, std::uint64_t reorder_seed, int batch_max,
             RetryPolicy retry = {}, int pipeline_depth = 1)
      : n_(n),
        f_(f),
        batch_max_(batch_max),
        pipeline_depth_(std::max(pipeline_depth, 1)),
        retry_(retry),
        net_(Network::Options{n, reorder_seed}),
        state_(static_cast<std::size_t>(n) + 1, Ladder(n, f)),
        crashed_(static_cast<std::size_t>(n) + 1),
        writers_(static_cast<std::size_t>(n) + 1),
        pool_(net_, n, [this](int self, const Message& m) { handle(self, m); }) {
    for (auto& c : crashed_) c.store(false, std::memory_order_relaxed);
  }

  ~BatchShard() { stop(); }
  void stop() { pool_.stop(); }

  Network& network() { return net_; }

  // Crash model, shard side: while crashed, pid's server thread drops every
  // message (neither receives nor sends), and its in-progress round tallies
  // are wiped (BrachaLadder::crash). The ladder's echoed / claimed /
  // delivered dedup sets persist — stable storage, same rationale as
  // EmulatedSwmr::crash_process (without them a rejoined server could
  // echo-support an sn twice across rounds, reopening the equivocation
  // vector the sets exist to close). Register stored state is wiped by the
  // Space via BatchRegOps::crash_process.
  void crash(runtime::ProcessId pid) {
    crashed_[static_cast<std::size_t>(pid)].store(true,
                                                  std::memory_order_release);
    net_.set_squelched(pid, true);
    {
      std::scoped_lock lock(mu_);
      state_[static_cast<std::size_t>(pid)].crash();
    }
    // Suspend pid's client role too: a round it was leading loses its
    // driver, so waiting writer threads park (no retries) until restart.
    WriterState& ws = writers_[static_cast<std::size_t>(pid)];
    std::scoped_lock wlock(ws.mu);
    if (ws.in_flight) ws.interrupted = true;
    ws.cv.notify_all();
  }

  void restart(runtime::ProcessId pid) {
    crashed_[static_cast<std::size_t>(pid)].store(false,
                                                  std::memory_order_release);
    net_.set_squelched(pid, false);
  }

  // Client-role recovery after restart (thread bound as pid): re-lead the
  // round that was in flight when the owner crashed. Unlike the per-write
  // substrate there is no abort fence here — recovery is complete-only,
  // which is always safe: re-broadcasting a BWRITE is idempotent (echo-once
  // per (origin, round) + cross-round sn dedup make duplicates inert, and
  // delivered servers just re-BACK), so the round either already delivered
  // or will now.
  void recover(runtime::ProcessId pid) {
    WriterState& ws = writers_[static_cast<std::size_t>(pid)];
    std::unique_lock lock(ws.mu);
    ws.interrupted = false;
    ws.cv.notify_all();
    if (!retry_.enabled) return;
    if (ws.in_flight) {
      Message m = inflight_bwrite(ws);
      lock.unlock();
      net_.broadcast(std::move(m));
    } else {
      maybe_lead(ws, lock);
    }
  }

  void add_register(int reg_id, detail::BatchRegOps* ops) {
    std::scoped_lock lock(mu_);
    registry_[reg_id] = ops;
  }

  // ------------------------------------------------------------- client

  // Enqueues one write op for `owner` and returns a completion ticket.
  // The calling thread must be bound as the owner (it may have to lead a
  // round, which broadcasts under its identity). Tickets complete in issue
  // order: rounds drain the pending queue FIFO, one round in flight per
  // owner.
  std::uint64_t submit(runtime::ProcessId owner, int reg_id, std::uint64_t sn,
                       Payload value) {
    WriterState& ws = writers_[static_cast<std::size_t>(owner)];
    std::unique_lock lock(ws.mu);
    const std::uint64_t ticket = ++ws.last_ticket;
    ws.pending.push_back(Pending{ticket, BatchOp{reg_id, sn, std::move(value)}});
    // Group-commit gate (design note 15): a depth-D pipelined client issues
    // up to D overlapping ops before blocking in await, so leading on the
    // first enqueue burns a whole quorum round on a 1-op batch and halves
    // the achievable amortization. Lead once the owner's outstanding window
    // is full; await() flushes partial windows immediately, so nothing
    // waits on a timer. Depth 1 (the default) leads on every submit — the
    // pre-pipeline behavior, message for message.
    if (static_cast<int>(ws.last_ticket - ws.completed_ticket) >=
        pipeline_depth_)
      maybe_lead(ws, lock);
    return ticket;
  }

  // Ops of `owner` currently unsettled on this shard (queued plus riding
  // the in-flight round) — the pipeline slot the register stamps on the
  // next submit's kWriteStart event, mirroring the unbatched substrate.
  int pending_depth(runtime::ProcessId owner) {
    WriterState& ws = writers_[static_cast<std::size_t>(owner)];
    std::scoped_lock lock(ws.mu);
    return static_cast<int>(ws.last_ticket - ws.completed_ticket);
  }

  // Blocks until `ticket` (from submit for the same owner) has completed,
  // i.e. its round gathered n−f BACKs. Retry layer (design note 14): each
  // lapsed backoff slice re-broadcasts the in-flight round's BWRITE — a
  // pure refresh of lost messages, idempotent at every server (echo-once
  // per (origin, round) re-issues the original digest vote, delivered
  // servers re-BACK) — or, if no round is in flight (the chain stalled
  // between rounds), leads the next one. The calling thread must be bound
  // as the owner.
  void await(runtime::ProcessId owner, std::uint64_t ticket) {
    WriterState& ws = writers_[static_cast<std::size_t>(owner)];
    std::unique_lock lock(ws.mu);
    const auto done = [&] { return ws.completed_ticket >= ticket; };
    const auto t0 = std::chrono::steady_clock::now();
    const auto op_deadline =
        retry_.op_timeout_ms > 0
            ? t0 + std::chrono::milliseconds(retry_.op_timeout_ms)
            : std::chrono::steady_clock::time_point::max();
    std::uint64_t backoff = std::max<std::uint64_t>(retry_.base_ms, 1);
    for (;;) {
      if (done()) return;
      // Flush a partial pipeline window: with the group-commit gate above,
      // ops short of the depth threshold sit queued until someone awaits
      // them — that someone is here, so lead before sleeping.
      if (!ws.in_flight && !ws.pending.empty()) {
        maybe_lead(ws, lock);
        continue;
      }
      if (!retry_.enabled) {
        if (retry_.op_timeout_ms > 0) {
          if (!ws.cv.wait_until(lock, op_deadline, done)) {
            lock.unlock();
            detail::record_phase(obs::EventKind::kOpTimeout, owner,
                                 kBatchProto, owner, ticket);
            detail::timeout_counter().add();
            throw registers::OpTimeout(
                "batched write ticket " + std::to_string(ticket) + " by p" +
                std::to_string(owner) + " timed out after " +
                std::to_string(retry_.op_timeout_ms) +
                " ms (outcome indeterminate)");
          }
        } else {
          ws.cv.wait(lock, done);
        }
        continue;
      }
      const auto until = std::min(std::chrono::steady_clock::now() +
                                      std::chrono::milliseconds(backoff),
                                  op_deadline);
      if (ws.cv.wait_until(lock, until, done)) return;
      if (std::chrono::steady_clock::now() >= op_deadline) {
        lock.unlock();
        detail::record_phase(obs::EventKind::kOpTimeout, owner, kBatchProto,
                             owner, ticket);
        detail::timeout_counter().add();
        throw registers::OpTimeout(
            "batched write ticket " + std::to_string(ticket) + " by p" +
            std::to_string(owner) + " timed out after " +
            std::to_string(retry_.op_timeout_ms) +
            " ms (outcome indeterminate)");
      }
      if (ws.interrupted) continue;  // owner down: recovery re-leads
      detail::record_phase(obs::EventKind::kOpRetry, owner, kBatchProto,
                           owner, ws.inflight_round, backoff);
      detail::retry_counter().add();
      if (ws.in_flight) {
        Message m = inflight_bwrite(ws);
        lock.unlock();
        net_.broadcast(std::move(m));
        lock.lock();
      } else {
        maybe_lead(ws, lock);
      }
      backoff = std::min(backoff * 2, std::max(retry_.max_ms, retry_.base_ms));
    }
  }

 private:
  // Canonical (interned) batch: (reg, sn, value id) triples. Two raw
  // batches with equal triples are the same digest — the candidate key of
  // the round ladder.
  using CanonicalBatch = std::vector<std::tuple<int, std::uint64_t, int>>;

  struct Pending {
    std::uint64_t ticket = 0;
    BatchOp op;
  };

  // Per-owner round driver state. One round in flight at a time; the next
  // round is led either by a submitting client thread or by the owner's
  // server thread when the previous round's BACK quorum lands (both run
  // bound as the owner).
  struct WriterState {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<Pending> pending;
    std::uint64_t last_ticket = 0;
    std::uint64_t completed_ticket = 0;
    std::uint64_t last_round = 0;
    bool in_flight = false;
    std::uint64_t inflight_round = 0;
    std::uint64_t inflight_last_ticket = 0;
    Payload inflight_batch;  // the shared Batch, for retry / recovery re-leads
    // Owner crashed with the round in flight: parks await()'s retry timer
    // until restart, when recover() re-leads the round.
    bool interrupted = false;
    std::set<int> backs;
  };

  // Caller holds ws.mu (passed as `lock`); releases it around the BWRITE
  // broadcast. Requires the calling thread bound as the owner.
  void maybe_lead(WriterState& ws, std::unique_lock<std::mutex>& lock) {
    if (ws.in_flight || ws.pending.empty()) return;
    const std::size_t take =
        std::min(ws.pending.size(), static_cast<std::size_t>(batch_max_));
    Batch batch;
    batch.reserve(take);
    for (std::size_t i = 0; i < take; ++i)
      batch.push_back(std::move(ws.pending[i].op));
    ws.inflight_last_ticket = ws.pending[take - 1].ticket;
    ws.pending.erase(ws.pending.begin(),
                     ws.pending.begin() + static_cast<std::ptrdiff_t>(take));
    ws.in_flight = true;
    ws.inflight_round = ++ws.last_round;
    ws.inflight_batch = Payload::of(std::move(batch));  // built once, shared
    ws.backs.clear();
    Message m = inflight_bwrite(ws);
    lock.unlock();
    detail::record_phase(obs::EventKind::kRoundLead,
                         runtime::ThisProcess::id(), kBatchProto,
                         runtime::ThisProcess::id(), m.sn,
                         static_cast<std::uint64_t>(take));
    net_.broadcast(std::move(m));
    lock.lock();
  }

  // The BWRITE of the owner's in-flight round (lead, retry and recovery
  // all send the same shared batch). Caller holds ws.mu.
  static Message inflight_bwrite(const WriterState& ws) {
    Message m;
    m.reg = kBatchProto;
    m.tag = obs::MsgTag::kBWrite;
    m.sn = ws.inflight_round;
    m.payload = ws.inflight_batch;
    return m;
  }

  // ------------------------------------------------------------- server

  void handle(int self, const Message& m) {
    if (crashed_[static_cast<std::size_t>(self)].load(
            std::memory_order_acquire))
      return;  // crashed process: neither receives nor reacts
    if (m.reg == kBatchProto) {
      switch (m.tag) {
        case obs::MsgTag::kBWrite:
          on_bwrite(self, m);
          return;
        case obs::MsgTag::kBEcho:
          on_vote(self, m, /*is_echo=*/true);
          return;
        case obs::MsgTag::kBAccept:
          on_vote(self, m, /*is_echo=*/false);
          return;
        case obs::MsgTag::kBack:
          on_back(self, m);
          return;
        default:
          return;
      }
    }
    detail::BatchRegOps* reg = nullptr;
    {
      std::scoped_lock lock(mu_);
      const auto it = registry_.find(m.reg);
      if (it != registry_.end()) reg = it->second;
    }
    if (reg) reg->handle(m);
  }

  // Interns a raw batch under mu_ for server ladder `lad`. Returns the
  // digest id, or -1 when the batch is malformed: empty, oversized, an
  // unknown register, an op for a register the origin does not own (a
  // Byzantine process smuggling writes into someone else's round), a
  // (reg, sn) this server already echo-supported — within this batch or in
  // any earlier round (cross-round sn reuse, the equivocation vector rounds
  // reopen; BrachaLadder::op_claimed). Honest owners never reuse a register
  // sn (allocate_sn_locked is strictly increasing), so only a Byzantine
  // origin's batches ever trip the claim check; refusing them keeps values
  // unique per (reg, sn): at most one value can gather n−f echoes. Lookup
  // is O(log R) via digest_index_ — the digest table itself is the
  // content-addressed log of all rounds and is the only state that grows
  // with history (in a real system it is simply the message payloads).
  int intern_batch(Ladder& lad, int origin, const Batch& raw) {
    if (raw.empty() || static_cast<int>(raw.size()) > batch_max_) return -1;
    CanonicalBatch canon;
    canon.reserve(raw.size());
    std::set<RoundKey> batch_ops;
    for (const BatchOp& op : raw) {
      const auto it = registry_.find(op.reg);
      if (it == registry_.end()) return -1;
      if (it->second->reg_owner() != origin) return -1;
      const RoundKey key{op.reg, op.sn};
      if (!batch_ops.insert(key).second) return -1;  // sn reused in batch
      if (lad.op_claimed(key)) return -1;  // sn reused across rounds
      const int vid = it->second->intern(op.value);
      if (vid < 0) return -1;  // malformed value payload
      canon.emplace_back(op.reg, op.sn, vid);
    }
    // The whole batch is valid: this server now echo-supports each of its
    // ops, exactly once, forever.
    for (const RoundKey& key : batch_ops) lad.claim_op(key);
    const auto [it, inserted] = digest_index_.try_emplace(
        canon, static_cast<int>(digests_.size()));
    if (inserted) digests_.push_back(std::move(canon));
    return it->second;
  }

  void on_bwrite(int self, const Message& m) {
    const int origin = m.from;  // authenticated by the network
    const Batch* batch = m.payload.get<Batch>();
    if (batch == nullptr) return;  // malformed payload: dropped
    Ladder::WriteStep step;
    {
      std::scoped_lock lock(mu_);
      Ladder& lad = state_[static_cast<std::size_t>(self)];
      // Recovery on this substrate is complete-only (see recover()), so no
      // round is ever abort-fenced: complete stays false.
      step = lad.on_write(RoundKey{origin, m.sn}, /*complete=*/false,
                          [&] { return intern_batch(lad, origin, *batch); });
    }
    switch (step.action) {
      case Ladder::WriteAction::kReAck: {
        // Retried round already delivered here: the only effect left is
        // refreshing the (possibly lost) BACK. Origins dedup by sender.
        Message back;
        back.reg = kBatchProto;
        back.tag = obs::MsgTag::kBack;
        back.sn = m.sn;
        back.to = origin;
        net_.send(std::move(back));
        return;
      }
      case Ladder::WriteAction::kFenced:   // unreachable: never fenced
      case Ladder::WriteAction::kRefused:  // malformed: stays refused
        return;
      case Ladder::WriteAction::kEcho:
        break;  // first == false: echo once, re-issue of the original vote
    }
    if (step.first)
      detail::record_phase(obs::EventKind::kPhaseEcho, self, kBatchProto,
                           origin, m.sn,
                           static_cast<std::uint64_t>(step.value_id));
    vote(obs::MsgTag::kBEcho, origin, m.sn, step.value_id);
  }

  void on_vote(int self, const Message& m, bool is_echo) {
    const auto* vote_payload = m.payload.get<std::pair<int, int>>();
    if (vote_payload == nullptr) return;  // malformed payload: dropped
    const auto [origin, digest] = *vote_payload;
    if (origin < 1 || origin > n_) return;  // forged origin
    Ladder::VoteStep step;
    {
      std::scoped_lock lock(mu_);
      // A digest id outside the interned table can only come from a
      // Byzantine sender (correct processes vote for digests they interned).
      if (digest < 0 || digest >= static_cast<int>(digests_.size())) return;
      step = state_[static_cast<std::size_t>(self)].on_vote(
          RoundKey{origin, m.sn}, digest, m.from, is_echo);
      if (step.deliver) {
        for (const auto& [reg_id, sn, vid] :
             digests_[static_cast<std::size_t>(digest)]) {
          const auto it = registry_.find(reg_id);
          if (it != registry_.end()) it->second->apply(self, sn, vid);
          // Per-op deliver event under the op's own (reg, origin, sn) key so
          // register-level ladder correlation spans both substrates.
          detail::record_phase(obs::EventKind::kPhaseDeliver, self, reg_id,
                               origin, sn, static_cast<std::uint64_t>(vid));
        }
      }
    }
    if (step.send_accept) {
      detail::record_phase(step.amplified ? obs::EventKind::kPhaseAmplify
                                          : obs::EventKind::kPhaseAccept,
                           self, kBatchProto, origin, m.sn,
                           static_cast<std::uint64_t>(digest));
      vote(obs::MsgTag::kBAccept, origin, m.sn, digest);
    }
    if (step.deliver) {
      detail::record_phase(obs::EventKind::kPhaseAck, self, kBatchProto,
                           origin, m.sn);
      Message back;
      back.reg = kBatchProto;
      back.tag = obs::MsgTag::kBack;
      back.sn = m.sn;
      back.to = origin;
      net_.send(std::move(back));
    }
  }

  void on_back(int self, const Message& m) {
    WriterState& ws = writers_[static_cast<std::size_t>(self)];
    std::unique_lock lock(ws.mu);
    if (!ws.in_flight || m.sn != ws.inflight_round) return;  // stale/forged
    ws.backs.insert(m.from);
    if (static_cast<int>(ws.backs.size()) < n_ - f_) return;
    detail::record_phase(obs::EventKind::kRoundComplete, self, kBatchProto,
                         self, ws.inflight_round,
                         static_cast<std::uint64_t>(ws.backs.size()));
    ws.completed_ticket = ws.inflight_last_ticket;
    ws.in_flight = false;
    ws.cv.notify_all();
    // The owner's server thread (bound as the owner) chains the next round
    // so asynchronous submitters never stall.
    maybe_lead(ws, lock);
  }

  void vote(obs::MsgTag tag, int origin, std::uint64_t round, int digest) {
    Message m;
    m.reg = kBatchProto;
    m.tag = tag;
    m.sn = round;
    m.payload = Payload::of(std::pair<int, int>(origin, digest));
    net_.broadcast(std::move(m));
  }

  const int n_;
  const int f_;
  const int batch_max_;
  const int pipeline_depth_;  // submit's group-commit threshold (>= 1)
  const RetryPolicy retry_;
  Network net_;
  std::mutex mu_;  // protocol state: registry_, state_, digests_
  std::map<int, detail::BatchRegOps*> registry_;
  std::vector<Ladder> state_;            // per-process protocol ladder
  std::vector<std::atomic<bool>> crashed_;  // index by pid
  std::vector<CanonicalBatch> digests_;  // interned batches, id = index
  std::map<CanonicalBatch, int> digest_index_;  // canon -> id, O(log R)
  std::vector<WriterState> writers_;     // per owner (own mutex each)
  detail::ServerPool pool_;  // last member: threads stop before state dies
};

// One emulated SWMR register on a shard. Client semantics match
// EmulatedSwmr (write blocks for the quorum, owner RMW is atomic, reads
// quorum over STATE replies — all shared via detail::SwmrCore);
// write_async/await additionally expose the batch seam so an owner can
// pipeline several writes into one round.
template <typename T>
class BatchedSwmr : public detail::BatchRegOps, public detail::SwmrCore<T> {
  using Core = detail::SwmrCore<T>;
  using Ref = typename Core::Ref;

 public:
  BatchedSwmr(BatchShard& shard, int reg_id, int n, int f,
              runtime::ProcessId owner, T initial, std::string name,
              runtime::ProcessId sole_reader = runtime::kNoProcess,
              RetryPolicy retry = {})
      : Core(reg_id, n, f, owner, std::move(initial), std::move(name),
             sole_reader, retry),
        shard_(&shard) {}

  // ------------------------------------------------------------- client

  // Blocking write: completes once the op's round gathered n−f BACKs.
  // Same writer-mutex discipline as EmulatedSwmr::write.
  void write(T v) {
    static obs::LogHistogram& round_hist =
        obs::MetricsRegistry::global().histogram("msgpass.batched_write_us");
    this->require_owner("write");
    std::scoped_lock wl(this->writer_mu_);
    const auto t0 = std::chrono::steady_clock::now();
    await_locked(submit_locked(std::make_shared<const T>(std::move(v))));
    round_hist.add(std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
  }

  // Asynchronous write: enqueues the op and returns a ticket. Pending ops
  // of the same owner ride one round together (up to batch_max); await()
  // blocks on the ticket. owner_view_ already reflects the write.
  std::uint64_t write_async(T v) {
    this->require_owner("write_async");
    std::scoped_lock wl(this->writer_mu_);
    return submit_locked(std::make_shared<const T>(std::move(v)));
  }

  void await(std::uint64_t ticket) {
    this->require_owner("await");
    await_locked(ticket);
  }

  // Owner read-modify-write, atomic against the owner's other writing
  // thread — the shared SwmrCore::update_with discipline, committed
  // through this substrate's round protocol.
  template <typename F>
  T update(F&& fn) {
    this->require_owner("update");
    return this->update_with(std::forward<F>(fn), [this](Ref v) {
      await_locked(submit_locked(std::move(v)));
    });
  }

  // Read by any process (or the sole reader, for SWSR use): broadcast READ,
  // quorum over STATE replies — identical to the unbatched protocol.
  T read() { return this->read_via(shard_->network()); }

  // ------------------------------------------ shard-facing (BatchRegOps)

  runtime::ProcessId reg_owner() const override { return this->owner_; }

  int intern(const Payload& value) override {
    std::scoped_lock lock(this->mu_);
    return this->intern_payload_locked(value);
  }

  void apply(int self, std::uint64_t sn, int vid) override {
    std::scoped_lock lock(this->mu_);
    if (vid < 0 || vid >= static_cast<int>(this->values_.size())) return;
    this->apply_locked(self, sn, vid);
  }

  void handle(const Message& m) override {
    const int self = runtime::ThisProcess::id();
    if (m.tag == obs::MsgTag::kRead) {
      this->serve_read(shard_->network(), self, m);
    } else if (m.tag == obs::MsgTag::kState) {
      this->accept_state(m);
    }
  }

  void crash_process(int pid) override {
    std::scoped_lock lock(this->mu_);
    this->reset_stored_locked(pid);
    // Round tallies live in the shard; it wipes them in BatchShard::crash.
  }

  void resync_process(int self) override {
    this->resync_via(shard_->network(), self);
  }

 private:
  // Allocates the sn, updates owner_view_ sn-monotonically, and hands the
  // op — the value's canonical handle — to the shard. Caller holds
  // writer_mu_.
  std::uint64_t submit_locked(Ref v) {
    const auto [sn, vid] = this->allocate_sn_locked(std::move(v));
    Payload payload;
    {
      std::scoped_lock lock(this->mu_);
      payload = this->payload_locked(vid);
    }
    detail::record_phase(
        obs::EventKind::kWriteStart, this->owner_, this->reg_id_,
        this->owner_, sn,
        static_cast<std::uint64_t>(shard_->pending_depth(this->owner_)));
    return shard_->submit(this->owner_, this->reg_id_, sn, std::move(payload));
  }

  // Blocks on the shard until `ticket`'s round completed.
  void await_locked(std::uint64_t ticket) {
    shard_->await(this->owner_, ticket);
  }

  BatchShard* shard_;
};

// SWSR flavor: same protocol, read restricted to one process.
template <typename T>
class BatchedSwsr : public BatchedSwmr<T> {
 public:
  using BatchedSwmr<T>::BatchedSwmr;
};

// Factory: shards + registers. API-compatible with registers::Space and
// msgpass::EmulatedSpace for everything the core algorithms use, so
// Algorithms 1–3 run unchanged on the batched substrate.
class BatchedEmulatedSpace {
 public:
  template <typename T>
  using SwmrFor = BatchedSwmr<T>;
  template <typename T>
  using SwsrFor = BatchedSwsr<T>;

  struct Options {
    int n = 4;
    int f = 1;
    std::uint64_t reorder_seed = 0;
    int shards = 1;     // independent networks; registers round-robin
    int batch_max = 8;  // max ops per broadcast round
    // Run the quorum resync when a crashed process restarts (see
    // EmulatedSpace::Options::recover_on_restart).
    bool recover_on_restart = true;
    // Client-op retry/deadline policy, applied to every shard and register
    // (design note 14).
    RetryPolicy retry{};
    // Expected async write pipeline depth per owner (design note 15).
    // submit() defers leading a round until this many ops are outstanding
    // (await flushes partial windows), so a depth-D burst rides one round
    // instead of splintering into 1-op rounds. 1 = lead on every submit.
    int pipeline_depth = 1;
  };

  explicit BatchedEmulatedSpace(Options options) : options_(options) {
    if (options_.shards < 1) options_.shards = 1;
    if (options_.batch_max < 1) options_.batch_max = 1;
    for (int s = 0; s < options_.shards; ++s) {
      // Distinct per-shard reorder streams, still fully seed-determined.
      const std::uint64_t seed =
          options_.reorder_seed == 0
              ? 0
              : options_.reorder_seed + 7919u * static_cast<std::uint64_t>(s);
      shards_.push_back(std::make_unique<BatchShard>(
          options_.n, options_.f, seed, options_.batch_max, options_.retry,
          options_.pipeline_depth));
    }
  }

  ~BatchedEmulatedSpace() { stop(); }

  void stop() {
    for (auto& s : shards_) s->stop();
  }

  template <typename T>
  BatchedSwmr<T>& make_swmr(runtime::ProcessId owner, T initial,
                            std::string name) {
    return make_reg<T>(owner, runtime::kNoProcess, std::move(initial),
                       std::move(name));
  }

  template <typename T>
  BatchedSwsr<T>& make_swsr(runtime::ProcessId owner,
                            runtime::ProcessId reader, T initial,
                            std::string name) {
    return static_cast<BatchedSwsr<T>&>(
        make_reg<T>(owner, reader, std::move(initial), std::move(name)));
  }

  int shard_count() const { return static_cast<int>(shards_.size()); }
  BatchShard& shard(int i) { return *shards_[static_cast<std::size_t>(i)]; }

  // Crash / restart / resync across all shards — same contract and driver
  // preconditions as EmulatedSpace (crash only quiesced pids, ≤ f down).
  void crash(runtime::ProcessId pid) {
    detail::record_phase(obs::EventKind::kCrash, pid, -1, pid, 0);
    for (auto& s : shards_) s->crash(pid);
    for (auto* reg : reg_ops()) reg->crash_process(pid);
  }

  void restart(runtime::ProcessId pid) {
    detail::record_phase(obs::EventKind::kRestart, pid, -1, pid, 0);
    for (auto& s : shards_) s->restart(pid);
    if (options_.recover_on_restart) resync(pid);
    // Client-role recovery: re-lead any round pid was driving when it
    // crashed (complete-only — see BatchShard::recover).
    runtime::ThisProcess::Binder bind(pid);
    for (auto& s : shards_) s->recover(pid);
  }

  void resync(runtime::ProcessId pid) {
    detail::record_phase(obs::EventKind::kResync, pid, -1, pid, 0);
    runtime::ThisProcess::Binder bind(pid);
    for (auto* reg : reg_ops()) reg->resync_process(pid);
  }

  // Aggregate across shards (each shard has its own Network).
  std::uint64_t messages_sent() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s->network().messages_sent();
    return total;
  }

  const Options& options() const { return options_; }

 private:
  template <typename T>
  BatchedSwmr<T>& make_reg(runtime::ProcessId owner,
                           runtime::ProcessId reader, T initial,
                           std::string name) {
    // writers_/state_ are indexed by pid 0..n; an out-of-range owner would
    // be undefined behavior at the first submit, not a clean error.
    if (owner < 1 || owner > options_.n)
      throw std::invalid_argument("BatchedEmulatedSpace register '" + name +
                                  "': owner p" + std::to_string(owner) +
                                  " outside 1.." + std::to_string(options_.n));
    std::scoped_lock lock(mu_);
    const int id = next_reg_++;
    BatchShard& shard = *shards_[static_cast<std::size_t>(
        id % static_cast<int>(shards_.size()))];
    std::unique_ptr<BatchedSwmr<T>> reg;
    if (reader == runtime::kNoProcess) {
      reg = std::make_unique<BatchedSwmr<T>>(
          shard, id, options_.n, options_.f, owner, std::move(initial),
          std::move(name), runtime::kNoProcess, options_.retry);
    } else {
      reg = std::make_unique<BatchedSwsr<T>>(
          shard, id, options_.n, options_.f, owner, std::move(initial),
          std::move(name), reader, options_.retry);
    }
    auto& ref = *reg;
    shard.add_register(id, reg.get());
    registry_.push_back(std::move(reg));
    return ref;
  }

  std::vector<detail::BatchRegOps*> reg_ops() {
    std::scoped_lock lock(mu_);
    std::vector<detail::BatchRegOps*> out;
    out.reserve(registry_.size());
    for (auto& reg : registry_) out.push_back(reg.get());
    return out;
  }

  Options options_;
  std::mutex mu_;
  int next_reg_ = 0;
  std::vector<std::unique_ptr<detail::BatchRegOps>> registry_;
  std::vector<std::unique_ptr<BatchShard>> shards_;
};

}  // namespace swsig::msgpass
