// Typed protocol events for the flight recorder (obs/recorder.hpp).
//
// One Event is one observable step of the message-passing stack: a message
// crossing the network, a Bracha-ladder phase transition, a quorum wait, a
// crash/restart/resync. Ladder events carry the correlation key
// (reg, origin, sn) — register id, ladder origin (the owner leading the
// write), and the sequence number — so one write's full
// echo/accept/amplify/deliver lifecycle can be reconstructed across all n
// processes from a dumped trace (obs/export.hpp groups by this key).
//
// Events are fixed-size and trivially packable into 5 64-bit words
// (recorder slots are relaxed-atomic words, so concurrent dump reads are
// race-free without locking the hot path).
#pragma once

#include <cstdint>

namespace swsig::obs {

enum class EventKind : std::uint8_t {
  kNone = 0,
  // Network plane (pid = recording process; peer = the other endpoint).
  kMsgSend,   // message accepted by the network (before fault decisions)
  kMsgRecv,   // message pulled from the inbox (aux = ns it sat queued, for
              // the sampled messages; 0 for the rest)
  kMsgDrop,   // fault injector dropped it (aux unused)
  kMsgDelay,  // fault injector held it back (aux = delay in ms)
  // Client operations (pid = invoking process).
  kWriteStart,  // owner broadcast WRITE; sn = write sn
  kWriteDone,   // ACK quorum landed (aux = latency in ns)
  kReadStart,   // quorum read round opened; sn = rid
  kReadRetry,   // no sufficiently-supported pair; retrying with fresh rid
  kReadDone,    // quorum pair adopted (sn = rid, aux = adopted write sn)
  kQuorumWait,  // about to block for a quorum (aux = replies still needed)
  // Bracha ladder, per process (pid = the process moving phase).
  kPhaseEcho,     // echoed (WRITE seen first time)
  kPhaseAccept,   // sent ACCEPT via the n-f echo quorum (aux = echoes)
  kPhaseAmplify,  // sent ACCEPT via the f+1 accept amplification rule
  kPhaseDeliver,  // delivered: applied (sn, value) to the store
  kPhaseAck,      // sent ACK to the ladder origin
  // Fault plane (pid = the affected process).
  kCrash,
  kRestart,
  kResync,
  // Retry / abort plane (pid = the retrying or aborting process).
  kOpRetry,    // deadline lapsed, op re-issued (aux = backoff ms just waited)
  kOpTimeout,  // op gave up at its overall deadline (retries disabled/spent)
  kWriteAbort,  // owner's recovery fence finalized the write as aborted
  // Partition plane (pid = the cut-off process; aux = PartitionMode).
  kPartitionCut,
  kPartitionHeal,
  // Certificate plane (pid = the verifying process; origin = slot sender,
  // sn = slot seq, aux = the interned certificate handle). Recorded when a
  // fully-verified aggregate certificate is interned, so dumps can
  // attribute later handle-only deliveries back to the witnessed slot.
  kCertIntern,
  kCount
};

inline const char* kind_name(EventKind k) {
  switch (k) {
    case EventKind::kNone: return "none";
    case EventKind::kMsgSend: return "send";
    case EventKind::kMsgRecv: return "recv";
    case EventKind::kMsgDrop: return "drop";
    case EventKind::kMsgDelay: return "delay";
    case EventKind::kWriteStart: return "write_start";
    case EventKind::kWriteDone: return "write_done";
    case EventKind::kReadStart: return "read_start";
    case EventKind::kReadRetry: return "read_retry";
    case EventKind::kReadDone: return "read_done";
    case EventKind::kQuorumWait: return "quorum_wait";
    case EventKind::kPhaseEcho: return "echo";
    case EventKind::kPhaseAccept: return "accept";
    case EventKind::kPhaseAmplify: return "amplify";
    case EventKind::kPhaseDeliver: return "deliver";
    case EventKind::kPhaseAck: return "ack";
    case EventKind::kCrash: return "crash";
    case EventKind::kRestart: return "restart";
    case EventKind::kResync: return "resync";
    case EventKind::kOpRetry: return "op_retry";
    case EventKind::kOpTimeout: return "op_timeout";
    case EventKind::kWriteAbort: return "write_abort";
    case EventKind::kPartitionCut: return "partition_cut";
    case EventKind::kPartitionHeal: return "partition_heal";
    case EventKind::kCertIntern: return "cert_intern";
    default: return "?";
  }
}

// Message tags (msgpass::Message::tag): the protocol vocabulary is a small
// closed set, so messages and network-plane events carry a one-byte tag.
// ECHO is shared by the per-write ladder and witness broadcast; the reg
// field disambiguates in dumps.
enum class MsgTag : std::uint8_t {
  kOther = 0,
  kWrite, kEcho, kAccept, kAck, kRead, kState,          // per-write ladder
  kInit, kReady,                                        // witness broadcast
  kAbort, kAbAck, kCWrite,                              // write-abort fence
  kCount
};

// What a msgpass::Network built with a client endpoint hands to it on the
// delivering thread instead of queueing it for the addressee's server: the
// replies to one process's client (STATE, ACK, ABACK) and READ, which a
// server answers from its stored pairs alone.
inline constexpr bool is_inline(MsgTag t) {
  return t == MsgTag::kState || t == MsgTag::kAck || t == MsgTag::kAbAck ||
         t == MsgTag::kRead;
}

inline const char* tag_name(MsgTag t) {
  switch (t) {
    case MsgTag::kOther: return "OTHER";
    case MsgTag::kWrite: return "WRITE";
    case MsgTag::kEcho: return "ECHO";
    case MsgTag::kAccept: return "ACCEPT";
    case MsgTag::kAck: return "ACK";
    case MsgTag::kRead: return "READ";
    case MsgTag::kState: return "STATE";
    case MsgTag::kInit: return "INIT";
    case MsgTag::kReady: return "READY";
    case MsgTag::kAbort: return "ABORT";
    case MsgTag::kAbAck: return "ABACK";
    case MsgTag::kCWrite: return "CWRITE";
    default: return "?";
  }
}

struct Event {
  std::uint64_t ts_ns = 0;  // monotonic, recorder-epoch-relative
  EventKind kind = EventKind::kNone;
  MsgTag tag = MsgTag::kOther;  // network-plane events only
  std::int16_t pid = 0;         // process recording the event
  std::int16_t peer = 0;        // other endpoint of a message (0 if n/a)
  std::int32_t reg = 0;         // register / protocol instance id
  std::int32_t origin = 0;      // ladder origin pid (0 if n/a)
  std::uint64_t sn = 0;         // sn / round / rid
  std::uint64_t aux = 0;        // kind-specific (see EventKind comments)
};

// Word packing for the recorder's atomic slots.
inline void pack(const Event& e, std::uint64_t w[5]) {
  w[0] = e.ts_ns;
  w[1] = static_cast<std::uint64_t>(static_cast<std::uint8_t>(e.kind)) |
         static_cast<std::uint64_t>(static_cast<std::uint8_t>(e.tag)) << 8 |
         static_cast<std::uint64_t>(static_cast<std::uint16_t>(e.pid)) << 16 |
         static_cast<std::uint64_t>(static_cast<std::uint16_t>(e.peer)) << 32;
  w[2] = static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.reg)) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.origin))
             << 32;
  w[3] = e.sn;
  w[4] = e.aux;
}

inline Event unpack(const std::uint64_t w[5]) {
  Event e;
  e.ts_ns = w[0];
  e.kind = static_cast<EventKind>(static_cast<std::uint8_t>(w[1]));
  e.tag = static_cast<MsgTag>(static_cast<std::uint8_t>(w[1] >> 8));
  e.pid = static_cast<std::int16_t>(static_cast<std::uint16_t>(w[1] >> 16));
  e.peer = static_cast<std::int16_t>(static_cast<std::uint16_t>(w[1] >> 32));
  e.reg = static_cast<std::int32_t>(static_cast<std::uint32_t>(w[2]));
  e.origin = static_cast<std::int32_t>(static_cast<std::uint32_t>(w[2] >> 32));
  e.sn = w[3];
  e.aux = w[4];
  return e;
}

}  // namespace swsig::obs
