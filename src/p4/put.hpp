#pragma once
// Put-operation packetization and sender-side reliability, including the
// paper's Portals 4 extensions (Sec 3.1):
//  - plain puts: one packed buffer split into header/payload/completion
//    packets;
//  - *streaming puts* (PtlSPutStart / PtlSPutStream): the message data is
//    supplied across multiple calls as contiguous chunks, but the target
//    sees ONE message — packets are cut as soon as enough bytes have
//    accumulated, which is what lets the sender overlap region discovery
//    with transmission;
//  - the reliable-put protocol a lossy wire needs: the pure bookkeeping
//    (RetransmitConfig, ReliablePutState) and the one protocol machine
//    (ReliablePut) that every carrier shares. A carrier — spin::Link for
//    one point-to-point wire, fabric::Fabric for a multi-hop route —
//    supplies only how one attempt's copy travels; acks, backoff, the
//    retry cap and the held-back completion packet live here.
//
// Ordering contract: packetize() emits packets in stream order (header
// first, completion last) and a lossless carrier preserves it. Under
// fault injection the transport keeps only two invariants: the
// completion packet is transmitted after every other packet is acked,
// and a put completes (all-acked) only after the completion packet is
// acked too. All timing constants are sim::Time picoseconds.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "p4/packet.hpp"
#include "sim/engine.hpp"
#include "sim/faults/faults.hpp"
#include "sim/metrics.hpp"
#include "sim/time.hpp"

namespace netddt::p4 {

/// Split a fully packed buffer into message packets.
std::vector<Packet> packetize(std::uint64_t msg_id, std::uint64_t match_bits,
                              std::span<const std::byte> data,
                              std::uint32_t payload = kPacketPayload);

/// Split a zero-data control message (e.g. a 1-byte or 0-byte put).
std::vector<Packet> packetize_empty(std::uint64_t msg_id,
                                    std::uint64_t match_bits);

/// Reorder the payload packets (indices 1..n-2) of `packets` within
/// consecutive windows of `window` slots, seeded by `seed`; the header
/// stays first and the completion stays last. Exercises the out-of-order
/// paths of the receive strategies (segment resets, RW-CP checkpoint
/// rollback) on a lossless carrier. A window of 0 or 1 keeps the order.
void shuffle_payload(std::vector<Packet>& packets, std::uint32_t window,
                     std::uint64_t seed);

/// A streaming put in progress: chunks appended via stream() are staged
/// into a packed buffer and emitted as packets of the SAME message the
/// moment a packet's worth of bytes is available.
class StreamingPut {
 public:
  /// `total_bytes` is the final message size (the sender knows it from
  /// the datatype); needed so packet flags and staging are exact.
  StreamingPut(std::uint64_t msg_id, std::uint64_t match_bits,
               std::uint64_t total_bytes,
               std::uint32_t payload = kPacketPayload);

  /// Append one contiguous chunk (a PtlSPutStream call). Returns the
  /// packets completed by this chunk; `end_of_message` must be set on the
  /// final call and flushes the trailing partial packet.
  std::vector<Packet> stream(std::span<const std::byte> chunk,
                             bool end_of_message);

  std::uint64_t bytes_staged() const { return staged_; }
  std::uint64_t bytes_emitted() const { return emitted_; }
  bool complete() const { return finished_; }

 private:
  std::uint64_t msg_id_;
  std::uint64_t match_bits_;
  std::uint64_t total_;
  std::uint32_t payload_;
  std::vector<std::byte> buffer_;  // reserved upfront: packets point here
  std::uint64_t staged_ = 0;
  std::uint64_t emitted_ = 0;
  bool finished_ = false;
};

/// Retransmission policy of a reliable put: per-packet timeout with
/// exponential backoff and capped retries.
struct RetransmitConfig {
  /// Base retransmit timeout (ps), measured from the instant the carrier
  /// starts an attempt's timer. 0 means "derive from the carrier": it
  /// substitutes a timeout safely above one round trip plus the
  /// worst-case reorder skew, so in-flight packets are not retransmitted
  /// spuriously.
  sim::Time timeout = 0;
  /// Timeout multiplier per failed attempt (attempt n waits
  /// timeout * backoff^n).
  double backoff = 2.0;
  /// Retransmissions allowed per packet before the put fails.
  std::uint32_t max_retries = 16;

  /// Timeout for `attempt` (0 = first transmission) given the effective
  /// base timeout.
  sim::Time timeout_for(std::uint32_t attempt, sim::Time base) const;
};

/// Sender-side state of one reliable put over `npkt` packets: which
/// packets are acknowledged and how often each was (re)transmitted.
/// Put completion is all_acked(); the transport releases the completion
/// packet (index npkt-1) once data_acked() holds. Pure bookkeeping —
/// no simulator types, so tests can drive it directly.
class ReliablePutState {
 public:
  explicit ReliablePutState(std::size_t npkt)
      : acked_(npkt, false), attempts_(npkt, 0) {}

  std::size_t packets() const { return acked_.size(); }
  bool acked(std::size_t i) const { return acked_[i]; }
  /// Record an ack; returns true when `i` was not acked before (the
  /// transport ignores duplicate acks).
  bool mark_acked(std::size_t i);
  /// All packets except the final (completion) one acked.
  bool data_acked() const { return acked_count_ + 1 >= acked_.size(); }
  bool all_acked() const { return acked_count_ == acked_.size(); }

  /// Transmissions of packet `i` so far (1 = first send done).
  std::uint32_t attempts(std::size_t i) const { return attempts_[i]; }
  void record_attempt(std::size_t i) {
    if (attempts_[i] == 0) ++first_attempts_;
    ++attempts_[i];
    ++total_attempts_;
  }
  std::uint64_t total_attempts() const { return total_attempts_; }
  /// Retransmissions = attempts beyond the first per packet.
  std::uint64_t retransmits() const {
    return total_attempts_ -
           static_cast<std::uint64_t>(first_attempts_);
  }

  bool failed() const { return failed_; }
  void mark_failed() { failed_ = true; }

 private:
  std::vector<bool> acked_;
  std::vector<std::uint32_t> attempts_;
  std::size_t acked_count_ = 0;
  std::uint64_t total_attempts_ = 0;
  std::uint32_t first_attempts_ = 0;
  bool failed_ = false;
};

/// Completion notification of a reliable put: fires once, either when
/// the completion packet is acked (`ok`) or when a packet exhausts its
/// retries (`!ok`; the message will never complete at the receiver).
using PutCompleteFn = std::function<void(sim::Time when, bool ok)>;

/// The reliable-put protocol, written once for every carrier. Per
/// attempt it records the attempt, draws FaultPlan::decide(idx,
/// attempt) and hands the copy to the carrier (send_attempt), then arms
/// the backoff timer where the carrier says it starts. A timer that
/// fires on an unacked packet retransmits it, or fails the put once the
/// packet has used `max_retries` retransmissions. Data packets go out
/// first; the completion packet (the last one) is held back until every
/// data packet is acked, and its ack completes the put. A single-packet
/// put sends its lone packet at once as both data and completion.
///
/// A carrier derives from ReliablePut, implements send_attempt and
/// calls acknowledge() when a copy reaches the receiver. Engine events
/// keep the put alive through a shared_ptr; the caller keeps `packets`
/// and their data alive until the simulation drains.
class ReliablePut {
 public:
  /// The carrier's counters of protocol events.
  struct Counters {
    sim::Counter* retransmits;
    sim::Counter* acks;
    sim::Counter* failures;
  };

  virtual ~ReliablePut() = default;

  /// Transmit the data packets (or the lone packet) no earlier than `at`.
  static void start(const std::shared_ptr<ReliablePut>& self, sim::Time at);

 protected:
  /// Throws std::invalid_argument when `packets` is empty or `plan` is
  /// inert (inert plans belong on the carrier's lossless send). The
  /// effective base timeout is `rc.timeout`, or `derived_timeout` when
  /// that is 0; an ack lands `ack_latency` after its delivery.
  ReliablePut(sim::Engine& engine, const std::vector<Packet>& packets,
              const sim::faults::FaultPlan& plan, const RetransmitConfig& rc,
              sim::Time derived_timeout, sim::Time ack_latency,
              Counters counters, PutCompleteFn on_complete);

  /// Carrier part of one attempt of packet `idx`, starting no earlier
  /// than `at`: move the copy (or drop it) per `d` and schedule its
  /// deliveries. `timeout` is the attempt's backoff. Returns the time
  /// the attempt's retransmit timer starts.
  virtual sim::Time send_attempt(const std::shared_ptr<ReliablePut>& self,
                                 std::uint64_t idx, std::uint32_t attempt,
                                 sim::Time at,
                                 const sim::faults::FaultDecision& d,
                                 sim::Time timeout) = 0;

  /// Runs when the completion packet's ack completes the put, before
  /// the completion callback.
  virtual void on_put_complete() {}

  /// A copy of packet `idx` reached the receiver: its ack returns on
  /// the lossless channel after `ack_latency`.
  static void acknowledge(const std::shared_ptr<ReliablePut>& self,
                          std::uint64_t idx);

  sim::Engine& engine() const { return *engine_; }
  const std::vector<Packet>& packets() const { return *packets_; }

 private:
  static void transmit(const std::shared_ptr<ReliablePut>& self,
                       std::uint64_t idx, std::uint32_t attempt,
                       sim::Time at);
  static void on_ack(const std::shared_ptr<ReliablePut>& self,
                     std::uint64_t idx);
  static void fail(const std::shared_ptr<ReliablePut>& self);

  sim::Engine* engine_;
  const std::vector<Packet>* packets_;
  sim::faults::FaultPlan plan_;
  RetransmitConfig rc_;
  sim::Time base_timeout_;
  sim::Time ack_latency_;
  Counters counters_;
  PutCompleteFn on_complete_;
  ReliablePutState state_;
  bool completion_sent_ = false;
  bool done_ = false;
};

}  // namespace netddt::p4
