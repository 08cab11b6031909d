#include "p4/put.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "sim/rng.hpp"

namespace netddt::p4 {

sim::Time RetransmitConfig::timeout_for(std::uint32_t attempt,
                                        sim::Time base) const {
  assert(base > 0 && "effective base timeout must be positive");
  const double scaled = static_cast<double>(base) *
                        std::pow(backoff > 1.0 ? backoff : 1.0,
                                 static_cast<double>(attempt));
  // Saturate rather than overflow: int64 picoseconds cover ~106 days,
  // far beyond any simulated run.
  constexpr double kMax = 9.0e18;
  return scaled >= kMax ? static_cast<sim::Time>(kMax)
                        : static_cast<sim::Time>(scaled);
}

bool ReliablePutState::mark_acked(std::size_t i) {
  assert(i < acked_.size());
  if (acked_[i]) return false;
  acked_[i] = true;
  ++acked_count_;
  return true;
}

std::vector<Packet> packetize(std::uint64_t msg_id, std::uint64_t match_bits,
                              std::span<const std::byte> data,
                              std::uint32_t payload) {
  assert(payload > 0);
  if (data.empty()) return packetize_empty(msg_id, match_bits);

  const std::uint64_t n = packet_count(data.size(), payload);
  std::vector<Packet> packets;
  packets.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    Packet pkt;
    pkt.msg_id = msg_id;
    pkt.match_bits = match_bits;
    pkt.offset = i * payload;
    pkt.payload_bytes = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(payload, data.size() - pkt.offset));
    pkt.first = (i == 0);
    pkt.last = (i == n - 1);
    pkt.data = data.data() + pkt.offset;
    packets.push_back(pkt);
  }
  return packets;
}

void shuffle_payload(std::vector<Packet>& packets, std::uint32_t window,
                     std::uint64_t seed) {
  if (packets.size() <= 2 || window <= 1) return;
  sim::Rng rng(seed);
  const std::size_t lo = 1, hi = packets.size() - 1;
  for (std::size_t w = lo; w < hi; w += window) {
    const std::size_t end = std::min<std::size_t>(w + window, hi);
    for (std::size_t i = end - 1; i > w; --i) {
      const std::size_t j = w + rng.below(i - w + 1);
      std::swap(packets[i], packets[j]);
    }
  }
}

std::vector<Packet> packetize_empty(std::uint64_t msg_id,
                                    std::uint64_t match_bits) {
  Packet pkt;
  pkt.msg_id = msg_id;
  pkt.match_bits = match_bits;
  pkt.first = pkt.last = true;
  return {pkt};
}

StreamingPut::StreamingPut(std::uint64_t msg_id, std::uint64_t match_bits,
                           std::uint64_t total_bytes, std::uint32_t payload)
    : msg_id_(msg_id),
      match_bits_(match_bits),
      total_(total_bytes),
      payload_(payload) {
  assert(payload > 0);
  // Reserve upfront: emitted packets hold pointers into this buffer, so
  // it must never reallocate.
  buffer_.resize(total_bytes);
}

std::vector<Packet> StreamingPut::stream(std::span<const std::byte> chunk,
                                         bool end_of_message) {
  assert(!finished_ && "streaming put already completed");
  assert(staged_ + chunk.size() <= total_ && "chunk overflows the message");
  if (!chunk.empty()) {
    std::memcpy(buffer_.data() + staged_, chunk.data(), chunk.size());
    staged_ += chunk.size();
  }
  if (end_of_message) {
    assert(staged_ == total_ && "end of message before all bytes staged");
    finished_ = true;
    if (total_ == 0) {
      // A 0-byte put still needs its single header+completion packet so
      // the receiver can match the entry and complete the message. The
      // emit loop below never runs (emitted_ == staged_ == 0), and
      // stream() cannot be called again once finished.
      return packetize_empty(msg_id_, match_bits_);
    }
  }

  std::vector<Packet> out;
  while (emitted_ < staged_) {
    const std::uint64_t remaining = staged_ - emitted_;
    if (remaining < payload_ && !finished_) break;  // wait for more bytes

    Packet pkt;
    pkt.msg_id = msg_id_;
    pkt.match_bits = match_bits_;
    pkt.offset = emitted_;
    pkt.payload_bytes = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(payload_, remaining));
    pkt.first = (emitted_ == 0);
    pkt.last = finished_ && (emitted_ + pkt.payload_bytes == total_);
    pkt.data = buffer_.data() + emitted_;
    emitted_ += pkt.payload_bytes;
    out.push_back(pkt);
  }
  return out;
}

// --- The reliable-put protocol ---------------------------------------------

ReliablePut::ReliablePut(sim::Engine& engine,
                         const std::vector<Packet>& packets,
                         const sim::faults::FaultPlan& plan,
                         const RetransmitConfig& rc,
                         sim::Time derived_timeout, sim::Time ack_latency,
                         Counters counters, PutCompleteFn on_complete)
    : engine_(&engine),
      packets_(&packets),
      plan_(plan),
      rc_(rc),
      base_timeout_(rc.timeout > 0 ? rc.timeout : derived_timeout),
      ack_latency_(ack_latency),
      counters_(counters),
      on_complete_(std::move(on_complete)),
      state_(packets.size()) {
  if (packets.empty()) {
    throw std::invalid_argument("reliable put: no packets");
  }
  if (!plan.active()) {
    throw std::invalid_argument(
        "reliable put: inert fault plan (use the lossless send)");
  }
}

void ReliablePut::start(const std::shared_ptr<ReliablePut>& self,
                        sim::Time at) {
  const std::size_t n = self->packets_->size();
  if (n == 1) {
    // Single-packet put: the lone packet is both data and completion.
    self->completion_sent_ = true;
    transmit(self, 0, 0, at);
    return;
  }
  for (std::size_t i = 0; i + 1 < n; ++i) transmit(self, i, 0, at);
}

void ReliablePut::transmit(const std::shared_ptr<ReliablePut>& self,
                           std::uint64_t idx, std::uint32_t attempt,
                           sim::Time at) {
  ReliablePut& p = *self;
  p.state_.record_attempt(static_cast<std::size_t>(idx));
  const sim::faults::FaultDecision d = p.plan_.decide(idx, attempt);
  const sim::Time timeout = p.rc_.timeout_for(attempt, p.base_timeout_);
  const sim::Time timer_start =
      p.send_attempt(self, idx, attempt, at, d, timeout);
  // Armed after the attempt's deliveries are scheduled: same-time events
  // run in insertion order, so this order is part of the output.
  p.engine_->schedule_at(timer_start + timeout, [self, idx, attempt] {
    ReliablePut& q = *self;
    if (q.done_ || q.state_.acked(static_cast<std::size_t>(idx))) return;
    if (attempt + 1 > q.rc_.max_retries) {
      fail(self);
      return;
    }
    q.counters_.retransmits->add(1);
    transmit(self, idx, attempt + 1, q.engine_->now());
  });
}

void ReliablePut::acknowledge(const std::shared_ptr<ReliablePut>& self,
                              std::uint64_t idx) {
  self->engine_->schedule(self->ack_latency_,
                          [self, idx] { on_ack(self, idx); });
}

void ReliablePut::on_ack(const std::shared_ptr<ReliablePut>& self,
                         std::uint64_t idx) {
  ReliablePut& p = *self;
  p.counters_.acks->add(1);
  if (p.done_ || !p.state_.mark_acked(static_cast<std::size_t>(idx))) return;
  const std::uint64_t last = p.packets_->size() - 1;
  if (idx == last) {
    // Completion packet acked: the put is complete.
    p.done_ = true;
    p.on_put_complete();
    if (p.on_complete_) p.on_complete_(p.engine_->now(), true);
    return;
  }
  if (!p.completion_sent_ && p.state_.data_acked()) {
    // Every data packet acked: release the held-back completion packet.
    p.completion_sent_ = true;
    transmit(self, last, 0, p.engine_->now());
  }
}

void ReliablePut::fail(const std::shared_ptr<ReliablePut>& self) {
  ReliablePut& p = *self;
  p.done_ = true;
  p.state_.mark_failed();
  p.counters_.failures->add(1);
  if (p.on_complete_) p.on_complete_(p.engine_->now(), false);
}

}  // namespace netddt::p4
