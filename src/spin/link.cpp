#include "spin/link.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace netddt::spin {

sim::Time Link::occupy(std::uint32_t bytes, sim::Time at) {
  const sim::Time depart = std::max(at, port_free_);
  port_free_ = depart + clock_.advance(
                            std::max<std::uint64_t>(bytes, 1),  // header flit
                            cost_->line_rate_gbps);
  return depart;
}

sim::Time Link::send(std::span<const p4::Packet> packets, sim::Time earliest,
                     std::span<const sim::Time> ready) {
  if (!ready.empty() && ready.size() != packets.size()) {
    throw std::invalid_argument(
        "Link::send: ready must be empty or hold one time per packet");
  }
  sim::trace::Tracer* tracer = target_->tracer();
  const bool trace = tracer != nullptr && tracer->events_on();
  const std::uint32_t link_track = trace ? tracer->track("link") : 0;
  sim::trace::BlameLedger* blame =
      tracer != nullptr ? tracer->blame() : nullptr;
  sim::Time last_arrival = earliest;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const p4::Packet& pkt = packets[i];
    const sim::Time depart = occupy(
        pkt.payload_bytes,
        ready.empty() ? earliest : std::max(earliest, ready[i]));
    const sim::Time arrival = port_free_ + cost_->net_latency;
    last_arrival = std::max(last_arrival, arrival);
    if (trace) {
      // Serialization window of this packet on the wire.
      tracer->complete(
          link_track, "wire", depart, port_free_,
          static_cast<std::int64_t>(pkt.msg_id),
          static_cast<std::int64_t>(pkt.offset / cost_->pkt_payload));
    }
    if (blame != nullptr) {
      // Waits for the wire or for sender-side production (pacing) count
      // as sender queue.
      blame->interval(pkt.msg_id, sim::trace::BlameStage::kSenderQueue,
                      earliest, depart);
      blame->interval(pkt.msg_id, sim::trace::BlameStage::kWire, depart,
                      arrival);
    }
    engine_->schedule_at(arrival, lane_,
                         [nic = target_, pkt] { nic->deliver(pkt); });
  }
  return last_arrival;
}

// --- The Link as a reliable-put carrier ------------------------------------
//
// The protocol (acks, backoff, retry cap, held-back completion) is
// p4::ReliablePut; this carrier serializes each attempt on the Link's
// wire clock, applies the fault decision at departure, delivers into
// the target NIC and keeps the Link's metrics, trace spans and blame
// intervals. Every engine capture below stays within InlineCallback's
// 64-byte inline storage.

struct Link::ReliableTransfer final : p4::ReliablePut {
  Link* link;
  // Receiver-side reorder observation: distance of each arrival behind
  // the highest packet index seen so far.
  std::uint64_t max_seen_idx = 0;
  bool any_seen = false;

  sim::Counter* dropped;
  sim::Counter* dups;
  sim::Counter* wire_bytes;
  sim::Gauge* reorder_depth;

  sim::trace::Tracer* tracer = nullptr;
  std::uint32_t link_track = 0;
  sim::trace::BlameLedger* blame = nullptr;

  ReliableTransfer(Link* l, const std::vector<p4::Packet>& pkts,
                   const sim::faults::FaultPlan& plan,
                   const p4::RetransmitConfig& rc,
                   p4::PutCompleteFn on_complete)
      : ReliablePut(*l->engine_, pkts, plan, rc, derived_timeout(*l, plan),
                    l->cost_->net_latency, counters(*l),
                    std::move(on_complete)),
        link(l) {
    sim::MetricsRegistry& m = l->target_->metrics();
    dropped = &m.counter("p4.pkts_dropped");
    dups = &m.counter("p4.dup_deliveries");
    wire_bytes = &m.counter("link.wire_bytes");
    reorder_depth = &m.gauge("link.reorder_depth");
    sim::trace::Tracer* t = l->target_->tracer();
    if (t != nullptr && t->events_on()) {
      tracer = t;
      link_track = t->track("link");
    }
    if (t != nullptr) blame = t->blame();
  }

  static Counters counters(Link& l) {
    sim::MetricsRegistry& m = l.target_->metrics();
    return {&m.counter("p4.retransmits"), &m.counter("p4.acks"),
            &m.counter("p4.put_failures")};
  }

  // One full round trip (serialization + two network latencies) plus
  // the worst-case reorder skew of the packet and of its ack.
  static sim::Time derived_timeout(const Link& l,
                                   const sim::faults::FaultPlan& plan) {
    const CostModel& c = *l.cost_;
    return 2 * c.net_latency +
           (plan.config().reorder_window + 2) * c.pkt_interval() +
           c.wire_time(c.pkt_payload);
  }

  sim::Time send_attempt(const std::shared_ptr<ReliablePut>& self,
                         std::uint64_t idx, std::uint32_t attempt,
                         sim::Time at, const sim::faults::FaultDecision& d,
                         sim::Time timeout) override {
    const p4::Packet& src = packets()[idx];
    const sim::Time depart = link->occupy(src.payload_bytes, at);
    const sim::Time serialized = link->port_free_;
    wire_bytes->add(src.payload_bytes);
    if (tracer != nullptr) {
      tracer->complete(link_track, attempt == 0 ? "wire" : "retransmit",
                       depart, serialized,
                       static_cast<std::int64_t>(src.msg_id),
                       static_cast<std::int64_t>(idx));
    }
    if (blame != nullptr) {
      blame->interval(src.msg_id, sim::trace::BlameStage::kSenderQueue, at,
                      depart);
    }

    const sim::Time slot = link->cost_->pkt_interval();
    if (d.drop) {
      dropped->add(1);
      if (tracer != nullptr) {
        tracer->instant(link_track, "pkt.drop", serialized,
                        static_cast<std::int64_t>(src.msg_id),
                        static_cast<std::int64_t>(idx));
      }
      if (blame != nullptr) {
        // Only the serialization window is wire time; the wait for the
        // retransmit timer is covered by the kRetransmit guard below.
        blame->interval(src.msg_id, sim::trace::BlameStage::kWire, depart,
                        serialized);
      }
    } else {
      const sim::Time arrival =
          serialized + link->cost_->net_latency + d.delay_slots * slot;
      deliver_at(self, idx, attempt, arrival, /*is_dup=*/false);
      if (blame != nullptr) {
        blame->interval(src.msg_id, sim::trace::BlameStage::kWire, depart,
                        arrival);
      }
      if (d.duplicate) {
        dups->add(1);
        deliver_at(self, idx, attempt, arrival + d.dup_delay_slots * slot,
                   /*is_dup=*/true);
      }
    }

    if (blame != nullptr) {
      // The attempt's unacked window: whenever nothing deeper is active
      // (every copy dropped, backoff running), the message is waiting on
      // the reliable transport.
      blame->interval(src.msg_id, sim::trace::BlameStage::kRetransmit,
                      depart, depart + timeout);
    }
    return depart;
  }

  void deliver_at(const std::shared_ptr<ReliablePut>& self,
                  std::uint64_t idx, std::uint32_t attempt,
                  sim::Time arrival, bool is_dup) {
    engine().schedule_at(arrival, [self, idx, attempt, is_dup] {
      auto& t = static_cast<ReliableTransfer&>(*self);
      p4::Packet pkt = t.packets()[idx];
      pkt.retransmit = attempt > 0;
      pkt.dup = is_dup;
      if (t.any_seen && idx < t.max_seen_idx) {
        t.reorder_depth->set(static_cast<std::int64_t>(t.max_seen_idx - idx));
      } else {
        t.max_seen_idx = idx;
        t.any_seen = true;
        t.reorder_depth->set(0);
      }
      t.link->target_->deliver(pkt);
      if (t.blame != nullptr) {
        // The ack's flight time: the sender holds the completion packet
        // back until it lands, so when no receiver-side stage is active
        // the message is waiting on the transport.
        const sim::Time now = t.engine().now();
        t.blame->interval(pkt.msg_id, sim::trace::BlameStage::kRetransmit,
                          now, now + t.link->cost_->net_latency);
      }
      acknowledge(self, idx);
    });
  }

  void on_put_complete() override {
    if (tracer != nullptr) {
      tracer->instant(link_track, "put.complete", engine().now(),
                      static_cast<std::int64_t>(packets()[0].msg_id));
    }
  }
};

void Link::send_reliable(const std::vector<p4::Packet>& packets,
                         sim::Time earliest,
                         const sim::faults::FaultPlan& plan,
                         const p4::RetransmitConfig& rc,
                         p4::PutCompleteFn on_complete) {
  p4::ReliablePut::start(
      std::make_shared<ReliableTransfer>(this, packets, plan, rc,
                                         std::move(on_complete)),
      earliest);
}

}  // namespace netddt::spin
