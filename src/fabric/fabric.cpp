#include "fabric/fabric.hpp"

#include <algorithm>
#include <stdexcept>

namespace netddt::fabric {

Fabric::Fabric(sim::Engine& engine, const FabricConfig& config)
    : engine_(&engine),
      config_(config),
      topo_(make_topology(config.topology)),
      ports_(topo_->port_count()),
      nics_(topo_->nodes(), nullptr),
      route_index_(static_cast<std::size_t>(topo_->nodes()) * topo_->nodes(),
                   UINT32_MAX) {
  pkts_forwarded_ = &metrics_.counter("fabric.pkts");
  queue_wait_ps_ = &metrics_.counter("fabric.queue_wait_ps");
  blocked_ = &metrics_.counter("fabric.blocked");
  drops_ = &metrics_.counter("fabric.drops");
  retransmits_ = &metrics_.counter("fabric.retransmits");
  acks_ = &metrics_.counter("fabric.acks");
  put_failures_ = &metrics_.counter("fabric.put_failures");
  max_queue_depth_ = &metrics_.gauge("fabric.queue_depth_peak");
}

void Fabric::attach(std::uint32_t node, spin::NicModel& nic) {
  if (node >= nics_.size()) {
    throw std::invalid_argument("Fabric::attach: node id out of range");
  }
  nics_[node] = &nic;
}

spin::NicModel& Fabric::endpoint(std::uint32_t src, std::uint32_t dst) const {
  if (src >= nics_.size() || dst >= nics_.size()) {
    throw std::invalid_argument("Fabric: node id out of range");
  }
  if (src == dst) throw std::invalid_argument("Fabric: src == dst");
  if (nics_[dst] == nullptr) {
    throw std::invalid_argument("Fabric: destination NIC not attached");
  }
  return *nics_[dst];
}

const std::vector<std::uint32_t>& Fabric::route_for(std::uint32_t src,
                                                    std::uint32_t dst) {
  const std::size_t key =
      static_cast<std::size_t>(src) * topo_->nodes() + dst;
  if (route_index_[key] == UINT32_MAX) {
    auto r = std::make_unique<std::vector<std::uint32_t>>();
    topo_->route(src, dst, *r);
    route_index_[key] = static_cast<std::uint32_t>(routes_.size());
    routes_.push_back(std::move(r));
  }
  return *routes_[route_index_[key]];
}

sim::Time Fabric::pass_port(std::uint32_t p, sim::Time at,
                            std::uint32_t bytes) {
  Port& port = ports_[p];
  // Slots freed by packets fully serialized before `at`.
  while (!port.occupants.empty() && port.occupants.front() <= at) {
    port.occupants.pop_front();
  }
  sim::Time admit = at;
  if (port.occupants.size() >= config_.port_buffer_pkts) {
    // FIFO full: backpressure — admission waits until enough earlier
    // packets have left that a slot frees up.
    admit = port.occupants[port.occupants.size() - config_.port_buffer_pkts];
    blocked_->add(1);
    while (!port.occupants.empty() && port.occupants.front() <= admit) {
      port.occupants.pop_front();
    }
  }
  const sim::Time depart = std::max(admit, port.busy_until);
  const sim::Time on_wire = port.clock.advance(
      std::max<std::uint64_t>(bytes, 1), config_.cost.line_rate_gbps);
  port.busy_until = depart + on_wire;
  port.occupants.push_back(port.busy_until);
  pkts_forwarded_->add(1);
  queue_wait_ps_->add(static_cast<std::uint64_t>(depart - at));
  const auto depth = static_cast<std::int64_t>(port.occupants.size());
  if (depth > max_queue_depth_->value()) max_queue_depth_->set(depth);
  return port.busy_until;
}

void Fabric::forward(const p4::Packet* pkt,
                     const std::vector<std::uint32_t>* route,
                     std::uint32_t hop, sim::Time now, spin::NicModel* dst) {
  const sim::Time serialized =
      pass_port((*route)[hop], now, pkt->payload_bytes);
  const sim::Time arrival = serialized + config_.hop_latency;
  if (hop + 1 < route->size()) {
    engine_->schedule_at(arrival, [this, pkt, route, hop, dst] {
      forward(pkt, route, hop + 1, engine_->now(), dst);
    });
  } else {
    engine_->schedule_at(arrival, [dst, pkt] { dst->deliver(*pkt); });
  }
}

void Fabric::send(std::uint32_t src, std::uint32_t dst,
                  const std::vector<p4::Packet>& packets,
                  sim::Time earliest) {
  spin::NicModel* nic = &endpoint(src, dst);
  const std::vector<std::uint32_t>& route = route_for(src, dst);
  for (const p4::Packet& p : packets) {
    forward(&p, &route, 0, earliest, nic);
  }
}

// --- The Fabric as a reliable-put carrier ---------------------------------
//
// The protocol (acks, backoff, retry cap, held-back completion) is
// p4::ReliablePut; this carrier forwards each attempt's copy hop by hop
// along the cached route, applies drops and fault skew at ejection and
// keeps the fabric.* counters. In-flight copies live in `copies` (a
// deque, so addresses stay stable) because retransmitted/duplicated
// deliveries need their own flag bits while the caller's packets stay
// untouched.

struct Fabric::Transfer final : p4::ReliablePut {
  Fabric* fab;
  const std::vector<std::uint32_t>* route;
  spin::NicModel* dst;
  std::deque<p4::Packet> copies;

  Transfer(Fabric* f, const std::vector<std::uint32_t>& r,
           spin::NicModel& nic, const std::vector<p4::Packet>& pkts,
           const sim::faults::FaultPlan& plan,
           const p4::RetransmitConfig& rc, p4::PutCompleteFn on_complete)
      : ReliablePut(*f->engine_, pkts, plan, rc,
                    derived_timeout(*f, r.size(), plan),
                    ack_latency(*f, r.size()),
                    {f->retransmits_, f->acks_, f->put_failures_},
                    std::move(on_complete)),
        fab(f),
        route(&r),
        dst(&nic) {}

  // Lossless return channel: propagation only, no serialization.
  static sim::Time ack_latency(const Fabric& f, std::size_t hops) {
    return static_cast<sim::Time>(hops) * f.config_.hop_latency;
  }

  // Measured from the copy's injection departure: forward propagation,
  // a full output FIFO of queueing at every downstream hop, the
  // worst-case fault skew, and the ack's return. An undropped attempt on
  // a congested fabric is then normally acked before its timer fires; a
  // spurious retransmit remains safe — the NIC gates duplicates.
  static sim::Time derived_timeout(const Fabric& f, std::size_t route_len,
                                   const sim::faults::FaultPlan& plan) {
    const auto hops = static_cast<sim::Time>(route_len);
    const sim::Time slot = f.cost().pkt_interval();
    return hops * (f.config_.hop_latency + slot) +
           hops * f.config_.port_buffer_pkts * slot +
           (plan.config().reorder_window + 2) * slot +
           ack_latency(f, route_len);
  }

  sim::Time send_attempt(const std::shared_ptr<ReliablePut>& self,
                         std::uint64_t idx, std::uint32_t attempt,
                         sim::Time at, const sim::faults::FaultDecision& d,
                         sim::Time /*timeout*/) override {
    const sim::Time slot = fab->cost().pkt_interval();
    copies.push_back(packets()[idx]);
    p4::Packet* copy = &copies.back();
    copy->retransmit = attempt > 0;
    const sim::Time departed =
        forward(self, copy, idx, 0, at, d.drop, d.delay_slots * slot);
    if (!d.drop && d.duplicate) {
      copies.push_back(packets()[idx]);
      p4::Packet* dup = &copies.back();
      dup->retransmit = attempt > 0;
      dup->dup = true;
      forward(self, dup, idx, 0, at, /*drop=*/false,
              (d.delay_slots + d.dup_delay_slots) * slot);
    }
    // The timer starts when the first copy's last byte leaves the
    // injection port, so injection-queue wait (unbounded under open-loop
    // load) never eats the timeout budget.
    return departed;
  }

  // Forward one in-flight copy through hop `hop`; `skew` is the fault
  // plan's reorder/duplicate delay, applied at ejection. Delivery
  // schedules the ack. Returns the time the copy's last byte leaves the
  // `hop` port.
  static sim::Time forward(const std::shared_ptr<ReliablePut>& self,
                           const p4::Packet* copy, std::uint64_t idx,
                           std::uint32_t hop, sim::Time now, bool drop,
                           sim::Time skew) {
    auto& t = static_cast<Transfer&>(*self);
    Fabric& f = *t.fab;
    const sim::Time serialized =
        f.pass_port((*t.route)[hop], now, copy->payload_bytes);
    const sim::Time arrival = serialized + f.config_.hop_latency;
    if (hop + 1 < t.route->size()) {
      f.engine_->schedule_at(arrival, [self, copy, idx, hop, drop, skew] {
        forward(self, copy, idx, hop + 1,
                static_cast<Transfer&>(*self).fab->engine_->now(), drop,
                skew);
      });
      return serialized;
    }
    if (drop) {
      // Applied at ejection: the doomed attempt consumed every hop's
      // bandwidth, like a corrupted packet discarded by the receiver.
      f.drops_->add(1);
      return serialized;
    }
    f.engine_->schedule_at(arrival + skew, [self, copy, idx] {
      static_cast<Transfer&>(*self).dst->deliver(*copy);
      acknowledge(self, idx);
    });
    return serialized;
  }
};

void Fabric::send_reliable(std::uint32_t src, std::uint32_t dst,
                           const std::vector<p4::Packet>& packets,
                           sim::Time earliest,
                           const sim::faults::FaultPlan& plan,
                           const p4::RetransmitConfig& rc,
                           p4::PutCompleteFn on_complete) {
  spin::NicModel& nic = endpoint(src, dst);
  p4::ReliablePut::start(
      std::make_shared<Transfer>(this, route_for(src, dst), nic, packets,
                                 plan, rc, std::move(on_complete)),
      earliest);
}

}  // namespace netddt::fabric
