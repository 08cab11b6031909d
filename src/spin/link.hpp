#pragma once
// Network link: one sender port that serializes packets onto the wire
// at line rate and delivers them to the target NIC one network latency
// after their last byte.
//
// One wire clock: every send — lossless or reliable, first transmission
// or retransmission — serializes behind the link's single persistent
// clock (busy-until time plus the fractional-ps carry of
// sim::SerializationClock). Messages sent on one Link therefore queue
// at the sender, and arrivals that outpace the line rate make the wire
// the bottleneck (the open-loop service model). Concurrent senders on
// separate ports are separate Links.
//
// Lossless path (send): exactly-once, in the order given. The header
// packet should come first and the completion packet last; callers may
// reorder the payload packets in between (p4::shuffle_payload) to
// exercise the out-of-order paths of the offload strategies. Each
// delivery arrives one network latency after the wire clock, which only
// moves forward, so send()'s deliveries ride one engine lane per Link:
// they wait outside the engine's heap and fire exactly when they would
// without it.
//
// Lossy path (send_reliable): the Link is one carrier of the
// reliable-put protocol (p4::ReliablePut: acks, backoff, retry cap,
// held-back completion packet). The Link's own part: a fault drop is
// decided at departure (the attempt occupies the wire, then vanishes);
// a duplicate is a second delivery of the same serialization, skewed by
// the plan; the retransmit timer starts at departure; the derived base
// timeout is one round trip (serialization + two network latencies)
// plus the worst-case reorder skew of packet and ack, so an undropped
// attempt is acked before its timer fires; acks return on a lossless
// channel in one network latency. Delivery is at-least-once:
// retransmitted and duplicated copies reach NicModel::deliver with
// Packet::retransmit / Packet::dup set. Reliability metrics
// ("p4.retransmits", "p4.pkts_dropped", "p4.acks", "p4.dup_deliveries",
// "p4.put_failures", "link.wire_bytes", "link.reorder_depth") are
// registered in the target NIC's registry on the first reliable send —
// a binary that never sends reliably publishes none of them.
// All times are sim::Time picoseconds.

#include <cstdint>
#include <span>
#include <vector>

#include "p4/packet.hpp"
#include "p4/put.hpp"
#include "sim/engine.hpp"
#include "sim/faults/faults.hpp"
#include "spin/cost_model.hpp"
#include "spin/nic.hpp"

namespace netddt::spin {

class Link {
 public:
  Link(sim::Engine& engine, NicModel& target, const CostModel& cost)
      : engine_(&engine),
        target_(&target),
        cost_(&cost),
        lane_(engine.add_lane()) {}

  /// Inject `packets` in the given order. Packet i departs when the wire
  /// is free, no earlier than `earliest` and, when `ready` is given, no
  /// earlier than `ready[i]` (streaming puts / outbound-sPIN pacing,
  /// where the sender produces packets as regions are discovered). It
  /// arrives one network latency after its last byte is on the wire.
  /// The caller keeps the packet data alive until the simulation
  /// drains. Returns the arrival time of the last packet. Throws
  /// std::invalid_argument when `ready` is neither empty nor one time
  /// per packet.
  sim::Time send(std::span<const p4::Packet> packets, sim::Time earliest,
                 std::span<const sim::Time> ready = {});

  /// Reliable put of `packets` through the fault plan, departing no
  /// earlier than `earliest` (see the lossy-path contract above). The
  /// caller keeps `packets` and their data alive until the simulation
  /// drains. Throws std::invalid_argument when `packets` is empty or
  /// `plan` is inert — inert plans use send(), the cheaper lossless
  /// path.
  void send_reliable(const std::vector<p4::Packet>& packets,
                     sim::Time earliest, const sim::faults::FaultPlan& plan,
                     const p4::RetransmitConfig& rc = {},
                     p4::PutCompleteFn on_complete = {});

  /// The wire clock's busy-until time.
  sim::Time port_free() const { return port_free_; }

 private:
  struct ReliableTransfer;  // the Link's p4::ReliablePut carrier

  /// Serialize a `bytes`-byte packet on the wire no earlier than `at`;
  /// returns its departure time (its last byte leaves at port_free_).
  sim::Time occupy(std::uint32_t bytes, sim::Time at);

  sim::Engine* engine_;
  NicModel* target_;
  const CostModel* cost_;
  sim::Engine::LaneId lane_;  // send()'s deliveries, in arrival order
  sim::Time port_free_ = 0;
  // Fractional-ps serialization carry, so N packets occupy exactly the
  // whole-message wire time (sim::SerializationClock).
  sim::SerializationClock clock_;
};

}  // namespace netddt::spin
