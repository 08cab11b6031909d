#pragma once
// Outbound sPIN engine: PtlProcessPut (paper Sec 3.1.2).
//
// Instead of injecting packets, the outbound engine forwards each
// would-be packet of the message to the packet scheduler as a HER. The
// handler gathers the packet's payload from host memory (the outbound
// engine "does not fill the packet with data but delegates this task to
// the packet handler") and the packet departs as part of ONE streaming
// put the moment it is ready — in message order, through the engine's
// Link (one wire clock, paced at line rate, shared by all its puts).

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "p4/packet.hpp"
#include "sim/engine.hpp"
#include "spin/cost_model.hpp"
#include "p4/put.hpp"
#include "spin/handler.hpp"
#include "spin/link.hpp"
#include "spin/nic.hpp"
#include "spin/scheduler.hpp"

namespace netddt::spin {

class OutboundEngine {
 public:
  /// Gather handler: fill `staging` with the packet's payload bytes
  /// (reading from sender host memory) and charge the time spent. Runs
  /// on a sender-side HPU.
  using GatherFn = std::function<void(const p4::Packet& pkt,
                                      std::byte* staging,
                                      ChargeMeter& meter)>;

  /// `hpus` are the sender NIC's handler units; `target` receives the
  /// generated message over a line-rate link.
  OutboundEngine(sim::Engine& engine, CostModel cost, std::uint32_t hpus,
                 NicModel& target)
      : engine_(&engine),
        cost_(cost),
        scheduler_(engine, hpus, cost_),
        link_(engine, target, cost_) {}

  /// Issue a PtlProcessPut of `total_bytes` (the packed size of the
  /// datatype): per-packet HERs run `gather` under `policy`; packets
  /// depart in order as they become ready. Returns the message id.
  void process_put(std::uint64_t msg_id, std::uint64_t match_bits,
                   std::uint64_t total_bytes, SchedulingPolicy policy,
                   GatherFn gather);

  Scheduler& scheduler() { return scheduler_; }

  /// Attach an event tracer to the sender-side scheduler. The sender and
  /// receiver NICs should not share one tracer — the per-HPU track names
  /// would collide.
  void set_tracer(sim::trace::Tracer* tracer) {
    scheduler_.set_tracer(tracer);
  }

 private:
  struct Put {
    std::vector<std::byte> staging;
    std::vector<p4::Packet> packets;
    std::vector<bool> ready;
    std::size_t next_to_send = 0;
    GatherFn gather;
  };

  void mark_ready(Put& put, std::size_t index);

  sim::Engine* engine_;
  CostModel cost_;
  Scheduler scheduler_;
  Link link_;  // holds &cost_: the engine is neither copied nor moved
  std::vector<std::unique_ptr<Put>> puts_;
};

}  // namespace netddt::spin
