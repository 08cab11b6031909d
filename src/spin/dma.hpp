#pragma once
// NIC-to-host DMA engine over the PCIe model.
//
// Handlers push fire-and-forget DMA write requests (paper Sec 2.1.4);
// the engine services them in order: each request costs a fixed per-
// request overhead plus payload / PCIe bandwidth, and lands in host
// memory one PCIe write latency after service. Service is FIFO with a
// deterministic cost and arrivals dispatch in time order, so each
// request's service window [max(arrival, engine free), + service) is
// computed when it arrives: a write costs two engine events, its
// arrival and its landing. Queue occupancy is tracked over time — that
// is the data behind Fig 14 and Fig 15 — and published into the metrics
// registry under the "nic.dma" scope.
//
// Engine lanes (sim/engine.hpp) keep this engine's posted events out of
// the engine's heap without moving them in time. Handler writes are
// posted at their future issue times; a handler's writes issue at
// nondecreasing times and an HPU runs its handlers back to back, so
// write_at/write_rmw_at take the issuing HPU's lane (Scheduler::Task).
// Landings, scheduled at arrival, ride one lane per DmaEngine: service
// is FIFO, so a plain write never lands before the one served ahead of
// it (an RMW's extra turnaround can make the next landing earlier; that
// one takes the heap).
//
// Tracing: with a Tracer attached (and events on) every occupancy
// change is sampled into the "nic.dma.queue_depth.trace" Series and a
// counter track, each service window becomes a span on the "dma" track,
// and the queue-wait / PCIe-transfer latencies feed the corresponding
// stage histograms. Without a tracer nothing is recorded — the single
// null check replaces the old bespoke enable_trace flag.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/trace/trace.hpp"
#include "spin/compute.hpp"
#include "spin/cost_model.hpp"

namespace netddt::spin {

class DmaEngine {
 public:
  /// Called when a request with `signal_event` completes in host memory.
  using CompletionFn =
      std::function<void(std::uint64_t msg_id, sim::Time when)>;

  /// Counters/gauges go into `metrics` under "nic.dma"; a standalone
  /// engine (tests) may pass nullptr and gets a private registry.
  DmaEngine(sim::Engine& engine, const CostModel& cost,
            std::span<std::byte> host_memory,
            sim::MetricsRegistry* metrics = nullptr);

  void set_completion_callback(CompletionFn fn) { on_complete_ = std::move(fn); }

  /// Attach an event tracer (nullptr detaches). Enables the Fig 15
  /// queue-depth trace and the DMA spans/latency histograms.
  void set_tracer(sim::trace::Tracer* tracer);

  /// Enqueue a DMA write of `src` to host offset `host_off` at the
  /// current simulated time. `src` may be empty (the zero-byte
  /// completion-signal write). When `signal_event` is set, the completion
  /// callback fires once the write lands (the paper's NO_EVENT flag is
  /// the inverted default: handlers suppress events on payload writes).
  void write(std::int64_t host_off, std::span<const std::byte> src,
             bool signal_event, std::uint64_t msg_id);

  /// Same, but enqueued at a future instant (handlers issue DMA commands
  /// part-way through their charged runtime), riding the engine lane
  /// `lane` until then (kNoLane: the engine's heap). Throws
  /// std::invalid_argument when `when` lies before now().
  void write_at(sim::Time when, std::int64_t host_off,
                std::span<const std::byte> src, bool signal_event,
                std::uint64_t msg_id,
                sim::Engine::LaneId lane = sim::Engine::kNoLane);

  /// Read-modify-write request (compute handler families): at landing the
  /// destination becomes dst[i] = dst[i] (op) src[i] instead of a copy.
  /// Costs dma_rmw_service occupancy plus a pcie_rmw_turnaround on top of
  /// the posted-write latency. Never signals completion (the zero-byte
  /// completion write stays a plain write).
  void write_rmw_at(sim::Time when, std::int64_t host_off,
                    std::span<const std::byte> src, ReduceOp op,
                    ElemType elem, std::uint64_t msg_id,
                    sim::Engine::LaneId lane = sim::Engine::kNoLane);

  std::uint64_t total_writes() const { return writes_->value(); }
  std::uint64_t total_bytes() const { return bytes_->value(); }
  std::size_t queue_depth() const {
    return static_cast<std::size_t>(depth_->value());
  }
  std::size_t max_queue_depth() const {
    return static_cast<std::size_t>(depth_->peak());
  }
  /// (time, depth) samples taken at every arrival and landing: Fig 15. Only
  /// recorded while a tracer with events is attached.
  const std::vector<std::pair<sim::Time, double>>& depth_trace() const {
    return trace_->points();
  }
  sim::Time last_completion() const { return last_completion_; }
  /// True once every enqueued request has landed in host memory.
  bool drained() const { return depth_->value() == 0; }

 private:
  struct Request {
    std::int64_t host_off;
    std::span<const std::byte> src;
    bool signal_event;
    // The compute-family fields live in the padding after signal_event:
    // Request stays 48 bytes, so [this, req] captures keep fitting the
    // engine's 64-byte inline callback storage (heap_allocs stays 0).
    bool rmw = false;  // apply `op` over `elem` lanes instead of memcpy
    ReduceOp op = ReduceOp::kSum;
    ElemType elem = ElemType::kInt8;
    std::uint64_t msg_id;
    sim::Time enqueued;  // arrival at the engine
  };
  static_assert(sizeof(Request) == 48, "keep DMA callbacks heap-free");

  void enqueue_at(sim::Time when, sim::Engine::LaneId lane, Request req);

  void arrive(const Request& req);
  void land(const Request& req);
  void sample();

  sim::Engine* engine_;
  const CostModel* cost_;
  std::span<std::byte> host_;
  sim::Engine::LaneId landing_lane_;  // landings, in service order
  CompletionFn on_complete_;
  sim::Time free_at_ = 0;  // end of the last service window
  sim::Time last_completion_ = 0;

  std::unique_ptr<sim::MetricsRegistry> local_metrics_;
  sim::Counter* writes_;   // nic.dma.writes
  sim::Counter* bytes_;    // nic.dma.bytes
  sim::Gauge* depth_;      // nic.dma.queue_depth (issued, not yet landed)
  sim::Series* trace_;     // nic.dma.queue_depth.trace

  sim::trace::Tracer* tracer_ = nullptr;
  std::uint32_t dma_track_ = 0;    // service spans + landing instants
  std::uint32_t queue_track_ = 0;  // occupancy counter track
  double last_depth_emitted_ = -1.0;
};

}  // namespace netddt::spin
