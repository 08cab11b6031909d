#pragma once
// Discrete-event simulation engine.
//
// A minimal, deterministic event-driven core: events are (time, sequence,
// callback) triples ordered by time with FIFO tie-breaking, so two events
// scheduled for the same instant fire in scheduling order. All NIC, PCIe
// and host models in this repository are built on this engine.
//
// Lanes: a producer whose events come out in nondecreasing time order
// (a handler's DMA writes, a tenant's pre-posted arrivals, a wire's
// deliveries) may schedule them on a lane (add_lane). Only a lane's
// oldest event sits in the binary heap; the rest are parked in a FIFO
// beside it, and the next one enters the heap when the head is
// dispatched. Every event still takes its (time, seq) key when
// scheduled, and a parked event's key is greater than its lane head's,
// so the heap minimum is always the global minimum: dispatch order is
// exactly the order without lanes. An append earlier than the lane's
// newest event goes straight into the heap instead, so a lane choice
// can only cost speed, never change output. pending(), max_pending()
// and the traced pending counter count parked events too.

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/time.hpp"
#include "sim/trace/trace.hpp"

namespace netddt::sim {

/// Event callback with 64 bytes of inline storage — enough for every
/// lambda the NIC/DMA/link/scheduler models schedule (the largest
/// captures `this` + a receive-state pointer + a 40-byte p4::Packet by
/// value). Larger callables still work but heap-allocate; the engine
/// counts those in callback_heap_allocs() so perf tests can assert the
/// hot path stays allocation-free.
using InlineCallback = InlineFunction<void(), 64>;

class Engine {
 public:
  using Callback = InlineCallback;
  /// Handle of a lane (add_lane); kNoLane schedules into the heap.
  using LaneId = std::uint32_t;
  static constexpr LaneId kNoLane = ~LaneId{0};

  Engine() {
    heap_.reserve(kInitialHeapCapacity);
    free_slots_.reserve(kInitialHeapCapacity);
  }

  /// Open a lane for a producer whose events are (mostly) scheduled in
  /// nondecreasing time order. A lane is a fixed-size header; its
  /// parked events are linked through a per-slot side array.
  LaneId add_lane() {
    lanes_.emplace_back();
    return static_cast<LaneId>(lanes_.size() - 1);
  }

  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedule `fn` to run `delay` after the current time. Negative delays
  /// are clamped to zero (events cannot fire in the past).
  void schedule(Time delay, Callback fn) {
    if (delay < 0) delay = 0;
    place(now_ + delay, std::move(fn));
  }

  /// Schedule `fn` at absolute time `when`. Throws
  /// std::invalid_argument when `when` lies before now().
  void schedule_at(Time when, Callback fn) {
    schedule_at(when, kNoLane, std::move(fn));
  }

  /// Same, on `lane` (kNoLane: straight into the heap). The event parks
  /// behind the lane's newest event when `when` is not earlier than it,
  /// and goes into the heap otherwise; either way it fires exactly when
  /// it would have without the lane.
  void schedule_at(Time when, LaneId lane, Callback fn) {
    if (when < now_) {
      throw std::invalid_argument(
          "Engine::schedule_at: cannot schedule an event in the past");
    }
    if (lane == kNoLane) {
      place(when, std::move(fn));
    } else {
      place_on_lane(when, lane, std::move(fn));
    }
  }

  /// Run until the event queue drains. Returns the time of the last event.
  Time run() {
    const auto wall_start = std::chrono::steady_clock::now();
    while (!heap_.empty()) step();
    wall_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();
    return now_;
  }

  /// Run until the queue drains or simulated time would pass `deadline`.
  /// Events at exactly `deadline` still execute. Time always advances to
  /// `deadline` (even when the next event lies beyond it), so repeated
  /// run_until calls observe a monotone clock.
  Time run_until(Time deadline) {
    const auto wall_start = std::chrono::steady_clock::now();
    while (!heap_.empty() && heap_.front().when <= deadline) step();
    if (now_ < deadline) now_ = deadline;
    wall_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();
    return now_;
  }

  /// Attach an event tracer (nullptr detaches). Dispatch spans and the
  /// pending-queue counter are only emitted when the tracer's
  /// engine_events option is set — they are per-event and very noisy.
  void set_tracer(trace::Tracer* tracer) {
    tracer_ = tracer;
    if (tracer_ != nullptr) engine_track_ = tracer_->track("engine");
  }
  trace::Tracer* tracer() const { return tracer_; }

  // A lane's parked events imply its head is in the heap, so the heap
  // alone tells emptiness.
  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size() + parked_count_; }
  /// High-watermark of the pending-event queue over the engine's
  /// lifetime (exposed as the `sim.engine.queue_depth` gauge).
  std::size_t max_pending() const { return max_pending_; }
  std::uint64_t executed() const { return executed_; }

  /// Number of scheduled callbacks that exceeded InlineCallback's inline
  /// storage and fell back to the heap. Deterministic (a function of the
  /// callables scheduled, not of timing); the models keep it at zero.
  std::uint64_t callback_heap_allocs() const { return callback_heap_allocs_; }

  /// Wall-clock nanoseconds accumulated inside run()/run_until().
  std::uint64_t wall_ns() const { return wall_ns_; }

  /// Scheduled-callback size histogram: buckets 0-3 are inline
  /// callables of (bucket+1)*16 bytes or less, bucket 4 is the heap
  /// fallback. Deterministic; rendered by bench/engine_perf.
  static constexpr std::size_t kSizeBuckets = 5;
  const std::array<std::uint64_t, kSizeBuckets>& callback_size_hist() const {
    return size_hist_;
  }
  static const char* size_bucket_name(std::size_t i) {
    static constexpr const char* kNames[kSizeBuckets] = {
        "le16B", "le32B", "le48B", "le64B", "heap"};
    return kNames[i];
  }

  /// Dispatch throughput over the engine's lifetime: executed() events
  /// divided by wall-clock time spent in run()/run_until(). Wall-clock
  /// derived — nondeterministic — so it must never feed simulated
  /// results, only the perf telemetry (`sim.engine.events_per_sec`).
  double events_per_sec() const {
    return wall_ns_ > 0
               ? static_cast<double>(executed_) * 1e9 /
                     static_cast<double>(wall_ns_)
               : 0.0;
  }

 private:
  // Initial heap and free-list reservation. Model runs go deeper and
  // grow the vectors: app_unpack peaks at ~8.7k pending events and
  // svc_saturated averages ~9.9k, most of them parked in lanes.
  static constexpr std::size_t kInitialHeapCapacity = 1024;
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  // Heap entries are 24-byte PODs; the callback itself lives in a
  // chunked slab so push_heap/pop_heap shuffles never move callable
  // storage and dispatch invokes it in place (chunks never relocate). A
  // callback is copied exactly once after construction — into its slot.
  // Freed slots recycle through free_slots_, so steady state allocates
  // nothing per event (bench/engine_perf measures this). `lane` is the
  // lane whose head this event is, or kNoLane.
  struct Event {
    Time when;
    std::uint64_t seq;
    std::uint32_t slot;
    LaneId lane;
  };
  static_assert(sizeof(Event) == 24, "keep heap entries compact");
  static constexpr std::uint32_t kChunkShift = 8;  // 256 callbacks/chunk
  static constexpr std::uint32_t kChunkMask = (1u << kChunkShift) - 1;
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  // A lane's head is in the heap while `active`; the events parked
  // behind it form a singly linked FIFO first..last through parked_.
  // `tail` is the time of the lane's newest event.
  struct Lane {
    Time tail = 0;
    std::uint32_t first = kNoSlot;
    std::uint32_t last = kNoSlot;
    bool active = false;
  };
  // Key and FIFO link of a parked event, indexed by its callback slot.
  struct Parked {
    Time when;
    std::uint64_t seq;
    std::uint32_t next;
  };

  static std::size_t size_bucket(const Callback& fn) {
    if (fn.heap_allocated()) return kSizeBuckets - 1;
    const std::size_t size = fn.callable_size();
    return size == 0 ? 0 : std::min<std::size_t>((size - 1) / 16,
                                                 kSizeBuckets - 2);
  }

  Callback& slot_ref(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & kChunkMask];
  }

  void enter_heap(const Event& ev) {
    heap_.push_back(ev);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  std::uint32_t claim_slot(Callback&& fn) {
    if (fn.heap_allocated()) ++callback_heap_allocs_;
    ++size_hist_[size_bucket(fn)];
    std::uint32_t slot;
    if (free_slots_.empty()) {
      slot = slot_count_++;
      if ((slot >> kChunkShift) == chunks_.size()) {
        chunks_.push_back(std::make_unique<Callback[]>(1u << kChunkShift));
        parked_.resize(chunks_.size() << kChunkShift);
      }
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    slot_ref(slot) = std::move(fn);
    return slot;
  }

  void place(Time when, Callback&& fn) {
    const std::uint32_t slot = claim_slot(std::move(fn));
    enter_heap(Event{when, next_seq_++, slot, kNoLane});
    max_pending_ = std::max(max_pending_, pending());
  }

  void place_on_lane(Time when, LaneId lane, Callback&& fn) {
    const std::uint32_t slot = claim_slot(std::move(fn));
    const std::uint64_t seq = next_seq_++;
    Lane& l = lanes_[lane];
    if (!l.active) {
      l.active = true;
      l.tail = when;
      enter_heap(Event{when, seq, slot, lane});
    } else if (when >= l.tail) {
      parked_[slot] = Parked{when, seq, kNoSlot};
      if (l.last == kNoSlot) {
        l.first = slot;
      } else {
        parked_[l.last].next = slot;
      }
      l.last = slot;
      l.tail = when;
      ++parked_count_;
    } else {
      enter_heap(Event{when, seq, slot, kNoLane});  // out of order
    }
    max_pending_ = std::max(max_pending_, pending());
  }

  // The head of `lane` was dispatched: its next parked event (if any)
  // takes its place in the heap.
  void advance(LaneId lane) {
    Lane& l = lanes_[lane];
    if (l.first == kNoSlot) {
      l.active = false;
      return;
    }
    const std::uint32_t slot = l.first;
    const Parked& p = parked_[slot];
    l.first = p.next;
    if (l.first == kNoSlot) l.last = kNoSlot;
    --parked_count_;
    enter_heap(Event{p.when, p.seq, slot, lane});
  }

  void step() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Event ev = heap_.back();
    heap_.pop_back();
    assert(ev.when >= now_);
    now_ = ev.when;
    ++executed_;
    if (ev.lane != kNoLane) advance(ev.lane);
    // Invoked in place: slab chunks never relocate, and the slot is only
    // released afterwards, so events the callback schedules cannot reuse
    // or move the running callable.
    Callback& fn = slot_ref(ev.slot);
    if (tracer_ != nullptr && tracer_->engine_events_on()) {
      tracer_->begin(engine_track_, "dispatch", now_);
      fn();
      tracer_->end(engine_track_, "dispatch", now_);
      tracer_->counter(engine_track_, "pending", now_,
                       static_cast<double>(pending()));
    } else {
      fn();
    }
    fn.reset();
    free_slots_.push_back(ev.slot);
  }

  std::vector<Event> heap_;
  std::vector<std::unique_ptr<Callback[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Lane> lanes_;
  std::vector<Parked> parked_;    // one per slab slot
  std::size_t parked_count_ = 0;  // events parked behind a lane head
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t callback_heap_allocs_ = 0;
  std::uint64_t wall_ns_ = 0;
  std::array<std::uint64_t, kSizeBuckets> size_hist_{};
  std::size_t max_pending_ = 0;
  trace::Tracer* tracer_ = nullptr;
  std::uint32_t engine_track_ = 0;
};

}  // namespace netddt::sim
