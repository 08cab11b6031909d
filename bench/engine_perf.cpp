// Engine dispatch-throughput microbenchmark: InlineCallback vs a
// std::function-based baseline engine, across callback capture sizes.
//
// The DES engine schedules one callback per packet/DMA/link event;
// std::function's small-buffer is ~16 B on libstdc++ while the model
// lambdas capture 40-60 B, so the baseline pays one malloc/free per
// event. This benchmark measures the schedule+dispatch rate of both
// engines on a self-rescheduling event chain whose capture size is
// padded to 4 sizes spanning the inline buffer, then the engine's lanes
// against the plain heap on time-sorted producers, and then audits the
// real receive models: every strategy must schedule zero heap-allocated
// callbacks (the acceptance bar for the InlineCallback change).
//
// Outside the experiment registry on purpose: wall-clock throughput is
// nondeterministic and must never enter the deterministic JSON reports.
//
// usage: engine_perf [--events N] [--reps N] [--audit-only]

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "ddt/datatype.hpp"
#include "offload/runner.hpp"
#include "sim/engine.hpp"

namespace {

using netddt::sim::Engine;

// Faithful replica of the engine's pre-InlineCallback shape: same
// (time, seq) heap, FIFO tie-break, executed/max-pending accounting and
// tracer check, but std::function callbacks stored inside the heap
// events (the old layout). Kept local so the production engine carries
// no dead baseline code.
class BaselineEngine {
 public:
  using Callback = std::function<void()>;
  using Time = netddt::sim::Time;

  BaselineEngine() { heap_.reserve(1024); }
  Time now() const { return now_; }
  void schedule(Time delay, Callback fn) {
    if (delay < 0) delay = 0;
    heap_.push_back(Event{now_ + delay, next_seq_++, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    max_pending_ = std::max(max_pending_, heap_.size());
  }
  Time run() {
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      Event ev = std::move(heap_.back());
      heap_.pop_back();
      now_ = ev.when;
      ++executed_;
      if (tracer_ != nullptr) {
        ev.fn();  // never taken; mirrors the old engine's branch
      } else {
        ev.fn();
      }
    }
    return now_;
  }

 private:
  struct Event {
    Time when;
    std::uint64_t seq;
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  std::vector<Event> heap_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t max_pending_ = 0;
  void* tracer_ = nullptr;
};

// Self-rescheduling event: each dispatch schedules the next until the
// shared countdown hits zero — the same schedule-one-from-inside-one
// pattern the NIC/DMA/link models use. Pad inflates the capture so one
// workload sweeps callable sizes across the inline buffer (16 B of
// state + pad). Seeding `chains` of these keeps that many events in
// flight, exercising the heap at the queue depths the models reach.
template <typename EngineT, std::size_t Pad>
struct Chain {
  std::uint64_t* remaining;
  EngineT* eng;
  std::array<std::byte, Pad> pad{};

  void operator()() {
    if (*remaining == 0 || --*remaining == 0) return;
    eng->schedule(1, Chain{remaining, eng, pad});
  }
};

template <typename EngineT, std::size_t Pad>
double chain_events_per_sec(std::uint64_t events, std::uint32_t chains) {
  EngineT eng;
  std::uint64_t remaining = events;
  for (std::uint32_t c = 0; c < chains; ++c) {
    eng.schedule(static_cast<netddt::sim::Time>(c),
                 Chain<EngineT, Pad>{&remaining, &eng});
  }
  const auto start = std::chrono::steady_clock::now();
  eng.run();
  const double sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return sec > 0 ? static_cast<double>(events) / sec : 0.0;
}

struct Cell {
  std::size_t callable_bytes;
  std::uint32_t in_flight;
  double baseline;
  double inline_cb;
};

template <std::size_t Pad>
Cell measure(std::uint64_t events, int reps, std::uint32_t chains) {
  Cell c{sizeof(Chain<Engine, Pad>), chains, 0.0, 0.0};
  // Warmup rep (page in, warm the allocator), then best-of-reps.
  chain_events_per_sec<BaselineEngine, Pad>(events / 4, chains);
  chain_events_per_sec<Engine, Pad>(events / 4, chains);
  for (int r = 0; r < reps; ++r) {
    c.baseline = std::max(
        c.baseline, chain_events_per_sec<BaselineEngine, Pad>(events, chains));
    c.inline_cb = std::max(
        c.inline_cb, chain_events_per_sec<Engine, Pad>(events, chains));
  }
  return c;
}

// Sorted producers: kLanes producers each keep kParked events posted
// ahead in nondecreasing time order, the shape of a handler's DMA
// writes or a tenant's pre-posted arrivals. Every dispatch appends one
// event at its producer's tail. With lanes only the kLanes heads sit in
// the heap; without, all kLanes * kParked events do.
constexpr std::uint32_t kLanes = 16;
constexpr std::uint32_t kParked = 256;

struct Producer {
  Engine* eng;
  Engine::LaneId lane;
  netddt::sim::Time* tail;
  std::uint64_t* remaining;

  void operator()() const {
    if (*remaining == 0) return;
    --*remaining;
    *tail += kLanes;
    eng->schedule_at(*tail, lane, Producer{*this});
  }
};

double sorted_events_per_sec(std::uint64_t events, bool use_lanes) {
  Engine eng;
  std::uint64_t remaining = events;
  std::array<netddt::sim::Time, kLanes> tails{};
  for (std::uint32_t l = 0; l < kLanes; ++l) {
    const Engine::LaneId lane = use_lanes ? eng.add_lane() : Engine::kNoLane;
    for (std::uint32_t k = 0; k < kParked; ++k) {
      tails[l] = static_cast<netddt::sim::Time>(k * kLanes + l);
      eng.schedule_at(tails[l], lane,
                      Producer{&eng, lane, &tails[l], &remaining});
    }
  }
  const auto start = std::chrono::steady_clock::now();
  eng.run();
  const double sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return sec > 0 ? static_cast<double>(eng.executed()) / sec : 0.0;
}

// Audit the real models: run one receive per strategy and read back the
// engine counters the runner publishes. The change's acceptance bar is
// zero heap-allocated callbacks on every model path.
int audit_models() {
  using netddt::offload::StrategyKind;
  namespace ddt = netddt::ddt;

  std::printf("\nmodel audit  (one 1 MiB hvector receive per strategy)\n");
  std::printf("  %-12s %12s %12s  %s\n", "strategy", "events",
              "heap allocs", "callback sizes");
  const StrategyKind kinds[] = {
      StrategyKind::kRwCp,        StrategyKind::kRoCp,
      StrategyKind::kSpecialized, StrategyKind::kHpuLocal,
      StrategyKind::kIovec,       StrategyKind::kHostUnpack};
  int failures = 0;
  for (auto kind : kinds) {
    netddt::offload::ReceiveConfig cfg;
    cfg.type = ddt::Datatype::hvector(2048, 512, 1024, ddt::Datatype::int8());
    cfg.strategy = kind;
    cfg.verify = false;
    const auto run = netddt::offload::run_receive(cfg);

    std::uint64_t events = 0;
    std::string sizes;
    for (std::size_t b = 0; b < Engine::kSizeBuckets; ++b) {
      const auto name = std::string("sim.engine.callbacks_") +
                        Engine::size_bucket_name(b);
      const std::uint64_t n = run.metrics.counter(name);
      events += n;
      if (n == 0) continue;
      if (!sizes.empty()) sizes += "  ";
      sizes += Engine::size_bucket_name(b);
      sizes += ':';
      sizes += std::to_string(n);
    }
    const std::uint64_t heap_allocs =
        run.metrics.counter("sim.engine.callback_heap_allocs");
    std::printf("  %-12s %12llu %12llu  %s\n",
                std::string(netddt::offload::strategy_name(kind)).c_str(),
                static_cast<unsigned long long>(events),
                static_cast<unsigned long long>(heap_allocs), sizes.c_str());
    if (heap_allocs != 0) ++failures;
  }
  if (failures > 0) {
    std::printf("FAIL: %d strategies scheduled heap-allocated callbacks\n",
                failures);
    return 1;
  }
  std::printf("OK: all model callbacks fit the inline buffer\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t events = 300000;
  int reps = 3;
  bool audit_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--events") == 0 && i + 1 < argc) {
      events = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--audit-only") == 0) {
      audit_only = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--events N] [--reps N] [--audit-only]\n",
                   argv[0]);
      return 2;
    }
  }

  if (!audit_only) {
    std::printf("schedule+dispatch throughput, self-rescheduling chains "
                "(%llu events, best of %d)\n",
                static_cast<unsigned long long>(events), reps);
    std::printf("  %-10s %-10s %16s %16s %10s\n", "callable", "in-flight",
                "std::function", "InlineCallback", "speedup");

    const Cell cells[] = {
        measure<0>(events, reps, 1),   measure<0>(events, reps, 256),
        measure<16>(events, reps, 1),  measure<16>(events, reps, 256),
        measure<32>(events, reps, 1),  measure<32>(events, reps, 256),
        measure<48>(events, reps, 1),  measure<48>(events, reps, 256),
    };
    double log_sum = 0.0;
    for (const Cell& c : cells) {
      const double speedup = c.inline_cb / c.baseline;
      log_sum += std::log(speedup);
      std::printf("  %4zu B     %-10u %13.2f M/s %13.2f M/s %9.2fx\n",
                  c.callable_bytes, c.in_flight, c.baseline / 1e6,
                  c.inline_cb / 1e6, speedup);
    }
    const double geomean = std::exp(log_sum / std::size(cells));
    std::printf("  geomean speedup: %.2fx\n", geomean);

    // Wall-clock only, like the cells above: printed, never gated.
    double heap_only = 0.0;
    double laned = 0.0;
    sorted_events_per_sec(events / 4, false);
    sorted_events_per_sec(events / 4, true);
    for (int r = 0; r < reps; ++r) {
      heap_only = std::max(heap_only, sorted_events_per_sec(events, false));
      laned = std::max(laned, sorted_events_per_sec(events, true));
    }
    std::printf("\nsorted producers (%u lanes x %u parked events)\n", kLanes,
                kParked);
    std::printf("  %-21s %16s %16s %10s\n", "", "all in heap", "lanes",
                "speedup");
    std::printf("  %-21s %13.2f M/s %13.2f M/s %9.2fx\n", "events/s",
                heap_only / 1e6, laned / 1e6, laned / heap_only);
  }

  return audit_models();
}
