// Tests for the sPIN NIC model: DMA engine timing and data movement, the
// HER scheduler (default and blocked-RR), NIC memory accounting, and the
// end-to-end receive paths (RDMA and handler-processed).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "p4/put.hpp"
#include "sim/check.hpp"
#include "sim/engine.hpp"
#include "spin/link.hpp"
#include "spin/nic.hpp"
#include "spin/nic_memory.hpp"

namespace netddt::spin {
namespace {

std::vector<std::byte> pattern(std::size_t n) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::byte>(i * 7 + 1);
  return v;
}

TEST(NicMemory, AllocFreeAccounting) {
  NicMemory mem(1000);
  const auto a = mem.alloc(400, "a");
  ASSERT_NE(a, NicMemory::kInvalid);
  EXPECT_EQ(mem.used(), 400u);
  const auto b = mem.alloc(600, "b");
  ASSERT_NE(b, NicMemory::kInvalid);
  EXPECT_EQ(mem.available(), 0u);
  EXPECT_EQ(mem.alloc(1, "c"), NicMemory::kInvalid);
  mem.free(a);
  EXPECT_EQ(mem.used(), 600u);
  EXPECT_EQ(mem.peak(), 1000u);
  EXPECT_NE(mem.alloc(300, "d"), NicMemory::kInvalid);
}

TEST(NicMemory, DoubleFreeViolatesCheck) {
  NicMemory mem(1000);
  const auto a = mem.alloc(100, "a");
  mem.free(a);
  {
    sim::check::ScopedEnable checks(true);
    EXPECT_THROW(mem.free(a), sim::check::Violation);
  }
  mem.free(a);  // checker off: safe no-op
  EXPECT_EQ(mem.used(), 0u);
}

TEST(NicMemory, ZeroByteAllocsCountedSeparately) {
  NicMemory mem(1000);
  const auto z = mem.alloc(0, "marker");
  ASSERT_NE(z, NicMemory::kInvalid);
  EXPECT_EQ(mem.used(), 0u);
  EXPECT_EQ(mem.zero_byte_allocs(), 1u);
  EXPECT_EQ(mem.allocations(), 1u);
  mem.free(z);
  EXPECT_EQ(mem.allocations(), 0u);
  EXPECT_EQ(mem.zero_byte_allocs(), 1u) << "counter, not a gauge";
}

TEST(NicMemory, PeakBlocksTracksHighWaterMark) {
  NicMemory mem(1000);
  const auto a = mem.alloc(100, "a");
  const auto b = mem.alloc(100, "b");
  mem.free(a);
  const auto c = mem.alloc(100, "c");
  EXPECT_EQ(mem.peak_blocks(), 2u);
  mem.free(b);
  mem.free(c);
  EXPECT_EQ(mem.peak_blocks(), 2u);
}

TEST(NicMemory, RejectPolicyNeverEvicts) {
  NicMemory mem(1000);
  mem.set_policy(make_eviction_policy(EvictionPolicyKind::kReject));
  mem.alloc(800, "a", {.evictable = true});
  EXPECT_EQ(mem.alloc(400, "b"), NicMemory::kInvalid);
  EXPECT_EQ(mem.evictions(), 0u);
  EXPECT_EQ(mem.admission_rejects(), 1u);
}

TEST(NicMemory, LruEvictsLeastRecentlyTouched) {
  NicMemory mem(1000);
  mem.set_policy(make_eviction_policy(EvictionPolicyKind::kLru));
  std::vector<std::string> evicted;
  mem.set_eviction_callback(
      [&](NicMemory::Handle, const std::string& tag) {
        evicted.push_back(tag);
      });
  const auto a = mem.alloc(400, "a", {.evictable = true});
  mem.alloc(400, "b", {.evictable = true});
  mem.touch(a);  // b is now the LRU block
  ASSERT_NE(mem.alloc(500, "c"), NicMemory::kInvalid);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], "b");
  EXPECT_EQ(mem.evictions(), 1u);
}

TEST(NicMemory, SizeWeightedEvictsLargestFirst) {
  NicMemory mem(1000);
  mem.set_policy(make_eviction_policy(EvictionPolicyKind::kSizeWeighted));
  std::vector<std::string> evicted;
  mem.set_eviction_callback(
      [&](NicMemory::Handle, const std::string& tag) {
        evicted.push_back(tag);
      });
  mem.alloc(200, "small", {.evictable = true});
  mem.alloc(600, "large", {.evictable = true});
  ASSERT_NE(mem.alloc(500, "new"), NicMemory::kInvalid);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], "large") << "one large eviction beats two small";
  EXPECT_EQ(mem.used(), 700u);
}

TEST(NicMemory, PinFencesAgainstEviction) {
  NicMemory mem(1000);
  mem.set_policy(make_eviction_policy(EvictionPolicyKind::kLru));
  const auto a = mem.alloc(600, "a", {.evictable = true});
  mem.pin(a);
  EXPECT_TRUE(mem.is_pinned(a));
  EXPECT_EQ(mem.alloc(600, "b"), NicMemory::kInvalid);
  EXPECT_EQ(mem.evictions(), 0u);
  mem.unpin(a);
  ASSERT_NE(mem.alloc(600, "b"), NicMemory::kInvalid);
  EXPECT_EQ(mem.evictions(), 1u);
}

TEST(NicMemory, PriorityCeilingLimitsVictims) {
  NicMemory mem(1000);
  mem.set_policy(make_eviction_policy(EvictionPolicyKind::kLru));
  mem.alloc(800, "vip", {.priority = 5, .evictable = true});
  // A low-priority requester may not evict the high-priority block...
  EXPECT_EQ(mem.alloc(400, "low", {.priority = 0}), NicMemory::kInvalid);
  EXPECT_EQ(mem.evictions(), 0u);
  // ...but an equal-priority one may.
  ASSERT_NE(mem.alloc(400, "peer", {.priority = 5}), NicMemory::kInvalid);
  EXPECT_EQ(mem.evictions(), 1u);
}

TEST(NicMemory, OversizedRequestFailsWithoutEvicting) {
  NicMemory mem(1000);
  mem.set_policy(make_eviction_policy(EvictionPolicyKind::kLru));
  mem.alloc(400, "a", {.evictable = true});
  EXPECT_EQ(mem.alloc(2000, "huge"), NicMemory::kInvalid);
  EXPECT_EQ(mem.evictions(), 0u) << "cannot ever fit: evicting is waste";
  EXPECT_EQ(mem.used(), 400u);
}

TEST(NicMemory, LazyMetricsAbsentWithoutPolicyOrEvent) {
  sim::MetricsRegistry reg;
  NicMemory mem(1000, &reg);
  mem.alloc(100, "a");
  const auto snap = reg.snapshot();
  EXPECT_NE(snap.counters.count("nic.mem.allocs"), 0u);
  EXPECT_EQ(snap.counters.count("nic.mem.evictions"), 0u);
  EXPECT_EQ(snap.counters.count("nic.mem.admission_rejects"), 0u);
  EXPECT_EQ(snap.counters.count("nic.mem.zero_byte_allocs"), 0u);
  EXPECT_EQ(snap.gauges.count("nic.mem.peak_blocks"), 0u);
}

TEST(Dma, WritesLandInHostMemory) {
  sim::Engine eng;
  CostModel cost;
  std::vector<std::byte> host(4096, std::byte{0});
  DmaEngine dma(eng, cost, host);
  const auto src = pattern(256);
  dma.write(100, src, false, 1);
  eng.run();
  EXPECT_TRUE(dma.drained());
  EXPECT_EQ(std::memcmp(host.data() + 100, src.data(), 256), 0);
  EXPECT_EQ(dma.total_writes(), 1u);
  EXPECT_EQ(dma.total_bytes(), 256u);
}

TEST(Dma, WriteOutsideHostBufferViolatesCheck) {
  sim::Engine eng;
  CostModel cost;
  std::vector<std::byte> host(4096, std::byte{0});
  DmaEngine dma(eng, cost, host);
  const auto src = pattern(256);
  dma.write(4000, src, false, 9);  // last 160 bytes past the end
  sim::check::ScopedEnable checks(true);
  EXPECT_THROW(eng.run(), sim::check::Violation);
}

TEST(Dma, CompletionAfterServiceAndLatency) {
  sim::Engine eng;
  CostModel cost;
  std::vector<std::byte> host(64);
  DmaEngine dma(eng, cost, host);
  sim::Time done = -1;
  dma.set_completion_callback(
      [&](std::uint64_t, sim::Time when) { done = when; });
  const auto src = pattern(1);
  dma.write(0, src, true, 7);
  eng.run();
  // 1 B: request service + PCIe transfer + write latency.
  const sim::Time expect =
      cost.dma_service(1) + cost.pcie_write_latency;
  EXPECT_EQ(done, expect);
}

TEST(Dma, QueueDepthTracksBacklog) {
  sim::Engine eng;
  CostModel cost;
  std::vector<std::byte> host(1 << 16);
  DmaEngine dma(eng, cost, host);
  sim::trace::TraceConfig tc;
  tc.events = true;
  sim::trace::Tracer tracer(tc);
  dma.set_tracer(&tracer);
  const auto src = pattern(4096);
  // Enqueue 10 requests at t=0: they serialize through the engine.
  for (int i = 0; i < 10; ++i) {
    dma.write(i * 4096, std::span(src).subspan(0, 4096), false, 1);
  }
  eng.run();
  EXPECT_EQ(dma.max_queue_depth(), 10u);
  EXPECT_EQ(dma.total_writes(), 10u);
  EXPECT_FALSE(dma.depth_trace().empty());
  EXPECT_FALSE(tracer.events().empty());
}

TEST(Dma, ServiceRateMatchesPcieBandwidth) {
  sim::Engine eng;
  CostModel cost;
  std::vector<std::byte> host(1 << 20);
  DmaEngine dma(eng, cost, host);
  const auto src = pattern(1 << 16);
  const int n = 16;
  for (int i = 0; i < n; ++i) dma.write(0, src, false, 1);
  const sim::Time end = eng.run();
  const sim::Time min_expected =
      n * (cost.dma_req_service + cost.pcie_transfer(1 << 16));
  EXPECT_GE(end, min_expected);
}

TEST(Dma, WriteAtInThePastThrows) {
  sim::Engine eng;
  CostModel cost;
  std::vector<std::byte> host(64);
  DmaEngine dma(eng, cost, host);
  const auto src = pattern(8);
  eng.run_until(sim::ns(10));
  EXPECT_THROW(dma.write_at(sim::ns(9), 0, src, false, 1),
               std::invalid_argument);
  EXPECT_THROW(dma.write_rmw_at(sim::ns(9), 0, src, ReduceOp::kSum,
                                ElemType::kInt8, 1),
               std::invalid_argument);
  EXPECT_THROW(dma.write_at(sim::ns(9), 0, src, false, 1, eng.add_lane()),
               std::invalid_argument);
  eng.run();
  EXPECT_EQ(dma.total_writes(), 0u);
  EXPECT_TRUE(dma.drained());
}

// Two HPUs issue interleaved runs of signalled writes, each on its own
// lane; one write undercuts its lane and takes the heap. Landing times,
// host bytes, the peak queue depth and the completion order must match
// FIFO service computed by hand — and a run without lanes.
TEST(Dma, HandlerLanesLandIdentically) {
  struct Issue {
    sim::Time at;
    int hpu;
    std::uint64_t msg;
  };
  constexpr std::size_t kBytes = 512;
  std::vector<Issue> issues;  // in issue order
  std::uint64_t msg = 0;
  for (int run = 0; run < 3; ++run) {
    // Handler `run` on HPU 0 starts at run*100 ns, on HPU 1 at +3 ns;
    // each issues four writes 6 ns apart.
    for (int k = 0; k < 4; ++k) {
      for (int hpu = 0; hpu < 2; ++hpu) {
        issues.push_back({sim::ns(100 * run + 6 * k + 3 * hpu), hpu, msg++});
      }
    }
  }
  issues.push_back({sim::ns(150), 0, msg++});  // behind HPU 0's tail
  const auto src = pattern(kBytes * issues.size());

  struct Landing {
    std::uint64_t msg;
    sim::Time when;
    bool operator==(const Landing&) const = default;
  };
  struct Outcome {
    std::vector<Landing> landings;
    std::vector<std::byte> host;
    std::size_t max_depth;
  };
  const auto run = [&](bool use_lanes) {
    sim::Engine eng;
    CostModel cost;
    Outcome out{{}, std::vector<std::byte>(src.size()), 0};
    DmaEngine dma(eng, cost, out.host);
    dma.set_completion_callback([&](std::uint64_t id, sim::Time when) {
      out.landings.push_back({id, when});
    });
    const sim::Engine::LaneId lanes[2] = {eng.add_lane(), eng.add_lane()};
    for (const Issue& w : issues) {
      const std::size_t off = kBytes * w.msg;
      dma.write_at(w.at, static_cast<std::int64_t>(off),
                   std::span(src).subspan(off, kBytes), true, w.msg,
                   use_lanes ? lanes[w.hpu] : sim::Engine::kNoLane);
    }
    eng.run();
    out.max_depth = dma.max_queue_depth();
    EXPECT_TRUE(dma.drained());
    return out;
  };

  // Hand-computed FIFO service: requests enter in (time, issue) order
  // and each starts when it has arrived and the engine is free.
  CostModel cost;
  std::vector<Issue> arrivals = issues;
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const Issue& a, const Issue& b) { return a.at < b.at; });
  std::vector<Landing> expect;
  sim::Time free_at = 0;
  for (const Issue& w : arrivals) {
    const sim::Time start = std::max(w.at, free_at);
    free_at = start + cost.dma_service(kBytes);
    expect.push_back({w.msg, free_at + cost.pcie_write_latency});
  }
  // Depth counts requests issued but not landed; pre-posted arrivals
  // fire before landings at the same instant.
  std::size_t expect_depth = 0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    std::size_t depth = 0;
    for (std::size_t j = 0; j <= i; ++j) {
      if (expect[j].when >= arrivals[i].at) ++depth;
    }
    expect_depth = std::max(expect_depth, depth);
  }

  const Outcome laned = run(true);
  EXPECT_EQ(laned.landings, expect);
  EXPECT_EQ(laned.host, src);
  EXPECT_EQ(laned.max_depth, expect_depth);
  EXPECT_GT(expect_depth, 4u);  // the engine really queued

  const Outcome heap_only = run(false);
  EXPECT_EQ(heap_only.landings, laned.landings);
  EXPECT_EQ(heap_only.host, laned.host);
  EXPECT_EQ(heap_only.max_depth, laned.max_depth);
}

// Each request's service window is computed when it arrives. Writes from
// two HPU lanes and the heap, of mixed sizes, with one arrival exactly at
// the previous service end and an RMW whose longer landing lets the
// signalled plain write behind it land first: landings, completions,
// host bytes, the queue peak, the stage histograms, the blame intervals
// and the "dma write" spans must match FIFO service computed by hand.
TEST(Dma, ServiceWindowIsClosedForm) {
  struct Issue {
    sim::Time at;
    int lane;  // 0, 1: HPU lanes; 2: the heap
    std::size_t bytes;
    bool signal;
    bool rmw;
  };
  const CostModel cost;
  const sim::Time idle_end =
      sim::ns(500) + cost.dma_service(256);  // service end of msg 5
  const std::vector<Issue> issues = {
      // msg: at, lane, bytes, signal, rmw
      {sim::ns(0), 0, 512, false, false},      // 0
      {sim::ns(1), 1, 128, true, false},       // 1
      {sim::ns(2), 0, 64, false, false},       // 2
      {sim::ns(2) + 500, 2, 2048, true, false},// 3
      {sim::ns(3), 1, 1024, false, false},     // 4
      {sim::ns(500), 0, 256, false, false},    // 5: engine idle
      {idle_end, 1, 32, true, false},          // 6: at 5's service end
      {sim::ns(1000), 0, 64, false, true},     // 7: RMW
      {sim::ns(1001), 1, 16, true, false},     // 8: lands before 7
      {sim::ns(1400), 2, 0, true, false},      // 9: completion signal
  };
  std::vector<std::size_t> offs;
  std::size_t host_bytes = 0;
  for (const Issue& w : issues) {
    offs.push_back(host_bytes);
    host_bytes += w.bytes;
  }
  const auto src = pattern(host_bytes);
  std::vector<std::byte> host(host_bytes, std::byte{3});
  const std::vector<std::byte> init = host;

  // Hand-computed FIFO service (arrival times are distinct, so arrival
  // order is time order).
  struct Window {
    sim::Time begin, end, landing;
  };
  std::vector<Window> expect;
  sim::Time free_at = 0;
  sim::Time wait_sum = 0, transfer_sum = 0;
  for (const Issue& w : issues) {
    const sim::Time service =
        w.rmw ? cost.dma_rmw_service(w.bytes) : cost.dma_service(w.bytes);
    const sim::Time begin = std::max(w.at, free_at);
    free_at = begin + service;
    const sim::Time landing = free_at + cost.pcie_write_latency +
                              (w.rmw ? cost.pcie_rmw_turnaround : 0);
    expect.push_back({begin, free_at, landing});
    wait_sum += begin - w.at;
    transfer_sum += landing - begin;
  }
  ASSERT_GT(expect[4].begin, issues[4].at);  // the engine really queued
  ASSERT_EQ(expect[6].begin, issues[6].at);
  ASSERT_EQ(expect[5].end, issues[6].at);
  ASSERT_LT(expect[8].landing, expect[7].landing);
  std::vector<std::uint64_t> land_order(issues.size());
  for (std::size_t i = 0; i < issues.size(); ++i) land_order[i] = i;
  std::stable_sort(land_order.begin(), land_order.end(),
                   [&](std::uint64_t a, std::uint64_t b) {
                     return expect[a].landing < expect[b].landing;
                   });
  // Pre-posted arrivals fire before landings at the same instant.
  std::size_t expect_depth = 0;
  for (std::size_t i = 0; i < issues.size(); ++i) {
    std::size_t depth = 0;
    for (std::size_t j = 0; j <= i; ++j) {
      if (expect[j].landing >= issues[i].at) ++depth;
    }
    expect_depth = std::max(expect_depth, depth);
  }
  ASSERT_GT(expect_depth, 4u);

  sim::Engine eng;
  sim::trace::TraceConfig tc;
  tc.events = true;
  tc.stats = true;
  tc.blame = true;
  sim::trace::Tracer tracer(tc);
  DmaEngine dma(eng, cost, host);
  dma.set_tracer(&tracer);
  std::vector<std::pair<std::uint64_t, sim::Time>> completions;
  dma.set_completion_callback([&](std::uint64_t id, sim::Time when) {
    completions.emplace_back(id, when);
  });
  const sim::Engine::LaneId lanes[3] = {eng.add_lane(), eng.add_lane(),
                                        sim::Engine::kNoLane};
  for (std::uint64_t msg = 0; msg < issues.size(); ++msg) {
    const Issue& w = issues[msg];
    tracer.blame()->open(msg, w.at);
    const auto bytes = std::span(src).subspan(offs[msg], w.bytes);
    const auto off = static_cast<std::int64_t>(offs[msg]);
    if (w.rmw) {
      dma.write_rmw_at(w.at, off, bytes, ReduceOp::kSum, ElemType::kInt8,
                       msg, lanes[w.lane]);
    } else {
      dma.write_at(w.at, off, bytes, w.signal, msg, lanes[w.lane]);
    }
  }
  eng.run();
  EXPECT_TRUE(dma.drained());
  EXPECT_EQ(dma.total_writes(), issues.size());
  EXPECT_EQ(dma.max_queue_depth(), expect_depth);
  EXPECT_EQ(dma.last_completion(), expect[land_order.back()].landing);

  // Landings ("landed" instants) and completions, in landing order.
  std::vector<std::pair<std::uint64_t, sim::Time>> landed, want_landed,
      want_completions;
  for (const std::uint64_t msg : land_order) {
    want_landed.emplace_back(msg, expect[msg].landing);
    if (issues[msg].signal) {
      want_completions.emplace_back(msg, expect[msg].landing);
    }
  }
  const std::uint32_t dma_track = tracer.track("dma");
  std::vector<std::pair<sim::Time, sim::Time>> spans(issues.size(), {-1, -1});
  std::size_t open_span = 0;  // a span's 'E' follows its 'B' directly
  for (const auto& ev : tracer.events()) {
    if (ev.track != dma_track) continue;
    if (ev.ph == 'i') landed.emplace_back(ev.msg, ev.ts);
    if (ev.ph == 'B') {
      open_span = static_cast<std::size_t>(ev.msg);
      spans[open_span].first = ev.ts;
    }
    if (ev.ph == 'E') spans[open_span].second = ev.ts;
  }
  EXPECT_EQ(landed, want_landed);
  EXPECT_EQ(completions, want_completions);
  for (std::size_t msg = 0; msg < issues.size(); ++msg) {
    EXPECT_EQ(spans[msg].first, expect[msg].begin) << "msg " << msg;
    EXPECT_EQ(spans[msg].second, expect[msg].end) << "msg " << msg;
  }

  // Host bytes: plain writes copy, the RMW adds int8 lanes.
  std::vector<std::byte> want_host = src;
  for (std::size_t i = 0; i < issues[7].bytes; ++i) {
    const std::size_t b = offs[7] + i;
    want_host[b] = static_cast<std::byte>(
        std::to_integer<unsigned>(init[b]) + std::to_integer<unsigned>(src[b]));
  }
  EXPECT_EQ(host, want_host);

  // Stage histograms: one queue wait and one transfer per write.
  const auto& wait = tracer.histogram(sim::trace::Stage::kDmaQueueWait);
  const auto& transfer = tracer.histogram(sim::trace::Stage::kPcieTransfer);
  EXPECT_EQ(wait.count(), issues.size());
  EXPECT_EQ(transfer.count(), issues.size());
  EXPECT_DOUBLE_EQ(wait.mean() * static_cast<double>(wait.count()),
                   static_cast<double>(wait_sum));
  EXPECT_DOUBLE_EQ(transfer.mean() * static_cast<double>(transfer.count()),
                   static_cast<double>(transfer_sum));

  // Blame: each message is one write, open at its arrival and closed at
  // its landing, so the queue and transfer intervals tile the window.
  for (std::uint64_t msg = 0; msg < issues.size(); ++msg) {
    const auto* a = tracer.blame()->close(msg, expect[msg].landing);
    ASSERT_NE(a, nullptr);
    using sim::trace::BlameStage;
    EXPECT_EQ(a->stage[static_cast<std::size_t>(BlameStage::kDmaQueue)],
              expect[msg].begin - issues[msg].at)
        << "msg " << msg;
    EXPECT_EQ(a->stage[static_cast<std::size_t>(BlameStage::kDmaTransfer)],
              expect[msg].landing - expect[msg].begin)
        << "msg " << msg;
    EXPECT_EQ(a->stage[static_cast<std::size_t>(BlameStage::kUnattributed)],
              0);
  }
}

TEST(Scheduler, DefaultPolicyUsesAllHpus) {
  sim::Engine eng;
  CostModel cost;
  Scheduler sched(eng, 4, cost);
  std::vector<sim::Time> starts;
  for (int i = 0; i < 8; ++i) {
    sched.enqueue(1, SchedulingPolicy::Default(), static_cast<unsigned>(i),
                  [&starts](sim::Time t, sim::Engine::LaneId) {
                    starts.push_back(t);
                    return sim::ns(100);
                  });
  }
  eng.run();
  ASSERT_EQ(starts.size(), 8u);
  // First 4 run immediately; next 4 at +100ns.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(starts[static_cast<size_t>(i)], 0);
  for (int i = 4; i < 8; ++i) {
    EXPECT_EQ(starts[static_cast<size_t>(i)], sim::ns(100));
  }
}

TEST(Scheduler, BlockedRRSerializesSequences) {
  sim::Engine eng;
  CostModel cost;
  Scheduler sched(eng, 8, cost);
  // 2 vHPUs, delta_p = 2: packets {0,1} -> vHPU0, {2,3} -> vHPU1,
  // {4,5} -> vHPU0 again.
  std::vector<std::pair<std::uint64_t, sim::Time>> runs;
  const auto policy = SchedulingPolicy::BlockedRR(2, 2);
  for (std::uint64_t p = 0; p < 6; ++p) {
    sched.enqueue(1, policy, p,
                  [&runs, p](sim::Time t, sim::Engine::LaneId) {
                    runs.emplace_back(p, t);
                    return sim::ns(100);
                  });
  }
  eng.run();
  ASSERT_EQ(runs.size(), 6u);
  // Packets of the same vHPU never overlap in time.
  auto overlap = [&](std::uint64_t a, std::uint64_t b) {
    sim::Time sa = -1, sb = -1;
    for (auto& [pkt, t] : runs) {
      if (pkt == a) sa = t;
      if (pkt == b) sb = t;
    }
    return sa != -1 && sb != -1 && sa < sb + sim::ns(100) &&
           sb < sa + sim::ns(100);
  };
  EXPECT_FALSE(overlap(0, 1));  // same vHPU, serialized
  EXPECT_FALSE(overlap(2, 3));
  EXPECT_TRUE(overlap(0, 2));  // different vHPUs run concurrently
}

TEST(Scheduler, BlockedRRLimitedByPhysicalHpus) {
  sim::Engine eng;
  CostModel cost;
  Scheduler sched(eng, 1, cost);  // one physical HPU
  const auto policy = SchedulingPolicy::BlockedRR(4, 1);
  std::vector<sim::Time> starts;
  for (std::uint64_t p = 0; p < 4; ++p) {
    sched.enqueue(1, policy, p,
                  [&starts](sim::Time t, sim::Engine::LaneId) {
                    starts.push_back(t);
                    return sim::ns(50);
                  });
  }
  eng.run();
  ASSERT_EQ(starts.size(), 4u);
  for (std::size_t i = 1; i < starts.size(); ++i) {
    EXPECT_GE(starts[i], starts[i - 1] + sim::ns(50))
        << "one HPU cannot run two handlers at once";
  }
}

class NicFixture : public ::testing::Test {
 protected:
  NicFixture()
      : host(1 << 20), nic(eng, host, CostModel{}, NicConfig{4, 1 << 20}),
        link(eng, nic, nic.cost()) {}

  sim::Engine eng;
  Host host;
  NicModel nic;
  Link link;
};

TEST_F(NicFixture, RdmaPathDeliversContiguously) {
  p4::MatchEntry me;
  me.match_bits = 5;
  me.buffer_offset = 1000;
  me.length = 1 << 16;
  nic.match_list().append(p4::ListKind::kPriority, me);

  const auto data = pattern(5000);
  auto pkts = p4::packetize(1, 5, data);
  link.send(pkts, 0);
  eng.run();

  EXPECT_EQ(std::memcmp(host.memory().data() + 1000, data.data(), 5000), 0);
  const auto* ev = host.events().find(p4::EventKind::kPut);
  ASSERT_NE(ev, nullptr);
  EXPECT_EQ(ev->bytes, 5000u);
  const auto* info = nic.info(1);
  ASSERT_NE(info, nullptr);
  EXPECT_TRUE(info->done);
  EXPECT_GT(info->unpack_done, info->first_byte);
}

TEST_F(NicFixture, UnmatchedMessageIsDropped) {
  const auto data = pattern(100);
  auto pkts = p4::packetize(1, 99, data);
  link.send(pkts, 0);
  eng.run();
  EXPECT_NE(host.events().find(p4::EventKind::kDropped), nullptr);
  EXPECT_EQ(nic.dma().total_writes(), 0u);
}

TEST_F(NicFixture, OverflowListFallback) {
  p4::MatchEntry me;
  me.match_bits = 5;
  me.buffer_offset = 0;
  nic.match_list().append(p4::ListKind::kOverflow, me);
  const auto data = pattern(64);
  link.send(p4::packetize(1, 5, data), 0);
  eng.run();
  EXPECT_NE(host.events().find(p4::EventKind::kPutOverflow), nullptr);
}

TEST_F(NicFixture, HandlerPathScattersViaDma) {
  // A toy sPIN handler: write each 64 B chunk of the packet to
  // buffer_offset + 2 * stream_offset (a "double-spaced" scatter).
  ExecutionContext ctx;
  ctx.payload = [this](HandlerArgs& args) {
    args.meter.charge(Phase::kInit, nic.cost().h_init);
    const auto* data = args.pkt.data;
    for (std::uint32_t at = 0; at < args.pkt.payload_bytes; at += 64) {
      const auto len =
          std::min<std::uint32_t>(64, args.pkt.payload_bytes - at);
      args.meter.charge(Phase::kProcessing, nic.cost().h_block);
      args.meter.charge(Phase::kProcessing, nic.cost().h_dma_issue);
      args.dma.write(args.meter.total(),
                     args.buffer_offset +
                         2 * static_cast<std::int64_t>(args.pkt.offset + at),
                     {data + at, len});
    }
  };
  ctx.completion = [this](HandlerArgs& args) {
    args.meter.charge(Phase::kProcessing, nic.cost().h_complete);
    args.dma.write(args.meter.total(), 0, {}, /*signal_event=*/true);
  };

  p4::MatchEntry me;
  me.match_bits = 9;
  me.buffer_offset = 0;
  me.context = nic.register_context(std::move(ctx));
  nic.match_list().append(p4::ListKind::kPriority, me);

  const auto data = pattern(4096);  // 2 packets
  link.send(p4::packetize(3, 9, data), 0);
  eng.run();

  // Every 64 B chunk at stream offset s lands at host offset 2 s.
  for (std::size_t s = 0; s < 4096; s += 64) {
    EXPECT_EQ(std::memcmp(host.memory().data() + 2 * s, data.data() + s, 64),
              0)
        << "chunk at " << s;
  }
  const auto* ev = host.events().find(p4::EventKind::kUnpackComplete);
  ASSERT_NE(ev, nullptr);
  const auto* info = nic.info(3);
  ASSERT_NE(info, nullptr);
  EXPECT_TRUE(info->done);
  EXPECT_EQ(info->handlers, 2u);
  EXPECT_GT(info->processing_time, 0);
}

TEST_F(NicFixture, CompletionHandlerRunsAfterAllPayloads) {
  std::vector<std::string> order;
  ExecutionContext ctx;
  ctx.payload = [&order](HandlerArgs& args) {
    args.meter.charge(Phase::kProcessing, sim::us(10));  // slow handler
    order.push_back("payload");
  };
  ctx.completion = [&order](HandlerArgs& args) {
    order.push_back("completion");
    args.dma.write(0, 0, {}, true);
  };
  p4::MatchEntry me;
  me.match_bits = 1;
  me.context = nic.register_context(std::move(ctx));
  nic.match_list().append(p4::ListKind::kPriority, me);

  const auto data = pattern(8192);  // 4 packets, handlers overlap
  link.send(p4::packetize(4, 1, data), 0);
  eng.run();

  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order.back(), "completion");
}

TEST_F(NicFixture, HeaderHandlerRunsBeforeAnyPayloadHandler) {
  // A slow header handler must gate every payload handler (paper
  // Sec 3.2.1 happens-before), even with idle HPUs available.
  std::vector<sim::Time> payload_starts;
  ExecutionContext ctx;
  ctx.header = [&](HandlerArgs& args) {
    args.meter.charge(Phase::kInit, sim::us(50));  // slow header
  };
  ctx.payload = [&](HandlerArgs& args) {
    // The first packet's payload part shares the header's task; only
    // the deferred packets observe the gate as a later start time.
    if (!args.pkt.first) payload_starts.push_back(eng.now());
    args.meter.charge(Phase::kProcessing, sim::ns(100));
  };
  ctx.completion = [](HandlerArgs& args) { args.dma.write(0, 0, {}, true); };
  p4::MatchEntry me;
  me.match_bits = 3;
  me.context = nic.register_context(std::move(ctx));
  nic.match_list().append(p4::ListKind::kPriority, me);

  const auto data = pattern(2048 * 6);
  link.send(p4::packetize(7, 3, data), 0);
  eng.run();

  ASSERT_EQ(payload_starts.size(), 5u);
  for (std::size_t i = 0; i < payload_starts.size(); ++i) {
    EXPECT_GE(payload_starts[i], sim::us(50))
        << "payload " << i << " ran before the header handler finished";
  }
  EXPECT_TRUE(nic.info(7)->done);
}

TEST_F(NicFixture, ShuffledDeliveryKeepsHeaderFirstCompletionLast) {
  std::vector<std::uint64_t> arrival_offsets;
  ExecutionContext ctx;
  ctx.payload = [&arrival_offsets](HandlerArgs& args) {
    arrival_offsets.push_back(args.pkt.offset);
    args.meter.charge(Phase::kProcessing, sim::ns(10));
  };
  ctx.completion = [](HandlerArgs& args) { args.dma.write(0, 0, {}, true); };
  p4::MatchEntry me;
  me.match_bits = 2;
  me.context = nic.register_context(std::move(ctx));
  nic.match_list().append(p4::ListKind::kPriority, me);

  const auto data = pattern(2048 * 8);
  auto pkts = p4::packetize(5, 2, data);
  p4::shuffle_payload(pkts, 4, /*seed=*/99);
  link.send(pkts, 0);
  eng.run();

  ASSERT_EQ(arrival_offsets.size(), 8u);
  EXPECT_EQ(arrival_offsets.front(), 0u) << "header stays first";
  EXPECT_EQ(arrival_offsets.back(), 7u * 2048) << "completion stays last";
  EXPECT_FALSE(std::is_sorted(arrival_offsets.begin(),
                              arrival_offsets.end()))
      << "payload packets should arrive out of order";
  EXPECT_TRUE(nic.info(5)->done);
}

TEST_F(NicFixture, LatencyMatchesCostModelForRdma) {
  // Fig 2 anchor: a tiny put takes net_latency + wire + NIC + PCIe.
  p4::MatchEntry me;
  me.match_bits = 4;
  nic.match_list().append(p4::ListKind::kPriority, me);
  const auto data = pattern(1);
  link.send(p4::packetize(9, 4, data), 0);
  eng.run();
  const CostModel& c = nic.cost();
  const sim::Time expected = c.wire_time(1) + c.net_latency +
                             c.rdma_nic_per_pkt + c.dma_service(1) +
                             c.pcie_write_latency;
  EXPECT_EQ(nic.info(9)->unpack_done, expected);
}

}  // namespace
}  // namespace netddt::spin
