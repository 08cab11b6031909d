// Per-layer host-time replays for the traced run. Each replay calls one
// layer's public functions on the inputs the workload's batch handled
// (its payloads, verified messages, datatypes and posted tags), under a
// span per call, and turns the span totals into layer metrics.

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_map>

#include "bench.hpp"
#include "dataloop/cache.hpp"
#include "dataloop/dataloop.hpp"
#include "dataloop/packer.hpp"
#include "ddt/pack.hpp"
#include "offload/runner.hpp"
#include "p4/match.hpp"
#include "sim/engine.hpp"
#include "sim/trace/blame.hpp"
#include "spin/compute.hpp"

namespace perfbench {

using namespace netddt;

namespace {

// Keeps replayed results observable so the optimizer cannot drop them.
volatile std::uint64_t g_sink = 0;

void keep(const std::vector<std::byte>& v) {
  if (!v.empty()) g_sink = g_sink + static_cast<std::uint64_t>(v[v.size() / 2]);
}

/// Receive-buffer geometry of one message, as run_receive lays it out:
/// negative-lb layouts are lifted by `shift` into the buffer.
struct Geometry {
  std::uint64_t shift = 0;
  std::uint64_t bytes = 0;
};

Geometry geometry(const ddt::Datatype& type, std::uint64_t count) {
  const std::int64_t lo = std::min({std::int64_t{0}, type.lb(), type.true_lb()});
  const std::int64_t hi = std::max({std::int64_t{0}, type.ub(), type.true_ub()});
  Geometry g;
  g.shift = static_cast<std::uint64_t>(-lo);
  g.bytes = g.shift + static_cast<std::uint64_t>(type.extent()) * (count - 1) +
            static_cast<std::uint64_t>(hi);
  return g;
}

/// Engine schedule/run cost with `depth` events pending: every callback
/// reschedules itself at a pseudo-random later time, so the queue stays
/// at `depth` while `events` callbacks run.
double engine_ns_per_event(std::uint64_t depth, std::uint64_t events,
                           Spans& spans, const char* name) {
  sim::Engine engine;
  std::uint64_t remaining = events;
  std::uint64_t state = 0x243F6A8885A308D3ull;
  struct Tick {
    sim::Engine* engine;
    std::uint64_t* remaining;
    std::uint64_t* state;
    void operator()() const {
      if (*remaining == 0) return;
      *remaining -= 1;
      *state = *state * 6364136223846793005ull + 1442695040888963407ull;
      engine->schedule(static_cast<sim::Time>(1 + (*state >> 44)), *this);
    }
  };
  for (std::uint64_t i = 0; i < depth; ++i) {
    engine.schedule(static_cast<sim::Time>(i), Tick{&engine, &remaining, &state});
  }
  const auto span = spans.scope(name);
  const auto t0 = Clock::now();
  engine.run();
  const double s = seconds_between(t0, Clock::now());
  return s * 1e9 / static_cast<double>(events + depth);
}

}  // namespace

void replay_layers(const ReplayInputs& in, Spans& spans, Layers& out) {
  const auto root = spans.scope("replay");

  // sim: the event queue at a shallow, the service's and a fabric-scale
  // pending depth.
  out["sim.engine_ns_per_event.d16"] =
      engine_ns_per_event(16, 1u << 21, spans, "sim.engine.d16");
  out["sim.engine_ns_per_event.d1024"] =
      engine_ns_per_event(1024, 1u << 21, spans, "sim.engine.d1024");
  out["sim.engine_ns_per_event.d16384"] =
      engine_ns_per_event(16384, 1u << 21, spans, "sim.engine.d16384");

  // offload: harness payload generation, once per message.
  {
    const auto phase = spans.scope("replay.pattern");
    for (const auto& p : in.patterns) {
      std::vector<std::byte> v;
      {
        const auto span = spans.scope("pattern");
        v = offload::packed_message_pattern(p.bytes, p.seed);
      }
      keep(v);
    }
    std::vector<std::byte> buf;
    for (const auto& t : in.typed) {
      buf.resize(t.bytes);
      {
        const auto span = spans.scope("pattern.typed");
        spin::fill_typed(buf.data(), t.bytes, in.elem, t.seed);
      }
      keep(buf);
    }
  }
  out["offload.pattern_s"] = spans.total_s("pattern") + spans.total_s("pattern.typed");

  // offload + ddt: reference verification, once per verified message.
  std::uint64_t unpacked_bytes = 0;
  std::uint64_t mismatches = 0;  // always 0: keeps the compares live
  {
    const auto phase = spans.scope("replay.verify");
    std::unordered_map<const ddt::Datatype*, std::vector<ddt::Region>> regions;
    for (const auto& u : in.unpacks) {
      const std::uint64_t bytes = u.type->size() * u.count;
      const auto packed = offload::packed_message_pattern(bytes, u.seed);
      const Geometry g = geometry(*u.type, u.count);
      auto& regs = regions[u.type.get()];
      if (regs.empty()) regs = u.type->flatten(u.count);
      std::vector<std::byte> ref(g.bytes, std::byte{0});
      {
        const auto span = spans.scope("verify.unpack");
        ddt::unpack(packed.data(), *u.type, u.count, ref.data() + g.shift);
      }
      // A passing receive holds exactly the reference bytes.
      const std::vector<std::byte> got = ref;
      {
        const auto span = spans.scope("verify.compare");
        for (const auto& r : regs) {
          const auto at = static_cast<std::int64_t>(g.shift) + r.offset;
          if (std::memcmp(got.data() + at, ref.data() + at, r.size) != 0) {
            ++mismatches;
            break;
          }
        }
      }
      unpacked_bytes += bytes;
    }
    std::vector<std::byte> contribution, ref, got;
    for (const auto& w : in.reduces) {
      contribution.resize(w.bytes);
      ref.resize(w.bytes);
      spin::fill_typed(contribution.data(), w.bytes, in.elem, w.seed);
      {
        const auto span = spans.scope("verify.init");
        spin::fill_typed(ref.data(), w.bytes, in.elem, ~w.seed);
      }
      for (std::uint32_t c = 0; c < w.contributions; ++c) {
        const auto span = spans.scope("verify.reduce");
        spin::apply_reduce(ref.data(), contribution.data(), w.bytes,
                           spin::ReduceOp::kSum, in.elem);
      }
      got = ref;
      {
        const auto span = spans.scope("verify.compare");
        if (std::memcmp(got.data(), ref.data(), w.bytes) != 0) ++mismatches;
      }
    }
  }
  out["offload.verify_s"] = spans.total_s("verify.unpack") +
                            spans.total_s("verify.compare") +
                            spans.total_s("verify.init") +
                            spans.total_s("verify.reduce");
  const double unpack_s = spans.total_s("verify.unpack");
  out["ddt.unpack_gbps"] =
      unpack_s > 0 ? static_cast<double>(unpacked_bytes) * 8.0 / unpack_s / 1e9 : 0.0;
  g_sink = g_sink + mismatches;

  // dataloop: cold compile per type, then Segment-interpreter unpack in
  // 2 KiB packet windows.
  constexpr int kCompileReps = 5;
  {
    const auto phase = spans.scope("replay.compile");
    for (const auto& t : in.types) {
      for (int rep = 0; rep < kCompileReps; ++rep) {
        const auto span = spans.scope("dataloop.compile");
        const dataloop::CompiledDataloop loops(t.type, t.count);
        g_sink = g_sink + loops.total_bytes();
      }
    }
  }
  out["dataloop.compile_us"] =
      in.types.empty() ? 0.0
                       : spans.total_s("dataloop.compile") * 1e6 /
                             static_cast<double>(in.types.size() * kCompileReps);

  constexpr std::uint64_t kWindow = 2048;
  constexpr std::uint64_t kSegmentBudget = 4ull << 20;  // bytes per type
  std::uint64_t segment_bytes = 0;
  {
    const auto phase = spans.scope("replay.segment");
    for (const auto& t : in.types) {
      const auto loops = dataloop::compile_cached(t.type, t.count);
      const std::uint64_t bytes = loops->total_bytes();
      if (bytes == 0) continue;
      const auto packed = offload::packed_message_pattern(bytes, 1);
      const Geometry g = geometry(*t.type, t.count);
      std::vector<std::byte> dest(g.bytes);
      const std::uint64_t reps = std::max<std::uint64_t>(1, kSegmentBudget / bytes);
      const auto span = spans.scope("dataloop.segment");
      for (std::uint64_t rep = 0; rep < reps; ++rep) {
        dataloop::Unpacker up(*loops, std::span<std::byte>(dest).subspan(g.shift));
        for (std::uint64_t at = 0; at < bytes; at += kWindow) {
          const std::uint64_t n = std::min(kWindow, bytes - at);
          up.unpack(std::span<const std::byte>(packed.data() + at, n));
        }
      }
      segment_bytes += reps * bytes;
      keep(dest);
    }
  }
  const double segment_s = spans.total_s("dataloop.segment");
  out["dataloop.segment_gbps"] =
      segment_s > 0 ? static_cast<double>(segment_bytes) * 8.0 / segment_s / 1e9 : 0.0;

  // p4: hashed matching with the workload's peak set of posted receives.
  constexpr std::uint64_t kMatches = 1u << 20;
  if (!in.match_bits.empty()) {
    auto engine = p4::make_match_engine(p4::MatchEngineKind::kHashed);
    for (std::size_t i = 0; i < in.match_bits.size(); ++i) {
      p4::MatchEntry e;
      e.id = i + 1;
      e.match_bits = in.match_bits[i];
      e.use_once = false;  // keep the posted depth constant
      engine->append(p4::ListKind::kPriority, e);
    }
    std::uint64_t state = 0x9E3779B97F4A7C15ull, hits = 0;
    const auto span = spans.scope("p4.match");
    for (std::uint64_t i = 0; i < kMatches; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const auto bits = in.match_bits[(state >> 33) % in.match_bits.size()];
      hits += engine->match(bits).has_value() ? 1 : 0;
    }
    g_sink = g_sink + hits;
  }
  out["p4.match_ns"] = spans.total_s("p4.match") * 1e9 / static_cast<double>(kMatches);
}

void blame_layers(const std::vector<sim::trace::BlameAttribution>& msgs,
                  Layers& out) {
  using sim::trace::BlameStage;
  constexpr BlameStage kStages[] = {
      BlameStage::kAdmission, BlameStage::kSenderQueue, BlameStage::kWire,
      BlameStage::kRetransmit, BlameStage::kInbound, BlameStage::kMatch,
      BlameStage::kHpuWait, BlameStage::kHpuExecute, BlameStage::kDmaQueue,
      BlameStage::kDmaTransfer};
  const auto cohorts = sim::trace::blame_cohorts(msgs, 99.9);
  for (const BlameStage s : kStages) {
    const std::string base =
        std::string("blame.") + sim::trace::blame_stage_name(s);
    const auto i = static_cast<std::size_t>(s);
    out[base + ".p50_share"] = cohorts.median_share[i];
    out[base + ".p999_share"] = cohorts.tail_share[i];
  }
}

}  // namespace perfbench
