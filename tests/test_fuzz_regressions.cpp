// Regression tests distilled from the differential fuzz campaign
// (tests/fuzz), plus deterministic coverage of the bug classes the
// campaign targets: zero-size datatypes, resized/negative-lb layouts,
// and segment catch-up at exact packet/block boundaries. Each fuzz
// repro is the shrinker's fixed point for its seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "dataloop/dataloop.hpp"
#include "dataloop/program.hpp"
#include "dataloop/segment.hpp"
#include "ddt/codec.hpp"
#include "ddt/datatype.hpp"
#include "ddt/pack.hpp"
#include "fuzz/ddt_gen.hpp"
#include "fuzz/oracle.hpp"
#include "sim/rng.hpp"
#include "offload/region_index.hpp"
#include "offload/runner.hpp"
#include "offload/sender.hpp"

namespace {

using netddt::ddt::Datatype;
using netddt::ddt::TypePtr;
using netddt::fuzz::FuzzCase;
using netddt::fuzz::NodeKind;
using netddt::fuzz::Spec;

// --- Zero-size datatypes (S1) ----------------------------------------

TEST(ZeroSize, ReceiveCompletesOnEveryStrategy) {
  const auto type = Datatype::vector(0, 1, 2, Datatype::int32());
  ASSERT_EQ(type->size(), 0u);
  for (const auto strategy :
       {netddt::offload::StrategyKind::kHostUnpack,
        netddt::offload::StrategyKind::kSpecialized,
        netddt::offload::StrategyKind::kHpuLocal,
        netddt::offload::StrategyKind::kRoCp,
        netddt::offload::StrategyKind::kRwCp,
        netddt::offload::StrategyKind::kIovec}) {
    netddt::offload::ReceiveConfig rc;
    rc.type = type;
    rc.count = 3;
    rc.strategy = strategy;
    rc.validate = true;
    const auto run = netddt::offload::run_receive(rc);
    EXPECT_TRUE(run.result.verified);
    EXPECT_EQ(run.result.message_bytes, 0u);
    EXPECT_EQ(run.result.packets, 1u);  // empty header+completion packet
  }
}

TEST(ZeroSize, SendCompletesOnEveryStrategy) {
  const auto type = Datatype::contiguous(0, Datatype::int64());
  for (const auto strategy :
       {netddt::offload::SendStrategy::kPackSend,
        netddt::offload::SendStrategy::kStreamingPut,
        netddt::offload::SendStrategy::kOutboundSpin}) {
    netddt::offload::SendConfig sc;
    sc.type = type;
    sc.count = 2;
    sc.strategy = strategy;
    const auto res = netddt::offload::run_send(sc);
    EXPECT_TRUE(res.verified);
    EXPECT_EQ(res.message_bytes, 0u);
  }
}

TEST(ZeroSize, StreamingPutEmitsTheEmptyPacket) {
  netddt::p4::StreamingPut sput(7, 0x55, 0);
  const auto out = sput.stream({}, /*end_of_message=*/true);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].first);
  EXPECT_TRUE(out[0].last);
  EXPECT_EQ(out[0].payload_bytes, 0u);
}

TEST(ZeroSize, CompiledDataloopIsBornFinished) {
  const auto type = Datatype::struct_type(
      std::vector<std::int64_t>{0}, std::vector<std::int64_t>{16},
      std::vector<TypePtr>{Datatype::int32()});
  netddt::dataloop::CompiledDataloop loops(type, 5);
  EXPECT_EQ(loops.total_bytes(), 0u);
  netddt::dataloop::Segment seg(loops);
  std::size_t regions = 0;
  seg.process(0, 0, [&](std::int64_t, std::uint64_t) { ++regions; });
  EXPECT_EQ(regions, 0u);
}

// --- Resized / negative lb (S2) --------------------------------------

TEST(ResizedNegativeLb, CodecRoundTripPreservesBounds) {
  // lb below true_lb (extent padding precedes the data) and negative.
  const auto inner = Datatype::vector(3, 1, 2, Datatype::int32());
  const auto type = Datatype::resized(inner, -8, 40);
  ASSERT_LT(type->lb(), 0);
  const auto decoded = netddt::ddt::decode(netddt::ddt::encode(type));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ((*decoded)->lb(), type->lb());
  EXPECT_EQ((*decoded)->ub(), type->ub());
  EXPECT_EQ((*decoded)->true_lb(), type->true_lb());
  EXPECT_EQ((*decoded)->true_ub(), type->true_ub());
  EXPECT_EQ((*decoded)->size(), type->size());
}

TEST(ResizedNegativeLb, ReceiveShiftsTheBuffer) {
  const auto inner = Datatype::vector(3, 1, 2, Datatype::int32());
  const auto type = Datatype::resized(inner, -8, 40);
  for (const auto strategy :
       {netddt::offload::StrategyKind::kSpecialized,
        netddt::offload::StrategyKind::kHpuLocal,
        netddt::offload::StrategyKind::kRoCp,
        netddt::offload::StrategyKind::kRwCp}) {
    netddt::offload::ReceiveConfig rc;
    rc.type = type;
    rc.count = 4;
    rc.strategy = strategy;
    rc.validate = true;
    rc.keep_buffer = true;
    const auto run = netddt::offload::run_receive(rc);
    EXPECT_TRUE(run.result.verified);
    EXPECT_EQ(run.buffer_shift, 8);
  }
}

TEST(ResizedNegativeLb, UnpackRoundTripThroughSegment) {
  // codec -> compile -> segment unpack == ddt::unpack, with true_lb != lb
  // and padding before the data.
  const auto inner = Datatype::hvector(2, 1, 24, Datatype::float64());
  const auto type = Datatype::resized(inner, -16, 56);
  const auto decoded = netddt::ddt::decode(netddt::ddt::encode(type));
  ASSERT_TRUE(decoded.has_value());

  const std::uint64_t count = 3;
  const std::uint64_t msg = type->size() * count;
  const auto packed = netddt::offload::packed_message_pattern(msg, 9);

  const std::int64_t shift = -std::min<std::int64_t>(
      {0, type->lb(), type->true_lb()});
  const std::size_t bytes = static_cast<std::size_t>(
      shift + type->extent() * static_cast<std::int64_t>(count - 1) +
      std::max(type->ub(), type->true_ub()));

  std::vector<std::byte> want(bytes, std::byte{0});
  netddt::ddt::unpack(packed.data(), *type, count, want.data() + shift);

  std::vector<std::byte> got(bytes, std::byte{0});
  netddt::dataloop::CompiledDataloop loops(*decoded, count);
  ASSERT_EQ(loops.total_bytes(), msg);
  netddt::dataloop::Segment seg(loops);
  std::uint64_t stream = 0;
  seg.process(0, msg, [&](std::int64_t off, std::uint64_t sz) {
    std::memcpy(got.data() + shift + off, packed.data() + stream, sz);
    stream += sz;
  });
  EXPECT_EQ(stream, msg);
  EXPECT_EQ(want, got);
}

// --- Segment catch-up at exact boundaries (S3) ------------------------

using RegionList = std::vector<std::pair<std::int64_t, std::uint64_t>>;

RegionList collect(netddt::dataloop::Segment& seg, std::uint64_t first,
                   std::uint64_t last) {
  RegionList out;
  seg.process(first, last, [&](std::int64_t off, std::uint64_t sz) {
    out.emplace_back(off, sz);
  });
  return out;
}

TEST(SegmentBoundaries, WindowEndingExactlyAtMessageEnd) {
  const auto type = Datatype::vector(8, 2, 3, Datatype::int32());
  netddt::dataloop::CompiledDataloop loops(type, 2);
  const std::uint64_t total = loops.total_bytes();

  netddt::dataloop::Segment ref(loops);
  const RegionList expect = collect(ref, 0, total);

  // Deliver the tail window first (pure catch-up to an interior offset),
  // then a retransmitted range ending exactly at total_bytes_, then the
  // head. The union must equal the in-order walk.
  netddt::dataloop::Segment seg(loops);
  RegionList got = collect(seg, total - 8, total);
  RegionList again = collect(seg, total - 8, total);  // exact-tail replay
  EXPECT_EQ(got, again);
  const RegionList head = collect(seg, 0, total - 8);
  got.insert(got.end(), head.begin(), head.end());

  auto sorted = [](RegionList v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(expect), sorted(got));
}

TEST(SegmentBoundaries, WindowEndingExactlyAtBlockBoundary) {
  // Packet boundaries that coincide with dataloop block boundaries: the
  // catch-up fast path must stop exactly on the edge, not skip past it.
  const auto type = Datatype::vector(6, 1, 2, Datatype::int64());  // 8B blocks
  netddt::dataloop::CompiledDataloop loops(type, 1);
  const std::uint64_t total = loops.total_bytes();
  ASSERT_EQ(total, 48u);

  netddt::dataloop::Segment ref(loops);
  const RegionList expect = collect(ref, 0, total);

  netddt::dataloop::Segment seg(loops);
  RegionList got;
  // 8-byte windows land every packet edge exactly on a block edge.
  for (std::uint64_t at = 0; at < total; at += 8) {
    const RegionList part = collect(seg, at, at + 8);
    got.insert(got.end(), part.begin(), part.end());
  }
  EXPECT_EQ(expect, got);

  // Indexed leaf: same exact-boundary windows through the upper_bound
  // catch-up path (process backwards to force reset + catch-up).
  const std::vector<std::int64_t> bls = {2, 1, 3};
  const std::vector<std::int64_t> displs = {0, 4, 7};
  const auto itype = Datatype::indexed(bls, displs, Datatype::int32());
  netddt::dataloop::CompiledDataloop iloops(itype, 1);
  const std::uint64_t itotal = iloops.total_bytes();
  ASSERT_EQ(itotal, 24u);
  netddt::dataloop::Segment iref(iloops);
  const RegionList iexpect = collect(iref, 0, itotal);
  netddt::dataloop::Segment iseg(iloops);
  RegionList igot;
  // Block byte boundaries are at 8 and 12: windows end exactly there.
  for (const auto [first, last] :
       std::vector<std::pair<std::uint64_t, std::uint64_t>>{
           {12, 24}, {8, 12}, {0, 8}}) {
    const RegionList part = collect(iseg, first, last);
    igot.insert(igot.end(), part.begin(), part.end());
  }
  auto sorted = [](RegionList v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(iexpect), sorted(igot));
}

// --- Shrinker ---------------------------------------------------------

TEST(Shrinker, ReachesAFixedPoint) {
  // Predicate: the tree contains a vector node with count >= 2. The
  // shrinker must minimize to (nearly) the smallest such case and then
  // stop: a second shrink pass may not change anything.
  const auto has_big_vector = [](const FuzzCase& fc) {
    const std::function<bool(const Spec&)> walk = [&](const Spec& s) {
      if (s.kind == NodeKind::kVector && s.count >= 2) return true;
      return std::any_of(s.children.begin(), s.children.end(), walk);
    };
    return walk(fc.spec);
  };

  // Find seeds whose generated case satisfies the predicate.
  int checked = 0;
  for (std::uint64_t seed = 0; seed < 400 && checked < 5; ++seed) {
    FuzzCase fc = netddt::fuzz::generate(seed);
    if (!has_big_vector(fc)) continue;
    ++checked;
    const FuzzCase small = netddt::fuzz::shrink(fc, has_big_vector);
    EXPECT_TRUE(has_big_vector(small));
    EXPECT_LE(netddt::fuzz::measure(small), netddt::fuzz::measure(fc));
    // Fixed point: shrinking the minimum changes nothing.
    const FuzzCase again = netddt::fuzz::shrink(small, has_big_vector);
    EXPECT_EQ(netddt::fuzz::measure(again), netddt::fuzz::measure(small));
    EXPECT_EQ(netddt::fuzz::to_string(again),
              netddt::fuzz::to_string(small));
    // The minimal witness is tiny: vector(count=2, bl<=1) over a 1-byte
    // elem, nothing else.
    EXPECT_LE(netddt::fuzz::measure(small), 12u);
  }
  EXPECT_GE(checked, 3) << "generator never produced a vector node";
}

TEST(Shrinker, GeneratorIsDeterministic) {
  for (std::uint64_t seed : {0ull, 7ull, 123ull}) {
    const FuzzCase a = netddt::fuzz::generate(seed);
    const FuzzCase b = netddt::fuzz::generate(seed);
    EXPECT_EQ(netddt::fuzz::to_string(a), netddt::fuzz::to_string(b));
  }
}

// --- Region-list index (offload/region_index.hpp) ---------------------

// The region walk of Specialized's region-list mode, the compute, iovec
// and outbound gather handlers emits, on fuzz types and random windows,
// exactly what a brute-force scan of flatten() finds; a resume over the
// region list or the op array costs ceil(log2(entries)) x 8 ns. (The
// oracle checks the bytes the program walk moves.)
TEST(RegionIndex, WalkMatchesBruteForceOnFuzzTypes) {
  using netddt::offload::RegionIndex;
  using netddt::offload::ResumeTable;
  using Piece = std::tuple<std::size_t, std::int64_t, std::uint64_t,
                           std::uint64_t>;
  const auto resume_formula = [](std::size_t entries) {
    return static_cast<netddt::sim::Time>(
               std::ceil(std::log2(static_cast<double>(entries)))) *
           netddt::sim::ns(8);
  };
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const FuzzCase fc = netddt::fuzz::generate(seed);
    const TypePtr type = netddt::fuzz::build(fc.spec);
    const auto regions = type->flatten(fc.count);
    const ResumeTable list(RegionIndex(regions), nullptr);
    const RegionIndex& index = list.regions();
    const std::uint64_t total = index.total_bytes();
    ASSERT_EQ(total, type->size() * fc.count) << seed;
    EXPECT_EQ(list.resume_charge(), resume_formula(regions.size() + 1));

    netddt::sim::Rng rng(seed);
    for (int w = 0; w < 16; ++w) {
      const std::uint64_t first = rng.below(total + 1);
      const std::uint64_t last = first + rng.below(total - first + 1);
      std::vector<Piece> walked, brute;
      index.walk(first, last, [&](auto... piece) {
        walked.emplace_back(piece...);
      });
      std::uint64_t at = 0;
      for (std::size_t i = 0; i < regions.size(); at += regions[i++].size) {
        const std::uint64_t lo = std::max(first, at);
        const std::uint64_t hi = std::min(last, at + regions[i].size);
        const std::int64_t host =
            regions[i].offset + static_cast<std::int64_t>(lo - at);
        if (lo < hi) brute.emplace_back(i, host, lo, hi - lo);
      }
      ASSERT_EQ(walked, brute)
          << "seed " << seed << " window [" << first << ", " << last << ")";
    }

    const netddt::dataloop::CompiledDataloop loops(type, fc.count);
    const auto program = netddt::dataloop::compile_program(loops);
    if (program == nullptr) continue;
    const ResumeTable fused(RegionIndex{}, program);
    EXPECT_EQ(fused.resume_charge(),
              resume_formula(program->ops().size() + 1));
  }
}

// --- Oracle sanity on handpicked corner cases -------------------------

TEST(Oracle, PassesOnCornerCases) {
  // Zero-size, negative lb, zero-extent elem tiling, lossy empty put.
  std::vector<FuzzCase> cases;
  {
    FuzzCase fc;  // zero-size vector, lossless
    fc.seed = 1001;
    fc.spec.kind = NodeKind::kVector;
    fc.spec.count = 0;
    fc.spec.children.push_back(Spec{});
    cases.push_back(fc);
  }
  {
    FuzzCase fc;  // negative lb via resized, lossy
    fc.seed = 1002;
    fc.spec.kind = NodeKind::kVector;
    fc.spec.count = 3;
    fc.spec.blocklen = 1;
    fc.spec.gap = 1;
    fc.spec.children.push_back(Spec{});
    fc.spec.resized = true;
    fc.spec.lb_pad = 9;  // > true_lb: lb goes negative
    fc.spec.extent_pad = 3;
    fc.lossy = true;
    fc.drop_rate = 0.2;
    fc.dup_rate = 0.1;
    fc.reorder_rate = 0.2;
    fc.reorder_window = 3;
    fc.pkt_payload = 13;
    cases.push_back(fc);
  }
  {
    FuzzCase fc;  // empty struct: zero size, nonzero placement
    fc.seed = 1003;
    fc.spec.kind = NodeKind::kStruct;
    fc.spec.blocklens = {0};
    fc.spec.gaps = {8};
    fc.spec.order = {0};
    fc.spec.children.push_back(Spec{});
    cases.push_back(fc);
  }
  for (const FuzzCase& fc : cases) {
    const auto outcome = netddt::fuzz::run_oracle(fc);
    EXPECT_TRUE(outcome.ok) << netddt::fuzz::to_string(fc) << ": "
                            << outcome.detail;
  }
}

}  // namespace
