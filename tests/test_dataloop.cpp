// Tests for the dataloop compiler and the segment (partial-progress)
// engine: streamed region emission must agree with the reference
// flatten/unpack for every window split, including catch-up and reset.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "dataloop/cache.hpp"
#include "dataloop/dataloop.hpp"
#include "dataloop/segment.hpp"
#include "ddt/pack.hpp"
#include "sim/rng.hpp"

namespace netddt::dataloop {
namespace {

using ddt::Datatype;
using ddt::Region;
using ddt::TypePtr;

std::vector<Region> collect(Segment& seg, std::uint64_t first,
                            std::uint64_t last, ProcessStats* stats_out =
                                                    nullptr) {
  std::vector<Region> out;
  const auto stats = seg.process(first, last, [&](std::int64_t off,
                                                  std::uint64_t sz) {
    out.push_back(Region{off, sz});
  });
  if (stats_out != nullptr) *stats_out = stats;
  return out;
}

/// Process the whole stream through `seg` in the given windows and check
/// the merged region list equals the reference flatten.
void check_against_flatten(const TypePtr& type, std::uint64_t count,
                           const std::vector<std::uint64_t>& cuts) {
  CompiledDataloop loops(type, count);
  Segment seg(loops);
  const std::uint64_t total = loops.total_bytes();

  std::vector<Region> merged;
  std::uint64_t prev = 0;
  for (std::uint64_t cut : cuts) {
    auto part = collect(seg, prev, cut);
    merged.insert(merged.end(), part.begin(), part.end());
    prev = cut;
  }
  auto tail = collect(seg, prev, total);
  merged.insert(merged.end(), tail.begin(), tail.end());
  ddt::merge_adjacent(merged);

  EXPECT_EQ(merged, type->flatten(count)) << type->to_string();
  EXPECT_TRUE(seg.finished());
}

TypePtr milc_like() {
  // vector(vector): the MILC kernel shape.
  auto inner = Datatype::vector(3, 2, 4, Datatype::float64());
  return Datatype::hvector(4, 1, 1024, inner);
}

TypePtr wrf_like() {
  // struct of two subarrays (WRF halo shape).
  const std::vector<std::int64_t> sizes{8, 8};
  const std::vector<std::int64_t> sub{3, 4};
  const std::vector<std::int64_t> st1{0, 2}, st2{5, 1};
  auto a = Datatype::subarray(sizes, sub, st1, Datatype::float32());
  auto b = Datatype::subarray(sizes, sub, st2, Datatype::float32());
  const std::vector<std::int64_t> blocklens{1, 1};
  const std::vector<std::int64_t> displs{0, 256};
  const std::vector<TypePtr> types{a, b};
  return Datatype::struct_type(blocklens, displs, types);
}

TypePtr indexed_like() {
  const std::vector<std::int64_t> blocklens{3, 1, 4, 2};
  const std::vector<std::int64_t> displs{0, 7, 12, 30};
  return Datatype::indexed(blocklens, displs, Datatype::int32());
}

TEST(Compile, DenseTypeBecomesSingleContigLeaf) {
  CompiledDataloop loops(Datatype::contiguous(64, Datatype::float64()));
  EXPECT_TRUE(loops.root().leaf);
  EXPECT_EQ(loops.root().kind, LoopKind::kContig);
  EXPECT_EQ(loops.root().block_bytes, 512u);
  EXPECT_EQ(loops.depth(), 1u);
}

TEST(Compile, VectorOfElementaryIsVectorLeaf) {
  CompiledDataloop loops(Datatype::vector(16, 2, 5, Datatype::float64()));
  const Dataloop& root = loops.root();
  EXPECT_TRUE(root.leaf);
  EXPECT_EQ(root.kind, LoopKind::kVector);
  EXPECT_EQ(root.block_bytes, 16u);
  EXPECT_EQ(root.stride, 40);
  EXPECT_EQ(root.count, 16);
}

TEST(Compile, NestedVectorKeepsChild) {
  CompiledDataloop loops(milc_like());
  EXPECT_FALSE(loops.root().leaf);
  ASSERT_NE(loops.root().child, nullptr);
  EXPECT_TRUE(loops.root().child->leaf);
  EXPECT_EQ(loops.depth(), 2u);
}

TEST(Compile, IndexedLeafBuildsStreamPrefix) {
  CompiledDataloop loops(indexed_like());
  const Dataloop& root = loops.root();
  ASSERT_TRUE(root.leaf);
  ASSERT_EQ(root.kind, LoopKind::kIndexed);
  const std::vector<std::uint64_t> want{0, 12, 16, 32, 40};
  EXPECT_EQ(root.stream_prefix, want);
}

TEST(Compile, IndexedPrunesZeroBlocks) {
  const std::vector<std::int64_t> blocklens{2, 0, 3};
  const std::vector<std::int64_t> displs{0, 4, 8};
  auto t = Datatype::indexed(blocklens, displs, Datatype::int32());
  CompiledDataloop loops(t);
  EXPECT_EQ(loops.root().displs.size(), 2u);
  check_against_flatten(t, 1, {});
}

TEST(Compile, SerializedBytesGrowWithDescription) {
  CompiledDataloop vec(Datatype::vector(128, 1, 2, Datatype::float64()));
  CompiledDataloop idx(indexed_like());
  EXPECT_GT(vec.serialized_bytes(), 0u);
  // The indexed description carries per-block lists.
  EXPECT_GT(idx.serialized_bytes(), vec.serialized_bytes());
}

TEST(Segment, FullStreamMatchesFlatten) {
  check_against_flatten(milc_like(), 1, {});
  check_against_flatten(wrf_like(), 1, {});
  check_against_flatten(indexed_like(), 2, {});
}

TEST(Segment, PacketWindowsMatchFlatten) {
  auto t = milc_like();
  const std::uint64_t total = t->size();
  std::vector<std::uint64_t> cuts;
  for (std::uint64_t c = 16; c < total; c += 16) cuts.push_back(c);
  check_against_flatten(t, 1, cuts);
}

TEST(Segment, UnevenWindows) {
  check_against_flatten(wrf_like(), 2, {1, 2, 3, 50, 51, 100});
}

TEST(Segment, CatchUpSkipsWithoutEmitting) {
  auto t = Datatype::vector(64, 1, 2, Datatype::float64());
  CompiledDataloop loops(t);
  Segment seg(loops);
  ProcessStats stats;
  auto regions = collect(seg, 256, 264, &stats);
  ASSERT_EQ(regions.size(), 1u);
  // Stream byte 256 = block 32, buffer offset 32*16.
  EXPECT_EQ(regions[0], (Region{512, 8}));
  EXPECT_EQ(stats.catchup_bytes, 256u);
  EXPECT_FALSE(stats.reset);
}

TEST(Segment, BackwardWindowResets) {
  auto t = Datatype::vector(64, 1, 2, Datatype::float64());
  CompiledDataloop loops(t);
  Segment seg(loops);
  collect(seg, 256, 264);
  ProcessStats stats;
  auto regions = collect(seg, 0, 8, &stats);
  EXPECT_TRUE(stats.reset);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0], (Region{0, 8}));
}

TEST(Segment, OutOfOrderCoverageComplete) {
  auto t = indexed_like();
  CompiledDataloop loops(t, 4);
  Segment seg(loops);
  const std::uint64_t total = loops.total_bytes();
  const std::uint64_t half = total / 2;

  auto second = collect(seg, half, total);
  auto first = collect(seg, 0, half);  // forces a reset
  std::vector<Region> merged = std::move(first);
  merged.insert(merged.end(), second.begin(), second.end());
  ddt::merge_adjacent(merged);
  EXPECT_EQ(merged, t->flatten(4));
}

TEST(Segment, ScatterEqualsReferenceUnpack) {
  auto t = wrf_like();
  CompiledDataloop loops(t, 2);
  Segment seg(loops);
  const std::uint64_t total = loops.total_bytes();

  std::vector<std::byte> packed(total);
  for (std::size_t i = 0; i < packed.size(); ++i) {
    packed[i] = static_cast<std::byte>(i * 37 + 11);
  }
  const std::size_t buf_size =
      static_cast<std::size_t>(t->extent()) * 2 + 64;
  std::vector<std::byte> via_segment(buf_size, std::byte{0});
  std::vector<std::byte> via_reference(buf_size, std::byte{0});

  // Scatter in 32-byte packets through the segment.
  std::uint64_t pos = 0;
  while (pos < total) {
    const std::uint64_t end = std::min<std::uint64_t>(pos + 32, total);
    std::uint64_t stream = pos;
    seg.process(pos, end, [&](std::int64_t off, std::uint64_t sz) {
      std::memcpy(via_segment.data() + off, packed.data() + stream, sz);
      stream += sz;
    });
    pos = end;
  }
  ddt::unpack(packed.data(), *t, 2, via_reference.data());
  EXPECT_EQ(via_segment, via_reference);
}

// Kinds of the leaf loops reachable from `loop`.
void leaf_kinds(const Dataloop& loop, std::vector<LoopKind>& out) {
  if (loop.leaf) {
    out.push_back(loop.kind);
  } else if (loop.kind == LoopKind::kStruct) {
    for (const StructMember& m : loop.members) leaf_kinds(*m.child, out);
  } else {
    leaf_kinds(*loop.child, out);
  }
}

// Catch-up skips whole vector and blockindexed blocks arithmetically. A
// walk in one-byte steps never covers a whole block (every block here
// is at least 4 bytes), so it goes through the per-block path. At every
// stream position both must report the same catch-up and leave cursors
// that emit the same regions from there on.
TEST(Segment, UniformLeafCatchUpMatchesBlockWalk) {
  const std::vector<std::int64_t> displs{0, 5, 3, 12};  // out of order
  const std::vector<std::int64_t> hdispls{0, 40, 24, 100};
  const auto vec = Datatype::vector(5, 2, 3, Datatype::int32());
  const auto bidx = Datatype::indexed_block(2, displs, Datatype::int32());
  const auto hbidx = Datatype::hindexed_block(1, hdispls, Datatype::float64());
  const std::vector<std::int64_t> blocklens{1, 2, 1};
  const std::vector<std::int64_t> sdispls{0, 200, 600};
  const std::vector<TypePtr> members{bidx, vec, hbidx};
  struct Case {
    TypePtr type;
    std::uint64_t count;
    LoopKind leaf;
  };
  const Case cases[] = {
      {vec, 3, LoopKind::kVector},
      {bidx, 3, LoopKind::kBlockIndexed},
      {hbidx, 2, LoopKind::kBlockIndexed},
      {Datatype::hvector(3, 1, 512, bidx), 2, LoopKind::kBlockIndexed},
      {Datatype::hvector(2, 2, 1024, vec), 2, LoopKind::kVector},
      {Datatype::struct_type(blocklens, sdispls, members), 2,
       LoopKind::kBlockIndexed},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.type->to_string());
    CompiledDataloop loops(c.type, c.count);
    std::vector<LoopKind> kinds;
    leaf_kinds(loops.root(), kinds);
    ASSERT_NE(std::find(kinds.begin(), kinds.end(), c.leaf), kinds.end());
    const std::uint64_t total = loops.total_bytes();

    Segment stepped(loops);  // one byte at a time: per-block path
    ProcessStats walked;
    for (std::uint64_t p = 0; p <= total; ++p) {
      if (p > 0) {
        const ProcessStats step = stepped.advance_to(p);
        walked.catchup_bytes += step.catchup_bytes;
        walked.catchup_blocks += step.catchup_blocks;
      }
      Segment skipped(loops);
      const ProcessStats got = skipped.advance_to(p);
      ASSERT_EQ(got.catchup_bytes, walked.catchup_bytes) << "at " << p;
      ASSERT_EQ(got.catchup_blocks, walked.catchup_blocks) << "at " << p;
      EXPECT_EQ(got.regions_emitted, 0u);
      EXPECT_FALSE(got.reset);
      ASSERT_EQ(skipped.position(), p);

      // From p on, the cursor emits the tail of a fresh walk: the
      // regions of process(0, q) past stream byte p, first one clipped.
      for (const std::uint64_t q : {std::min(p + 5, total), total}) {
        Segment fresh(loops);
        std::vector<Region> tail;
        std::uint64_t at = 0;
        for (Region r : collect(fresh, 0, q)) {
          if (at + r.size > p) {
            const std::uint64_t cut = at < p ? p - at : 0;
            tail.push_back(Region{r.offset + static_cast<std::int64_t>(cut),
                                  r.size - cut});
          }
          at += r.size;
        }
        Segment from_skip = skipped;
        Segment from_walk = stepped;
        ASSERT_EQ(collect(from_skip, p, q), tail) << "at " << p << ", " << q;
        ASSERT_EQ(collect(from_walk, p, q), tail) << "at " << p << ", " << q;
      }
    }
    EXPECT_TRUE(stepped.finished());
    EXPECT_EQ(walked.catchup_bytes, total);
  }
}

TEST(Checkpoint, CopiedSegmentsDiverge) {
  auto t = milc_like();
  CompiledDataloop loops(t, 2);
  Segment a(loops);
  a.advance_to(64);
  Segment b = a;  // checkpoint
  auto ra = collect(a, 64, 96);
  auto rb = collect(b, 64, 96);
  EXPECT_EQ(ra, rb);
  // Further use of one does not disturb the other.
  collect(a, 96, 128);
  EXPECT_EQ(b.position(), 96u);
}

TEST(Checkpoint, TableSnapshotsAtInterval) {
  auto t = Datatype::vector(256, 1, 2, Datatype::float64());
  CompiledDataloop loops(t);
  CheckpointTable table(loops, 512);
  EXPECT_EQ(table.size(), (loops.total_bytes() + 511) / 512);
  EXPECT_EQ(table.at(0).stream_pos, 0u);
  EXPECT_EQ(table.at(1).stream_pos, 512u);
  EXPECT_EQ(table.footprint_bytes(),
            table.size() * Segment::kFootprintBytes);
}

TEST(Checkpoint, ClosestSelectsNotAfter) {
  auto t = Datatype::vector(256, 1, 2, Datatype::float64());
  CompiledDataloop loops(t);
  CheckpointTable table(loops, 512);
  EXPECT_EQ(table.closest(0).stream_pos, 0u);
  EXPECT_EQ(table.closest(511).stream_pos, 0u);
  EXPECT_EQ(table.closest(512).stream_pos, 512u);
  EXPECT_EQ(table.closest(1300).stream_pos, 1024u);
}

TEST(Checkpoint, ResumeFromCheckpointMatchesDirect) {
  auto t = wrf_like();
  CompiledDataloop loops(t, 3);
  CheckpointTable table(loops, 64);
  const std::uint64_t total = loops.total_bytes();

  for (std::uint64_t first = 0; first + 16 <= total; first += 48) {
    Segment direct(loops);
    auto want = collect(direct, first, first + 16);

    Segment from_cp = table.closest(first).state;  // local copy (RO-CP)
    auto got = collect(from_cp, first, first + 16);
    EXPECT_EQ(got, want) << "window at " << first;
  }
}

TEST(Checkpoint, FootprintMatchesPaperSegmentSize) {
  // The paper reports 612 B per checkpoint (Sec 3.2.4).
  EXPECT_EQ(Segment::kFootprintBytes, 612u);
}

// Property sweep: random nested types, random window partitions, random
// count — segment output must always equal the reference flatten.
class SegmentProperty : public ::testing::TestWithParam<int> {};

TypePtr random_type(sim::Rng& rng, int depth) {
  if (depth == 0) {
    return rng.chance(0.5) ? Datatype::int32() : Datatype::float64();
  }
  auto base = random_type(rng, depth - 1);
  switch (rng.below(5)) {
    case 0:
      return Datatype::contiguous(rng.range(1, 4), base);
    case 1: {
      const auto bl = rng.range(1, 3);
      return Datatype::vector(rng.range(1, 5), bl, rng.range(bl, bl + 3),
                              base);
    }
    case 2: {
      std::vector<std::int64_t> displs;
      std::int64_t at = 0;
      const auto n = rng.range(1, 4);
      for (std::int64_t i = 0; i < n; ++i) {
        displs.push_back(at);
        at += rng.range(1, 4);
      }
      return Datatype::indexed_block(rng.range(1, 2), displs, base);
    }
    case 3: {
      std::vector<std::int64_t> blocklens, displs;
      std::int64_t at = 0;
      const auto n = rng.range(1, 4);
      for (std::int64_t i = 0; i < n; ++i) {
        const auto bl = rng.range(0, 2);  // may include zero blocks
        blocklens.push_back(bl);
        displs.push_back(at);
        at += bl + rng.range(1, 3);
      }
      // Ensure non-empty type.
      blocklens[0] = std::max<std::int64_t>(blocklens[0], 1);
      return Datatype::indexed(blocklens, displs, base);
    }
    default: {
      std::vector<std::int64_t> blocklens{1, rng.range(1, 3)};
      const std::int64_t gap = base->extent() * 4 + rng.range(0, 16);
      std::vector<std::int64_t> displs{0, gap};
      std::vector<TypePtr> types{base, random_type(rng, depth - 1)};
      return Datatype::struct_type(blocklens, displs, types);
    }
  }
}

TEST_P(SegmentProperty, WindowedProcessingMatchesFlatten) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  auto t = random_type(rng, 3);
  const std::uint64_t count = 1 + rng.below(3);
  const std::uint64_t total = t->size() * count;
  std::vector<std::uint64_t> cuts;
  std::uint64_t at = 0;
  while (true) {
    at += 1 + rng.below(std::max<std::uint64_t>(total / 4, 2));
    if (at >= total) break;
    cuts.push_back(at);
  }
  check_against_flatten(t, count, cuts);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SegmentProperty, ::testing::Range(0, 40));

TEST(DataloopCache, StructurallyEqualTypesShareOneEntry) {
  dataloop_cache_clear();
  // Built independently, structurally identical.
  auto a = Datatype::hvector(8, 4, 16, Datatype::int32());
  auto b = Datatype::hvector(8, 4, 16, Datatype::int32());
  EXPECT_EQ(type_signature_string(*a), type_signature_string(*b));

  auto ca = compile_cached(a, 2);
  auto cb = compile_cached(b, 2);
  EXPECT_EQ(ca.get(), cb.get());  // shared compiled loop
  const auto stats = dataloop_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(ca->total_bytes(), a->size() * 2);
}

TEST(DataloopCache, StructurallyDifferentTypesDiffer) {
  // Same element count and size, different stride: signatures must not
  // collapse (to_string-style summaries would).
  auto a = Datatype::hvector(8, 4, 16, Datatype::int8());
  auto b = Datatype::hvector(8, 4, 20, Datatype::int8());
  EXPECT_NE(type_signature_string(*a), type_signature_string(*b));

  dataloop_cache_clear();
  auto ca = compile_cached(a);
  auto cb = compile_cached(b);
  EXPECT_NE(ca.get(), cb.get());
  // Same tree, different repetition count: also distinct entries.
  auto ca2 = compile_cached(a, 4);
  EXPECT_NE(ca.get(), ca2.get());
  EXPECT_EQ(dataloop_cache_stats().entries, 3u);
}

TEST(DataloopCache, ClearDropsEntriesButKeepsSharedLoopsAlive) {
  dataloop_cache_clear();
  auto t = Datatype::contiguous(4, Datatype::float64());
  auto kept = compile_cached(t);
  dataloop_cache_clear();
  const auto stats = dataloop_cache_stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  // The shared_ptr keeps the compiled loop valid past the clear.
  EXPECT_EQ(kept->total_bytes(), t->size());
  // Recompiling after a clear is a fresh miss.
  auto again = compile_cached(t);
  EXPECT_EQ(dataloop_cache_stats().misses, 1u);
  EXPECT_NE(again.get(), kept.get());
}

TEST(DataloopCache, CachedLoopMatchesFreshCompile) {
  const std::vector<std::int64_t> blocklens{2, 1, 3};
  const std::vector<std::int64_t> displs{0, 5, 9};
  auto t = Datatype::indexed(blocklens, displs, Datatype::int8());
  auto cached = compile_cached(t, 3);
  CompiledDataloop fresh(t, 3);
  // Identical region stream from both.
  Segment a(*cached), b(fresh);
  const auto ra = collect(a, 0, cached->total_bytes());
  const auto rb = collect(b, 0, fresh.total_bytes());
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].offset, rb[i].offset);
    EXPECT_EQ(ra[i].size, rb[i].size);
  }
}

}  // namespace
}  // namespace netddt::dataloop
