#pragma once
// Compiled-dataloop memoization cache.
//
// Sweeps recompile the same datatype layouts over and over: a Fig 8
// block-size sweep compiles one vector layout per (block, strategy)
// point, and the general strategies additionally compile a probe loop
// before the plan's own. CompiledDataloop is immutable after
// construction, so identical (type tree, count) pairs can share one
// compiled loop. compile_cached() keys a process-wide table by a
// canonical signature of the full datatype tree — every structural
// field (kind, counts, strides, displacements, bounds, children,
// elementary sizes), not the lossy to_string() form — so two
// structurally identical trees hit the same entry even when built
// through different constructors or shared subtrees.
//
// The table is bounded: long fuzz/sweep campaigns generate unbounded
// distinct layouts, so entries past the capacity are evicted in strict
// least-recently-used order (deterministic for a deterministic access
// sequence). Each entry can also carry the datatype's compiled
// FlatProgram (see program.hpp); plan_cached() memoizes program
// compilation alongside the dataloop so the flat executor pays
// lowering cost once per layout, not once per message.
//
// Thread safety: the table is mutex-guarded, so parallel sweep points
// (bench/lib/parallel.hpp) can share it. Cache hit/miss/eviction
// totals are process-global and therefore order-dependent under
// parallel sweeps; they are exposed only through
// dataloop_cache_stats(), never through per-run MetricsRegistry
// snapshots, to keep run reports deterministic.

#include <cstdint>
#include <memory>
#include <string>

#include "dataloop/dataloop.hpp"
#include "dataloop/program.hpp"
#include "ddt/datatype.hpp"

namespace netddt::dataloop {

struct DataloopCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t entries = 0;
  std::uint64_t entries_evicted = 0;
  std::uint64_t capacity = 0;  // 0 = unbounded
};

/// Canonical structural signature of a datatype tree (the cache key,
/// minus the repetition count). Two types with equal signatures compile
/// to interchangeable dataloops.
std::string type_signature_string(const ddt::Datatype& type);

/// Compile `count` instances of `type`, memoized: structurally identical
/// (type, count) pairs return the same shared CompiledDataloop.
std::shared_ptr<const CompiledDataloop> compile_cached(
    const ddt::TypePtr& type, std::uint64_t count = 1);

/// A cached layout with both executable forms: the dataloop tree the
/// Segment interpreter walks, and (when within ProgramLimits) its
/// compiled flat program. `program` is null for layouts whose program
/// would blow the op/table caps — callers fall back to the interpreter.
struct CompiledPlan {
  std::shared_ptr<const CompiledDataloop> loops;
  std::shared_ptr<const FlatProgram> program;
};

/// compile_cached() plus memoized program lowering: the first call per
/// (type, count) compiles the flat program and parks it on the cache
/// entry; later calls share it.
CompiledPlan plan_cached(const ddt::TypePtr& type, std::uint64_t count = 1);

/// Process-wide hit/miss/entry/eviction totals since start (or the
/// last clear).
DataloopCacheStats dataloop_cache_stats();

/// Default entry cap (kDefaultCacheCapacity) restored by
/// dataloop_cache_clear().
inline constexpr std::uint64_t kDefaultCacheCapacity = 4096;

/// Set the entry cap (0 = unbounded); shrinking evicts LRU entries
/// immediately. Returns the previous capacity.
std::uint64_t dataloop_cache_set_capacity(std::uint64_t capacity);

/// Drop all entries and reset the stats and capacity (tests).
void dataloop_cache_clear();

}  // namespace netddt::dataloop
