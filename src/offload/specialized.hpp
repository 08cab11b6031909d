#pragma once
// Datatype-specialized payload handlers (paper Sec 3.2.3).
//
// A type qualifies for a closed-form handler when (after normalization)
// it compiles to a single leaf dataloop — vector, indexed-block or
// indexed over a gap-free base — which is exactly the paper's "elementary
// or contiguous-of-elementary base type" condition. The handler then
// computes destination offsets directly from the packet's stream offset:
// a division for vector/indexed-block, a binary search over the block-
// size prefix sums for indexed. No inter-packet state exists, so any HPU
// can process any packet with no catch-up and no checkpoints.
//
// For nested types with no closed form, the plan falls back to a
// *region-list* handler: the host flattens the type into (offset, size)
// lists stored in NIC memory and the handler binary-searches them — the
// paper's hand-written handlers for index/struct types work exactly this
// way ("a modified binary search on these lists that have size linear in
// the number of non-contiguous regions", Sec 3.2.3), trading NIC memory
// linear in the region count for stateless O(gamma + log n) handlers.

// A third mode rides on the compiled flat programs (dataloop/program.hpp):
// with PackEngine::kProgram the handler walks the program's fused copy
// ops instead of the leaf/region lists — adjacent runs are already
// merged at compile time, so the handler issues one DMA write per fused
// region and the descriptor is the program itself (ops + gather table).

#include <cstdint>
#include <memory>
#include <optional>

#include "dataloop/dataloop.hpp"
#include "dataloop/program.hpp"
#include "ddt/datatype.hpp"
#include "offload/region_index.hpp"
#include "spin/handler.hpp"
#include "spin/nic.hpp"

namespace netddt::offload {

class SpecializedPlan {
 public:
  /// Build a specialized plan: closed-form when the (normalized) type is
  /// a single leaf dataloop, region-list otherwise. Returns nullptr only
  /// when `closed_form_only` is set and no closed form exists. With
  /// `engine == PackEngine::kProgram` the handler executes the cached
  /// flat program when one compiled within limits (silently staying on
  /// the interpreter modes otherwise).
  static std::unique_ptr<SpecializedPlan> create(
      const ddt::TypePtr& type, std::uint64_t count,
      const spin::CostModel& cost, bool closed_form_only = true,
      dataloop::PackEngine engine = dataloop::PackEngine::kInterpreter);

  /// Parameter bytes the host copies to NIC memory: the spin_vec_t-style
  /// descriptor for vector, the displacement (and size) lists for the
  /// indexed flavours.
  std::uint64_t descriptor_bytes() const { return descriptor_bytes_; }

  /// Build the execution context (handlers reference this plan; keep it
  /// alive for the NIC's lifetime).
  spin::ExecutionContext context(spin::NicModel& nic);

 private:
  SpecializedPlan(const ddt::TypePtr& type, std::uint64_t count,
                  const spin::CostModel& cost, dataloop::PackEngine engine);

  // Shared via the process-wide dataloop cache (dataloop/cache.hpp);
  // also reused by create()'s closed-form probe of the same type.
  std::shared_ptr<const dataloop::CompiledDataloop> loops_;
  const spin::CostModel* cost_;
  std::uint64_t descriptor_bytes_ = 0;
  // The NIC-resident program or region list; empty when the handler
  // runs the closed form.
  std::optional<ResumeTable> table_;
};

/// Walk the destination regions of stream window [first, last) of a
/// single-leaf dataloop in closed form. Calls fn(host_offset, len,
/// search_steps) per region, where search_steps is the number of
/// binary-search iterations spent locating the region (0 for arithmetic
/// kinds and for sequential continuation).
void leaf_window(const dataloop::CompiledDataloop& loops,
                 std::uint64_t first, std::uint64_t last,
                 const std::function<void(std::int64_t, std::uint64_t,
                                          std::uint32_t)>& fn);

}  // namespace netddt::offload
