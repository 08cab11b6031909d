#include "offload/specialized.hpp"

#include "dataloop/cache.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace netddt::offload {

void leaf_window(const dataloop::CompiledDataloop& loops,
                 std::uint64_t first, std::uint64_t last,
                 const std::function<void(std::int64_t, std::uint64_t,
                                          std::uint32_t)>& fn) {
  const dataloop::Dataloop& leaf = loops.root();
  assert(leaf.leaf && "leaf_window requires a single-leaf dataloop");
  const std::uint64_t instance_size = leaf.size;
  const std::int64_t instance_ext = loops.root_extent();

  std::uint64_t pos = first;
  std::int64_t prev_block = -2;  // forces a fresh lookup on entry
  while (pos < last) {
    const std::uint64_t instance = pos / instance_size;
    const std::uint64_t local = pos % instance_size;
    const std::int64_t base =
        static_cast<std::int64_t>(instance) * instance_ext;

    std::int64_t block = 0;
    std::uint64_t block_start = 0;  // stream offset of block within instance
    std::uint32_t steps = 0;
    switch (leaf.kind) {
      case dataloop::LoopKind::kContig:
        block = 0;
        block_start = 0;
        break;
      case dataloop::LoopKind::kVector:
      case dataloop::LoopKind::kBlockIndexed:
        block = static_cast<std::int64_t>(local / leaf.block_bytes);
        block_start = static_cast<std::uint64_t>(block) * leaf.block_bytes;
        break;
      case dataloop::LoopKind::kIndexed: {
        // Sequential continuation is free; a jump costs a binary search
        // (the paper's "modified binary search" on the offset lists).
        const auto it = std::upper_bound(leaf.stream_prefix.begin(),
                                         leaf.stream_prefix.end(), local);
        block = static_cast<std::int64_t>(
                    std::distance(leaf.stream_prefix.begin(), it)) -
                1;
        block_start = leaf.stream_prefix[static_cast<std::size_t>(block)];
        if (block != prev_block + 1) {
          steps = static_cast<std::uint32_t>(std::ceil(
              std::log2(static_cast<double>(leaf.stream_prefix.size()))));
        }
        break;
      }
      case dataloop::LoopKind::kStruct:
        assert(false && "struct is never a leaf");
        return;
    }
    prev_block = block;

    const std::uint64_t bytes = leaf.leaf_block_bytes(block);
    const std::uint64_t rem = local - block_start;
    const std::int64_t host_off =
        base + leaf.leaf_block_offset(block) + static_cast<std::int64_t>(rem);
    const std::uint64_t take =
        std::min<std::uint64_t>({bytes - rem, last - pos});
    fn(host_off, take, steps);
    pos += take;
  }
}

std::unique_ptr<SpecializedPlan> SpecializedPlan::create(
    const ddt::TypePtr& type, std::uint64_t count,
    const spin::CostModel& cost, bool closed_form_only,
    dataloop::PackEngine engine) {
  auto probe = dataloop::compile_cached(type, count);
  if (!probe->root().leaf && closed_form_only) return nullptr;
  return std::unique_ptr<SpecializedPlan>(
      new SpecializedPlan(type, count, cost, engine));
}

SpecializedPlan::SpecializedPlan(const ddt::TypePtr& type,
                                 std::uint64_t count,
                                 const spin::CostModel& cost,
                                 dataloop::PackEngine engine)
    : loops_(dataloop::compile_cached(type, count)), cost_(&cost) {
  const dataloop::Dataloop& leaf = loops_->root();
  if (engine == dataloop::PackEngine::kProgram) {
    // The program *is* the NIC-resident descriptor: op array + gather
    // table. Its handler needs no other plan state.
    if (auto program = dataloop::plan_cached(type, count).program) {
      table_.emplace(RegionIndex{}, std::move(program));
    }
  }
  if (!table_ && !leaf.leaf) {
    // Region-list fallback: offset + size per region.
    table_.emplace(RegionIndex(type->flatten(count)), nullptr);
  }
  if (table_) {
    descriptor_bytes_ = table_->descriptor_bytes();
    return;
  }
  switch (leaf.kind) {
    case dataloop::LoopKind::kContig:
      descriptor_bytes_ = 16;  // base pointer + length
      break;
    case dataloop::LoopKind::kVector:
      descriptor_bytes_ = 24;  // spin_vec_t: count, block_size, stride
      break;
    case dataloop::LoopKind::kBlockIndexed:
      descriptor_bytes_ = 16 + leaf.displs.size() * 8;
      break;
    case dataloop::LoopKind::kIndexed:
      // Offset list + per-block size (prefix) list.
      descriptor_bytes_ = 16 + leaf.displs.size() * 16;
      break;
    case dataloop::LoopKind::kStruct:
      break;  // unreachable: struct is never a leaf
  }
}

spin::ExecutionContext SpecializedPlan::context(spin::NicModel& nic) {
  (void)nic;
  spin::ExecutionContext ctx;
  ctx.policy = spin::SchedulingPolicy::Default();
  const spin::CostModel& c = *cost_;

  if (table_) {
    // Program or region-list handler: one binary search locates the
    // packet's start, then the table's runs are walked sequentially. A
    // program's compile step already fused adjacent runs, so every
    // emitted run becomes exactly one DMA write.
    ctx.payload = [this, &c](spin::HandlerArgs& args) {
      args.meter.charge(spin::Phase::kInit, c.h_init);
      const std::uint64_t first = args.pkt.offset;
      args.meter.charge(spin::Phase::kSetup, table_->resume_charge());
      table_->walk(first, first + args.pkt.payload_bytes,
                   [&](std::int64_t host_off, std::uint64_t stream,
                       std::uint64_t len) {
                     args.meter.charge(spin::Phase::kProcessing,
                                       c.h_block_specialized + c.h_dma_issue);
                     args.dma.write(args.meter.total(),
                                    args.buffer_offset + host_off,
                                    {args.pkt.data + (stream - first), len});
                   });
    };
  } else {
    ctx.payload = [this, &c](spin::HandlerArgs& args) {
      args.meter.charge(spin::Phase::kInit, c.h_init);
      const std::uint64_t first = args.pkt.offset;
      const std::uint64_t last = first + args.pkt.payload_bytes;
      std::uint64_t stream = 0;
      leaf_window(*loops_, first, last,
                  [&](std::int64_t host_off, std::uint64_t len,
                      std::uint32_t search_steps) {
                    args.meter.charge(spin::Phase::kSetup,
                                      search_steps * sim::ns(8));
                    args.meter.charge(spin::Phase::kProcessing,
                                      c.h_block_specialized + c.h_dma_issue);
                    args.dma.write(args.meter.total(),
                                   args.buffer_offset + host_off,
                                   {args.pkt.data + stream, len});
                    stream += len;
                  });
    };
  }

  ctx.completion = [&c](spin::HandlerArgs& args) {
    args.meter.charge(spin::Phase::kProcessing, c.h_complete);
    // Zero-byte signalled DMA: tells the host all data is unpacked.
    args.dma.write(args.meter.total(), 0, {}, /*signal_event=*/true);
  };
  return ctx;
}

}  // namespace netddt::offload
