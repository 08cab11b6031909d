#pragma once
// The region-list lookup of every handler that is not closed-form (paper
// Sec 3.2.3, Sec 5.3): the host flattens the type into (offset, size)
// entries with stream-offset prefix sums; a handler finds its packet's
// first region by one "modified binary search on these lists" and then
// walks the entries sequentially. Specialized's region-list mode, the
// compute accumulate handler, the iovec engine and the outbound gather
// handler all walk a RegionIndex.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "dataloop/program.hpp"
#include "ddt/region.hpp"
#include "sim/time.hpp"

namespace netddt::offload {

class RegionIndex {
 public:
  RegionIndex() = default;
  /// `regions` in stream order (Datatype::flatten's output).
  explicit RegionIndex(std::vector<ddt::Region> regions)
      : regions_(std::move(regions)) {
    prefix_.reserve(regions_.size() + 1);
    for (const auto& r : regions_) prefix_.push_back(prefix_.back() + r.size);
  }

  const std::vector<ddt::Region>& regions() const { return regions_; }
  std::size_t size() const { return regions_.size(); }
  std::uint64_t total_bytes() const { return prefix_.back(); }

  /// Walk stream window [first, last), last <= total_bytes(), in stream
  /// order: fn(region, host_offset, stream_offset, len) per region piece,
  /// stream_offset absolute.
  template <typename Fn>
  void walk(std::uint64_t first, std::uint64_t last, Fn&& fn) const {
    std::size_t idx = static_cast<std::size_t>(
        std::upper_bound(prefix_.begin(), prefix_.end(), first) -
        prefix_.begin() - 1);
    for (std::uint64_t pos = first; pos < last;) {
      const ddt::Region& r = regions_[idx];
      const std::uint64_t rem = pos - prefix_[idx];
      const std::uint64_t take = std::min(r.size - rem, last - pos);
      fn(idx, r.offset + static_cast<std::int64_t>(rem), pos, take);
      pos += take;
      if (pos == prefix_[idx + 1]) ++idx;
    }
  }

 private:
  std::vector<ddt::Region> regions_;
  std::vector<std::uint64_t> prefix_{0};  // stream offset of each region
};

/// What the specialized and compute handlers resume from: the compiled
/// flat program when the pack engine supplied one, else the region list.
/// Owns both choices' NIC descriptor size and per-packet resume charge.
class ResumeTable {
 public:
  ResumeTable(RegionIndex regions,
              std::shared_ptr<const dataloop::FlatProgram> program)
      : regions_(std::move(regions)), program_(std::move(program)) {}

  const RegionIndex& regions() const { return regions_; }

  /// The program's own footprint, or a 16 B header plus 16 B per region.
  std::uint64_t descriptor_bytes() const {
    return program_ != nullptr ? program_->descriptor_bytes()
                               : 16 + regions_.size() * 16;
  }

  /// ceil(log2(n + 1)) binary-search steps of 8 ns over the n + 1
  /// entries of the op array (n ops) or the prefix list (n regions).
  sim::Time resume_charge() const {
    const std::size_t n =
        program_ != nullptr ? program_->ops().size() : regions_.size();
    return static_cast<sim::Time>(std::bit_width(n)) * sim::ns(8);
  }

  /// fn(host_offset, stream_offset, len) per destination run of window
  /// [first, last) in stream order, stream_offset absolute.
  template <typename Fn>
  void walk(std::uint64_t first, std::uint64_t last, Fn&& fn) const {
    if (program_ == nullptr) {
      regions_.walk(first, last,
                    [&](std::size_t, auto... run) { fn(run...); });
      return;
    }
    std::uint64_t stream = first;
    program_->for_each_region(
        first, last, [&](std::int64_t host_off, std::uint64_t len) {
          fn(host_off, stream, len);
          stream += len;
        });
  }

 private:
  RegionIndex regions_;
  std::shared_ptr<const dataloop::FlatProgram> program_;
};

}  // namespace netddt::offload
