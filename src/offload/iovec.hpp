#pragma once
// Portals 4 iovec-offload comparator (paper Sec 5.3).
//
// The NIC holds a window of v scatter/gather entries (v = 32, the
// ConnectX-3 limit); consuming past the window triggers a PCIe read of
// 500 ns to fetch the next v entries from host memory. Processing is
// in-order and serial (it is the inbound engine, not a handler pool),
// which we model as a blocked-RR policy with a single vHPU.

#include <cstdint>

#include "ddt/datatype.hpp"
#include "offload/region_index.hpp"
#include "spin/handler.hpp"
#include "spin/nic.hpp"

namespace netddt::offload {

class IovecPlan {
 public:
  IovecPlan(const ddt::TypePtr& type, std::uint64_t count,
            const spin::CostModel& cost, std::uint32_t window_entries = 32);

  /// Total iovec bytes that cross PCIe over the message (16 B/entry).
  std::uint64_t descriptor_bytes() const { return regions_.size() * 16; }
  /// Host time to build the iovec list (paid per receive: entries embed
  /// virtual addresses, so the list cannot be reused across buffers).
  sim::Time host_setup_time() const { return host_setup_time_; }

  spin::ExecutionContext context(spin::NicModel& nic);

 private:
  const spin::CostModel* cost_;
  std::uint32_t window_;
  RegionIndex regions_;
  std::uint64_t fetched_ = 0;  // entries already on the NIC
  sim::Time host_setup_time_ = 0;
};

}  // namespace netddt::offload
