// Tests for the steady-state service driver: completion and verified
// correctness under concurrency, admission-window backpressure,
// determinism across repeats, engine-equivalence, fairness for
// symmetric tenants, receive-slot recycling, and public-API misuse.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "ddt/datatype.hpp"
#include "offload/service.hpp"

namespace netddt::offload {
namespace {

// Two symmetric tenants, 4 KiB strided messages, arrivals fast enough
// that many messages are in flight at once.
ServiceConfig small_config(std::uint64_t messages = 48) {
  ServiceConfig cfg;
  for (int t = 0; t < 2; ++t) {
    ServiceTenant tenant;
    tenant.type = ddt::Datatype::hvector(8, 256, 512, ddt::Datatype::int8());
    tenant.count = 2;  // 4 KiB per message
    tenant.arrivals.rate = 2e6;  // msgs/s: ~64 Gbit/s offered per tenant
    tenant.messages = messages;
    cfg.tenants.push_back(tenant);
  }
  cfg.seed = 7;
  return cfg;
}

bool runs_equal(const ServiceRun& a, const ServiceRun& b) {
  if (a.goodput_gbps != b.goodput_gbps || a.fairness != b.fairness ||
      a.makespan != b.makespan || a.peak_inflight != b.peak_inflight ||
      a.evictions != b.evictions ||
      a.host_fallbacks != b.host_fallbacks ||
      a.metrics.counters != b.metrics.counters) {
    return false;
  }
  for (std::size_t t = 0; t < a.tenants.size(); ++t) {
    const TenantStats& x = a.tenants[t];
    const TenantStats& y = b.tenants[t];
    if (x.completed != y.completed || x.backpressured != y.backpressured ||
        x.bytes != y.bytes || x.first_arrival != y.first_arrival ||
        x.last_done != y.last_done || x.goodput_gbps != y.goodput_gbps) {
      return false;
    }
  }
  return true;
}

TEST(Service, AllMessagesCompleteAndVerify) {
  ServiceConfig cfg = small_config();
  cfg.validate = true;
  cfg.verify_every = 1;  // verify every message on this small run
  const ServiceRun run = run_service(cfg);
  for (const auto& ts : run.tenants) {
    EXPECT_EQ(ts.completed, ts.offered);
    EXPECT_EQ(ts.completed, 48u);
    EXPECT_GT(ts.goodput_gbps, 0.0);
    EXPECT_EQ(ts.completion.count(), ts.completed);
  }
  EXPECT_EQ(run.verified, 96u);
  EXPECT_EQ(run.verify_failures, 0u);
  EXPECT_GT(run.peak_inflight, 1u) << "arrivals must actually overlap";
}

TEST(Service, RepeatRunsAreIdentical) {
  const ServiceRun a = run_service(small_config());
  const ServiceRun b = run_service(small_config());
  EXPECT_TRUE(runs_equal(a, b));
}

TEST(Service, SeedChangesTheSchedule) {
  ServiceConfig cfg = small_config();
  const ServiceRun a = run_service(cfg);
  cfg.seed = 8;
  const ServiceRun b = run_service(cfg);
  EXPECT_NE(a.makespan, b.makespan);
}

TEST(Service, HashedAndLinearEnginesAgreeExactly) {
  ServiceConfig cfg = small_config();
  cfg.verify_every = 4;
  cfg.match_engine = p4::MatchEngineKind::kHashed;
  const ServiceRun h = run_service(cfg);
  cfg.match_engine = p4::MatchEngineKind::kLinear;
  const ServiceRun l = run_service(cfg);
  EXPECT_TRUE(runs_equal(h, l));
  EXPECT_EQ(h.verify_failures, 0u);
  EXPECT_EQ(l.verify_failures, 0u);
}

TEST(Service, AdmissionWindowBackpressures) {
  ServiceConfig cfg = small_config();
  cfg.max_inflight = 2;
  const ServiceRun run = run_service(cfg);
  std::uint64_t waited = 0;
  for (const auto& ts : run.tenants) {
    EXPECT_EQ(ts.completed, ts.offered) << "backpressure must not drop";
    waited += ts.backpressured;
  }
  EXPECT_GT(waited, 0u);
  EXPECT_LE(run.peak_inflight, 2u);
}

TEST(Service, SymmetricTenantsAreFair) {
  const ServiceRun run = run_service(small_config(64));
  EXPECT_GT(run.fairness, 0.95);
  EXPECT_LE(run.fairness, 1.0);
}

TEST(Service, BurstyArrivalsStillDrain) {
  ServiceConfig cfg = small_config();
  for (auto& t : cfg.tenants) t.arrivals.kind = sim::ArrivalKind::kOnOff;
  cfg.validate = true;
  const ServiceRun run = run_service(cfg);
  for (const auto& ts : run.tenants) EXPECT_EQ(ts.completed, ts.offered);
  EXPECT_EQ(run.verify_failures, 0u);
}

// Two tenants with different slot geometries (strided and contiguous),
// a small admission window and every message verified: a slot handed to
// a new message while an older one could still write into it would
// show up as a verify failure.
ServiceConfig recycling_config() {
  ServiceConfig cfg;
  for (int t = 0; t < 2; ++t) {
    ServiceTenant tenant;
    tenant.type =
        t == 0 ? ddt::Datatype::hvector(8, 256, 512, ddt::Datatype::int8())
               : ddt::Datatype::contiguous(3000, ddt::Datatype::int8());
    tenant.arrivals.rate = 2e6;
    tenant.messages = 300;
    cfg.tenants.push_back(tenant);
  }
  cfg.max_inflight = 4;
  cfg.verify_every = 1;
  cfg.validate = true;
  cfg.seed = 11;
  return cfg;
}

void expect_all_verified(const ServiceRun& run) {
  std::uint64_t completed = 0;
  for (const auto& ts : run.tenants) {
    EXPECT_EQ(ts.completed + ts.failed, ts.offered);
    completed += ts.completed;
  }
  EXPECT_GT(completed, 0u);
  EXPECT_EQ(run.verified, completed);
  EXPECT_EQ(run.verify_failures, 0u);
}

TEST(ServiceSlots, LosslessRunRecyclesSlots) {
  const ServiceRun run = run_service(recycling_config());
  expect_all_verified(run);
  EXPECT_EQ(run.put_failures, 0u);
  // Each tenant holds at most max_inflight slots at once.
  EXPECT_LE(run.receive_slots, 2u * 4u);
}

TEST(ServiceSlots, LossyRunNeverReusesASlot) {
  ServiceConfig cfg = recycling_config();
  cfg.faults.drop_rate = 0.05;
  cfg.faults.dup_rate = 0.05;
  cfg.faults.seed = 3;
  const ServiceRun run = run_service(cfg);
  expect_all_verified(run);
  EXPECT_GT(run.metrics.counter("nic.pkts.duplicate"), 0u)
      << "late duplicates are what the no-reuse rule guards against";
  EXPECT_EQ(run.receive_slots, 600u);
}

TEST(ServiceSlots, HostFallbackLandingIsRecycled) {
  ServiceConfig cfg = recycling_config();
  cfg.tenants[1].attrs.allow_offload = false;
  const ServiceRun run = run_service(cfg);
  expect_all_verified(run);
  EXPECT_EQ(run.tenants[1].host_fallbacks, 300u);
  EXPECT_LE(run.receive_slots, 2u * 4u);
}

TEST(Service, MisuseThrows) {
  ServiceConfig cfg = small_config();
  cfg.tenants.clear();
  EXPECT_THROW(run_service(cfg), std::invalid_argument);

  cfg = small_config();
  cfg.max_inflight = 0;
  EXPECT_THROW(run_service(cfg), std::invalid_argument);

  cfg = small_config();
  cfg.tenants[1].type = nullptr;
  EXPECT_THROW(run_service(cfg), std::invalid_argument);

  cfg = small_config();
  cfg.tenants[0].count = 0;
  EXPECT_THROW(run_service(cfg), std::invalid_argument);

  cfg = small_config();
  cfg.tenants[1].messages = 0;
  EXPECT_THROW(run_service(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace netddt::offload
