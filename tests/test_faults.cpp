// Fault-injection layer tests: determinism of the fault schedule,
// sender-side reliability bookkeeping (ReliablePutState,
// RetransmitConfig), and the end-to-end guarantee that
// every unpack strategy reconstructs a byte-identical receive buffer
// under drops, duplicates and reorder.

#include <gtest/gtest.h>

#include <vector>

#include "ddt/datatype.hpp"
#include "offload/runner.hpp"
#include "p4/put.hpp"
#include "sim/faults/faults.hpp"

namespace netddt {
namespace {

using ddt::Datatype;
using offload::StrategyKind;
using sim::faults::FaultConfig;
using sim::faults::FaultDecision;
using sim::faults::FaultPlan;

FaultConfig lossy_config(std::uint64_t seed) {
  FaultConfig fc;
  fc.drop_rate = 0.05;
  fc.dup_rate = 0.02;
  fc.reorder_rate = 0.05;
  fc.seed = seed;
  return fc;
}

std::vector<FaultDecision> schedule(const FaultPlan& plan,
                                    std::uint64_t npkt,
                                    std::uint32_t attempts) {
  std::vector<FaultDecision> out;
  for (std::uint64_t i = 0; i < npkt; ++i) {
    for (std::uint32_t a = 0; a < attempts; ++a) {
      out.push_back(plan.decide(i, a));
    }
  }
  return out;
}

bool equal(const std::vector<FaultDecision>& a,
           const std::vector<FaultDecision>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].drop != b[i].drop || a[i].duplicate != b[i].duplicate ||
        a[i].delay_slots != b[i].delay_slots ||
        a[i].dup_delay_slots != b[i].dup_delay_slots) {
      return false;
    }
  }
  return true;
}

// --- FaultPlan determinism ----------------------------------------------

TEST(FaultPlan, SameSeedSameSchedule) {
  const FaultPlan a(lossy_config(42), /*msg_id=*/7);
  const FaultPlan b(lossy_config(42), /*msg_id=*/7);
  EXPECT_TRUE(equal(schedule(a, 512, 3), schedule(b, 512, 3)));
}

TEST(FaultPlan, SeedAndMessageChangeTheSchedule) {
  const FaultPlan base(lossy_config(42), 7);
  const FaultPlan other_seed(lossy_config(43), 7);
  const FaultPlan other_msg(lossy_config(42), 8);
  EXPECT_FALSE(equal(schedule(base, 512, 3), schedule(other_seed, 512, 3)));
  EXPECT_FALSE(equal(schedule(base, 512, 3), schedule(other_msg, 512, 3)));
}

TEST(FaultPlan, DecisionsAreOrderIndependent) {
  // decide() is a pure function of (seed, msg, pkt, attempt): querying
  // the schedule backwards or repeatedly returns the same outcomes.
  const FaultPlan plan(lossy_config(9), 1);
  const auto fwd = schedule(plan, 256, 2);
  std::vector<FaultDecision> bwd(fwd.size());
  for (std::uint64_t i = 256; i-- > 0;) {
    for (std::uint32_t a = 2; a-- > 0;) {
      bwd[i * 2 + a] = plan.decide(i, a);
    }
  }
  EXPECT_TRUE(equal(fwd, bwd));
}

TEST(FaultPlan, InertConfigNeverFaults) {
  const FaultPlan plan(FaultConfig{}, 1);
  EXPECT_FALSE(plan.active());
  for (const auto& d : schedule(plan, 128, 2)) {
    EXPECT_FALSE(d.drop);
    EXPECT_FALSE(d.duplicate);
    EXPECT_EQ(d.delay_slots, 0u);
  }
}

TEST(FaultPlan, RatesAreHonoredRoughly) {
  FaultConfig fc;
  fc.drop_rate = 0.25;
  fc.seed = 3;
  const FaultPlan plan(fc, 1);
  std::uint64_t drops = 0;
  constexpr std::uint64_t kN = 20000;
  for (std::uint64_t i = 0; i < kN; ++i) drops += plan.decide(i, 0).drop;
  EXPECT_NEAR(static_cast<double>(drops) / kN, 0.25, 0.02);
}

// --- Sender-side bookkeeping --------------------------------------------

TEST(ReliablePutState, AckAndRetransmitAccounting) {
  p4::ReliablePutState st(3);
  st.record_attempt(0);
  st.record_attempt(1);
  st.record_attempt(1);  // one retransmit
  st.record_attempt(2);
  EXPECT_EQ(st.retransmits(), 1u);
  EXPECT_EQ(st.attempts(1), 2u);

  EXPECT_TRUE(st.mark_acked(0));
  EXPECT_FALSE(st.mark_acked(0));  // duplicate ack ignored
  EXPECT_FALSE(st.data_acked());
  EXPECT_TRUE(st.mark_acked(1));
  EXPECT_TRUE(st.data_acked());  // all but the completion packet
  EXPECT_FALSE(st.all_acked());
  EXPECT_TRUE(st.mark_acked(2));
  EXPECT_TRUE(st.all_acked());
}

TEST(RetransmitConfig, ExponentialBackoff) {
  p4::RetransmitConfig rc;
  rc.backoff = 2.0;
  EXPECT_EQ(rc.timeout_for(0, 1000), 1000);
  EXPECT_EQ(rc.timeout_for(1, 1000), 2000);
  EXPECT_EQ(rc.timeout_for(3, 1000), 8000);
  // Saturates instead of overflowing.
  EXPECT_GT(rc.timeout_for(100, 1000), 0);
}

// The reliable-put protocol over both carriers (Link, Fabric) is
// covered by test_reliable_put.cpp.

// --- End-to-end: lossy receives must equal lossless ---------------------

TEST(FaultRunner, AllStrategiesVerifyUnderFaults) {
  for (auto kind :
       {StrategyKind::kHostUnpack, StrategyKind::kSpecialized,
        StrategyKind::kHpuLocal, StrategyKind::kRoCp, StrategyKind::kRwCp,
        StrategyKind::kIovec}) {
    offload::ReceiveConfig cfg;
    cfg.type = Datatype::hvector(2048, 128, 256, Datatype::int8());
    cfg.strategy = kind;
    cfg.faults = lossy_config(23);
    const auto run = offload::run_receive(cfg);
    EXPECT_TRUE(run.result.verified) << strategy_name(kind);
    EXPECT_GT(run.result.pkts_dropped, 0u) << strategy_name(kind);
    EXPECT_EQ(run.result.retransmits, run.result.pkts_dropped)
        << strategy_name(kind);
  }
}

TEST(FaultRunner, RandomizedSeedSweepStaysByteIdentical) {
  // The strongest property the layer promises: any fault schedule
  // produces the same receive buffer as the lossless wire. run_receive
  // verifies the buffer against the reference unpack internally.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (auto kind : {StrategyKind::kRwCp, StrategyKind::kSpecialized}) {
      offload::ReceiveConfig cfg;
      cfg.type = Datatype::hvector(1024, 96, 224, Datatype::int8());
      cfg.strategy = kind;
      cfg.faults.drop_rate = 0.08;
      cfg.faults.dup_rate = 0.05;
      cfg.faults.reorder_rate = 0.10;
      cfg.faults.seed = seed;
      const auto run = offload::run_receive(cfg);
      EXPECT_TRUE(run.result.verified)
          << strategy_name(kind) << " seed=" << seed;
    }
  }
}

TEST(FaultRunner, DuplicateHeavyDeliveryIsIdempotentForRwCp) {
  // Duplicates re-run handlers; RW-CP's checkpoint rollback must treat a
  // re-arrival of an already-unpacked packet as a plain (idempotent)
  // rewrite.
  offload::ReceiveConfig cfg;
  cfg.type = Datatype::hvector(4096, 64, 160, Datatype::int8());
  cfg.strategy = StrategyKind::kRwCp;
  cfg.faults.dup_rate = 0.5;
  cfg.faults.reorder_rate = 0.3;
  cfg.faults.seed = 77;
  const auto run = offload::run_receive(cfg);
  EXPECT_TRUE(run.result.verified);
  EXPECT_GT(run.result.dup_deliveries, 0u);
  EXPECT_EQ(run.result.pkts_dropped, 0u);
}

TEST(FaultRunner, DuplicateHeavyReduceDoesNotDoubleAccumulate) {
  // The RMW counterpart of the RW-CP case above: a reduction handler is
  // NOT idempotent, so replayed packets must be gated at the NIC (seen
  // bitmap) instead of re-run. verified == true proves no contribution
  // was applied twice — the reference combines each stream element
  // exactly once.
  offload::ReceiveConfig cfg;
  cfg.type = Datatype::contiguous(16384, Datatype::int32());
  cfg.strategy = StrategyKind::kRwCp;
  cfg.compute = spin::ComputeConfig{};  // streaming int32 sum
  cfg.faults.dup_rate = 0.5;
  cfg.faults.reorder_rate = 0.3;
  cfg.faults.seed = 77;
  const auto run = offload::run_receive(cfg);
  EXPECT_TRUE(run.result.verified);
  EXPECT_GT(run.result.dup_deliveries, 0u);
  // Every duplicate that reached the RMW context was suppressed.
  EXPECT_EQ(run.metrics.counter("nic.compute.dup_suppressed"),
            run.result.dup_deliveries);
}

TEST(FaultRunner, DuplicateHeavyAccumulateDoesNotDoubleAccumulate) {
  // Same contract through the scatter-accumulate walk: strided target,
  // 29-byte payloads (elements straddle packets), drops + dups + reorder.
  offload::ReceiveConfig cfg;
  cfg.type = Datatype::vector(1024, 3, 5, Datatype::int32());
  cfg.strategy = StrategyKind::kRwCp;
  cfg.cost.pkt_payload = 29;
  spin::ComputeConfig cc;
  cc.family = spin::HandlerFamily::kAccumulate;
  cc.op = spin::ReduceOp::kMax;
  cfg.compute = cc;
  cfg.faults.drop_rate = 0.1;
  cfg.faults.dup_rate = 0.4;
  cfg.faults.reorder_rate = 0.3;
  cfg.faults.seed = 9;
  const auto run = offload::run_receive(cfg);
  EXPECT_TRUE(run.result.verified);
  EXPECT_GT(run.result.dup_deliveries, 0u);
  EXPECT_GT(run.metrics.counter("nic.compute.dup_suppressed"), 0u);
}

TEST(FaultRunner, SameFaultSeedIsDeterministic) {
  offload::ReceiveConfig cfg;
  cfg.type = Datatype::hvector(2048, 128, 256, Datatype::int8());
  cfg.strategy = StrategyKind::kRwCp;
  cfg.faults = lossy_config(5);
  const auto a = offload::run_receive(cfg);
  const auto b = offload::run_receive(cfg);
  EXPECT_EQ(a.result.msg_time, b.result.msg_time);
  EXPECT_EQ(a.result.retransmits, b.result.retransmits);
  EXPECT_EQ(a.result.dup_deliveries, b.result.dup_deliveries);
  EXPECT_EQ(a.metrics.counters, b.metrics.counters);
}

TEST(FaultRunner, SinglePacketMessageSurvivesFaults) {
  offload::ReceiveConfig cfg;
  cfg.type = Datatype::hvector(8, 64, 128, Datatype::int8());
  cfg.strategy = StrategyKind::kRwCp;
  cfg.faults.drop_rate = 0.3;
  cfg.faults.dup_rate = 0.3;
  cfg.faults.seed = 13;
  const auto run = offload::run_receive(cfg);
  EXPECT_EQ(run.result.packets, 1u);
  EXPECT_TRUE(run.result.verified);
}

TEST(FaultRunner, InactiveFaultsPublishNoReliabilityMetrics) {
  // Inertness: with all rates zero the lossless path runs and none of
  // the reliability counters may appear in the snapshot — their mere
  // registration would leak into every experiment's JSON "counters".
  offload::ReceiveConfig cfg;
  cfg.type = Datatype::hvector(1024, 128, 256, Datatype::int8());
  cfg.strategy = StrategyKind::kRwCp;
  const auto run = offload::run_receive(cfg);
  EXPECT_TRUE(run.result.verified);
  EXPECT_FALSE(run.metrics.has_counter("p4.retransmits"));
  EXPECT_FALSE(run.metrics.has_counter("p4.pkts_dropped"));
  EXPECT_FALSE(run.metrics.has_counter("p4.acks"));
  EXPECT_FALSE(run.metrics.has_counter("nic.pkts.duplicate"));
  EXPECT_EQ(run.result.retransmits, 0u);
  // Same inertness rule for the compute plane: a run with no
  // ReceiveConfig::compute request registers no nic.compute.* metrics.
  for (const auto& [name, value] : run.metrics.counters) {
    EXPECT_NE(name.rfind("nic.compute.", 0), 0u)
        << name << " registered on a non-compute run";
  }
}

}  // namespace
}  // namespace netddt
