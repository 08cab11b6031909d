// Contract of the one reliable-put protocol (p4::ReliablePut), run
// against both of its carriers: a point-to-point spin::Link and a
// 2-node fabric::Fabric. Whatever the carrier, a black-holed put fails
// exactly once, a lossy multi-packet put completes through
// retransmissions with the exact bytes landed, a single-packet put
// completes, and the held-back completion packet reaches the receiver
// only after every data packet did.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "fabric/fabric.hpp"
#include "p4/put.hpp"
#include "sim/engine.hpp"
#include "sim/faults/faults.hpp"
#include "spin/link.hpp"
#include "spin/nic.hpp"

namespace netddt {
namespace {

using sim::faults::FaultConfig;
using sim::faults::FaultPlan;

enum class Carrier { kLink, kFabric };

const char* carrier_name(Carrier c) {
  return c == Carrier::kLink ? "Link" : "Fabric";
}

void PrintTo(Carrier c, std::ostream* os) { *os << carrier_name(c); }

FaultConfig lossy_config(std::uint64_t seed) {
  FaultConfig fc;
  fc.drop_rate = 0.05;
  fc.dup_rate = 0.02;
  fc.reorder_rate = 0.05;
  fc.seed = seed;
  return fc;
}

/// One receiver NIC behind the carrier under test. Its payload handler
/// lands each packet's bytes at the packet's offset and records the
/// first time each packet index is handled; the completion handler
/// signals the message done.
class ReliablePutContract : public ::testing::TestWithParam<Carrier> {
 protected:
  ReliablePutContract() : host(1 << 20), nic(engine, host) {
    if (GetParam() == Carrier::kLink) {
      link = std::make_unique<spin::Link>(engine, nic, nic.cost());
    } else {
      fabric::FabricConfig fc;
      fc.topology.nodes = 2;
      fc.cost = nic.cost();
      fab = std::make_unique<fabric::Fabric>(engine, fc);
      fab->attach(1, nic);
    }
    spin::ExecutionContext ctx;
    ctx.payload = [this](spin::HandlerArgs& args) {
      const std::uint64_t idx = args.pkt.offset / nic.cost().pkt_payload;
      first_handled.emplace(idx, engine.now());
      args.meter.charge(spin::Phase::kProcessing, sim::ns(1));
      args.dma.write(args.meter.total(),
                     args.buffer_offset +
                         static_cast<std::int64_t>(args.pkt.offset),
                     {args.pkt.data, args.pkt.payload_bytes},
                     /*signal_event=*/false);
    };
    ctx.completion = [](spin::HandlerArgs& args) {
      args.dma.write(0, 0, {}, /*signal_event=*/true);
    };
    p4::MatchEntry me;
    me.match_bits = 0x5197;
    me.length = 1 << 20;
    me.context = nic.register_context(std::move(ctx));
    nic.match_list().append(p4::ListKind::kPriority, me);
  }

  void send_reliable(const std::vector<p4::Packet>& packets,
                     const FaultConfig& faults,
                     const p4::RetransmitConfig& rc = {}) {
    const FaultPlan plan(faults, packets.front().msg_id);
    auto done = [this](sim::Time when, bool ok) {
      ++completions;
      put_ok = ok;
      completed_at = when;
    };
    if (link != nullptr) {
      link->send_reliable(packets, 0, plan, rc, done);
    } else {
      fab->send_reliable(0, 1, packets, 0, plan, rc, done);
    }
  }

  /// A protocol counter: `link_name` in the NIC registry for the Link,
  /// `fabric_name` in the Fabric's own registry.
  std::uint64_t counter(const char* link_name,
                        const char* fabric_name) const {
    return link != nullptr ? nic.metrics().snapshot().counter(link_name)
                           : fab->metrics().snapshot().counter(fabric_name);
  }
  std::uint64_t drops() const {
    return counter("p4.pkts_dropped", "fabric.drops");
  }
  std::uint64_t retransmits() const {
    return counter("p4.retransmits", "fabric.retransmits");
  }
  std::uint64_t acks() const { return counter("p4.acks", "fabric.acks"); }
  std::uint64_t put_failures() const {
    return counter("p4.put_failures", "fabric.put_failures");
  }

  std::vector<std::byte> pattern(std::size_t bytes) const {
    std::vector<std::byte> data(bytes);
    for (std::size_t i = 0; i < bytes; ++i) {
      data[i] = static_cast<std::byte>(i * 31 + 7);
    }
    return data;
  }

  sim::Engine engine;
  spin::Host host;
  spin::NicModel nic;
  std::unique_ptr<spin::Link> link;
  std::unique_ptr<fabric::Fabric> fab;

  std::map<std::uint64_t, sim::Time> first_handled;  // packet index -> t
  int completions = 0;
  bool put_ok = false;
  sim::Time completed_at = -1;
};

TEST_P(ReliablePutContract, DropAllFailsOnce) {
  const auto data = pattern(8192);
  const auto packets = p4::packetize(1, 0x5197, data);
  FaultConfig fc;
  fc.drop_rate = 1.0;  // black hole
  fc.seed = 5;
  p4::RetransmitConfig rc;
  rc.max_retries = 2;
  send_reliable(packets, fc, rc);
  engine.run();

  EXPECT_EQ(completions, 1);
  EXPECT_FALSE(put_ok);
  EXPECT_EQ(put_failures(), 1u);
  EXPECT_EQ(acks(), 0u);
  // Every attempt of every data packet was dropped; the completion
  // packet was never released.
  EXPECT_EQ(drops(),
            (packets.size() - 1) * (rc.max_retries + 1));
  EXPECT_EQ(nic.metrics().snapshot().counter("nic.pkts.delivered"), 0u);
  EXPECT_EQ(nic.info(1), nullptr);
}

TEST_P(ReliablePutContract, LossyPutCompletesWithRetransmits) {
  const auto data = pattern(512 * 1024);  // 256 packets: drops certain
  const auto packets = p4::packetize(1, 0x5197, data);
  send_reliable(packets, lossy_config(11));
  engine.run();

  EXPECT_EQ(completions, 1);
  EXPECT_TRUE(put_ok);
  EXPECT_GT(completed_at, 0);
  const auto* info = nic.info(1);
  ASSERT_NE(info, nullptr);
  EXPECT_TRUE(info->done);
  // Unique-packet accounting survives duplicates and retransmits.
  EXPECT_EQ(info->bytes, data.size());
  EXPECT_EQ(info->packets, packets.size());
  EXPECT_EQ(std::memcmp(host.memory().data(), data.data(), data.size()), 0);
  EXPECT_GT(drops(), 0u);
  EXPECT_GT(retransmits(), 0u);
  EXPECT_EQ(drops(), retransmits());
  EXPECT_EQ(put_failures(), 0u);
}

TEST_P(ReliablePutContract, SinglePacketPutCompletes) {
  const auto data = pattern(100);
  const auto packets = p4::packetize(1, 0x5197, data);
  ASSERT_EQ(packets.size(), 1u);  // both data and completion
  send_reliable(packets, lossy_config(3));
  engine.run();

  EXPECT_EQ(completions, 1);
  EXPECT_TRUE(put_ok);
  const auto* info = nic.info(1);
  ASSERT_NE(info, nullptr);
  EXPECT_TRUE(info->done);
  EXPECT_EQ(std::memcmp(host.memory().data(), data.data(), data.size()), 0);
}

TEST_P(ReliablePutContract, CompletionFirstDeliveredAfterAllData) {
  const auto data = pattern(64 * 2048);
  const auto packets = p4::packetize(1, 0x5197, data);
  FaultConfig fc = lossy_config(7);
  fc.reorder_rate = 0.3;  // heavy skew: data arrives out of order
  send_reliable(packets, fc);
  engine.run();

  ASSERT_TRUE(put_ok);
  ASSERT_EQ(first_handled.size(), packets.size());
  const std::uint64_t last = packets.size() - 1;
  sim::Time latest_data = -1;
  for (const auto& [idx, t] : first_handled) {
    if (idx != last) latest_data = std::max(latest_data, t);
  }
  EXPECT_GT(first_handled.at(last), latest_data);
}

INSTANTIATE_TEST_SUITE_P(Carriers, ReliablePutContract,
                         ::testing::Values(Carrier::kLink, Carrier::kFabric),
                         [](const auto& info) {
                           return std::string(carrier_name(info.param));
                         });

}  // namespace
}  // namespace netddt
