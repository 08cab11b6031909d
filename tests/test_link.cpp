// Tests for the network link: line-rate pacing, paced (ready-gated)
// sends, the one wire clock every send shares, the shuffle invariants of
// p4::shuffle_payload (header first, completion last, permutation only
// within windows) and release-build misuse errors.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "p4/put.hpp"
#include "sim/faults/faults.hpp"
#include "sim/engine.hpp"
#include "spin/link.hpp"
#include "spin/nic.hpp"

namespace netddt::spin {
namespace {

/// A receiver world recording packet-handler dispatch times.
struct World {
  World() : host(1 << 20), nic(eng, host, CostModel{}),
            link(eng, nic, nic.cost()) {
    ExecutionContext ctx;
    ctx.payload = [this](HandlerArgs& args) {
      arrivals.emplace_back(eng.now(), args.pkt.offset);
      args.meter.charge(Phase::kProcessing, sim::ns(1));
    };
    ctx.completion = [](HandlerArgs& args) { args.dma.write(0, 0, {}, true); };
    p4::MatchEntry me;
    me.match_bits = 1;
    me.context = nic.register_context(std::move(ctx));
    me.use_once = false;
    nic.match_list().append(p4::ListKind::kPriority, me);
    data.resize(8 * 2048);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::byte>(i);
    }
  }

  sim::Engine eng;
  Host host;
  NicModel nic;
  Link link;
  std::vector<std::byte> data;
  std::vector<std::pair<sim::Time, std::uint64_t>> arrivals;

  /// Send this world's 8-packet message with its payload shuffled.
  void send_shuffled(std::uint32_t window, std::uint64_t seed) {
    auto pkts = p4::packetize(1, 1, data);
    p4::shuffle_payload(pkts, window, seed);
    link.send(pkts, 0);
  }
};

class LinkFixture : public ::testing::Test {
 protected:
  World world;
  sim::Engine& eng = world.eng;
  NicModel& nic = world.nic;
  Link& link = world.link;
  std::vector<std::byte>& data = world.data;
  std::vector<std::pair<sim::Time, std::uint64_t>>& arrivals =
      world.arrivals;
};

TEST_F(LinkFixture, PacketsPacedAtLineRate) {
  link.send(p4::packetize(1, 1, data), 0);
  eng.run();
  ASSERT_EQ(arrivals.size(), 8u);
  const sim::Time interval = nic.cost().pkt_interval();
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i].first - arrivals[i - 1].first, interval);
  }
  // First handler dispatch: wire + latency + inbound pipeline.
  EXPECT_GE(arrivals[0].first, interval + nic.cost().net_latency);
}

TEST_F(LinkFixture, StartOffsetShiftsEverything) {
  link.send(p4::packetize(1, 1, data), 0);
  eng.run();
  const auto baseline = arrivals;
  arrivals.clear();

  World shifted;
  shifted.link.send(p4::packetize(1, 1, shifted.data), sim::us(5));
  shifted.eng.run();
  ASSERT_EQ(shifted.arrivals.size(), baseline.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(shifted.arrivals[i].first, baseline[i].first + sim::us(5));
  }
}

TEST_F(LinkFixture, PacedSendWaitsForReadyTimes) {
  auto pkts = p4::packetize(1, 1, data);
  std::vector<sim::Time> ready(pkts.size(), 0);
  ready[3] = sim::us(50);  // packet 3 held back; later ones queue behind
  link.send(pkts, 0, ready);
  eng.run();
  ASSERT_EQ(arrivals.size(), 8u);
  EXPECT_LT(arrivals[2].first, sim::us(10));
  EXPECT_GE(arrivals[3].first, sim::us(50));
  EXPECT_GE(arrivals[4].first, arrivals[3].first);
}

TEST_F(LinkFixture, ShuffleKeepsEndpointsAndPermutesMiddle) {
  world.send_shuffled(4, /*seed=*/3);
  eng.run();
  ASSERT_EQ(arrivals.size(), 8u);
  EXPECT_EQ(arrivals.front().second, 0u);
  EXPECT_EQ(arrivals.back().second, 7u * 2048);
  // Same multiset of offsets.
  std::vector<std::uint64_t> offs;
  for (auto& [t, o] : arrivals) offs.push_back(o);
  std::sort(offs.begin(), offs.end());
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(offs[i], i * 2048);
}

TEST_F(LinkFixture, ShuffleWindowBoundsDisplacement) {
  world.send_shuffled(3, /*seed=*/9);
  eng.run();
  // A packet shuffled within windows of 3 slots lands at most 2 slots
  // from its in-order position.
  for (std::size_t slot = 0; slot < arrivals.size(); ++slot) {
    const auto original = arrivals[slot].second / 2048;
    EXPECT_LE(std::llabs(static_cast<long long>(original) -
                         static_cast<long long>(slot)),
              2)
        << "slot " << slot;
  }
}

TEST_F(LinkFixture, ShuffleDeterministicPerSeed) {
  world.send_shuffled(4, 7);
  eng.run();
  auto first = arrivals;
  arrivals.clear();

  World other;
  other.send_shuffled(4, 7);
  other.eng.run();
  ASSERT_EQ(first.size(), other.arrivals.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].second, other.arrivals[i].second);
  }
}

TEST_F(LinkFixture, WindowOfOneIsInOrder) {
  world.send_shuffled(1, 7);
  eng.run();
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i].second, i * 2048);
  }
}

TEST_F(LinkFixture, SendsQueueBehindOneWireClock) {
  // Two messages offered at t = 0 on one Link share its wire: the
  // second departs behind the first one's last byte.
  const auto a = p4::packetize(1, 1, data);
  const auto b = p4::packetize(2, 1, data);
  const sim::Time first = link.send(a, 0);
  EXPECT_EQ(link.port_free(), first - nic.cost().net_latency);
  const sim::Time second = link.send(b, 0);
  EXPECT_EQ(second - first,
            static_cast<sim::Time>(b.size()) * nic.cost().pkt_interval());
  eng.run();
  EXPECT_EQ(arrivals.size(), a.size() + b.size());
  EXPECT_TRUE(nic.info(1)->done);
  EXPECT_TRUE(nic.info(2)->done);
}

TEST(Link, MisuseThrows) {
  sim::Engine eng;
  Host host(1 << 16);
  NicModel nic(eng, host, CostModel{});
  Link link(eng, nic, nic.cost());
  std::vector<std::byte> data(3 * 2048);
  const auto pkts = p4::packetize(1, 1, data);

  // ready must be empty or hold one time per packet.
  const std::vector<sim::Time> short_ready(pkts.size() - 1, 0);
  EXPECT_THROW(link.send(pkts, 0, short_ready), std::invalid_argument);

  sim::faults::FaultConfig lossy;
  lossy.drop_rate = 0.1;
  const std::vector<p4::Packet> none;
  EXPECT_THROW(link.send_reliable(none, 0, sim::faults::FaultPlan(lossy, 1)),
               std::invalid_argument);
  // An inert plan belongs on the lossless send().
  EXPECT_THROW(link.send_reliable(pkts, 0, sim::faults::FaultPlan({}, 1)),
               std::invalid_argument);
  // Nothing was sent.
  EXPECT_EQ(link.port_free(), 0);
  EXPECT_TRUE(eng.empty());
}

}  // namespace
}  // namespace netddt::spin
