// Tests for the Portals 4 substrate: matching semantics, packetization,
// streaming puts, and event queues.

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <utility>
#include <vector>

#include "p4/event.hpp"
#include "p4/match.hpp"
#include "p4/packet.hpp"
#include "p4/put.hpp"
#include "sim/check.hpp"
#include "sim/rng.hpp"

namespace netddt::p4 {
namespace {

MatchEntry me(std::uint64_t bits, std::uint64_t ignore = 0) {
  MatchEntry e;
  e.match_bits = bits;
  e.ignore_bits = ignore;
  e.length = 1 << 20;
  return e;
}

// Every matching-semantics test runs against both engines: the linear
// reference scan and the hashed default must be indistinguishable.
class Matching : public ::testing::TestWithParam<MatchEngineKind> {
 protected:
  MatchList ml{make_match_engine(GetParam())};
};

INSTANTIATE_TEST_SUITE_P(
    Engines, Matching,
    ::testing::Values(MatchEngineKind::kLinear, MatchEngineKind::kHashed),
    [](const auto& info) {
      return info.param == MatchEngineKind::kLinear ? "linear" : "hashed";
    });

TEST_P(Matching, ExactBitsMatch) {
  ml.append(ListKind::kPriority, me(0xCAFE));
  auto hit = ml.match(0xCAFE);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->list, ListKind::kPriority);
  EXPECT_FALSE(ml.match(0xCAFE).has_value()) << "use_once entry must unlink";
}

TEST_P(Matching, MismatchReturnsNothing) {
  ml.append(ListKind::kPriority, me(0xCAFE));
  EXPECT_FALSE(ml.match(0xBEEF).has_value());
  EXPECT_EQ(ml.priority_size(), 1u);
}

TEST_P(Matching, IgnoreBitsMaskCompare) {
  ml.append(ListKind::kPriority, me(0xAB00, 0x00FF));
  EXPECT_TRUE(ml.match(0xAB42).has_value());
}

TEST_P(Matching, PrioritySearchedBeforeOverflow) {
  MatchEntry pri = me(7);
  pri.buffer_offset = 111;
  MatchEntry ovf = me(7);
  ovf.buffer_offset = 222;
  ml.append(ListKind::kOverflow, ovf);
  ml.append(ListKind::kPriority, pri);
  auto hit = ml.match(7);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->entry.buffer_offset, 111);
  EXPECT_EQ(hit->list, ListKind::kPriority);
}

TEST_P(Matching, OverflowUsedAsFallback) {
  ml.append(ListKind::kOverflow, me(7));
  auto hit = ml.match(7);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->list, ListKind::kOverflow);
}

TEST_P(Matching, FifoOrderWithinList) {
  MatchEntry a = me(9), b = me(9);
  a.buffer_offset = 1;
  b.buffer_offset = 2;
  ml.append(ListKind::kPriority, a);
  ml.append(ListKind::kPriority, b);
  EXPECT_EQ(ml.match(9)->entry.buffer_offset, 1);
  EXPECT_EQ(ml.match(9)->entry.buffer_offset, 2);
}

TEST_P(Matching, PersistentEntryMatchesRepeatedly) {
  MatchEntry e = me(5);
  e.use_once = false;
  ml.append(ListKind::kPriority, e);
  EXPECT_TRUE(ml.match(5).has_value());
  EXPECT_TRUE(ml.match(5).has_value());
  EXPECT_EQ(ml.priority_size(), 1u);
}

TEST_P(Matching, UnlinkByHandle) {
  const auto id = ml.append(ListKind::kPriority, me(3));
  EXPECT_TRUE(ml.unlink(id));
  EXPECT_FALSE(ml.unlink(id));
  EXPECT_FALSE(ml.match(3).has_value());
}

TEST_P(Matching, UnlinkAfterUseOnceMatchReturnsFalse) {
  // The NIC retains a matched use_once entry for the message's lifetime
  // and unlinks by handle at completion; the engine-side unlink already
  // happened at match time and must report "gone" without damage.
  const auto id = ml.append(ListKind::kPriority, me(11));
  ASSERT_TRUE(ml.match(11).has_value());
  EXPECT_FALSE(ml.unlink(id));
  EXPECT_EQ(ml.priority_size(), 0u);
}

TEST_P(Matching, FifoAcrossIgnoreMaskOverlap) {
  // A wildcard (ignore low byte) and an exact entry both match 0xAB42.
  // Append order decides — the hashed engine keeps these in different
  // mask classes, so this pins its cross-class sequence arbitration.
  MatchEntry wild = me(0xAB00, 0x00FF);
  wild.buffer_offset = 1;
  MatchEntry exact = me(0xAB42);
  exact.buffer_offset = 2;
  ml.append(ListKind::kPriority, wild);
  ml.append(ListKind::kPriority, exact);
  EXPECT_EQ(ml.match(0xAB42)->entry.buffer_offset, 1);
  EXPECT_EQ(ml.match(0xAB42)->entry.buffer_offset, 2);

  // And the other append order.
  MatchEntry exact2 = me(0xCD42);
  exact2.buffer_offset = 3;
  MatchEntry wild2 = me(0xCD00, 0x00FF);
  wild2.buffer_offset = 4;
  ml.append(ListKind::kPriority, exact2);
  ml.append(ListKind::kPriority, wild2);
  EXPECT_EQ(ml.match(0xCD42)->entry.buffer_offset, 3);
  EXPECT_EQ(ml.match(0xCD42)->entry.buffer_offset, 4);
}

TEST_P(Matching, PriorityExhaustedBeforeOverflowWildcard) {
  // An older overflow wildcard must still lose to a younger priority
  // entry: list precedence beats append age.
  MatchEntry wild = me(0, ~std::uint64_t{0});  // matches anything
  wild.buffer_offset = 1;
  ml.append(ListKind::kOverflow, wild);
  MatchEntry pri = me(0x77);
  pri.buffer_offset = 2;
  ml.append(ListKind::kPriority, pri);
  auto hit = ml.match(0x77);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->entry.buffer_offset, 2);
  EXPECT_EQ(hit->list, ListKind::kPriority);
  // Priority now empty -> the wildcard catches the next packet.
  EXPECT_EQ(ml.match(0x77)->entry.buffer_offset, 1);
}

TEST_P(Matching, SizesTrackAppendUnlinkAndMatch) {
  const auto a = ml.append(ListKind::kPriority, me(1));
  ml.append(ListKind::kPriority, me(2));
  ml.append(ListKind::kOverflow, me(3));
  EXPECT_EQ(ml.priority_size(), 2u);
  EXPECT_EQ(ml.overflow_size(), 1u);
  EXPECT_TRUE(ml.unlink(a));
  EXPECT_EQ(ml.priority_size(), 1u);
  ASSERT_TRUE(ml.match(3).has_value());
  EXPECT_EQ(ml.overflow_size(), 0u);
}

TEST_P(Matching, AppendWithPresetIdViolatesCheck) {
  sim::check::ScopedEnable checks(true);
  MatchEntry e = me(1);
  e.id = 42;  // handles are assigned by the MatchList, never the caller
  EXPECT_THROW(ml.append(ListKind::kPriority, e), sim::check::Violation);
}

// Differential: the linear reference and the hashed engine driven in
// lock-step must agree on every operation: the same hit (entry identity
// and list) or miss, the same unlink outcome, the same list sizes.
struct LockStep {
  MatchList lin{make_match_engine(MatchEngineKind::kLinear)};
  MatchList hsh{make_match_engine(MatchEngineKind::kHashed)};
  bool ok = true;  // cleared at the first divergence

  void agree(bool same, const char* op, std::uint64_t arg) {
    same = same && lin.priority_size() == hsh.priority_size() &&
           lin.overflow_size() == hsh.overflow_size();
    EXPECT_TRUE(same) << op << " " << arg << ": engines diverge";
    ok = ok && same;
  }
  std::uint64_t append(ListKind list, const MatchEntry& e) {
    const auto id = lin.append(list, e);
    agree(id == hsh.append(list, e), "append", e.match_bits);
    return id;
  }
  bool match(std::uint64_t bits) {
    const auto l = lin.match(bits);
    const auto h = hsh.match(bits);
    agree(l.has_value() == h.has_value() &&
              (!l || (l->entry.id == h->entry.id && l->list == h->list)),
          "match", bits);
    return l.has_value();
  }
  void unlink(std::uint64_t id) {
    agree(lin.unlink(id) == hsh.unlink(id), "unlink", id);
  }
};

// Small pools of bits and masks: matches, misses and mask-class overlaps
// all happen often.
void random_mix(LockStep& ls, sim::Rng& rng) {
  const std::uint64_t bits[] = {0x10, 0x11, 0x20, 0x21, 0xFF00, 0xFF42};
  const std::uint64_t masks[] = {0, 0, 0x00FF, ~std::uint64_t{0}};
  std::vector<std::uint64_t> ids;
  for (int step = 0; step < 4000 && ls.ok; ++step) {
    const double op = rng.uniform();
    if (op < 0.45) {
      MatchEntry e = me(bits[rng.below(6)], masks[rng.below(4)]);
      e.use_once = rng.uniform() < 0.7;
      const auto list =
          rng.uniform() < 0.8 ? ListKind::kPriority : ListKind::kOverflow;
      ids.push_back(ls.append(list, e));
    } else if (op < 0.9) {
      ls.match(bits[rng.below(6)]);
    } else if (!ids.empty()) {
      ls.unlink(ids[rng.below(ids.size())]);
    }
  }
}

// The service driver (offload/service.cpp): two tenants key messages
// (t+1)<<40 | seq; 1024 use_once receives stay posted; each arriving
// header retires one, in any order, and the tenant's next one is posted.
void service_shape(LockStep& ls, sim::Rng& rng) {
  std::uint64_t next_seq[2] = {0, 0};
  std::vector<std::uint64_t> posted;
  const auto post = [&] {
    const std::uint64_t t = rng.below(2);
    posted.push_back(((t + 1) << 40) | next_seq[t]++);
    ls.append(ListKind::kPriority, me(posted.back()));
  };
  while (posted.size() < 1024) post();
  for (int step = 0; step < 6000 && ls.ok; ++step) {
    const std::size_t i = rng.below(posted.size());
    EXPECT_TRUE(ls.match(posted[i]));
    EXPECT_FALSE(ls.match(posted[i])) << "a retired receive must miss";
    posted[i] = posted.back();
    posted.pop_back();
    post();
  }
}

// The fabric collectives (fabric/collectives.cpp): a node posts (r<<32)|s
// for every round r and each of its P-1 peers s up front; headers arrive
// in any order across rounds and senders.
void fabric_shape(LockStep& ls, sim::Rng& rng) {
  constexpr std::uint64_t kNodes = 16, kRounds = 8, kSelf = 3;
  std::vector<std::uint64_t> keys;
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    for (std::uint64_t s = 0; s < kNodes; ++s) {
      if (s != kSelf) keys.push_back((r << 32) | s);
    }
  }
  for (const std::uint64_t k : keys) ls.append(ListKind::kPriority, me(k));
  for (std::size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.below(i)]);
  }
  for (const std::uint64_t k : keys) EXPECT_TRUE(ls.match(k));
  EXPECT_EQ(ls.lin.priority_size(), 0u);
}

// bench/match_perf's population: persistent per-peer keys in the
// priority list and, every 97th entry, a peer wildcard (low 40 bits
// ignored) in the overflow list. Lookups hit the priority list, fall
// through to a wildcard, or miss (peer kPeers posts nothing).
void wildcard_overflow(LockStep& ls, sim::Rng& rng) {
  constexpr std::uint64_t kPeers = 64, kPosted = 2000;
  const auto key = [](std::uint64_t peer, std::uint64_t seq) {
    return ((peer + 1) << 40) | seq;
  };
  std::vector<std::uint64_t> ids;
  for (std::uint64_t i = 0; i < kPosted; ++i) {
    const bool wild = i % 97 == 96;
    MatchEntry e = wild ? me(key(i % kPeers, 0), (1ull << 40) - 1)
                        : me(key(i % kPeers, i / kPeers));
    e.use_once = false;
    ids.push_back(
        ls.append(wild ? ListKind::kOverflow : ListKind::kPriority, e));
  }
  for (int step = 0; step < 6000 && ls.ok; ++step) {
    if (rng.uniform() < 0.9) {
      ls.match(key(rng.below(kPeers + 1), rng.below(2 * kPosted / kPeers)));
    } else {
      ls.unlink(ids[rng.below(ids.size())]);
    }
  }
}

TEST(MatchingDifferential, RandomOpsLinearVsHashed) {
  const std::pair<const char*, void (*)(LockStep&, sim::Rng&)> inputs[] = {
      {"random mix", random_mix},
      {"service: 1024 posted, retire and repost", service_shape},
      {"fabric: P-1 receives per round", fabric_shape},
      {"match_perf: wildcard overflow class", wildcard_overflow}};
  for (const auto& [name, run] : inputs) {
    SCOPED_TRACE(name);
    LockStep ls;
    sim::Rng rng(2026);
    run(ls, rng);
  }
}

TEST(Packetize, SplitsAtPayloadBoundary) {
  std::vector<std::byte> data(5000);
  auto pkts = packetize(1, 0xAA, data, 2048);
  ASSERT_EQ(pkts.size(), 3u);
  EXPECT_TRUE(pkts[0].first);
  EXPECT_FALSE(pkts[0].last);
  EXPECT_EQ(pkts[0].payload_bytes, 2048u);
  EXPECT_EQ(pkts[1].offset, 2048u);
  EXPECT_TRUE(pkts[2].last);
  EXPECT_EQ(pkts[2].payload_bytes, 5000u - 4096u);
  const std::uint64_t total = std::accumulate(
      pkts.begin(), pkts.end(), std::uint64_t{0},
      [](std::uint64_t acc, const Packet& p) { return acc + p.payload_bytes; });
  EXPECT_EQ(total, data.size());
}

TEST(Packetize, SinglePacketMessageIsHeaderAndCompletion) {
  std::vector<std::byte> data(100);
  auto pkts = packetize(1, 0, data);
  ASSERT_EQ(pkts.size(), 1u);
  EXPECT_TRUE(pkts[0].first);
  EXPECT_TRUE(pkts[0].last);
}

TEST(Packetize, EmptyPutStillSendsHeader) {
  auto pkts = packetize(1, 0, {});
  ASSERT_EQ(pkts.size(), 1u);
  EXPECT_EQ(pkts[0].payload_bytes, 0u);
  EXPECT_TRUE(pkts[0].first && pkts[0].last);
}

TEST(StreamingPut, EmitsPacketsAsChunksAccumulate) {
  // 3000 B message, chunks of 1000 B, 2048 B packets: the first packet
  // can only be cut after the third chunk... no — after 2048 B staged,
  // i.e. during the third chunk's append.
  StreamingPut sp(1, 0, 3000);
  std::vector<std::byte> chunk(1000);
  EXPECT_TRUE(sp.stream(chunk, false).empty());
  EXPECT_TRUE(sp.stream(chunk, false).empty());
  auto pkts = sp.stream(chunk, true);
  ASSERT_EQ(pkts.size(), 2u);
  EXPECT_TRUE(pkts[0].first);
  EXPECT_EQ(pkts[0].payload_bytes, 2048u);
  EXPECT_TRUE(pkts[1].last);
  EXPECT_EQ(pkts[1].payload_bytes, 952u);
  EXPECT_TRUE(sp.complete());
}

TEST(StreamingPut, DataIsConcatenatedAcrossCalls) {
  StreamingPut sp(1, 0, 4096);
  std::vector<std::byte> a(3000), b(1096);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = std::byte{0xAA};
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = std::byte{0xBB};
  auto p1 = sp.stream(a, false);
  ASSERT_EQ(p1.size(), 1u);
  auto p2 = sp.stream(b, true);
  ASSERT_EQ(p2.size(), 1u);
  // Second packet spans the chunk boundary: 952 B of a then 1096 B of b.
  EXPECT_EQ(p2[0].data[0], std::byte{0xAA});
  EXPECT_EQ(p2[0].data[952], std::byte{0xBB});
  EXPECT_EQ(p2[0].payload_bytes, 2048u);
}

TEST(StreamingPut, SinglePacketMessage) {
  StreamingPut sp(7, 3, 512);
  std::vector<std::byte> chunk(512);
  auto pkts = sp.stream(chunk, true);
  ASSERT_EQ(pkts.size(), 1u);
  EXPECT_TRUE(pkts[0].first && pkts[0].last);
}

TEST(StreamingPut, TargetSeesOneMessage) {
  // All packets carry the same msg_id: transparent to the target.
  StreamingPut sp(42, 9, 8192);
  std::vector<std::byte> chunk(8192);
  auto pkts = sp.stream(chunk, true);
  ASSERT_EQ(pkts.size(), 4u);
  for (const auto& p : pkts) {
    EXPECT_EQ(p.msg_id, 42u);
    EXPECT_EQ(p.match_bits, 9u);
  }
  EXPECT_TRUE(pkts.front().first);
  EXPECT_TRUE(pkts.back().last);
  for (std::size_t i = 1; i + 1 < pkts.size(); ++i) {
    EXPECT_FALSE(pkts[i].first || pkts[i].last);
  }
}

TEST(Events, CountingEventsAccumulate) {
  EventQueue eq;
  eq.post(Event{EventKind::kPut, 1, 100, 0});
  eq.post(Event{EventKind::kUnpackComplete, 2, 50, 10});
  EXPECT_EQ(eq.count(), 2u);
  EXPECT_EQ(eq.byte_count(), 150u);
  ASSERT_NE(eq.find(EventKind::kUnpackComplete), nullptr);
  EXPECT_EQ(eq.find(EventKind::kUnpackComplete)->msg_id, 2u);
  auto drained = eq.drain();
  EXPECT_EQ(drained.size(), 2u);
  EXPECT_TRUE(eq.events().empty());
  EXPECT_EQ(eq.count(), 2u) << "counting events survive draining";
}

TEST(PacketCount, RoundsUp) {
  EXPECT_EQ(packet_count(0), 1u);
  EXPECT_EQ(packet_count(1), 1u);
  EXPECT_EQ(packet_count(2048), 1u);
  EXPECT_EQ(packet_count(2049), 2u);
  EXPECT_EQ(packet_count(4096), 2u);
}

}  // namespace
}  // namespace netddt::p4
