#include "fabric/collectives.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "ddt/datatype.hpp"
#include "ddt/pack.hpp"
#include "offload/compute_plan.hpp"
#include "offload/runner.hpp"
#include "offload/specialized.hpp"
#include "sim/check.hpp"
#include "sim/stats.hpp"
#include "spin/compute.hpp"

namespace netddt::fabric {

namespace {

/// Receive-side block length / stride of the byte-moving landing type:
/// each peer's packed block scatters into a strided slot, so the NIC
/// really exercises the DDT-unpack path (256-byte rows every 320 bytes).
constexpr std::uint64_t kRowBytes = 256;
constexpr std::uint64_t kRowStride = 320;

std::uint64_t align64(std::uint64_t v) { return (v + 63) & ~std::uint64_t{63}; }

ddt::TypePtr elem_type(spin::ElemType e) {
  switch (e) {
    case spin::ElemType::kInt8: return ddt::Datatype::int8();
    case spin::ElemType::kInt32: return ddt::Datatype::int32();
    case spin::ElemType::kInt64: return ddt::Datatype::int64();
    case spin::ElemType::kFloat32: return ddt::Datatype::float32();
    case spin::ElemType::kFloat64: return ddt::Datatype::float64();
  }
  return ddt::Datatype::int32();
}

/// One offered message: (round r, source s, destination d). Packets are
/// built up front and stay at stable addresses for the simulation's
/// lifetime (forwarding events hold pointers into them). Their data
/// points into `payload` for reduce-scatter, else into the run's
/// shared PayloadPattern.
struct Msg {
  std::uint64_t msg_id = 0;
  std::uint32_t r = 0, s = 0, d = 0;
  std::vector<std::byte> payload;  // reduce only: fill_typed elements
  std::vector<p4::Packet> packets;
  bool done = false;
  bool failed = false;
};

struct Driver {
  const CollectiveConfig& cfg;
  std::uint32_t P;
  std::uint64_t block;
  bool lossy;
  bool reduce;  // streaming-reduction landing (offloaded reduce-scatter)

  sim::Engine engine;
  Fabric fabric;
  std::vector<std::unique_ptr<spin::Host>> hosts;
  std::vector<std::unique_ptr<spin::NicModel>> nics;

  // Byte-moving landing (and the offload=false packed baseline).
  ddt::TypePtr type;
  std::uint64_t extent = 0;
  std::uint64_t slot_stride = 0;
  std::vector<std::unique_ptr<offload::SpecializedPlan>> plans;
  std::optional<offload::PayloadPattern> pattern;

  // Streaming-reduction landing.
  spin::ComputeConfig cc;
  std::vector<std::unique_ptr<offload::ComputePlan>> cplans;

  std::vector<Msg> msgs;
  std::vector<sim::Time> offers;             // (s, r) -> offer instant
  std::vector<sim::Time> round_first_offer;  // per round
  std::vector<sim::Time> round_last_done;    // per round, -1 = none
  sim::Time first_offer = 0, last_done = -1;
  CollectiveRun run;

  explicit Driver(const CollectiveConfig& config)
      : cfg(config),
        P(config.fabric.topology.nodes),
        block(config.block_bytes),
        lossy(config.faults.active()),
        reduce(config.kind == CollectiveKind::kReduceScatter &&
               config.offload),
        fabric(engine, config.fabric) {}

  std::uint64_t msg_index(std::uint32_t r, std::uint32_t s,
                          std::uint32_t d) const {
    const std::uint32_t step = (d + P - s - 1) % P;
    return (static_cast<std::uint64_t>(r) * P + s) * (P - 1) + step;
  }

  std::uint64_t payload_seed(const Msg& m) const {
    // Allgather broadcasts one block per (round, source); the other
    // kinds send distinct per-destination blocks.
    const std::uint64_t key =
        cfg.kind == CollectiveKind::kAllgather
            ? static_cast<std::uint64_t>(m.r) * P + m.s
            : m.msg_id;
    return cfg.seed ^ (key * 0x9E3779B97F4A7C15ull);
  }

  std::uint64_t window_seed(std::uint32_t d, std::uint32_t r) const {
    return cfg.seed ^
           ((static_cast<std::uint64_t>(d) * cfg.rounds + r + 1) *
            0xD1B54A32D192ED03ull);
  }

  void build_nodes() {
    std::uint64_t host_bytes;
    if (reduce) {
      cc.family = spin::HandlerFamily::kReduce;
      cc.op = cfg.op;
      cc.elem = cfg.elem;
      host_bytes = static_cast<std::uint64_t>(cfg.rounds) * block;
    } else if (cfg.offload) {
      const std::uint64_t rows = block / kRowBytes;
      type = ddt::Datatype::hvector(static_cast<std::int64_t>(rows),
                                    kRowBytes, kRowStride,
                                    ddt::Datatype::int8());
      extent = static_cast<std::uint64_t>(type->extent());
      slot_stride = align64(extent);
      host_bytes =
          static_cast<std::uint64_t>(cfg.rounds) * P * slot_stride;
    } else {
      // Host baseline: every contribution lands packed in its own slot
      // (the CPU-side unpack/combine is the analytic term the benches
      // add on top, as in fig13's host rows).
      slot_stride = align64(block);
      host_bytes =
          static_cast<std::uint64_t>(cfg.rounds) * P * slot_stride;
    }

    hosts.reserve(P);
    nics.reserve(P);
    if (reduce) cplans.reserve(P);
    if (!reduce && cfg.offload) plans.reserve(P);
    for (std::uint32_t n = 0; n < P; ++n) {
      hosts.push_back(std::make_unique<spin::Host>(host_bytes));
      nics.push_back(std::make_unique<spin::NicModel>(
          engine, *hosts.back(), cfg.fabric.cost, cfg.nic));
      spin::NicModel& nic = *nics.back();
      fabric.attach(n, nic);
      if (reduce) {
        auto et = elem_type(cfg.elem);
        const std::uint64_t count = block / spin::elem_size(cfg.elem);
        NETDDT_CHECK(offload::ComputePlan::elem_eligible(et, count, cc),
                     "reduce landing must be element-eligible");
        cplans.push_back(offload::ComputePlan::create(
            et, count, cfg.fabric.cost, cfg.pack_engine, cc,
            nic.metrics()));
        NETDDT_CHECK(cplans.back() != nullptr, "ComputePlan::create failed");
        nic.memory().alloc(cplans.back()->descriptor_bytes(),
                           "fabric.reduce_descriptor");
        // Pre-load each round's window with the deterministic existing
        // contents the P-1 contributions combine into.
        for (std::uint32_t r = 0; r < cfg.rounds; ++r) {
          cplans.back()->init_fill(
              hosts.back()->memory().data() +
                  static_cast<std::uint64_t>(r) * block,
              0, window_seed(n, r));
        }
      } else if (cfg.offload) {
        plans.push_back(offload::SpecializedPlan::create(
            type, 1, cfg.fabric.cost, /*closed_form_only=*/false,
            cfg.pack_engine));
        NETDDT_CHECK(plans.back() != nullptr,
                     "SpecializedPlan::create failed");
        nic.memory().alloc(plans.back()->descriptor_bytes(),
                           "fabric.ddt_descriptor");
      }
    }
  }

  void post_receives() {
    for (std::uint32_t d = 0; d < P; ++d) {
      spin::NicModel& nic = *nics[d];
      for (std::uint32_t r = 0; r < cfg.rounds; ++r) {
        for (std::uint32_t s = 0; s < P; ++s) {
          if (s == d) continue;
          p4::MatchEntry me;
          me.match_bits = (static_cast<std::uint64_t>(r) << 32) | s;
          if (reduce) {
            me.buffer_offset =
                static_cast<std::int64_t>(static_cast<std::uint64_t>(r) *
                                          block);
            me.length = block;
            me.context = nic.register_context(cplans[d]->context(nic));
          } else {
            me.buffer_offset = static_cast<std::int64_t>(
                (static_cast<std::uint64_t>(r) * P + s) * slot_stride);
            me.length = slot_stride;
            me.context = cfg.offload
                             ? nic.register_context(plans[d]->context(nic))
                             : nullptr;  // plain RDMA, packed landing
          }
          nic.match_list().append(p4::ListKind::kPriority, me);
        }
      }
    }
  }

  void build_messages() {
    if (!reduce) pattern.emplace(block);
    msgs.resize(static_cast<std::uint64_t>(cfg.rounds) * P * (P - 1));
    for (std::uint32_t r = 0; r < cfg.rounds; ++r) {
      for (std::uint32_t s = 0; s < P; ++s) {
        for (std::uint32_t step = 0; step + 1 < P; ++step) {
          const std::uint32_t d = (s + 1 + step) % P;
          Msg& m = msgs[msg_index(r, s, d)];
          m.r = r;
          m.s = s;
          m.d = d;
          m.msg_id =
              (static_cast<std::uint64_t>(r) * P + s) * P + d + 1;
          if (reduce) {
            m.payload.resize(block);
            spin::fill_typed(m.payload.data(), block, cfg.elem,
                             payload_seed(m));
          }
          m.packets = p4::packetize(
              m.msg_id, (static_cast<std::uint64_t>(r) << 32) | s,
              reduce ? std::span<const std::byte>(m.payload)
                     : pattern->view(block, payload_seed(m)),
              cfg.fabric.cost.pkt_payload);
        }
      }
    }
  }

  void schedule_offers() {
    offers.assign(static_cast<std::uint64_t>(P) * cfg.rounds, 0);
    round_first_offer.assign(cfg.rounds, sim::Time{-1});
    round_last_done.assign(cfg.rounds, sim::Time{-1});
    first_offer = -1;
    for (std::uint32_t s = 0; s < P; ++s) {
      sim::ArrivalProcess ap(cfg.arrivals, /*stream=*/s + 1);
      for (std::uint32_t r = 0; r < cfg.rounds; ++r) {
        const sim::Time t = ap.next();
        offers[static_cast<std::uint64_t>(s) * cfg.rounds + r] = t;
        if (round_first_offer[r] < 0 || t < round_first_offer[r]) {
          round_first_offer[r] = t;
        }
        if (first_offer < 0 || t < first_offer) first_offer = t;
        engine.schedule_at(t, [this, s, r] { offer_round(s, r); });
      }
    }
  }

  void offer_round(std::uint32_t s, std::uint32_t r) {
    const sim::Time now = engine.now();
    for (std::uint32_t step = 0; step + 1 < P; ++step) {
      const std::uint32_t d = (s + 1 + step) % P;
      const std::uint64_t idx = msg_index(r, s, d);
      Msg& m = msgs[idx];
      if (!lossy) {
        fabric.send(s, d, m.packets, now);
        continue;
      }
      fabric.send_reliable(
          s, d, m.packets, now,
          sim::faults::FaultPlan(cfg.faults, m.msg_id), cfg.retransmit,
          [this, idx](sim::Time, bool ok) {
            if (ok) return;
            msgs[idx].failed = true;
            ++run.failed;
          });
    }
  }

  void on_msg_done(std::uint32_t d, std::uint64_t msg_id, sim::Time when) {
    const std::uint64_t u = msg_id - 1;
    NETDDT_CHECK(u % P == d, "msg completion on the wrong node");
    const std::uint32_t s = static_cast<std::uint32_t>((u / P) % P);
    const std::uint32_t r = static_cast<std::uint32_t>(u / P / P);
    Msg& m = msgs[msg_index(r, s, d)];
    m.done = true;
    ++run.completed;
    run.bytes_moved += block;
    const sim::Time offer =
        offers[static_cast<std::uint64_t>(s) * cfg.rounds + r];
    run.completion_us.push_back(static_cast<double>(when - offer) / 1e6);
    if (when > round_last_done[r]) round_last_done[r] = when;
    if (when > last_done) last_done = when;
  }

  void verify() {
    if (!cfg.verify) return;
    if (reduce) {
      // One window per (destination, round); skip windows any failed
      // put may have partially written.
      std::vector<std::byte> ref(block);
      for (std::uint32_t d = 0; d < P; ++d) {
        for (std::uint32_t r = 0; r < cfg.rounds; ++r) {
          bool clean = true;
          for (std::uint32_t s = 0; s < P && clean; ++s) {
            if (s == d) continue;
            const Msg& m = msgs[msg_index(r, s, d)];
            clean = m.done && !m.failed;
          }
          if (!clean) {
            ++run.skipped_windows;
            continue;
          }
          cplans[d]->init_fill(ref.data(), 0, window_seed(d, r));
          for (std::uint32_t s = 0; s < P; ++s) {
            if (s == d) continue;
            const Msg& m = msgs[msg_index(r, s, d)];
            spin::apply_reduce(ref.data(), m.payload.data(), block,
                               cfg.op, cfg.elem);
          }
          const std::byte* got = hosts[d]->memory().data() +
                                 static_cast<std::uint64_t>(r) * block;
          if (std::memcmp(got, ref.data(), block) == 0) {
            ++run.verified_windows;
          } else {
            ++run.mismatched_windows;
          }
        }
      }
      return;
    }
    // Byte-moving kinds (and the packed host baseline): one slot per
    // message.
    std::vector<std::byte> ref(slot_stride);
    for (const Msg& m : msgs) {
      if (!m.done || m.failed) {
        ++run.skipped_windows;
        continue;
      }
      const std::byte* got =
          hosts[m.d]->memory().data() +
          (static_cast<std::uint64_t>(m.r) * P + m.s) * slot_stride;
      const std::byte* payload =
          pattern->view(block, payload_seed(m)).data();
      bool ok;
      if (cfg.offload) {
        std::fill(ref.begin(), ref.end(), std::byte{0});
        ddt::unpack(payload, *type, 1, ref.data());
        ok = std::memcmp(got, ref.data(), slot_stride) == 0;
      } else {
        ok = std::memcmp(got, payload, block) == 0;
      }
      if (ok) {
        ++run.verified_windows;
      } else {
        ++run.mismatched_windows;
      }
    }
  }

  CollectiveRun execute() {
    build_nodes();
    post_receives();
    build_messages();
    schedule_offers();
    for (std::uint32_t d = 0; d < P; ++d) {
      nics[d]->set_msg_done_callback(
          [this, d](std::uint64_t msg_id, sim::Time when) {
            on_msg_done(d, msg_id, when);
          });
    }
    engine.run();

    run.messages = msgs.size();
    NETDDT_CHECK(run.completed + run.failed == run.messages,
                 "every offered message must complete or fail");
    if (last_done >= 0) {
      run.makespan = last_done - first_offer;
      if (run.makespan > 0) {
        run.goodput_gbps = static_cast<double>(run.bytes_moved) * 8.0 *
                           1000.0 / static_cast<double>(run.makespan);
      }
    }
    const std::vector<double>& cs = run.completion_us;  // const overload
    run.p50_us = sim::percentile(cs, 50.0);
    run.p99_us = sim::percentile(cs, 99.0);
    run.p999_us = sim::percentile(cs, 99.9);
    run.round_us.reserve(cfg.rounds);
    for (std::uint32_t r = 0; r < cfg.rounds; ++r) {
      run.round_us.push_back(
          round_last_done[r] < 0
              ? 0.0
              : static_cast<double>(round_last_done[r] -
                                    round_first_offer[r]) /
                    1e6);
    }
    verify();
    run.fabric_metrics = fabric.metrics().snapshot();
    return std::move(run);
  }
};

// Public-API misuse fails in every build, not only under SPIN_CHECK.
void validate(const CollectiveConfig& cfg) {
  const auto fail = [](const std::string& why) {
    throw std::invalid_argument("run_collective: " + why);
  };
  if (cfg.fabric.topology.nodes < 2) fail("needs at least two nodes");
  if (cfg.rounds == 0) fail("needs at least one round");
  if (cfg.kind == CollectiveKind::kReduceScatter && cfg.offload) {
    const std::uint64_t elem = spin::elem_size(cfg.elem);
    if (cfg.block_bytes % elem != 0) {
      fail("reduce-scatter block_bytes " + std::to_string(cfg.block_bytes) +
           " is not a multiple of the " + std::to_string(elem) +
           "-byte element");
    }
    if (cfg.fabric.cost.pkt_payload % elem != 0) {
      fail("packet payload " + std::to_string(cfg.fabric.cost.pkt_payload) +
           " is not a multiple of the " + std::to_string(elem) +
           "-byte reduce element");
    }
  } else if (cfg.offload && cfg.block_bytes % kRowBytes != 0) {
    fail("offloaded block_bytes " + std::to_string(cfg.block_bytes) +
         " is not a multiple of " + std::to_string(kRowBytes));
  }
}

}  // namespace

CollectiveRun run_collective(const CollectiveConfig& config) {
  validate(config);
  Driver driver(config);
  return driver.execute();
}

}  // namespace netddt::fabric
