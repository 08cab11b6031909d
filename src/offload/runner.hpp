#pragma once
// Single-receive experiment driver: builds a sender/link/NIC/host world,
// installs one offload strategy, streams one message, verifies the
// receive buffer against the reference unpack, and reports all the
// quantities the paper's figures plot.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "dataloop/program.hpp"
#include "ddt/datatype.hpp"
#include "offload/strategy.hpp"
#include "p4/match.hpp"
#include "p4/put.hpp"
#include "sim/faults/faults.hpp"
#include "sim/metrics.hpp"
#include "sim/trace/trace.hpp"
#include "spin/compute.hpp"
#include "spin/cost_model.hpp"

namespace netddt::offload {

struct ReceiveConfig {
  ddt::TypePtr type;
  std::uint64_t count = 1;
  StrategyKind strategy = StrategyKind::kRwCp;
  spin::CostModel cost{};
  std::uint32_t hpus = 16;
  std::uint64_t nicmem_bytes = 4ull << 20;
  /// Matching-unit implementation; functional only (identical simulated
  /// timing), so results are byte-identical across engines.
  p4::MatchEngineKind match_engine = p4::MatchEngineKind::kHashed;
  /// Byte engine for the functional copy paths (verification unpack and
  /// the specialized strategy's handler). The default interpreter keeps
  /// output byte-identical to historical runs; kProgram executes the
  /// compiled flat program (dataloop/program.hpp), fusing adjacent DMA
  /// regions and publishing `dataloop.program.*` stats.
  dataloop::PackEngine pack_engine = dataloop::PackEngine::kInterpreter;
  double epsilon = 0.2;  // RW/RO-CP scheduling-overhead budget
  std::uint64_t pkt_buffer_bytes = 512ull << 10;
  /// Reorder payload packets within windows of this many slots (0 = in
  /// order; p4::shuffle_payload). Exercises segment resets / checkpoint
  /// rollback.
  std::uint32_t ooo_window = 0;
  std::uint64_t seed = 1;
  /// Wire fault injection (drop/dup/reorder rates + fault seed). When
  /// active() the message goes through the reliable-put protocol
  /// (p4::ReliablePut, carried by spin::Link::send_reliable) and
  /// `ooo_window` is ignored; when inert
  /// (all rates zero, the default) the run is byte-identical to a build
  /// without the fault layer.
  sim::faults::FaultConfig faults{};
  /// Retransmission policy of the reliable transport; only read when
  /// `faults` is active.
  p4::RetransmitConfig retransmit{};
  /// In-network compute request (docs/HANDLERS.md). When set (and the
  /// strategy is not kHostUnpack) the receive installs a ComputePlan
  /// context instead of a byte-moving strategy: the stream carries typed
  /// elements (fill_typed — or their quantized wire form for kTransform)
  /// and verification compares against the compute host reference. With
  /// kHostUnpack the stream lands in the bounce buffer as usual and the
  /// CPU-side reduction estimate is added to the reported times — the
  /// ablation_reduce baseline. Runs without `compute` are byte-identical
  /// to builds without the compute subsystem.
  std::optional<spin::ComputeConfig> compute;
  bool verify = true;
  /// Force the src/sim/check invariant checker on for this run (same
  /// effect as SPIN_CHECK=1 but scoped to the calling thread, so
  /// parallel sweeps can mix validated and plain runs).
  bool validate = false;
  /// Copy the final receive buffer into ReceiveRun::buffer so callers
  /// (the differential fuzz oracle) can compare whole buffers across
  /// strategies, not just the typed regions.
  bool keep_buffer = false;
  /// Event/stats tracing (zero-cost when left default-disabled).
  /// `trace.events` also records the Fig 15 DMA queue-depth trace.
  sim::trace::TraceConfig trace{};
};

struct ReceiveRun {
  ReceiveResult result;
  std::vector<std::pair<sim::Time, std::size_t>> dma_trace;
  /// Everything the NIC-layer components and the offload strategy
  /// published during the run ("nic.*" / "offload.*" / "sim.*" scopes);
  /// the fields in `result` are views into the same data.
  sim::MetricsSnapshot metrics;
  /// The run's tracer when `config.trace.any()`, else null. Holds the
  /// event timeline and the per-stage latency histograms; export with
  /// sim/trace/chrome.hpp.
  std::unique_ptr<sim::trace::Tracer> tracer;
  /// Critical-path decomposition of the message when `config.trace.blame`
  /// (stage times sum to the simulated end-to-end latency; the host
  /// baseline's CPU unpack happens after the simulation and is not a
  /// ledger stage).
  std::optional<sim::trace::BlameAttribution> blame;
  /// Final receive buffer when `config.keep_buffer` (host bounce area
  /// excluded). Byte 0 is the lowest addressable byte of the layout;
  /// a type region at offset `off` lives at `buffer_shift + off`.
  std::vector<std::byte> buffer;
  /// Bytes the receive window was shifted so negative-lb layouts stay
  /// inside the buffer (= max(0, -min(lb, true_lb))).
  std::int64_t buffer_shift = 0;
};

/// Throws std::invalid_argument on a null type or a zero count.
ReceiveRun run_receive(const ReceiveConfig& config);

/// The harness's deterministic message payloads, shared and read-only.
///
/// Byte i of the payload for `seed` is (167*i + 13*seed + 5) & 0xFF. In
/// i the sequence has period 256, and since 167*43 = 13 (mod 256) a seed
/// only rotates it: byte i is base[(i + 43*seed) & 255], where base[j] =
/// (167*j + 5) & 0xFF. One buffer of the tiled base sequence, max_bytes +
/// 256 long, therefore holds every payload of up to max_bytes bytes as a
/// window. A run builds one and packetizes and verifies every message
/// from views into it; the views stay valid while the object lives.
class PayloadPattern {
 public:
  explicit PayloadPattern(std::uint64_t max_bytes);

  /// The payload of `bytes` bytes for `seed`. Throws
  /// std::invalid_argument when `bytes` exceeds max_bytes().
  std::span<const std::byte> view(std::uint64_t bytes,
                                  std::uint64_t seed) const;
  std::uint64_t max_bytes() const { return tiled_.size() - 256; }

 private:
  std::vector<std::byte> tiled_;
};

/// The deterministic packed stream run_receive sends (a pure function of
/// length and `ReceiveConfig::seed`): a copy of
/// PayloadPattern(bytes).view(bytes, seed), whose comment gives the
/// byte formula and its period-256 identity. Exposed so differential
/// oracles can compute the expected receive buffer with ddt::unpack and
/// compare it against ReceiveRun::buffer.
std::vector<std::byte> packed_message_pattern(std::uint64_t bytes,
                                              std::uint64_t seed);

}  // namespace netddt::offload
