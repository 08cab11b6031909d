// perfbench: the simulator's own speed, end to end and per layer, on one
// workload per process and one thread.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//
// The workload is set up, then its episodes — independent realizations
// derived from the seed — are simulated in turn, repeatedly, for S
// seconds and (untraced) at least once each, with the set-up repeated
// after every episode (set-up time is the median). With --trace 0 the
// last stdout line is a JSON object holding the end-to-end metrics; with
// --trace 1 it holds the per-layer metrics, taken from traced episodes
// (spans + the blame ledger) and from replays of each layer's public
// functions. Every episode is
// verified against the host reference and fingerprinted; a mismatch, an
// unverified message, a failed put on a lossless workload or a
// fingerprint that changes between runs of an episode exits 1.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.hpp"
#include "dataloop/cache.hpp"
#include "sim/stats.hpp"

using namespace perfbench;
using netddt::sim::percentile;

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"wall_s", "s"},           {"sim_pkts_per_s", "1/s"},
    {"setup_s", "s"},          {"peak_rss_mb", "MB"},
    {"sim_goodput_gbps", "Gbit/s"}, {"sim_p50_us", "sim_us"},
    {"sim_tail_us", "sim_us"},
};

constexpr MetricSpec kPerLayer[] = {
    {"sim.engine_ns_per_event.d16", "ns"},
    {"sim.engine_ns_per_event.d1024", "ns"},
    {"sim.engine_ns_per_event.d16384", "ns"},
    {"sim.engine.events_per_pkt", "ratio"},
    {"sim.engine.queue_depth", "count"},
    {"offload.pattern_s", "s"},
    {"offload.verify_s", "s"},
    {"offload.harness_share", "ratio"},
    {"offload.checkpoints", "count"},
    {"offload.segment_resets", "count"},
    {"offload.catchup_blocks", "count"},
    {"offload.evictions", "count"},
    {"offload.host_fallbacks", "count"},
    {"ddt.unpack_gbps", "Gbit/s"},
    {"dataloop.compile_us", "us"},
    {"dataloop.segment_gbps", "Gbit/s"},
    {"dataloop.cache_hit_ratio", "ratio"},
    {"p4.match_ns", "ns"},
    {"nic.pkts.matched", "count"},
    {"nic.pkts.deferred", "count"},
    {"nic.sched.handler_time_ps", "sim_ps"},
    {"nic.sched.handlers_run", "count"},
    {"nic.dma.writes", "count"},
    {"nic.dma.queue_depth.peak", "count"},
    {"nic.pktbuf.occupancy.peak", "B"},
    {"nic.mem.used.peak", "B"},
    {"blame.admission.p50_share", "ratio"},
    {"blame.admission.p999_share", "ratio"},
    {"blame.sender_queue.p50_share", "ratio"},
    {"blame.sender_queue.p999_share", "ratio"},
    {"blame.wire.p50_share", "ratio"},
    {"blame.wire.p999_share", "ratio"},
    {"blame.retransmit.p50_share", "ratio"},
    {"blame.retransmit.p999_share", "ratio"},
    {"blame.inbound.p50_share", "ratio"},
    {"blame.inbound.p999_share", "ratio"},
    {"blame.match.p50_share", "ratio"},
    {"blame.match.p999_share", "ratio"},
    {"blame.hpu_wait.p50_share", "ratio"},
    {"blame.hpu_wait.p999_share", "ratio"},
    {"blame.hpu_execute.p50_share", "ratio"},
    {"blame.hpu_execute.p999_share", "ratio"},
    {"blame.dma_queue.p50_share", "ratio"},
    {"blame.dma_queue.p999_share", "ratio"},
    {"blame.dma_transfer.p50_share", "ratio"},
    {"blame.dma_transfer.p999_share", "ratio"},
    {"fabric.queue_wait_ps", "sim_ps"},
    {"fabric.blocked", "count"},
    {"fabric.queue_depth_peak", "count"},
    {"fabric.pkts", "count"},
    {"p4.retransmits", "count"},
    {"p4.pkts_dropped", "count"},
    {"fabric.retransmits", "count"},
    {"fabric.drops", "count"},
    {"nic.pkts.duplicate", "count"},
    {"nic.compute.dup_suppressed", "count"},
    {"transport.p4_retransmit_ratio", "ratio"},
    {"transport.fabric_retransmit_ratio", "ratio"},
    {"trace.overhead_s", "s"},
    {"trace.simulate_self_s", "s"},
    {"trace.setup_self_s", "s"},
};

// After every episode the workload is set up again, as often as fits
// in this slice (at least once); set-up time is the median of all
// set-ups.
constexpr double kSetupSliceS = 0.01;
// Fewest episode runs an untraced run measures, however long one takes.
constexpr std::size_t kMinBatches = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_path;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans PATH]\n"
               "workloads:",
               why);
  for (const auto& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  const char* end = s + std::strlen(s);
  const auto [p, ec] = std::from_chars(s, end, out);
  return ec == std::errc() && p == end && p != s;
}

int parse(int argc, char** argv, Args& a) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(v, a.seed)) return usage("--seed needs an unsigned integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_u64(v, n) || n == 0 || n > 3600) {
        return usage("--seconds needs an integer in [1, 3600]");
      }
      a.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!parse_u64(v, n) || n > 1) return usage("--trace needs 0 or 1");
      a.trace = n == 1;
      have_trace = true;
    } else if (flag == "--spans") {
      a.spans_path = v;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    return usage(("unknown workload " + a.workload).c_str());
  }
  return 0;
}

/// The tail percentile a sample count supports: the highest of p99.9,
/// p99, p95 and p90 with at least 10 samples beyond it, else the median.
double tail_percentile(std::uint64_t n) {
  for (const double p : {99.9, 99.0, 95.0, 90.0}) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0) return p;
  }
  return 50.0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto [p, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, ec == std::errc() ? p : buf);
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const MetricSpec* specs, std::size_t n, const Layers& values) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = values.find(specs[i].name);
    const double v = it == values.end() ? 0.0 : it->second;
    out += std::string(i ? ", " : "") + "\"" + specs[i].name +
           "\": {\"value\": " + number(v) + ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  Args a;
  if (const int rc = parse(argc, argv, a); rc != 0) return rc;
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);

  Spans spans(a.trace);
  Spans no_spans(false);

  // Set-up: build the datatypes from the seed and warm their
  // dataloops/programs, from a cold dataloop cache. The first set-up,
  // timed from process start, builds the workload the episodes run; the
  // later ones are spread between the episodes, so that set-up time
  // samples the same stretch of a noisy machine's time as they do.
  std::vector<double> setups;
  const auto set_up = [&] {
    netddt::dataloop::dataloop_cache_clear();
    const auto t0 = setups.empty() ? process_start : Clock::now();
    std::unique_ptr<Workload> built;
    {
      const auto span = spans.scope("setup", static_cast<int>(setups.size()));
      built = make_workload(a.workload, a.seed);
    }
    setups.push_back(seconds_between(t0, Clock::now()));
    return built;
  };
  const std::unique_ptr<Workload> w = set_up();

  // Measure: untraced episodes, cycling through the workload's
  // realizations until the time is up and, untraced, every one ran; a
  // traced run follows each untraced episode with a traced one (spans +
  // blame). An episode's time is the host time of its run_* calls alone.
  const std::size_t K = w->episodes();
  std::vector<Batch> pass(K);       // first untraced run of each episode
  std::vector<double> plain, traced, pkt_rates;
  Layers layers;                    // traced episode 0's simulated counts
  std::uint64_t attempted = 0, failed = 0, put_failures = 0;
  std::size_t reruns = 0;
  bool repeats = true;
  const auto absorb = [&](std::size_t e, Batch&& b) {
    attempted += b.attempted;
    failed += b.failed;
    put_failures += b.put_failures;
    if (pass[e].attempted == 0) {
      pass[e] = std::move(b);
      return;
    }
    ++reruns;
    repeats &= b.fingerprint == pass[e].fingerprint;
  };
  // Untraced, every episode runs and episode 0 runs twice, so the
  // pooled simulated metrics cover every realization and the
  // fingerprint's repetition is checked in every run. Traced, each
  // episode's traced run repeats its untraced one, and the pooled
  // metrics are not reported.
  const std::size_t min_batches =
      a.trace ? 1 : std::max(K + 1, kMinBatches);
  const auto start = Clock::now();
  for (std::size_t i = 0;
       i < min_batches || seconds_between(start, Clock::now()) < a.seconds;
       ++i) {
    const std::size_t e = i % K;
    const int run_id = static_cast<int>(i);
    Batch b = w->run(e, false, no_spans, run_id);
    plain.push_back(b.host_s);
    pkt_rates.push_back(static_cast<double>(b.packets) / b.host_s);
    absorb(e, std::move(b));
    if (a.trace) {
      const auto span = spans.scope("batch", run_id);
      Batch tb = w->run(e, true, spans, run_id);
      traced.push_back(tb.host_s);
      if (i == 0) {
        // Cache use of one set-up and both runs of episode 0; the next
        // set-up clears the cache.
        layers = tb.layers;
        const auto cache = netddt::dataloop::dataloop_cache_stats();
        layers["dataloop.cache_hit_ratio"] =
            static_cast<double>(cache.hits) /
            static_cast<double>(std::max<std::uint64_t>(1, cache.hits + cache.misses));
      }
      absorb(e, std::move(tb));
    }
    const auto slice = Clock::now();
    do {
      set_up();
    } while (seconds_between(slice, Clock::now()) < kSetupSliceS);
  }

  // Simulated results pooled over the realizations that ran: all of
  // them untraced (deterministic).
  Fingerprint run_fp;
  Completions completions;
  std::uint64_t bytes = 0, packets = 0;
  std::size_t pooled = 0;
  netddt::sim::Time busy = 0;
  for (const Batch& b : pass) {
    if (b.attempted == 0) continue;
    ++pooled;
    run_fp.pod(b.fingerprint);
    completions.merge(b.completions);
    bytes += b.bytes;
    busy += b.busy;
    packets += b.packets;
  }
  const std::uint64_t samples = completions.samples();
  const double tail_pct = tail_percentile(samples);

  // Put failures are expected on a lossy wire (counted, not fatal);
  // every other failure — mismatch, unverified message, lossless put
  // failure, nondeterminism — makes the run incorrect.
  const std::uint64_t fatal = failed - (w->lossy() ? put_failures : 0);
  const bool correct = fatal == 0 && repeats;

  const double wall = percentile(plain, 50.0);
  for (const auto& note : pass[0].notes) std::printf("%s\n", note.c_str());
  std::printf("fingerprint = %016llx (%zu of %zu realizations; %zu reruns %s)\n",
              static_cast<unsigned long long>(run_fp.value()), pooled, K,
              reruns, repeats ? "repeated it" : "CHANGED it");
  std::printf("failed_share = %s ratio (%llu failed of %llu messages; %llu failed puts)\n",
              number(attempted ? static_cast<double>(failed) /
                                     static_cast<double>(attempted)
                               : 0.0)
                  .c_str(),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(put_failures));
  std::printf("wall_s: median of %zu untraced episodes, q1 %s, q3 %s\n",
              plain.size(), number(percentile(plain, 25.0)).c_str(),
              number(percentile(plain, 75.0)).c_str());
  std::printf("setup_s: median of %zu set-ups, q1 %s, q3 %s\n", setups.size(),
              number(percentile(setups, 25.0)).c_str(),
              number(percentile(setups, 75.0)).c_str());
  std::printf("sim: %llu packets, %llu completion-time samples over %zu "
              "realizations; tail = p%g (%g samples beyond)\n",
              static_cast<unsigned long long>(packets),
              static_cast<unsigned long long>(samples), pooled, tail_pct,
              static_cast<double>(samples) * (100.0 - tail_pct) / 100.0);
  if (!correct) {
    std::fprintf(stderr, "perfbench: %s\n",
                 repeats ? "simulated output failed verification"
                         : "simulated output changed between runs");
  }

  if (!a.trace) {
    const Layers e2e = {
        {"wall_s", wall},
        {"sim_pkts_per_s", percentile(pkt_rates, 50.0)},
        {"setup_s", percentile(setups, 50.0)},
        {"peak_rss_mb", peak_rss_mb()},
        {"sim_goodput_gbps",
         busy > 0 ? static_cast<double>(bytes) * 8.0 * 1000.0 /
                        static_cast<double>(busy)
                  : 0.0},
        {"sim_p50_us", completions.percentile_us(50.0)},
        {"sim_tail_us", completions.percentile_us(tail_pct)},
    };
    for (const auto& m : kEndToEnd) {
      std::printf("%s = %s %s\n", m.name, number(e2e.at(m.name)).c_str(), m.unit);
    }
    print_result(correct, attempted, failed, kEndToEnd, std::size(kEndToEnd), e2e);
    return correct ? 0 : 1;
  }

  replay_layers(w->replay_inputs(), spans, layers);
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  layers["sim.engine.events_per_pkt"] =
      ratio(layers["sim.engine.events"], static_cast<double>(pass[0].packets));
  layers["offload.harness_share"] =
      ratio(layers["offload.pattern_s"] + layers["offload.verify_s"], wall);
  layers["transport.p4_retransmit_ratio"] =
      ratio(layers["p4.retransmits"], layers["p4.pkts_dropped"]);
  layers["transport.fabric_retransmit_ratio"] =
      ratio(layers["fabric.retransmits"], layers["fabric.drops"]);
  layers["trace.overhead_s"] = percentile(traced, 50.0) - wall;
  layers["trace.simulate_self_s"] =
      spans.self_s("simulate") / static_cast<double>(traced.size());
  layers["trace.setup_self_s"] =
      spans.self_s("setup") / static_cast<double>(setups.size());
  std::printf("tracing overhead = %s s (traced median %s s over %zu episodes, "
              "untraced %s s over %zu)\n",
              number(layers["trace.overhead_s"]).c_str(),
              number(percentile(traced, 50.0)).c_str(), traced.size(),
              number(wall).c_str(), plain.size());
  for (const auto& m : kPerLayer) {
    std::printf("%s = %s %s\n", m.name, number(layers[m.name]).c_str(), m.unit);
  }
  if (!a.spans_path.empty()) {
    if (spans.write_json(a.spans_path)) {
      std::printf("spans: %zu written to %s\n", spans.spans().size(),
                  a.spans_path.c_str());
    } else {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                   a.spans_path.c_str());
    }
  }
  print_result(correct, attempted, failed, kPerLayer, std::size(kPerLayer), layers);
  return correct ? 0 : 1;
}
