#pragma once
// Shared vocabulary of the perfbench program: the in-memory span
// recorder, the fingerprint over simulated outputs, and the workload
// interface main.cpp drives.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "ddt/datatype.hpp"
#include "sim/metrics.hpp"
#include "sim/time.hpp"
#include "sim/trace/blame.hpp"
#include "sim/trace/histogram.hpp"
#include "spin/compute.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// SplitMix64 step: derives independent per-part seeds from the one
/// `--seed` argument.
inline std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// 64-bit multiplicative hash over the canonical bytes of every
/// deterministic simulated output, taken a word at a time.
class Fingerprint {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    mix_word(n);
    for (; n >= 8; p += 8, n -= 8) {
      std::uint64_t w;
      std::memcpy(&w, p, 8);
      mix_word(w);
    }
    std::uint64_t tail = 0;
    std::memcpy(&tail, p, n);
    mix_word(tail);
  }
  template <class T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&v, sizeof v);
  }
  void str(std::string_view s) { bytes(s.data(), s.size()); }
  /// Counters, gauges and series of a snapshot, except wall-clock
  /// gauges (`*events_per_sec`), which differ run to run.
  void metrics(const netddt::sim::MetricsSnapshot& m);
  std::uint64_t value() const { return h_; }

 private:
  void mix_word(std::uint64_t w) {
    h_ = (h_ ^ w) * 0x100000001B3ull;
    h_ ^= h_ >> 29;
  }
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

/// Spans kept in memory and written out at exit. Names are string
/// literals so recording a span never allocates a string.
struct Span {
  const char* name;
  double start_s;
  double end_s;
  int parent;  // index into the span list, -1 for a root
  int run;     // batch index the span belongs to
};

class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  class Scope {
   public:
    Scope(Spans* spans, int id) : spans_(spans), id_(id) {}
    ~Scope() {
      if (spans_ != nullptr) spans_->end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    int id_;
  };

  /// Open a span that closes when the returned scope ends; a no-op when
  /// the recorder is disabled (untraced runs).
  Scope scope(const char* name, int run = -1) {
    if (!enabled_) return Scope(nullptr, -1);
    const int id = static_cast<int>(spans_.size());
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now(), 0.0, parent,
                      run >= 0 ? run : (parent >= 0 ? spans_[parent].run : -1)});
    stack_.push_back(id);
    return Scope(this, id);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration of every span named `name`.
  double total_s(std::string_view name) const;
  /// Summed self time (duration minus the time children cover).
  double self_s(std::string_view name) const;
  /// Write every span as a JSON array; returns false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  void end(int id) {
    spans_[id].end_s = now();
    stack_.pop_back();
  }
  double now() const { return seconds_between(t0_, Clock::now()); }

  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Per-layer metric values by name (see kPerLayer in main.cpp).
using Layers = std::map<std::string, double>;

/// Completion times of simulated messages: exact samples (receives,
/// collectives) and the services' log2 histograms. Percentiles are exact
/// when no histogram part exists, else taken over the merged histogram.
class Completions {
 public:
  void add_us(const std::vector<double>& us) {
    exact_us_.insert(exact_us_.end(), us.begin(), us.end());
  }
  void add_histogram(const netddt::sim::trace::Histogram& h) {
    hist_.merge(h);
    has_hist_ = true;
  }
  void merge(const Completions& other) {
    add_us(other.exact_us_);
    if (other.has_hist_) add_histogram(other.hist_);
  }
  std::uint64_t samples() const { return exact_us_.size() + hist_.count(); }
  /// The `p`th percentile in microseconds.
  double percentile_us(double p) const;

 private:
  std::vector<double> exact_us_;
  netddt::sim::trace::Histogram hist_;
  bool has_hist_ = false;
};

/// One episode of simulated work and what it produced.
struct Batch {
  std::uint64_t packets = 0;    // simulated data packets delivered
  std::uint64_t attempted = 0;  // messages offered
  std::uint64_t failed = 0;     // failed puts + mismatches + unverified
  std::uint64_t put_failures = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t bytes = 0;      // payload bytes the goodput counts
  netddt::sim::Time busy = 0;   // simulated time those bytes took
  double host_s = 0.0;          // host seconds inside the run_* calls
  Completions completions;
  Layers layers;                // simulated per-layer counts
  std::vector<std::string> notes;  // human-readable result lines
};

/// Inputs the traced run replays through each layer's public functions:
/// exactly the payloads, verifications, types and tags the run_*
/// entry points handled in episode 0.
struct ReplayInputs {
  struct Pattern {  // offload::packed_message_pattern(bytes, seed)
    std::uint64_t bytes;
    std::uint64_t seed;
  };
  struct Typed {  // spin::fill_typed(.., bytes, elem, seed)
    std::uint64_t bytes;
    std::uint64_t seed;
  };
  struct Unpack {  // reference ddt::unpack + compare of one message
    netddt::ddt::TypePtr type;
    std::uint64_t count;
    std::uint64_t seed;  // pattern seed of the packed stream
  };
  struct Reduce {  // init + (contributions x apply_reduce) + compare
    std::uint64_t bytes;
    std::uint32_t contributions;
    std::uint64_t seed;
  };
  struct TypeUse {
    netddt::ddt::TypePtr type;
    std::uint64_t count;
  };
  std::vector<Pattern> patterns;
  std::vector<Typed> typed;
  std::vector<Unpack> unpacks;
  std::vector<Reduce> reduces;
  netddt::spin::ElemType elem = netddt::spin::ElemType::kInt32;
  std::vector<TypeUse> types;
  std::vector<std::uint64_t> match_bits;  // receives posted at peak
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Independent realizations (arrival, payload and fault seeds derived
  /// from the run's seed) one run simulates; simulated metrics pool them.
  virtual std::size_t episodes() const = 0;
  /// Simulate episode `e` once. `blame` turns on the entry points'
  /// TraceConfig.blame (traced runs only).
  virtual Batch run(std::size_t e, bool blame, Spans& spans, int run_id) = 0;
  /// What episode 0 handled, for the traced run's layer replays. Built
  /// on demand, after the measured episodes and outside set-up.
  virtual ReplayInputs replay_inputs() const = 0;
  /// True when wire faults are injected (put failures are then counted,
  /// not fatal).
  virtual bool lossy() const { return false; }
};

/// Build the workload's datatypes from `seed` and warm their dataloops
/// and flat programs through dataloop::plan_cached (the set-up phase).
/// Returns null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);
const std::vector<std::string>& workload_names();

/// Per-layer replays (replay.cpp): time each layer's public functions
/// on `in` under spans and fill the host-time layer metrics.
void replay_layers(const ReplayInputs& in, Spans& spans, Layers& out);

/// Fold blame attributions into blame.<stage>.{p50,p999}_share.
void blame_layers(const std::vector<netddt::sim::trace::BlameAttribution>& msgs,
                  Layers& out);

}  // namespace perfbench
