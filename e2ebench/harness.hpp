// Measurement helpers shared by every end-to-end workload: the one timing
// summary (median + highest percentile with >= 10 samples beyond it), an
// in-memory span recorder with self-time arithmetic, FNV-1a digests for
// the output checks, the host fingerprint and the metric report.
//
// Nothing here reaches into the library: spans are opened by the
// workloads around the public calls they make into each layer.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A failed or refused operation: it misses every latency limit.
inline constexpr double kMissed = std::numeric_limits<double>::infinity();

/// Timing summary of one sample set.  `tail` is the nearest-rank value at
/// `tail_q` = min(0.99, (n - 10) / n): the highest percentile (capped at
/// p99) that keeps at least ten samples beyond it.  With 1000 or more
/// samples this is exactly p99.  `valid_tail` is false below 11 samples.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail_q = 0.0;
  double tail = 0.0;
  double max = 0.0;
  bool valid_tail = false;
};

/// Summarize `samples` (kMissed entries sort last, as misses should).
Summary summarize(std::vector<double> samples);

/// A fixed-capacity uniform sample of a stream of latencies (reservoir
/// sampling with a fixed-seed generator), so a run's memory does not grow
/// with how many repetitions fit in it.
class Samples {
 public:
  explicit Samples(std::size_t capacity = 100000);
  void add(double value);
  const std::vector<double>& values() const { return values_; }

 private:
  std::size_t capacity_;
  std::size_t seen_ = 0;
  std::uint64_t state_ = 0x9E3779B97F4A7C15ULL;
  std::vector<double> values_;
};

/// Per-part summaries (repetitions, time windows) combined: p50 and tail
/// are the nearest-rank q-quantiles of the parts' figures (q = 0.5: their
/// medians), n the total sample count.
Summary combine(const std::vector<Summary>& parts, double q);

/// Nearest-rank q-quantile of a non-empty vector; median() is q = 0.5
/// (the lower middle).
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

// --- spans ------------------------------------------------------------------

/// One recorded span.  Times are seconds since the recorder's epoch.
struct Span {
  std::string_view name;   ///< static string: the layer call it wraps
  double start = 0.0;
  double end = 0.0;
  std::uint32_t id = 0;      ///< 1-based; 0 means "no span"
  std::uint32_t parent = 0;  ///< causing span, 0 at the root
  std::uint32_t thread = 0;  ///< recorder-assigned thread index
  std::uint64_t request = 0; ///< request id for daemon queries, else 0

  double duration() const { return end - start; }
};

/// Process-wide span recorder.  Off by default; when off a ScopedSpan
/// costs one relaxed load.  Each thread appends to its own buffer, and
/// spans() merges the buffers (call it after every traced thread joined).
namespace trace {
void set_enabled(bool on);
bool enabled();
/// Drop every recorded span (buffers of live threads included).
void reset();
/// Every span recorded so far, ordered by id.
std::vector<Span> spans();
/// Record a finished root span with explicit times (for work whose start
/// and end do not nest on one thread, such as pipelined requests).
void record(std::string_view name, Clock::time_point start, Clock::time_point end,
            std::uint64_t request);
}  // namespace trace

/// RAII span: opens on construction, closes on destruction.  The parent
/// defaults to the innermost span open on this thread; pass one
/// explicitly when the cause lives on another thread (a sweep body on a
/// pool worker).
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name, std::uint32_t parent = 0,
                      std::uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  std::uint32_t id_ = 0;
  std::uint32_t outer_ = 0;
  std::string_view name_;
  std::uint32_t parent_ = 0;
  std::uint64_t request_ = 0;
  double start_ = 0.0;
};

/// Self time of every span (its duration minus the union of the parts of
/// that interval its direct children cover), keyed by span id.
std::map<std::uint32_t, double> self_times(const std::vector<Span>& spans);

/// Sum of the durations of spans named `name`.
double busy(const std::vector<Span>& spans, std::string_view name);

/// Durations of spans named `name`, in id order.
std::vector<double> durations(const std::vector<Span>& spans, std::string_view name);

/// Span-based sweep shape: spans named `task` whose parent is `sweep_id`.
/// busy_ratio = sum of task time / (jobs * sweep wall); tail = sweep end
/// minus the earliest time a worker thread finished its last task.
struct SweepShape {
  double busy_ratio = 0.0;
  double tail_s = 0.0;
};
SweepShape sweep_shape(const std::vector<Span>& spans, std::uint32_t sweep_id,
                       std::string_view task, int jobs);

// --- digests, host, report --------------------------------------------------

/// FNV-1a 64 over the bit patterns of everything added.
class Digest {
 public:
  Digest& add(std::uint64_t value);
  Digest& add(double value);
  Digest& add(std::string_view text);  ///< length-prefixed bytes
  std::uint64_t value() const { return hash_; }

 private:
  void mix(const void* data, std::size_t size);
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Current and peak resident set size of this process, in kB.
std::size_t current_rss_kb();
std::size_t peak_rss_kb();

/// nproc, CPU model, SIMD lane config, compiler and build type, as one
/// JSON object (written to stderr with every report).
std::string host_fingerprint_json();

/// Whether this translation unit was compiled with NDEBUG.
bool release_build();

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The outcome of one workload run.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< failed output checks, for stderr

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// Record an output-check verdict; a false one marks the run incorrect.
  void check(bool ok, const std::string& what);
};

/// The single-line JSON result the contract asks for.
std::string report_json(const Report& report);

}  // namespace e2e
