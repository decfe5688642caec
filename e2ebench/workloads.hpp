// The four end-to-end workloads and the pieces they share: run options,
// the set-up / repeat loops, the end-to-end metric block, allocation
// checks and result digests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/slot_allocation.hpp"
#include "harness.hpp"

namespace e2e {

/// The base seed of cps_run campaigns (its --seed default).  alloc_tail
/// always draws its grid from it; the other workloads use it as the
/// default seed at which result digests are compared.
inline constexpr std::uint64_t kCampaignSeed = 0x5EED5EEDULL;

struct RunOptions {
  std::uint64_t seed = kCampaignSeed;
  double seconds = 10.0;
  bool trace = false;
  int jobs = 1;          ///< sweep workers and client threads: min(4, nproc)
  std::string work_dir;  ///< scratch directory inside the checkout (stores, socket)
  std::string csv_dir;   ///< when set, write the cps_run-format rows here
};

Report run_alloc_tail(const RunOptions& options);
Report run_flexray_grid(const RunOptions& options);
Report run_fleet_characterize(const RunOptions& options);
Report run_serve_mixed(const RunOptions& options);

// --- generated inputs (exposed for the helper tests) ------------------------

/// alloc_tail's instances: the sweep_alloc_scaling grid, instance i drawn
/// from Rng(task_seed(kCampaignSeed, i)) with sizes laid out contiguously.
std::vector<std::vector<cps::analysis::AppSchedParams>> alloc_tail_grid();

/// Mix a set of applications' scheduling parameters into `digest`.
void add_apps(Digest& digest, const std::vector<cps::analysis::AppSchedParams>& apps);

/// One scheduled daemon request of serve_mixed.
struct ServeRequest {
  int kind = 0;         ///< index into serve_kind_name()
  std::uint16_t opcode = 0;
  std::string payload;
  std::uint32_t deadline_ms = 0;
  double due = 0.0;     ///< scheduled send time, seconds after the loop start
};

/// Request classes of the mix, and the name of each ("curve",
/// "sched_miss", "alloc_exact", ...).
inline constexpr int kServeKinds = 7;
const char* serve_kind_name(int kind);

/// The open-loop schedule of requests first_index .. first_index+count-1
/// at `rate` requests per second, drawn from `seed` alone.
std::vector<ServeRequest> serve_schedule(std::uint64_t seed, std::size_t count, double rate,
                                         std::size_t first_index);

// --- shared loops -----------------------------------------------------------

/// Run `setup` `times` times and return the median wall time.
template <typename Fn>
double median_setup(int times, Fn&& setup) {
  std::vector<double> walls;
  for (int i = 0; i < times; ++i) {
    const auto start = Clock::now();
    setup();
    walls.push_back(seconds_since(start));
  }
  return median(walls);
}

/// Call rep(k) for k = 0, 1, ... while the next repetition is expected to
/// end within `seconds` of the first (always at least `min_reps`);
/// returns each repetition's wall time.
template <typename Fn>
std::vector<double> repeat_for(double seconds, int min_reps, Fn&& rep) {
  std::vector<double> walls;
  const auto begin = Clock::now();
  for (int k = 0;; ++k) {
    if (k >= min_reps && seconds_since(begin) + median(walls) > seconds) break;
    const auto start = Clock::now();
    rep(k);
    walls.push_back(seconds_since(start));
  }
  return walls;
}

/// The end-to-end block every workload prints with tracing off.  `ops`
/// are per-operation latencies in seconds and `good_ops` the operations
/// that succeeded within the timed repetitions `rep_walls`.
void add_end_to_end(Report& report, double setup_s, const std::vector<double>& rep_walls,
                    const Summary& ops, double good_ops);

/// runtime.sweep_busy_ratio and runtime.tail_s: medians over the traced
/// sweeps `sweep_ids` (spans named "runtime.task" under each).
void add_sweep_layers(Report& report, const std::vector<Span>& spans,
                      const std::vector<std::uint32_t>& sweep_ids, int jobs);

/// The analysis.exact_* and analysis.heuristic_busy_s metrics of `reps`
/// traced allocator sweeps; `improved` of `feasible` instances had an
/// optimum below first-fit.
void add_allocator_layers(Report& report, const std::vector<Span>& spans, double reps,
                          std::size_t improved, std::size_t feasible);

/// Tracing overhead as a percentage of the untraced figure.
inline double overhead_pct(double traced, double untraced) {
  return untraced > 0.0 ? 100.0 * (traced - untraced) / untraced : 0.0;
}

// --- output checks ----------------------------------------------------------

/// Check that `allocation` partitions `apps` (every name exactly once)
/// and that every slot re-passes analysis::analyze_slot.
bool valid_allocation(const std::vector<cps::analysis::AppSchedParams>& apps,
                      const cps::analysis::Allocation& allocation);

/// Mix an allocation's slot partition into `digest`.
void add_allocation(Digest& digest, const cps::analysis::Allocation& allocation);

/// Compare a workload's result digest with the one recorded for the
/// default seed (no-op at other seeds).
void check_recorded_digest(Report& report, const char* workload, std::uint64_t seed,
                           std::uint64_t digest);

}  // namespace e2e
