// Strong-scaling bench of the parallel exact slot allocator.
//
// Times optimal_allocate on the two largest fixed proving instances also
// used by the sweep_alloc_parallel experiment
// (src/experiments/sweep_alloc_parallel.cpp):
// alloc_parallel_n{18,20}_optimal_j{1,2,4,8} is the full threaded
// wall-clock (setup + every deepening level) at exact_jobs = j.  The j1
// row is the honest single-core baseline; the others measure real
// threads, so their speedup is bounded by the host's free cores.
//
// alloc_parallel_tail_n20_optimal_j{1,4} times the hardest draw of the
// campaign-seed sweep_alloc_scaling grid (sweep index 217, n = 20,
// optimum 5 against a root bound of 3), the search that sets the
// sweep's wall time; a regression of the exact search's pruning shows
// there first.
//
// Emits Google-Benchmark-compatible JSON on stdout (bench/self_json.hpp).
// Each measurement repeats kIterations times and reports the minimum.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "analysis/slot_allocation.hpp"
#include "experiments/fixtures.hpp"
#include "runtime/sweep_runner.hpp"
#include "self_json.hpp"
#include "util/rng.hpp"

namespace {

using namespace cps;
using namespace cps::analysis;

constexpr int kIterations = 3;

/// The bench times the two largest of the shared proving instances
/// (experiments::alloc_proving_instances — same table the
/// sweep_alloc_parallel experiment runs).
constexpr int kMinBenchedN = 18;

constexpr int kJobSweep[] = {1, 2, 4, 8};

/// The index-217 draw of the sweep_alloc_scaling grid at the campaign seed.
std::vector<AppSchedParams> scaling_tail_instance() {
  Rng rng(runtime::task_seed(0x5EED5EED, 217));
  return experiments::random_sched_params(rng, 20, experiments::allocator_ablation_ranges());
}

/// Best-of-kIterations wall time of optimal_allocate on `set` at each job
/// count, recorded as `<prefix>_optimal_j<jobs>`; false when the
/// Allocation depends on exact_jobs.
bool time_job_counts(cps::bench::SelfJson& report, const std::string& prefix,
                     const std::vector<AppSchedParams>& set, const std::vector<int>& jobs) {
  std::vector<double> wall(jobs.size(), 1e100);
  Allocation reference;
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      AllocationOptions options;
      options.exact_jobs = jobs[j];
      const auto start = std::chrono::steady_clock::now();
      Allocation alloc = optimal_allocate(set, options);
      wall[j] = std::min(
          wall[j],
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());
      if (iteration == 0 && j == 0) {
        reference = std::move(alloc);
      } else if (alloc.slots != reference.slots) {
        std::fprintf(stderr, "alloc_parallel: Allocation depends on exact_jobs\n");
        return false;
      }
    }
  }
  std::fprintf(stderr, "%s: optimum %zu slots\n", prefix.c_str(), reference.slot_count());
  for (std::size_t j = 0; j < jobs.size(); ++j)
    report.record(prefix + "_optimal_j" + std::to_string(jobs[j]), wall[j]);
  std::fprintf(stderr, "  j%d-vs-j1 threaded speedup: %.2fx\n\n", jobs.back(),
               wall[0] / wall.back());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Google-Benchmark-style flags accepted for CI-invocation symmetry;
  // this bench always writes its JSON to stdout.
  (void)argc;
  (void)argv;
  cps::bench::SelfJson report("alloc_parallel");

  const std::vector<int> job_sweep(std::begin(kJobSweep), std::end(kJobSweep));
  for (const auto& inst : experiments::alloc_proving_instances()) {
    if (inst.n < kMinBenchedN) continue;
    if (!time_job_counts(report, "alloc_parallel_n" + std::to_string(inst.n),
                         experiments::alloc_proving_params(inst), job_sweep))
      return 1;
  }
  if (!time_job_counts(report, "alloc_parallel_tail_n20", scaling_tail_instance(), {1, 4}))
    return 1;

  report.print();
  return 0;
}
