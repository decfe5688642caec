// Experiment "sweep_alloc_parallel" — strong scaling of the parallel
// exact slot allocator (new workload, not a paper figure).
//
// The paper's NP-hard minimum-slot problem is the kernel every campaign
// leans on; this experiment pins down two properties of its parallel
// branch-and-bound (analysis/slot_allocation.cpp over
// runtime::parallel_map) on fixed proving instances of n = 14..20
// applications:
//
//  1. DETERMINISM — optimal_allocate with exact_jobs in {1, 2, 4, 8}
//     must return the IDENTICAL Allocation (same slots, same order).
//     The experiment enforces this at runtime (CPS_ENSURE) and the
//     deterministic CSV records the per-instance facts, so any
//     schedule-dependence fails the run loudly at any job count.
//  2. STRONG SCALING — the threaded wall-clock of each exact_jobs leg,
//     with the j=1 search's node count and deepening levels
//     (AllocationOptions::stats) to say how hard the instance was.
//     Speedups are real only on a host with that many free cores.
//
// sweep_alloc_parallel.csv (instance facts and proven optima) is
// bit-identical for any --jobs.  The *_times.csv sidecar holds measured
// wall-clocks and is explicitly exempt from the bit-identity contract;
// the committed strong-scaling snapshot lives in
// bench/results/BENCH_alloc_parallel.json (bench/alloc_parallel.cpp).
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/slot_allocation.hpp"
#include "experiments/fixtures.hpp"
#include "runtime/experiment.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace {

using namespace cps;
using namespace cps::analysis;

constexpr int kJobSweep[] = {1, 2, 4, 8};

}  // namespace

CPS_EXPERIMENT(sweep_alloc_parallel,
               "Sweep: parallel exact-allocator strong scaling, jobs in {1,2,4,8}") {
  std::fprintf(ctx.out, "== Sweep: parallel exact slot allocation, strong scaling ==\n");
  std::fprintf(ctx.out, "(fixed proving instances, exact_jobs in {1, 2, 4, 8})\n\n");

  const std::string csv_path = ctx.csv_path("sweep_alloc_parallel.csv");
  const std::string times_path = ctx.csv_path("sweep_alloc_parallel_times.csv");
  CsvWriter csv(csv_path, {"n_apps", "seed", "first_fit", "optimal", "root_lower_bound",
                           "jobs_identical"});
  CsvWriter times_csv(times_path, {"n_apps", "jobs", "threaded_ms"});
  TextTable table({"n apps", "ff", "opt", "lb", "levels", "nodes", "j1 [ms]", "j2 [ms]",
                   "j4 [ms]", "j8 [ms]", "j8 speedup"});

  // The fixed proving instances shared with bench/alloc_parallel.cpp
  // (experiments::alloc_proving_instances): feasible, first-fit seed
  // above the root lower bound, so the search must actually prove.
  for (const auto& inst : experiments::alloc_proving_instances()) {
    const auto set = experiments::alloc_proving_params(inst);

    // Determinism: the Allocation must be identical at every job count.
    // The j=1 leg IS the sequential search, so it doubles as the
    // reference the parallel legs are checked against.
    ExactSearchStats stats;
    AllocationOptions options;
    Allocation reference;
    std::vector<double> threaded_ms;
    threaded_ms.reserve(std::size(kJobSweep));
    for (const int jobs : kJobSweep) {
      options.exact_jobs = jobs;
      options.stats = jobs == 1 ? &stats : nullptr;
      const auto start = std::chrono::steady_clock::now();
      Allocation parallel = optimal_allocate(set, options);
      threaded_ms.push_back(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count() *
          1e3);
      if (jobs == 1)
        reference = std::move(parallel);
      else
        CPS_ENSURE(parallel.slots == reference.slots,
                   "sweep_alloc_parallel: Allocation depends on exact_jobs");
    }

    csv.write_row(std::vector<std::string>{
        std::to_string(inst.n), std::to_string(inst.seed),
        std::to_string(stats.first_fit_slots), std::to_string(reference.slot_count()),
        std::to_string(stats.root_lower_bound), "1"});
    std::vector<std::string> row = {
        std::to_string(inst.n), std::to_string(stats.first_fit_slots),
        std::to_string(reference.slot_count()), std::to_string(stats.root_lower_bound),
        std::to_string(stats.levels), std::to_string(stats.nodes)};
    for (std::size_t j = 0; j < std::size(kJobSweep); ++j) {
      times_csv.write_row(std::vector<std::string>{
          std::to_string(inst.n), std::to_string(kJobSweep[j]),
          format_fixed(threaded_ms[j], 3)});
      row.push_back(format_fixed(threaded_ms[j], 2));
    }
    const double j8 = threaded_ms.back();
    row.push_back(j8 > 0.0 ? format_fixed(threaded_ms.front() / j8, 2) + "x" : "n/a");
    table.add_row(row);
  }

  std::fprintf(ctx.out, "%s\n", table.render().c_str());
  std::fprintf(ctx.out, "instance facts written to %s\n", csv_path.c_str());
  std::fprintf(ctx.out, "wall-clock curves (non-deterministic) written to %s\n\n",
               times_path.c_str());
}
