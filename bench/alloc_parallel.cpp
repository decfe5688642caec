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
#include "self_json.hpp"

namespace {

using namespace cps;
using namespace cps::analysis;

constexpr int kIterations = 3;

/// The bench times the two largest of the shared proving instances
/// (experiments::alloc_proving_instances — same table the
/// sweep_alloc_parallel experiment runs).
constexpr int kMinBenchedN = 18;

constexpr int kJobSweep[] = {1, 2, 4, 8};

}  // namespace

int main(int argc, char** argv) {
  // Google-Benchmark-style flags accepted for CI-invocation symmetry;
  // this bench always writes its JSON to stdout.
  (void)argc;
  (void)argv;
  cps::bench::SelfJson report("alloc_parallel");

  for (const auto& inst : experiments::alloc_proving_instances()) {
    if (inst.n < kMinBenchedN) continue;
    const auto set = experiments::alloc_proving_params(inst);

    std::vector<double> wall(std::size(kJobSweep), 1e100);
    Allocation reference;
    for (int iteration = 0; iteration < kIterations; ++iteration) {
      for (std::size_t j = 0; j < std::size(kJobSweep); ++j) {
        AllocationOptions options;
        options.exact_jobs = kJobSweep[j];
        const auto start = std::chrono::steady_clock::now();
        Allocation alloc = optimal_allocate(set, options);
        wall[j] = std::min(
            wall[j],
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());
        if (iteration == 0 && j == 0) {
          reference = std::move(alloc);
        } else if (alloc.slots != reference.slots) {
          std::fprintf(stderr, "alloc_parallel: Allocation depends on exact_jobs\n");
          return 1;
        }
      }
    }

    const std::string prefix = "alloc_parallel_n" + std::to_string(inst.n);
    std::fprintf(stderr, "n=%d: optimum %zu slots\n", inst.n, reference.slot_count());
    for (std::size_t j = 0; j < std::size(kJobSweep); ++j)
      report.record(prefix + "_optimal_j" + std::to_string(kJobSweep[j]), wall[j]);
    std::fprintf(stderr, "  j8-vs-j1 threaded speedup: %.2fx\n\n",
                 wall[0] / wall[std::size(kJobSweep) - 1]);
  }

  report.print();
  return 0;
}
