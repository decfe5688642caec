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
// Emits Google-Benchmark-compatible JSON on stdout (the fields
// bench_compare.py reads, including the library_build_type the debug-
// snapshot gate checks).  Each measurement repeats kIterations times and
// reports the minimum.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "analysis/slot_allocation.hpp"
#include "linalg/simd_batch.hpp"
#include "experiments/fixtures.hpp"

namespace {

using namespace cps;
using namespace cps::analysis;

constexpr int kIterations = 3;

/// The bench times the two largest of the shared proving instances
/// (experiments::alloc_proving_instances — same table the
/// sweep_alloc_parallel experiment runs).
constexpr int kMinBenchedN = 18;

constexpr int kJobSweep[] = {1, 2, 4, 8};

struct Result {
  std::string name;
  double seconds = 0.0;
};

std::vector<Result> g_results;

void record(const std::string& name, double seconds) {
  std::fprintf(stderr, "  %-44s %10.2f ms\n", name.c_str(), seconds * 1e3);
  g_results.push_back(Result{name, seconds});
}

}  // namespace

int main(int argc, char** argv) {
  // Google-Benchmark-style flags accepted for CI-invocation symmetry;
  // this bench always writes its JSON to stdout.
  (void)argc;
  (void)argv;

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
      record(prefix + "_optimal_j" + std::to_string(kJobSweep[j]), wall[j]);
    std::fprintf(stderr, "  j8-vs-j1 threaded speedup: %.2fx\n\n",
                 wall[0] / wall[std::size(kJobSweep) - 1]);
  }

#ifdef NDEBUG
  const char* build_type = "release";
#else
  const char* build_type = "debug";
#endif
  // Google-Benchmark-compatible JSON (the fields bench_compare.py reads;
  // this binary links no benchmark harness, so both build-type fields
  // mean the project library).
  std::printf("{\n  \"context\": {\"executable\": \"alloc_parallel\", "
              "\"library_build_type\": \"%s\", \"cps_library_build_type\": \"%s\", "
              "\"cps_simd_width\": \"%zu\", \"cps_simd_isa\": \"%s\"},\n",
              build_type, build_type, cps::linalg::kSimdWidth,
              cps::linalg::simd_isa_name());
  std::printf("  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < g_results.size(); ++i) {
    std::printf("    {\"name\": \"%s\", \"run_type\": \"iteration\", "
                "\"real_time\": %.3f, \"cpu_time\": %.3f, \"time_unit\": \"ms\"}%s\n",
                g_results[i].name.c_str(), g_results[i].seconds * 1e3,
                g_results[i].seconds * 1e3, i + 1 < g_results.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}
