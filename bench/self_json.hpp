// Google-Benchmark-shaped JSON for the benches with their own main()
// (campaign_scaling, alloc_parallel, serve_qps).  They time whole
// processes or threaded runs, link no benchmark library, and print the
// fields tools/bench_compare.py reads: the build-type fields its
// debug-snapshot gate checks (both name the project library here), the
// SIMD configuration, and one ms-timed "iteration" row per result.
//
// Header-only: campaign_scaling links no library at all.
#pragma once

#include <cstddef>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "linalg/simd_batch.hpp"

namespace cps::bench {

/// The named wall-clock results of one bench run.
class SelfJson {
 public:
  explicit SelfJson(std::string executable) : executable_(std::move(executable)) {}

  /// Keep `seconds` as result `name`, and echo it to stderr as progress.
  void record(const std::string& name, double seconds) {
    std::fprintf(stderr, "  %-44s %12.4f ms\n", name.c_str(), seconds * 1e3);
    results_.emplace_back(name, seconds);
  }

  /// Print every result as one JSON document on stdout.
  void print() const {
#ifdef NDEBUG
    const char* build_type = "release";
#else
    const char* build_type = "debug";
#endif
    std::printf("{\n  \"context\": {\"executable\": \"%s\", "
                "\"library_build_type\": \"%s\", \"cps_library_build_type\": \"%s\", "
                "\"cps_simd_width\": \"%zu\", \"cps_simd_isa\": \"%s\"},\n",
                executable_.c_str(), build_type, build_type, linalg::kSimdWidth,
                linalg::simd_isa_name());
    std::printf("  \"benchmarks\": [\n");
    for (std::size_t i = 0; i < results_.size(); ++i)
      std::printf("    {\"name\": \"%s\", \"run_type\": \"iteration\", "
                  "\"real_time\": %.6f, \"cpu_time\": %.6f, \"time_unit\": \"ms\"}%s\n",
                  results_[i].first.c_str(), results_[i].second * 1e3,
                  results_[i].second * 1e3, i + 1 < results_.size() ? "," : "");
    std::printf("  ]\n}\n");
  }

 private:
  std::string executable_;
  std::vector<std::pair<std::string, double>> results_;
};

}  // namespace cps::bench
