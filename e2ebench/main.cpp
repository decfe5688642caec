// cps_e2e: one end-to-end workload per invocation.
//
//   cps_e2e --workload NAME --seed N --seconds S --trace 0|1
//           [--work-dir DIR] [--csv DIR]
//
// --csv writes the cps_run-format rows of alloc_tail / flexray_grid (for
// a one-off comparison with cps_run output).
// Prints diagnostics and the host fingerprint on stderr and, as the last
// line of stdout, the JSON result: with --trace 0 every end-to-end
// metric, with --trace 1 every per-layer metric (0 where a layer does no
// work in the workload).  Exits 1 when an output check fails, 2 on a
// usage error or a non-release build.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <unistd.h>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace e2e;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in report order (BENCHMARK.json lists the same).
constexpr MetricSpec kPerLayer[] = {
    {"runtime.sweep_busy_ratio", "ratio"},
    {"runtime.tail_s", "s"},
    {"analysis.exact_calls", "count"},
    {"analysis.exact_busy_s", "s"},
    {"analysis.exact_p50_ms", "ms"},
    {"analysis.exact_tail_ms", "ms"},
    {"analysis.exact_max_ms", "ms"},
    {"analysis.exact_improved_ratio", "ratio"},
    {"analysis.heuristic_busy_s", "s"},
    {"analysis.fit_busy_s", "s"},
    {"analysis.transient_busy_s", "s"},
    {"plants.synth_busy_s", "s"},
    {"plants.synth_per_plant_ms", "ms"},
    {"control.design_busy_s", "s"},
    {"control.designs", "count"},
    {"sim.curve_busy_s", "s"},
    {"sim.curve_points_per_s", "1/s"},
    {"fixture.hits", "count"},
    {"fixture.misses", "count"},
    {"fixture.entries", "count"},
    {"fixture.miss_busy_s", "s"},
    {"store.writes", "count"},
    {"store.disk_hits", "count"},
    {"store.write_busy_s", "s"},
    {"store.load_busy_s", "s"},
    {"serve.curve.rtt_p50_us", "us"},
    {"serve.curve.rtt_tail_us", "us"},
    {"serve.design.rtt_p50_us", "us"},
    {"serve.design.rtt_tail_us", "us"},
    {"serve.sched.rtt_p50_us", "us"},
    {"serve.sched.rtt_tail_us", "us"},
    {"serve.alloc_ff.rtt_p50_us", "us"},
    {"serve.alloc_ff.rtt_tail_us", "us"},
    {"serve.alloc_exact.rtt_p50_us", "us"},
    {"serve.alloc_exact.rtt_tail_us", "us"},
    {"serve.dispatch_p50_us", "us"},
    {"serve.transport_p50_us", "us"},
    {"serve.admitted", "count"},
    {"serve.shed", "count"},
    {"serve.deadline_expired", "count"},
    {"serve.completed", "count"},
    {"serve.latency_all_p99_ms", "ms"},
    {"serve.rss_growth_kb_per_kreq", "kB/kreq"},
    {"loadgen.late_p99_ms", "ms"},
    {"loadgen.sent", "count"},
    {"trace.overhead_pct", "%"},
};

struct WorkloadSpec {
  const char* name;
  Report (*run)(const RunOptions&);
};

constexpr WorkloadSpec kWorkloads[] = {
    {"alloc_tail", run_alloc_tail},
    {"flexray_grid", run_flexray_grid},
    {"fleet_characterize", run_fleet_characterize},
    {"serve_mixed", run_serve_mixed},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "cps_e2e: %s\nusage: cps_e2e --workload NAME --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR] [--csv DIR]\n",
               why);
  return 2;
}

/// Put the per-layer metrics in canonical order, 0 where not measured.
void complete_per_layer(Report& report) {
  std::map<std::string, Metric> measured;
  for (auto& metric : report.metrics) measured[metric.name] = metric;
  report.metrics.clear();
  for (const auto& spec : kPerLayer) {
    const auto it = measured.find(spec.name);
    report.metric(spec.name, it != measured.end() ? it->second.value : 0.0, spec.unit);
    if (it != measured.end()) measured.erase(it);
  }
  for (const auto& [name, metric] : measured)
    std::fprintf(stderr, "cps_e2e: per-layer metric %s is not in the catalog\n", name.c_str());
  report.check(measured.empty(), "per-layer metrics outside the catalog");
}

/// The recorded spans, summarized per name: count, busy and self time.
void write_span_summary() {
  const auto spans = trace::spans();
  const auto self = self_times(spans);
  struct Row {
    std::size_t count = 0;
    double busy = 0.0, self = 0.0;
  };
  std::map<std::string, Row> rows;
  for (const auto& span : spans) {
    auto& row = rows[std::string(span.name)];
    ++row.count;
    row.busy += span.duration();
    row.self += self.at(span.id);
  }
  std::fprintf(stderr, "spans (name, count, busy s, self s):\n");
  for (const auto& [name, row] : rows)
    std::fprintf(stderr, "  %-22s %9zu %12.6f %12.6f\n", name.c_str(), row.count, row.busy,
                 row.self);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, work_root = ".e2ebench_work";
  RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 0);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && options.seconds > 0.0;
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
      have_trace = options.trace || std::strcmp(value, "0") == 0;
    } else if (flag == "--work-dir") {
      work_root = value;
    } else if (flag == "--csv") {
      options.csv_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) return usage("bad or missing flag");
  const WorkloadSpec* spec = nullptr;
  for (const auto& candidate : kWorkloads)
    if (workload == candidate.name) spec = &candidate;
  if (spec == nullptr) return usage(("unknown workload '" + workload + "'").c_str());

  std::fprintf(stderr, "host: %s\n", host_fingerprint_json().c_str());
  if (!release_build()) {
    std::fprintf(stderr, "cps_e2e: refusing to report from a build without NDEBUG\n");
    return 2;
  }

  options.jobs =
      static_cast<int>(std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
  options.work_dir = work_root + "/" + std::to_string(::getpid());
  std::filesystem::create_directories(options.work_dir);
  if (!options.csv_dir.empty()) std::filesystem::create_directories(options.csv_dir);

  const auto clean_up = [&] {
    std::error_code ignored;
    std::filesystem::remove_all(options.work_dir, ignored);
    std::filesystem::remove(work_root, ignored);  // only when no other run uses it
  };
  Report report;
  try {
    report = spec->run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "cps_e2e: %s failed: %s\n", spec->name, error.what());
    clean_up();
    return 1;
  }
  clean_up();
  if (options.trace) {
    write_span_summary();
    complete_per_layer(report);
  }
  for (const auto& problem : report.problems)
    std::fprintf(stderr, "check failed: %s\n", problem.c_str());
  std::printf("%s\n", report_json(report).c_str());
  return report.correct ? 0 : 1;
}
