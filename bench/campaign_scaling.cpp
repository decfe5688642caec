// Campaign-scale throughput bench: persistent fixture store + process
// sharding, measured end to end through the real cps_run driver.
//
// Unlike the kernel benches (Google Benchmark over in-process functions),
// the quantities here are properties of whole PROCESSES — what the
// fixture store saves a cold process, and how a sweep campaign's
// wall-clock splits across `--shard i/N` workers.  This bench therefore
// forks the actual cps_run binary and times it, then emits
// Google-Benchmark-compatible JSON on stdout (bench/self_json.hpp) so
// bench_compare.py and the committed snapshots treat it like every other
// bench.
//
// Measurements:
//  * campaign_fixtures_{cold,warm}_store — a fixture-dominated campaign
//    (fig3 fig4 fig5 table1 ablation_envelope: fleet synthesis, loop
//    designs, seven dwell/wait curves) against a fresh vs a pre-warmed
//    --fixture-store.  The ratio is what every later process in a
//    sharded campaign saves.
//  * campaign_flexray_{cold,warm}_store — the sweep-dominated
//    sweep_flexray_params campaign, unsharded.
//  * campaign_flexray_shard{2,4}_critical_path — the same campaign split
//    into N shards (warm store).  Shards are fully independent
//    processes, so on dedicated cores the campaign wall-clock is the
//    SLOWEST shard plus the merge; this bench runs the shards
//    sequentially and reports exactly that critical path
//    (max_i shard_i + merge), which is core-count-independent and
//    reproducible on the single-core CI container.  The merged CSV is
//    byte-compared against the unsharded artifact on every iteration —
//    a mismatch aborts the bench.
//
// Each measurement repeats kIterations times and reports the minimum
// (process wall-clocks are one-sided noisy).
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "self_json.hpp"

namespace {

constexpr int kIterations = 3;

std::string g_cps_run;   // path to the driver binary
std::string g_work_dir;  // scratch root for stores and CSV dirs

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "campaign_scaling: %s\n", message.c_str());
  std::exit(1);
}

/// Fork + exec cps_run with `args`, stdout/stderr silenced; returns the
/// child's wall-clock seconds.  Dies on spawn failure or nonzero exit.
double timed_run(const std::vector<std::string>& args) {
  std::vector<std::string> argv_storage;
  argv_storage.push_back(g_cps_run);
  for (const auto& arg : args) argv_storage.push_back(arg);
  std::vector<char*> argv;
  argv.reserve(argv_storage.size() + 1);
  for (auto& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const auto start = std::chrono::steady_clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) die("fork failed");
  if (pid == 0) {
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      ::dup2(devnull, 1);
      ::dup2(devnull, 2);
    }
    ::execv(argv[0], argv.data());
    _exit(127);  // execv only returns on failure
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) die("waitpid failed");
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::ostringstream cmd;
    for (const auto& arg : argv_storage) cmd << arg << ' ';
    die("child failed (" + std::to_string(WEXITSTATUS(status)) + "): " + cmd.str());
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) die("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

void reset_dir(const std::string& path) {
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
}

/// The fixture-dominated campaign: everything it does flows through the
/// FixtureCache (fleet synthesis, hybrid designs, dwell/wait curves).
const std::vector<std::string> kFixtureCampaign = {"fig3", "fig4", "fig5", "table1",
                                                   "ablation_envelope"};

double run_fixture_campaign(const std::string& store, const std::string& csv) {
  std::vector<std::string> args = kFixtureCampaign;
  args.insert(args.end(), {"--csv", csv, "--fixture-store", store});
  return timed_run(args);
}

double run_flexray(const std::string& store, const std::string& csv,
                   const std::string& shard = {}) {
  std::vector<std::string> args = {"sweep_flexray_params", "--csv", csv, "--fixture-store",
                                   store};
  if (!shard.empty()) args.insert(args.end(), {"--shard", shard});
  return timed_run(args);
}

/// Critical path of an N-shard flexray campaign on a warm store: the
/// slowest shard plus the merge (shards are independent processes; on N
/// dedicated cores they overlap, so max + merge IS the campaign
/// wall-clock).  Byte-verifies the merged CSV against `reference_csv`.
double sharded_critical_path(std::size_t shards, const std::string& store,
                             const std::string& csv_dir, const std::string& reference_csv) {
  reset_dir(csv_dir);
  double slowest = 0.0;
  for (std::size_t i = 0; i < shards; ++i) {
    const std::string spec = std::to_string(i) + "/" + std::to_string(shards);
    slowest = std::max(slowest, run_flexray(store, csv_dir, spec));
  }
  const double merge = timed_run({"sweep_flexray_params", "--merge", std::to_string(shards),
                                  "--csv", csv_dir});
  const std::string merged = csv_dir + "/sweep_flexray_params.csv";
  if (slurp(merged) != slurp(reference_csv))
    die("merged CSV differs from the unsharded artifact (" + merged + ")");
  return slowest + merge;
}

}  // namespace

int main(int argc, char** argv) {
  cps::bench::SelfJson report("campaign_scaling");
  // Default the driver path to ../tools/cps_run next to this binary so
  // `./build/bench/campaign_scaling` just works; --cps-run overrides.
  std::filesystem::path self(argv[0]);
  g_cps_run = (self.parent_path() / "../tools/cps_run").lexically_normal().string();
  g_work_dir = "/tmp/cps-campaign-scaling";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) die(std::string(flag) + " requires an argument");
      return argv[++i];
    };
    if (arg == "--cps-run") {
      g_cps_run = value("--cps-run");
    } else if (arg == "--work-dir") {
      g_work_dir = value("--work-dir");
    } else if (arg.rfind("--benchmark_", 0) == 0) {
      // Google-Benchmark-style flags accepted for CI-invocation symmetry;
      // this bench always writes its JSON to stdout.
    } else {
      die("unknown option " + arg);
    }
  }
  if (!std::filesystem::exists(g_cps_run)) die("cps_run not found at " + g_cps_run);

  const std::string store = g_work_dir + "/store";
  const std::string csv = g_work_dir + "/csv";
  const std::string csv_shards = g_work_dir + "/csv-shards";

  double fixtures_cold = 1e100, fixtures_warm = 1e100;
  double flexray_cold = 1e100, flexray_warm = 1e100;
  double shard2 = 1e100, shard4 = 1e100;
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    std::fprintf(stderr, "iteration %d/%d\n", iteration + 1, kIterations);
    reset_dir(store);
    reset_dir(csv);
    fixtures_cold = std::min(fixtures_cold, run_fixture_campaign(store, csv));
    fixtures_warm = std::min(fixtures_warm, run_fixture_campaign(store, csv));

    reset_dir(store);
    flexray_cold = std::min(flexray_cold, run_flexray(store, csv));
    flexray_warm = std::min(flexray_warm, run_flexray(store, csv));

    const std::string reference = csv + "/sweep_flexray_params.csv";
    shard2 = std::min(shard2, sharded_critical_path(2, store, csv_shards, reference));
    shard4 = std::min(shard4, sharded_critical_path(4, store, csv_shards, reference));
  }

  std::fprintf(stderr, "\nbest of %d iterations:\n", kIterations);
  report.record("campaign_fixtures_cold_store", fixtures_cold);
  report.record("campaign_fixtures_warm_store", fixtures_warm);
  report.record("campaign_flexray_cold_store", flexray_cold);
  report.record("campaign_flexray_warm_store", flexray_warm);
  report.record("campaign_flexray_shard2_critical_path", shard2);
  report.record("campaign_flexray_shard4_critical_path", shard4);
  std::fprintf(stderr,
               "\nwarm-store speedup (fixture campaign): %.2fx\n"
               "2-shard campaign speedup (critical path): %.2fx\n"
               "4-shard campaign speedup (critical path): %.2fx\n",
               fixtures_cold / fixtures_warm, flexray_warm / shard2, flexray_warm / shard4);

  report.print();
  return 0;
}
