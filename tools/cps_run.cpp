// cps_run — the single driver for every registered experiment.
//
//   cps_run --list                      enumerate the experiment catalog
//   cps_run fig4                        run one experiment
//   cps_run fig3 fig4 table_alloc      run several, in the given order
//   cps_run all                         run the whole catalog
//   cps_run --spec campaign.toml        run a declarative campaign spec
//
// The flag table lives in main() (runtime/cli.hpp renders `--help` from
// it); the highlights:
//
//   --jobs N    worker threads for parallel sweeps (default 1; sweeps are
//               bit-identical for any value — see runtime/sweep_runner.hpp)
//   --spec FILE declarative campaign spec (runtime/campaign_spec.hpp):
//               the spec names the experiments to run and carries typed
//               parameters (grids, trials, generator distributions) into
//               them.  The spec's seed and fixture store apply unless the
//               corresponding flag is given explicitly; --shard/--merge
//               compose unchanged (the spec picks the workload, never the
//               partition).  Incompatible with positional experiment
//               names and 'all'.
//   --scenario FILE
//               online fault-injection scenario script (online/scenario.hpp):
//               runs the run_scenario experiment over it.  Excludes --spec
//               and 'all'; --seed beats the scenario's own seed.
//   --dry-run   with --spec or --scenario: print the validated expansion
//               (campaign name, content digest, experiments, seed, store,
//               shard plan — or the scenario's fleet and event list) and
//               exit without running anything
//   --fixture-store DIR
//               persistent content-addressed fixture store shared across
//               processes (runtime/fixture_store.hpp)
//   --shard i/N run only shard i of each named SWEEP experiment's index
//               range; --merge N concatenates the partials (gap/overlap
//               checked) into the canonical CSVs
//   --launch N  supervised campaign: fan out N `--shard i/N` child
//               processes of THIS command (runtime/supervisor.hpp) with
//               per-shard timeouts, heartbeat monitoring, bounded
//               jittered-backoff retries and resume (shards whose
//               .meta-verified partials already landed are skipped),
//               then merge.  On permanently failed shards: a hard
//               multi-shard error report — or, with --allow-partial, a
//               degraded partial merge plus a machine-readable
//               campaign_manifest.json naming the missing index ranges.
//               Tuning: --launch-parallel/-retries/-timeout/-heartbeat/
//               -backoff-ms; --exec-template wraps each shard command
//               (e.g. 'ssh worker{i} {cmd}').
//   --store-stats DIR / --store-gc-max-bytes N
//               store inspection and LRU eviction (standalone or
//               post-campaign; see the flag help)
//
// Robustness plumbing (this file is the process boundary):
//  * Sweep artifacts are STAGED: experiments write to `...inprogress`
//    names and the driver renames them into place only after the body
//    succeeds, so an interrupted run never publishes a partial CSV.
//  * SIGINT/SIGTERM: worker processes _exit immediately (staged
//    artifacts are simply abandoned); a --launch supervisor instead
//    tears down its children first.
//  * CPS_CRASH_AT=<site>[:<count>] (runtime/crash_point.hpp) kills the
//    process at a named publication site — the deterministic fault
//    injection the chaos tests and the CI chaos job drive.
//  * A child started by the supervisor touches the heartbeat file named
//    by CPS_SHARD_HEARTBEAT so a hung shard is detectable.
//
// Exit status: 0 on success (including a degraded --allow-partial merge),
// 1 on experiment/merge/campaign failure, 2 on usage errors (including
// malformed or invalid --spec files).
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "linalg/simd_batch.hpp"
#include "online/scenario.hpp"
#include "runtime/campaign_spec.hpp"
#include "runtime/cli.hpp"
#include "runtime/crash_point.hpp"
#include "runtime/experiment.hpp"
#include "runtime/fixture_cache.hpp"
#include "runtime/fixture_store.hpp"
#include "runtime/shard.hpp"
#include "runtime/supervisor.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace {

using cps::runtime::CliError;
using cps::runtime::Experiment;
using cps::runtime::ExperimentContext;
using cps::runtime::ExperimentRegistry;

constexpr std::uint64_t kMaxJobs = 1024;
constexpr std::uint64_t kMaxShards = 4096;

// ---- interruption contract -------------------------------------------
// Worker processes (the default) _exit the moment SIGINT/SIGTERM lands:
// sweep artifacts are staged (ExperimentContext::stage_artifacts) and the
// shard/store layers publish via temp+rename, so dying at ANY instant
// abandons staging debris but never a torn published file.  A --launch
// supervisor instead flips g_interrupt and lets the supervision loop tear
// its children down before exiting.
volatile std::sig_atomic_t g_interrupt = 0;
volatile std::sig_atomic_t g_supervising = 0;

extern "C" void handle_interrupt(int sig) {
  if (g_supervising != 0) {
    g_interrupt = 1;
    return;
  }
  ::_exit(128 + sig);
}

void install_signal_handlers() {
  struct sigaction action {};
  action.sa_handler = handle_interrupt;
  ::sigemptyset(&action.sa_mask);
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
}

/// Supervised child mode: CPS_SHARD_HEARTBEAT names a sidecar file this
/// process must keep fresh.  A detached thread bumps its mtime ~10x/s;
/// the supervisor treats a stale heartbeat as a hang and escalates
/// SIGTERM -> SIGKILL.  Detached on purpose: it must die WITH the
/// process, not gate its exit.
void start_heartbeat_if_requested() {
  const char* heartbeat = std::getenv("CPS_SHARD_HEARTBEAT");
  if (heartbeat == nullptr || *heartbeat == '\0') return;
  std::thread([path = std::string(heartbeat)] {
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0) return;
    for (;;) {
      ::futimens(fd, nullptr);
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }).detach();
}

/// Human-scale seconds for the store-stats table.
std::string format_age(double seconds) {
  if (seconds < 120.0) return cps::format_fixed(seconds, 1) + " s";
  if (seconds < 7200.0) return cps::format_fixed(seconds / 60.0, 1) + " min";
  if (seconds < 172800.0) return cps::format_fixed(seconds / 3600.0, 1) + " h";
  return cps::format_fixed(seconds / 86400.0, 1) + " d";
}

/// `--store-gc-max-bytes`: evict down to the cap and report.
void run_store_gc(const cps::runtime::FixtureStore& store, std::uint64_t max_bytes,
                  std::FILE* out) {
  const auto gc = store.gc_to_max_bytes(max_bytes);
  std::fprintf(out,
               "[cps_run] store gc (%s): %zu files scanned, %zu evicted, %zu in-use kept, "
               "%llu -> %llu bytes (cap %llu)\n",
               store.directory().c_str(), gc.scanned, gc.evicted, gc.kept_in_use,
               static_cast<unsigned long long>(gc.bytes_before),
               static_cast<unsigned long long>(gc.bytes_after),
               static_cast<unsigned long long>(max_bytes));
}

/// `--store-stats DIR`: the standalone inspector.
int run_store_stats(const std::string& directory, const std::uint64_t* gc_max_bytes) {
  try {
    const cps::runtime::FixtureStore store(directory);
    if (gc_max_bytes != nullptr) run_store_gc(store, *gc_max_bytes, stdout);
    const auto domains = store.usage();
    cps::TextTable table({"domain", "files", "bytes", "oldest use", "newest use"});
    std::size_t files = 0;
    std::uintmax_t bytes = 0;
    for (const auto& domain : domains) {
      files += domain.files;
      bytes += domain.bytes;
      table.add_row({domain.domain, std::to_string(domain.files),
                     std::to_string(domain.bytes), format_age(domain.oldest_age_seconds),
                     format_age(domain.newest_age_seconds)});
    }
    std::printf("fixture store %s: %zu files, %llu bytes in %zu domains\n",
                store.directory().c_str(), files, static_cast<unsigned long long>(bytes),
                domains.size());
    if (!domains.empty()) std::printf("%s", table.render().c_str());
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "cps_run: --store-stats failed: %s\n", error.what());
    return 1;
  }
}

void print_catalog(std::FILE* out) {
  cps::TextTable table({"experiment", "description", "shardable"});
  for (const Experiment* experiment : ExperimentRegistry::instance().list())
    table.add_row({experiment->name(), experiment->description(),
                   experiment->shardable() ? "yes" : ""});
  std::fprintf(out, "%zu registered experiments:\n%s", ExperimentRegistry::instance().size(),
               table.render().c_str());
}

/// Parse "--shard i/N" into (index, count); throws CliError like every
/// other value check so it reports through the single usage-error path.
std::pair<std::uint64_t, std::uint64_t> parse_shard(const std::string& value) {
  const std::size_t slash = value.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= value.size())
    throw CliError("--shard expects i/N (e.g. 0/2), got '" + value + "'");
  const std::uint64_t index = cps::runtime::parse_cli_u64(value.substr(0, slash), "--shard i");
  const std::uint64_t count = cps::runtime::parse_cli_u64(value.substr(slash + 1), "--shard N");
  if (count < 1 || count > kMaxShards || index >= count)
    throw CliError("--shard needs 0 <= i < N <= " + std::to_string(kMaxShards) + ", got '" +
                   value + "'");
  return {index, count};
}

/// `--scenario --dry-run`: print the validated scenario without running.
void print_scenario_expansion(const cps::online::ScenarioSpec& scenario,
                              const ExperimentContext& context) {
  std::printf("scenario %s (script %s)\n", scenario.name.c_str(), scenario.source.c_str());
  std::printf("  ticks:  %llu x %s s\n", static_cast<unsigned long long>(scenario.ticks),
              cps::format_general(scenario.tick_seconds).c_str());
  std::printf("  fleet:  %zu apps at utilization %s, slot budget %s\n", scenario.n_apps,
              cps::format_general(scenario.utilization).c_str(),
              scenario.slot_budget == 0 ? "unlimited"
                                        : std::to_string(scenario.slot_budget).c_str());
  const std::uint64_t seed = cps::online::effective_scenario_seed(context, scenario);
  std::printf("  seed:   %llu (from %s)\n", static_cast<unsigned long long>(seed),
              context.seed_explicit ? "--seed"
                                    : (scenario.has_seed ? "the scenario" : "the default"));
  std::printf("  events (%zu):\n", scenario.events.size());
  for (const auto& event : scenario.events)
    std::printf("    tick %llu: %s%s%s\n", static_cast<unsigned long long>(event.at_tick),
                cps::online::event_kind_name(event.kind), event.app.empty() ? "" : " ",
                event.app.c_str());
}

/// `--spec --dry-run`: print the validated expansion without running.
void print_spec_expansion(const cps::runtime::CampaignSpec& spec,
                          const std::vector<const Experiment*>& experiments,
                          const ExperimentContext& context,
                          const std::string& fixture_store_dir) {
  std::printf("campaign %s (spec %s, digest %s)\n", spec.name.c_str(), spec.source.c_str(),
              spec.digest_hex().c_str());
  std::printf("  seed:          %llu%s\n", static_cast<unsigned long long>(context.seed),
              spec.has_seed ? "" : " (default; spec sets none)");
  std::printf("  fixture store: %s\n",
              fixture_store_dir.empty() ? "(none)" : fixture_store_dir.c_str());
  std::printf("  shard plan:    %zu (advisory; --shard i/N decides)\n", spec.shard_plan);
  std::printf("  parameters:    %zu keys\n", spec.params.size());
  std::printf("  experiments (%zu, in run order):\n", experiments.size());
  for (const Experiment* experiment : experiments)
    std::printf("    %s%s\n", experiment->name().c_str(),
                experiment->shardable() ? "  [shardable]" : "");
}

int run_experiments(const std::vector<const Experiment*>& experiments,
                    ExperimentContext& context) {
  int failures = 0;
  for (const Experiment* experiment : experiments) {
    const auto start = std::chrono::steady_clock::now();
    try {
      // Sweep experiments write their artifacts to STAGED names
      // (`...inprogress`); only after the body returns do the renames
      // below publish them.  A crash, kill or signal mid-body therefore
      // never leaves a partial CSV where --merge (or a resume check)
      // would trust it.
      context.stage_artifacts = experiment->shardable();
      experiment->run(context);
      context.stage_artifacts = false;
      for (const auto& artifact : experiment->sweep_artifacts()) {
        const std::string published = context.artifact_path(artifact);
        const std::string staged = published + ".inprogress";
        cps::runtime::crash_point("artifact_publish");
        std::error_code error;
        std::filesystem::rename(staged, published, error);
        if (error)
          throw cps::Error("staged artifact '" + staged +
                           "' was not published: " + error.message());
      }
      // Shard provenance: stamp each partial with the campaign seed and
      // its slot so --merge can refuse stale or mixed-campaign partials.
      // Strictly AFTER the CSV rename: the sidecar's existence certifies
      // a fully published artifact.
      if (context.sharded()) {
        for (const auto& artifact : experiment->sweep_artifacts())
          cps::runtime::write_shard_meta(context.artifact_path(artifact), context.seed,
                                         context.shard_index, context.shard_count);
      }
      const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
      std::fprintf(context.out, "[cps_run] %s done in %.2f s\n", experiment->name().c_str(),
                   elapsed.count());
    } catch (const std::exception& error) {
      context.stage_artifacts = false;
      ++failures;
      std::fprintf(stderr, "[cps_run] %s FAILED: %s\n", experiment->name().c_str(),
                   error.what());
    }
  }
  const auto cache = cps::runtime::FixtureCache::instance().stats();
  std::fprintf(context.out, "[cps_run] simd: width=%zu isa=%s\n", cps::linalg::kSimdWidth,
               cps::linalg::simd_isa_name());
  std::fprintf(context.out,
               "[cps_run] fixture cache: %zu hits, %zu misses, %zu entries, %zu evictions\n",
               cache.hits, cache.misses, cache.entries, cache.evictions);
  if (const auto store = cps::runtime::FixtureCache::instance().store()) {
    const auto disk = store->stats();
    std::fprintf(context.out,
                 "[cps_run] fixture store (%s): %zu disk hits, %zu disk misses, "
                 "%zu writes, %zu invalid\n",
                 store->directory().c_str(), disk.disk_hits, disk.disk_misses, disk.writes,
                 disk.invalid);
  }
  return failures == 0 ? 0 : 1;
}

/// `--merge N`: concatenate the shard partials of every named sweep
/// experiment into the canonical CSVs.
int merge_experiments(const std::vector<const Experiment*>& experiments,
                      const ExperimentContext& context, std::size_t shard_count) {
  int failures = 0;
  for (const Experiment* experiment : experiments) {
    if (!experiment->shardable()) {
      std::fprintf(stderr, "[cps_run] %s has no sweep artifacts to merge\n",
                   experiment->name().c_str());
      ++failures;
      continue;
    }
    for (const auto& artifact : experiment->sweep_artifacts()) {
      const std::string canonical = context.csv_path(artifact);
      try {
        const std::size_t rows = cps::runtime::merge_sweep_csv(canonical, shard_count);
        std::fprintf(context.out, "[cps_run] merged %zu shards -> %s (%zu rows)\n",
                     shard_count, canonical.c_str(), rows);
      } catch (const std::exception& error) {
        ++failures;
        std::fprintf(stderr, "[cps_run] merge of %s FAILED: %s\n", canonical.c_str(),
                     error.what());
      }
    }
  }
  return failures == 0 ? 0 : 1;
}

/// `--launch` knobs, straight from the flag table.
struct LaunchConfig {
  std::uint64_t shards = 0;
  std::uint64_t parallel = 0;        ///< 0 = min(shards, cores)
  std::uint64_t retries = 3;         ///< attempts per shard
  std::uint64_t timeout_seconds = 0; ///< 0 = no per-attempt timeout
  std::uint64_t heartbeat_stale_seconds = 0;  ///< 0 = no heartbeat check
  std::uint64_t backoff_ms = 500;    ///< base retry delay
  std::string exec_template;
  bool allow_partial = false;
};

/// `--launch N`: the supervised campaign.  Fans the shard children out
/// under the full robustness policy, then either merges strictly (all
/// shards landed), fails with a complete multi-shard report, or — with
/// --allow-partial — degrades to a partial merge plus manifest.
int run_supervised_campaign(const std::vector<const Experiment*>& experiments,
                            ExperimentContext& context, const LaunchConfig& config,
                            const std::vector<std::string>& child_command,
                            const std::string& fixture_store_dir, bool gc_requested,
                            std::uint64_t gc_max_bytes) {
  namespace rt = cps::runtime;
  rt::SupervisorOptions options;
  options.shard_count = static_cast<std::size_t>(config.shards);
  options.max_parallel = static_cast<std::size_t>(config.parallel);
  options.max_attempts = static_cast<int>(config.retries);
  options.timeout_seconds = static_cast<double>(config.timeout_seconds);
  options.heartbeat_stale_seconds = static_cast<double>(config.heartbeat_stale_seconds);
  options.backoff_base_seconds = static_cast<double>(config.backoff_ms) / 1000.0;
  options.backoff_seed = context.seed;
  options.exec_template = config.exec_template;
  options.work_dir = context.csv_path(".launch");
  options.expected_seed = context.seed;
  for (const Experiment* experiment : experiments)
    for (const auto& artifact : experiment->sweep_artifacts())
      options.expected_artifacts.push_back(context.csv_path(artifact));
  // Chaos plumbing: a CPS_CRASH_AT in our environment is meant for the
  // CHILDREN (first attempts only — retries run clean), never for the
  // supervisor itself.
  if (const char* inject = std::getenv("CPS_CRASH_AT"); inject != nullptr && *inject != '\0') {
    options.crash_inject = inject;
    ::unsetenv("CPS_CRASH_AT");
  }
  options.interrupt_flag = &g_interrupt;

  std::fprintf(context.out, "[cps_run] launching %llu shards (parallel %s, %llu attempts)\n",
               static_cast<unsigned long long>(config.shards),
               config.parallel == 0 ? "auto" : std::to_string(config.parallel).c_str(),
               static_cast<unsigned long long>(config.retries));

  rt::SupervisorReport report;
  try {
    g_supervising = 1;
    rt::ShardSupervisor supervisor(child_command, options);
    report = supervisor.run();
    g_supervising = 0;
  } catch (const std::exception& error) {
    g_supervising = 0;
    std::fprintf(stderr, "cps_run: --launch failed: %s\n", error.what());
    return 1;
  }

  for (const auto& outcome : report.outcomes) {
    const char* status = outcome.status == rt::ShardOutcome::Status::kSucceeded ? "ok"
                         : outcome.status == rt::ShardOutcome::Status::kSkipped
                             ? "skipped (already landed)"
                         : outcome.status == rt::ShardOutcome::Status::kFailed ? "FAILED"
                                                                               : "interrupted";
    std::fprintf(context.out, "[cps_run] shard %zu/%llu: %s (%d attempt%s)\n", outcome.shard,
                 static_cast<unsigned long long>(config.shards), status, outcome.attempts,
                 outcome.attempts == 1 ? "" : "s");
  }
  if (report.interrupted) {
    std::fprintf(stderr, "cps_run: campaign interrupted; nothing merged\n");
    return 1;
  }

  const auto gc_store = [&] {
    if (!gc_requested || fixture_store_dir.empty()) return;
    try {
      run_store_gc(cps::runtime::FixtureStore(fixture_store_dir), gc_max_bytes, context.out);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "cps_run: post-campaign store gc failed: %s\n", error.what());
    }
  };

  if (report.all_ok()) {
    const int status =
        merge_experiments(experiments, context, static_cast<std::size_t>(config.shards));
    gc_store();
    return status;
  }

  // Permanent shard failures.  Without --allow-partial this is a hard
  // stop, and the report must be COMPLETE: every failed shard, its final
  // error and its log, in one message — not just the first casualty.
  if (!config.allow_partial) {
    std::fprintf(stderr, "cps_run: campaign failed: %zu of %llu shards did not land\n",
                 report.failed_shards().size(),
                 static_cast<unsigned long long>(config.shards));
    for (const auto& outcome : report.outcomes) {
      if (outcome.status != rt::ShardOutcome::Status::kFailed) continue;
      std::fprintf(stderr, "  shard %zu: %s\n", outcome.shard, outcome.detail.c_str());
      if (!outcome.log_path.empty())
        std::fprintf(stderr, "    log: %s\n", outcome.log_path.c_str());
    }
    std::fprintf(stderr,
                 "  re-run the same command to retry only the missing shards, or add "
                 "--allow-partial to merge what landed\n");
    return 1;
  }

  // Degraded mode: merge every shard that landed, and say EXACTLY what is
  // missing — machine-readably — in the campaign manifest.
  std::vector<std::string> artifacts;
  std::vector<rt::PartialMergeReport> merges;
  for (const Experiment* experiment : experiments) {
    for (const auto& artifact : experiment->sweep_artifacts()) {
      const std::string canonical = context.csv_path(artifact);
      try {
        auto merge = rt::merge_sweep_csv_partial(canonical,
                                                 static_cast<std::size_t>(config.shards));
        std::fprintf(context.out,
                     "[cps_run] partial merge -> %s: %zu rows from %zu of %llu shards\n",
                     canonical.c_str(), merge.rows_merged, merge.merged_shards.size(),
                     static_cast<unsigned long long>(config.shards));
        artifacts.push_back(canonical);
        merges.push_back(std::move(merge));
      } catch (const std::exception& error) {
        std::fprintf(stderr, "[cps_run] partial merge of %s FAILED: %s\n", canonical.c_str(),
                     error.what());
        return 1;
      }
    }
  }
  try {
    const std::string manifest = rt::write_campaign_manifest(
        context.csv_dir, report, context.seed, artifacts, merges);
    std::fprintf(context.out, "[cps_run] degraded campaign manifest: %s\n", manifest.c_str());
  } catch (const std::exception& error) {
    std::fprintf(stderr, "cps_run: cannot write campaign manifest: %s\n", error.what());
    return 1;
  }
  gc_store();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  install_signal_handlers();
  start_heartbeat_if_requested();

  // ---- flag table (everything --help shows is declared right here) ----
  bool list_only = false;
  bool dry_run = false;
  std::uint64_t jobs = 1;
  std::uint64_t seed_flag = 0;
  bool seed_seen = false;
  std::string csv_dir;
  std::string fixture_store_dir;
  bool fixture_store_seen = false;
  std::string store_stats_dir;
  std::string shard_text;
  std::string spec_path;
  std::string scenario_path;
  std::uint64_t gc_max_bytes = 0;
  bool gc_requested = false;
  std::uint64_t merge_shards = 0;
  bool merge = false;
  LaunchConfig launch;
  bool launch_requested = false;
  bool launch_parallel_seen = false;
  bool launch_retries_seen = false;
  bool launch_timeout_seen = false;
  bool launch_heartbeat_seen = false;
  bool launch_backoff_seen = false;
  bool exec_template_seen = false;

  cps::runtime::CliParser cli("cps_run", "[experiment ...|all]");
  cli.add_flag({"--list", "-l"}, &list_only, "enumerate the experiment catalog and exit");
  cli.add_u64({"--jobs", "-j"}, &jobs, "N",
              "worker threads for parallel sweeps (bit-identical output for any N)");
  cli.add_string({"--csv"}, &csv_dir, "DIR", "directory for CSV artifacts (created)");
  cli.add_u64({"--seed"}, &seed_flag, "S",
              "base seed for randomized campaigns (default 0x5EED5EED)", &seed_seen);
  cli.add_string({"--spec"}, &spec_path, "FILE",
                 "declarative campaign spec: runs its experiments with its typed "
                 "parameters (excludes positional names/'all')");
  cli.add_string({"--scenario"}, &scenario_path, "FILE",
                 "online fault-injection scenario script: runs the run_scenario "
                 "experiment over it (excludes --spec/'all')");
  cli.add_flag({"--dry-run"}, &dry_run,
               "with --spec/--scenario: print the validated expansion, run nothing");
  cli.add_string({"--fixture-store"}, &fixture_store_dir, "DIR",
                 "persistent content-addressed fixture store shared across processes",
                 &fixture_store_seen);
  cli.add_string({"--shard"}, &shard_text, "i/N",
                 "run only shard i of each sweep experiment's index range");
  cli.add_u64({"--merge"}, &merge_shards, "N",
              "merge N shard artifacts under --csv into the canonical CSVs", &merge);
  cli.add_u64({"--launch"}, &launch.shards, "N",
              "supervised campaign: run N --shard children of this command with "
              "retries/timeouts/resume, then merge",
              &launch_requested);
  cli.add_flag({"--allow-partial"}, &launch.allow_partial,
               "with --launch: merge the shards that landed and write "
               "campaign_manifest.json instead of failing hard");
  cli.add_u64({"--launch-parallel"}, &launch.parallel, "P",
              "with --launch: concurrent shard processes (default: min(N, cores))",
              &launch_parallel_seen);
  cli.add_u64({"--launch-retries"}, &launch.retries, "K",
              "with --launch: attempts per shard before permanent failure (default 3)",
              &launch_retries_seen);
  cli.add_u64({"--launch-timeout"}, &launch.timeout_seconds, "S",
              "with --launch: per-attempt wall-clock timeout in seconds, SIGTERM then "
              "SIGKILL (default 0 = none)",
              &launch_timeout_seen);
  cli.add_u64({"--launch-heartbeat"}, &launch.heartbeat_stale_seconds, "S",
              "with --launch: treat a shard as hung when its heartbeat file is S "
              "seconds stale (default 0 = off)",
              &launch_heartbeat_seen);
  cli.add_u64({"--launch-backoff-ms"}, &launch.backoff_ms, "MS",
              "with --launch: base retry backoff in milliseconds, doubled per failure "
              "with deterministic jitter (default 500)",
              &launch_backoff_seen);
  cli.add_string({"--exec-template"}, &launch.exec_template, "TPL",
                 "with --launch: run each shard as `sh -c TPL` with {cmd}/{i}/{n} "
                 "substituted (e.g. 'ssh worker{i} {cmd}')",
                 &exec_template_seen);
  cli.add_string({"--store-stats"}, &store_stats_dir, "DIR",
                 "standalone store inspector: per-domain usage report, then exit");
  cli.add_u64({"--store-gc-max-bytes"}, &gc_max_bytes, "N",
              "LRU-evict store files down to N bytes (after experiments, or "
              "before a --store-stats report)",
              &gc_requested);

  // ---- parse + validate: every usage error funnels through here and
  // exits 2 (the documented contract); nothing below this block fails
  // on malformed input.
  std::vector<std::string> names;
  bool run_all = false;
  std::optional<cps::runtime::CampaignSpec> spec;
  std::optional<cps::online::ScenarioSpec> scenario;
  ExperimentContext context;
  try {
    names = cli.parse({argv + 1, argv + argc});
    if (cli.help_requested()) {
      std::printf("%s\nrun `cps_run --list` for the experiment catalog.\n",
                  cli.help().c_str());
      return 0;
    }
    for (auto it = names.begin(); it != names.end();) {
      if (*it == "all") {
        run_all = true;
        it = names.erase(it);
      } else {
        ++it;
      }
    }

    if (jobs < 1 || jobs > kMaxJobs)
      throw CliError("--jobs must be in [1, " + std::to_string(kMaxJobs) + "]");
    context.jobs = static_cast<int>(jobs);
    if (seed_seen) context.seed = seed_flag;
    context.seed_explicit = seed_seen;
    context.csv_dir = csv_dir;
    if (!shard_text.empty()) {
      const auto [index, count] = parse_shard(shard_text);
      context.shard_index = static_cast<std::size_t>(index);
      context.shard_count = static_cast<std::size_t>(count);
    }
    if (merge && (merge_shards < 2 || merge_shards > kMaxShards))
      throw CliError("--merge needs a shard count in [2, " + std::to_string(kMaxShards) +
                     "]");

    // Mode interactions, checked up front in one place.
    if (run_all && !names.empty())
      throw CliError("'all' cannot be combined with named experiments");
    if (merge && (context.sharded() || run_all))
      throw CliError("--merge cannot be combined with --shard or 'all'");
    if (launch_requested) {
      if (launch.shards < 2 || launch.shards > kMaxShards)
        throw CliError("--launch needs a shard count in [2, " + std::to_string(kMaxShards) +
                       "]");
      if (context.sharded())
        throw CliError("--launch supervises its own --shard children; they cannot be "
                       "combined");
      if (merge) throw CliError("--launch merges automatically; drop --merge");
      if (run_all)
        throw CliError("--launch needs shardable sweep experiments; 'all' includes "
                       "non-shardable ones");
      if (!scenario_path.empty())
        throw CliError("--launch cannot be combined with --scenario");
      if (launch.retries < 1 || launch.retries > 100)
        throw CliError("--launch-retries must be in [1, 100]");
      if (launch.parallel > kMaxShards)
        throw CliError("--launch-parallel must be at most " + std::to_string(kMaxShards));
    } else if (launch.allow_partial || launch_parallel_seen || launch_retries_seen ||
               launch_timeout_seen || launch_heartbeat_seen || launch_backoff_seen ||
               exec_template_seen) {
      throw CliError("--allow-partial/--launch-*/--exec-template require --launch N");
    }
    if (!spec_path.empty() && (run_all || !names.empty()))
      throw CliError("--spec declares the experiments to run; positional names and "
                     "'all' cannot be combined with it");
    if (!scenario_path.empty()) {
      // --scenario IS a run of run_scenario; anything that names a
      // different workload contradicts it.
      if (!spec_path.empty())
        throw CliError("--scenario cannot be combined with --spec (use the spec's "
                       "scenario.file key instead)");
      if (run_all) throw CliError("--scenario cannot be combined with 'all'");
      if (merge) throw CliError("--scenario cannot be combined with --merge");
      for (const auto& name : names)
        if (name != "run_scenario")
          throw CliError("--scenario runs the run_scenario experiment; '" + name +
                         "' cannot be combined with it");
      names = {"run_scenario"};
      context.scenario_path = scenario_path;
    }
    if (dry_run && spec_path.empty() && scenario_path.empty())
      throw CliError("--dry-run requires --spec or --scenario");
    if (!store_stats_dir.empty()) {
      // Standalone inspector: combining it with a run (or a second store
      // via --fixture-store) would make it ambiguous which store the GC
      // pass empties, so reject rather than silently pick one.
      if (!names.empty() || run_all || merge || context.sharded() ||
          fixture_store_seen || !spec_path.empty())
        throw CliError("--store-stats is a standalone inspector (no experiments, no "
                       "--spec, no --fixture-store)");
    } else if (gc_requested && !fixture_store_seen && spec_path.empty()) {
      throw CliError("--store-gc-max-bytes needs --fixture-store (or --store-stats)");
    }

    // Campaign spec: parse + validate, then let it fill the defaults the
    // CLI did not set explicitly.  A malformed spec is the user's input,
    // so it reports as a usage error too.
    if (!spec_path.empty()) {
      spec = cps::runtime::load_campaign_spec(spec_path);
      names = spec->experiments;
      if (!seed_seen && spec->has_seed) context.seed = spec->seed;
      if (!fixture_store_seen) fixture_store_dir = spec->fixture_store;
      if (gc_requested && fixture_store_dir.empty())
        throw CliError("--store-gc-max-bytes needs a fixture store, and spec '" +
                       spec->name + "' sets none");
      context.spec = &*spec;
    }

    // Scenario script: parse + validate up front, so a malformed script
    // reports as a usage error (exit 2) exactly like a malformed --spec.
    if (!scenario_path.empty()) scenario = cps::online::load_scenario(scenario_path);

    if (!list_only && store_stats_dir.empty() && names.empty() && !run_all)
      throw CliError("nothing to run: name experiments, 'all', or --spec FILE");
  } catch (const std::exception& error) {
    std::fprintf(stderr, "cps_run: %s\n", error.what());
    std::fprintf(stderr, "run `cps_run --help` for usage.\n");
    return 2;
  }

  if (list_only) {
    print_catalog(stdout);
    return 0;
  }
  if (!store_stats_dir.empty())
    return run_store_stats(store_stats_dir, gc_requested ? &gc_max_bytes : nullptr);

  std::vector<const Experiment*> experiments;
  if (run_all) {
    experiments = ExperimentRegistry::instance().list();
  } else {
    for (const auto& name : names) {
      const Experiment* experiment = ExperimentRegistry::instance().find(name);
      if (experiment == nullptr) {
        std::fprintf(stderr, "cps_run: unknown experiment '%s'%s\n", name.c_str(),
                     spec ? (" (from spec " + spec->source + ")").c_str() : "");
        print_catalog(stderr);
        return 2;
      }
      experiments.push_back(experiment);
    }
  }

  if (context.sharded() || launch_requested) {
    // Sharding partitions sweep index ranges; an experiment that never
    // consults ctx.shard_* would silently run in full on every shard, so
    // only experiments that declare sweep artifacts accept --shard (and
    // --launch, which is just supervised --shard children).
    for (const Experiment* experiment : experiments) {
      if (!experiment->shardable()) {
        std::fprintf(stderr, "cps_run: experiment '%s' does not support %s\n",
                     experiment->name().c_str(), launch_requested ? "--launch" : "--shard");
        return 2;
      }
    }
  }

  if (dry_run) {
    if (spec)
      print_spec_expansion(*spec, experiments, context, fixture_store_dir);
    else
      print_scenario_expansion(*scenario, context);
    return 0;
  }

  if (merge) return merge_experiments(experiments, context, merge_shards);

  if (!context.csv_dir.empty()) {
    std::error_code error;
    std::filesystem::create_directories(context.csv_dir, error);
    if (error) {
      std::fprintf(stderr, "cps_run: cannot create csv dir '%s': %s\n",
                   context.csv_dir.c_str(), error.message().c_str());
      return 2;
    }
  }

  if (launch_requested) {
    // The children re-run THIS command, reduced to its workload flags
    // plus a `--shard {i}/{n}` the supervisor substitutes per shard.
    // Launch-only and post-merge flags (--launch-*, --store-gc-max-bytes)
    // deliberately do not propagate: the parent owns supervision and GC.
    std::vector<std::string> child_command;
    child_command.push_back(argv[0]);
    if (spec) {
      child_command.push_back("--spec");
      child_command.push_back(spec_path);
    } else {
      for (const auto& name : names) child_command.push_back(name);
    }
    child_command.push_back("--jobs");
    child_command.push_back(std::to_string(jobs));
    if (seed_seen) {
      child_command.push_back("--seed");
      child_command.push_back(std::to_string(seed_flag));
    }
    if (!csv_dir.empty()) {
      child_command.push_back("--csv");
      child_command.push_back(csv_dir);
    }
    if (!fixture_store_dir.empty()) {
      child_command.push_back("--fixture-store");
      child_command.push_back(fixture_store_dir);
    }
    child_command.push_back("--shard");
    child_command.push_back("{i}/{n}");
    return run_supervised_campaign(experiments, context, launch, child_command,
                                   fixture_store_dir, gc_requested, gc_max_bytes);
  }

  if (!fixture_store_dir.empty()) {
    try {
      cps::runtime::FixtureCache::instance().set_store(
          std::make_shared<cps::runtime::FixtureStore>(fixture_store_dir));
    } catch (const std::exception& error) {
      std::fprintf(stderr, "cps_run: cannot open fixture store: %s\n", error.what());
      return 2;
    }
  }

  if (spec)
    std::fprintf(context.out, "[cps_run] campaign %s (spec %s, digest %s)\n",
                 spec->name.c_str(), spec->source.c_str(), spec->digest_hex().c_str());

  const int status = run_experiments(experiments, context);
  if (gc_requested) {
    // After the campaign: the files this run loaded or wrote are its
    // working set and survive; everything else is fair game, oldest
    // first.
    if (const auto store = cps::runtime::FixtureCache::instance().store())
      run_store_gc(*store, gc_max_bytes, context.out);
  }
  return status;
}
