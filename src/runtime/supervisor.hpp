// Fault-tolerant campaign supervisor: the process layer of a sharded
// campaign.
//
// `cps_run --shard i/N` made a campaign a set of N independent
// processes whose partial CSVs merge byte-identically into the
// single-process artifact; this layer makes LAUNCHING those processes
// robust.  A ShardSupervisor fans the N shard commands out as child
// processes (bounded concurrency, fork/exec — or an --exec-template
// wrapper for SSH and friends) and applies a full robustness policy to
// each:
//
//   crash      (non-zero exit, kill-signal, CPS_CRASH_AT injection)
//              -> bounded retries with deterministic jittered
//                 exponential backoff
//   hang       (per-shard wall-clock timeout, or a stalled heartbeat
//              sidecar) -> SIGTERM to the shard's process group, then
//              SIGKILL after a grace period, then the retry policy
//   already landed (resumable restart) -> shards whose `.meta`-verified
//              CSV is already on disk are skipped, so re-running a
//              partly-failed campaign only pays for the missing shards
//   retries exhausted -> a permanent per-shard failure the caller turns
//              into either a hard multi-shard error report or — with
//              --allow-partial — a degraded partial merge plus a
//              machine-readable campaign_manifest.json naming exactly
//              the missing index ranges (merge_sweep_csv_partial)
//
// Success of an attempt is NOT just exit status 0: when the expected
// artifacts are declared, the supervisor re-verifies that every one of
// the shard's partial CSVs actually landed with a consistent sidecar
// (shard_artifact_landed), so a child that exits 0 without publishing —
// or publishes a torn file — is retried like any other failure.
//
// Everything is deterministic where it matters: the backoff schedule
// (base * factor^k, capped, with a splitmix-derived jitter in
// [0.5, 1.5) seeded by (backoff_seed, shard, attempt)) is a pure
// function exposed for tests, and the artifacts themselves carry the
// byte-identity contract of the shard/merge layer, so a supervised
// campaign's merged CSV `cmp`s equal to the unsharded reference run no
// matter which shards crashed, hung, or were killed along the way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <csignal>
#include <string>
#include <vector>

#include "runtime/shard.hpp"

namespace cps::runtime {

/// Robustness policy and plumbing of one supervised campaign.
struct SupervisorOptions {
  /// Number of shard commands to run (shard indices 0 .. shard_count-1).
  std::size_t shard_count = 2;
  /// Concurrently running shard processes; 0 = min(shard_count, cores).
  std::size_t max_parallel = 0;
  /// Attempts per shard before it is declared permanently failed.
  int max_attempts = 3;
  /// Per-attempt wall-clock timeout in seconds; 0 disables.
  double timeout_seconds = 0.0;
  /// Grace between SIGTERM and SIGKILL when an attempt is cancelled.
  double term_grace_seconds = 2.0;
  /// Treat a shard as hung when its heartbeat sidecar (heartbeat_dir)
  /// has not been touched for this long; 0 disables the check.
  double heartbeat_stale_seconds = 0.0;
  /// Retry backoff: delay = min(base * factor^(attempt-1), max) * jitter
  /// with jitter in [0.5, 1.5) derived deterministically from
  /// (backoff_seed, shard, attempt) — see backoff_delay_seconds().
  double backoff_base_seconds = 0.5;
  double backoff_factor = 2.0;
  double backoff_max_seconds = 30.0;
  std::uint64_t backoff_seed = 0x5EED5EEDULL;
  /// Supervision loop poll period (child reaping, timeouts, launches).
  double poll_interval_seconds = 0.025;
  /// When non-empty, each shard runs as `/bin/sh -c TEMPLATE` with
  /// `{cmd}` replaced by the shell-quoted shard command and `{i}`/`{n}`
  /// by the shard index/count — the hook that later wraps shards in
  /// `ssh worker{i} {cmd}` or a container launcher.  The same `{i}`/
  /// `{n}` substitution applies to the command itself either way.
  std::string exec_template;
  /// CPS_CRASH_AT spec forwarded to the FIRST attempt of every shard
  /// only (retries run clean), so injected crashes model "crashed once,
  /// healed on retry" instead of deterministic permanent failure.
  std::string crash_inject;
  /// Directory for per-attempt child logs (stdout+stderr) and heartbeat
  /// sidecars; empty = children inherit the supervisor's streams and
  /// heartbeats are disabled.
  std::string work_dir;
  /// Canonical sweep-CSV paths the campaign must produce.  When
  /// non-empty: shards whose partials all pass shard_artifact_landed
  /// with expected_seed are skipped (resume), and an attempt only counts
  /// as success once its partials verify.
  std::vector<std::string> expected_artifacts;
  std::uint64_t expected_seed = 0;
  /// When non-null, a non-zero value (set by a signal handler) makes the
  /// supervisor tear down every running child (TERM -> grace -> KILL)
  /// and return with interrupted outcomes.
  const volatile std::sig_atomic_t* interrupt_flag = nullptr;
};

/// Final status of one shard after supervision.
struct ShardOutcome {
  std::size_t shard = 0;
  enum class Status {
    kSucceeded,    ///< an attempt exited 0 (and its artifacts verified)
    kSkipped,      ///< resume: artifacts already landed, never launched
    kFailed,       ///< every attempt failed (exit/signal/timeout/torn artifact)
    kInterrupted,  ///< supervisor interrupted before the shard resolved
  } status = Status::kFailed;
  int attempts = 0;      ///< attempts actually launched
  bool timed_out = false;  ///< some attempt hit the wall-clock/heartbeat limit
  bool killed = false;     ///< SIGKILL escalation was needed
  std::string detail;      ///< last failure description ("" on success/skip)
  std::string log_path;    ///< last attempt's log file ("" without work_dir)
};

/// Everything the caller needs for the error report / manifest.
struct SupervisorReport {
  std::vector<ShardOutcome> outcomes;  ///< indexed by shard
  bool interrupted = false;
  bool all_ok() const {
    for (const auto& outcome : outcomes)
      if (outcome.status != ShardOutcome::Status::kSucceeded &&
          outcome.status != ShardOutcome::Status::kSkipped)
        return false;
    return true;
  }
  std::vector<std::size_t> failed_shards() const {
    std::vector<std::size_t> failed;
    for (const auto& outcome : outcomes)
      if (outcome.status == ShardOutcome::Status::kFailed) failed.push_back(outcome.shard);
    return failed;
  }
};

/// The deterministic retry delay after `failed_attempts` (>= 1) failures
/// of `shard`: capped exponential backoff times a [0.5, 1.5) jitter that
/// depends only on (options.backoff_seed, shard, failed_attempts) — same
/// inputs, same schedule, which is what makes supervisor behavior
/// reproducible under test.  A thin wrapper over runtime/backoff.hpp's
/// backoff_delay(), the shared schedule every runtime retry loop uses.
double backoff_delay_seconds(const SupervisorOptions& options, std::size_t shard,
                             int failed_attempts);

/// Supervises one campaign.  Construct with the shard command template
/// (argv words; `{i}`/`{n}` are substituted per shard) and run().
class ShardSupervisor {
 public:
  ShardSupervisor(std::vector<std::string> shard_command, SupervisorOptions options);

  /// Run every shard to success, skip, or permanent failure (or until
  /// *options.interrupt_flag goes non-zero).  Blocking; returns the
  /// per-shard outcomes.
  SupervisorReport run();

 private:
  std::vector<std::string> shard_command_;
  SupervisorOptions options_;
};

/// Serialize the end state of a DEGRADED campaign as
/// `<csv_dir>/campaign_manifest.json`: shard outcomes, per-artifact
/// merged/missing shards and the exact covered/missing index ranges
/// (open-ended when the final shard is gone).  Machine-readable so a
/// later launcher — or a human — can re-run precisely what is missing.
/// Returns the manifest path.
std::string write_campaign_manifest(const std::string& csv_dir,
                                    const SupervisorReport& report, std::uint64_t seed,
                                    const std::vector<std::string>& artifacts,
                                    const std::vector<PartialMergeReport>& merges);

}  // namespace cps::runtime
