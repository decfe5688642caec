// Supervisor robustness policy: backoff determinism, timeout escalation,
// retry-until-success, artifact-verified success, resume, interruption,
// exec-template wrapping, and the degraded partial-merge manifest.
//
// The process tests run REAL children (fork/exec of /bin/sh and friends)
// with tight timeouts, so the whole suite stays fast while exercising
// the same code paths `cps_run --launch` drives.
#include "runtime/supervisor.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "runtime/shard.hpp"
#include "util/error.hpp"

namespace {

using cps::runtime::backoff_delay_seconds;
using cps::runtime::merge_sweep_csv_partial;
using cps::runtime::shard_suffix;
using cps::runtime::ShardOutcome;
using cps::runtime::ShardSupervisor;
using cps::runtime::SupervisorOptions;
using cps::runtime::SupervisorReport;
using cps::runtime::write_campaign_manifest;
using cps::runtime::write_shard_meta;

struct SupervisorFixture : public ::testing::Test {
  void SetUp() override {
    dir = (std::filesystem::temp_directory_path() /
           ("cps-supervisor-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter++)))
              .string();
    std::filesystem::create_directories(dir);
  }
  void TearDown() override {
    std::error_code error;
    std::filesystem::remove_all(dir, error);
  }
  /// Fast-poll options so process tests finish in tens of milliseconds.
  SupervisorOptions fast_options(std::size_t shards) {
    SupervisorOptions options;
    options.shard_count = shards;
    options.poll_interval_seconds = 0.005;
    options.backoff_base_seconds = 0.01;
    options.backoff_max_seconds = 0.05;
    options.work_dir = dir + "/launch";
    return options;
  }
  /// A landed shard partial: whole CSV plus a consistent sidecar.
  void write_shard(const std::string& canonical, std::size_t index, std::size_t count,
                   const std::vector<std::size_t>& rows, std::uint64_t seed) {
    {
      std::ofstream out(canonical + shard_suffix(index, count));
      out << "index,v\n";
      for (auto row : rows) out << row << ",value" << row << '\n';
    }
    write_shard_meta(canonical + shard_suffix(index, count), seed, index, count);
  }
  static std::atomic<int> counter;
  std::string dir;
};
std::atomic<int> SupervisorFixture::counter{0};

// ---------------------------------------------------------------------------
// Backoff schedule: a pure, deterministic function

TEST(BackoffTest, ScheduleIsDeterministicUnderAFixedSeed) {
  SupervisorOptions options;
  options.backoff_base_seconds = 0.5;
  options.backoff_factor = 2.0;
  options.backoff_max_seconds = 30.0;
  options.backoff_seed = 42;
  for (std::size_t shard = 0; shard < 4; ++shard)
    for (int attempt = 1; attempt <= 6; ++attempt)
      EXPECT_DOUBLE_EQ(backoff_delay_seconds(options, shard, attempt),
                       backoff_delay_seconds(options, shard, attempt))
          << "shard " << shard << " attempt " << attempt;
}

TEST(BackoffTest, DelayGrowsExponentiallyWithinTheJitterBand) {
  SupervisorOptions options;
  options.backoff_base_seconds = 0.5;
  options.backoff_factor = 2.0;
  options.backoff_max_seconds = 1e9;  // no cap for this check
  for (int attempt = 1; attempt <= 8; ++attempt) {
    const double nominal = 0.5 * std::pow(2.0, attempt - 1);
    const double delay = backoff_delay_seconds(options, 0, attempt);
    EXPECT_GE(delay, 0.5 * nominal);
    EXPECT_LT(delay, 1.5 * nominal);
  }
}

TEST(BackoffTest, DelayIsCappedAtTheMaximum) {
  SupervisorOptions options;
  options.backoff_base_seconds = 1.0;
  options.backoff_factor = 10.0;
  options.backoff_max_seconds = 5.0;
  EXPECT_LT(backoff_delay_seconds(options, 3, 20), 1.5 * 5.0);
}

TEST(BackoffTest, DifferentShardsGetDecorrelatedJitter) {
  SupervisorOptions options;
  bool any_difference = false;
  for (std::size_t shard = 1; shard < 8; ++shard)
    if (backoff_delay_seconds(options, shard, 1) != backoff_delay_seconds(options, 0, 1))
      any_difference = true;
  EXPECT_TRUE(any_difference);  // identical delays would stampede retries
}

// ---------------------------------------------------------------------------
// Process supervision

TEST_F(SupervisorFixture, RunsEveryShardToSuccess) {
  ShardSupervisor supervisor({"true"}, fast_options(3));
  const SupervisorReport report = supervisor.run();
  ASSERT_EQ(report.outcomes.size(), 3u);
  EXPECT_TRUE(report.all_ok());
  for (const auto& outcome : report.outcomes) {
    EXPECT_EQ(outcome.status, ShardOutcome::Status::kSucceeded);
    EXPECT_EQ(outcome.attempts, 1);
  }
}

TEST_F(SupervisorFixture, RetriesAFlakyShardUntilItSucceeds) {
  // First attempt leaves a marker and fails; the retry sees it and exits
  // 0 — the supervised analogue of "crashed once, healed on retry".
  SupervisorOptions options = fast_options(2);
  options.max_attempts = 3;
  ShardSupervisor supervisor(
      {"/bin/sh", "-c",
       "if [ -e " + dir + "/marker{i} ]; then exit 0; else touch " + dir +
           "/marker{i}; exit 3; fi"},
      options);
  const SupervisorReport report = supervisor.run();
  EXPECT_TRUE(report.all_ok());
  for (const auto& outcome : report.outcomes) EXPECT_EQ(outcome.attempts, 2);
}

TEST_F(SupervisorFixture, PermanentFailureReportsEveryAttempt) {
  SupervisorOptions options = fast_options(2);
  options.max_attempts = 2;
  ShardSupervisor supervisor({"/bin/sh", "-c", "echo shard-{i}-stderr >&2; exit 7"},
                             options);
  const SupervisorReport report = supervisor.run();
  EXPECT_FALSE(report.all_ok());
  ASSERT_EQ(report.failed_shards().size(), 2u);
  for (const auto& outcome : report.outcomes) {
    EXPECT_EQ(outcome.status, ShardOutcome::Status::kFailed);
    EXPECT_EQ(outcome.attempts, 2);
    EXPECT_NE(outcome.detail.find("exit status 7"), std::string::npos) << outcome.detail;
    // The report carries the child's own words (log tail), not just codes.
    EXPECT_NE(outcome.detail.find("shard-"), std::string::npos) << outcome.detail;
  }
}

TEST_F(SupervisorFixture, TimeoutSendsTermThenEscalatesToKill) {
  // The child ignores SIGTERM, so only the SIGKILL escalation can end it.
  SupervisorOptions options = fast_options(1);
  options.max_attempts = 1;
  options.timeout_seconds = 0.2;
  options.term_grace_seconds = 0.15;
  ShardSupervisor supervisor({"/bin/sh", "-c", "trap '' TERM; sleep 30"}, options);
  const auto start = std::chrono::steady_clock::now();
  const SupervisorReport report = supervisor.run();
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  ASSERT_EQ(report.outcomes.size(), 1u);
  const auto& outcome = report.outcomes[0];
  EXPECT_EQ(outcome.status, ShardOutcome::Status::kFailed);
  EXPECT_TRUE(outcome.timed_out);
  EXPECT_TRUE(outcome.killed);
  EXPECT_NE(outcome.detail.find("signal 9"), std::string::npos) << outcome.detail;
  EXPECT_LT(elapsed, 10.0);  // never waits out the sleep
}

TEST_F(SupervisorFixture, TimeoutTermableChildDiesWithoutEscalation) {
  SupervisorOptions options = fast_options(1);
  options.max_attempts = 1;
  options.timeout_seconds = 0.2;
  options.term_grace_seconds = 2.0;
  ShardSupervisor supervisor({"sleep", "30"}, options);
  const SupervisorReport report = supervisor.run();
  const auto& outcome = report.outcomes[0];
  EXPECT_EQ(outcome.status, ShardOutcome::Status::kFailed);
  EXPECT_TRUE(outcome.timed_out);
  EXPECT_FALSE(outcome.killed);  // SIGTERM sufficed
  EXPECT_NE(outcome.detail.find("signal 15"), std::string::npos) << outcome.detail;
}

TEST_F(SupervisorFixture, ExitZeroWithoutALandedArtifactIsAFailure) {
  // A shard that "succeeds" without publishing must be treated as failed:
  // exit status alone cannot certify the artifact landed whole.
  SupervisorOptions options = fast_options(2);
  options.max_attempts = 1;
  options.expected_artifacts = {dir + "/sweep.csv"};
  options.expected_seed = 0x5EED;
  ShardSupervisor supervisor({"true"}, options);
  const SupervisorReport report = supervisor.run();
  EXPECT_FALSE(report.all_ok());
  for (const auto& outcome : report.outcomes)
    EXPECT_NE(outcome.detail.find("did not land"), std::string::npos) << outcome.detail;
}

TEST_F(SupervisorFixture, ResumeSkipsShardsWhoseArtifactsAlreadyLanded) {
  // Both shards' partials are on disk with the right seed; the command
  // would fail if it ever ran — resume must not launch it at all.
  const std::string canonical = dir + "/sweep.csv";
  write_shard(canonical, 0, 2, {0, 1}, 0xCAFE);
  write_shard(canonical, 1, 2, {2, 3}, 0xCAFE);
  SupervisorOptions options = fast_options(2);
  options.expected_artifacts = {canonical};
  options.expected_seed = 0xCAFE;
  ShardSupervisor supervisor({"false"}, options);
  const SupervisorReport report = supervisor.run();
  EXPECT_TRUE(report.all_ok());
  for (const auto& outcome : report.outcomes) {
    EXPECT_EQ(outcome.status, ShardOutcome::Status::kSkipped);
    EXPECT_EQ(outcome.attempts, 0);
  }
}

TEST_F(SupervisorFixture, ResumeWithTheWrongSeedRerunsInsteadOfSkipping) {
  const std::string canonical = dir + "/sweep.csv";
  write_shard(canonical, 0, 1, {0, 1}, 0xAAAA);  // stale campaign
  SupervisorOptions options = fast_options(1);
  options.max_attempts = 1;
  options.expected_artifacts = {canonical};
  options.expected_seed = 0xBBBB;
  ShardSupervisor supervisor({"false"}, options);
  const SupervisorReport report = supervisor.run();
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_EQ(report.outcomes[0].status, ShardOutcome::Status::kFailed);
  EXPECT_EQ(report.outcomes[0].attempts, 1);  // launched, not skipped
}

TEST_F(SupervisorFixture, InterruptFlagTearsDownRunningChildren) {
  static volatile std::sig_atomic_t interrupt = 1;  // pre-set: stop immediately
  SupervisorOptions options = fast_options(2);
  options.interrupt_flag = &interrupt;
  ShardSupervisor supervisor({"sleep", "30"}, options);
  const auto start = std::chrono::steady_clock::now();
  const SupervisorReport report = supervisor.run();
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_TRUE(report.interrupted);
  for (const auto& outcome : report.outcomes)
    EXPECT_EQ(outcome.status, ShardOutcome::Status::kInterrupted);
  EXPECT_LT(elapsed, 10.0);
}

TEST_F(SupervisorFixture, ExecTemplateWrapsEveryShardCommand) {
  SupervisorOptions options = fast_options(2);
  options.exec_template = "echo wrapped-{i} >> " + dir + "/calls; exec {cmd}";
  ShardSupervisor supervisor({"true"}, options);
  const SupervisorReport report = supervisor.run();
  EXPECT_TRUE(report.all_ok());
  std::ifstream in(dir + "/calls");
  const std::string calls((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_NE(calls.find("wrapped-0"), std::string::npos) << calls;
  EXPECT_NE(calls.find("wrapped-1"), std::string::npos) << calls;
}

// ---------------------------------------------------------------------------
// Degraded campaign manifest

TEST_F(SupervisorFixture, ManifestNamesMissingShardsAndExactIndexRanges) {
  const std::string canonical = dir + "/sweep.csv";
  write_shard(canonical, 0, 3, {0, 1}, 0x5EED);
  write_shard(canonical, 2, 3, {4, 5}, 0x5EED);  // shard 1 (indices 2..3) lost
  auto merge = merge_sweep_csv_partial(canonical, 3);
  EXPECT_EQ(merge.rows_merged, 4u);

  SupervisorReport report;
  for (std::size_t shard = 0; shard < 3; ++shard) {
    ShardOutcome outcome;
    outcome.shard = shard;
    outcome.attempts = shard == 1 ? 3 : 1;
    outcome.status =
        shard == 1 ? ShardOutcome::Status::kFailed : ShardOutcome::Status::kSucceeded;
    if (shard == 1) outcome.detail = "attempt 3/3: exit status 9";
    report.outcomes.push_back(outcome);
  }

  const std::string path =
      write_campaign_manifest(dir, report, 0x5EED, {canonical}, {merge});
  std::ifstream in(path);
  const std::string manifest((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  EXPECT_NE(manifest.find("\"missing_shards\": [1]"), std::string::npos) << manifest;
  EXPECT_NE(manifest.find("\"covered_index_ranges\": [[0, 2], [4, 6]]"), std::string::npos)
      << manifest;
  EXPECT_NE(manifest.find("\"missing_index_ranges\": [[2, 4]]"), std::string::npos)
      << manifest;
  EXPECT_NE(manifest.find("\"status\": \"failed\""), std::string::npos) << manifest;
  EXPECT_NE(manifest.find("\"campaign_seed\": \"0x0000000000005eed\""), std::string::npos)
      << manifest;
}

TEST_F(SupervisorFixture, ManifestPublishFailureThrowsAndLeavesNoTempFile) {
  // A directory in the manifest's place makes the final rename fail.
  std::filesystem::create_directories(dir + "/campaign_manifest.json");
  EXPECT_THROW(write_campaign_manifest(dir, SupervisorReport{}, 0x5EED, {}, {}), cps::Error);
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    EXPECT_EQ(entry.path().filename().string().find(".tmp."), std::string::npos)
        << entry.path();
}

TEST_F(SupervisorFixture, ManifestMarksAnUnknownTailAsOpenEnded) {
  // When the FINAL shard never landed the sweep's total size is unknown:
  // the missing range must say so (null end), not invent a bound.
  const std::string canonical = dir + "/sweep.csv";
  write_shard(canonical, 0, 2, {0, 1, 2}, 0x5EED);
  auto merge = merge_sweep_csv_partial(canonical, 2);
  SupervisorReport report;
  for (std::size_t shard = 0; shard < 2; ++shard) {
    ShardOutcome outcome;
    outcome.shard = shard;
    outcome.status =
        shard == 1 ? ShardOutcome::Status::kFailed : ShardOutcome::Status::kSucceeded;
    report.outcomes.push_back(outcome);
  }
  const std::string path =
      write_campaign_manifest(dir, report, 0x5EED, {canonical}, {merge});
  std::ifstream in(path);
  const std::string manifest((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  EXPECT_NE(manifest.find("\"missing_index_ranges\": [[3, null]]"), std::string::npos)
      << manifest;
}

}  // namespace
