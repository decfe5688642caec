// Unit tests for the runtime layer: work-stealing ThreadPool semantics
// (results, ordering, exception propagation, destructor draining), the
// deterministic per-task seeding of SweepRunner (any job count, chunk
// size, and shard partition must be bit-identical to the serial run),
// the shard partition/merge machinery, and the experiment registry
// catalog.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/experiment.hpp"
#include "runtime/parallel_search.hpp"
#include "runtime/shard.hpp"
#include "runtime/sweep_runner.hpp"
#include "runtime/thread_pool.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using namespace cps;
using namespace cps::runtime;

TEST(ThreadPoolTest, ReturnsResultsThroughFutures) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 50; ++i) futures.push_back(pool.submit([i]() { return i * i; }));
  for (int i = 0; i < 50; ++i) EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPoolTest, DefaultsToAtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
  EXPECT_EQ(pool.submit([]() { return 41 + 1; }).get(), 42);
}

TEST(ThreadPoolTest, PropagatesExceptionsThroughFutures) {
  ThreadPool pool(2);
  auto ok = pool.submit([]() { return std::string("fine"); });
  auto bad = pool.submit([]() -> int { throw std::runtime_error("task failed"); });
  EXPECT_EQ(ok.get(), "fine");
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The pool must stay usable after a task threw.
  EXPECT_EQ(pool.submit([]() { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, ExecutesEveryTaskExactlyOnce) {
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  {
    ThreadPool pool(4);
    for (int i = 0; i < 500; ++i)
      futures.push_back(pool.submit([&counter]() { counter.fetch_add(1); }));
    for (auto& future : futures) future.get();
  }
  EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPoolTest, DestructorDrainsSubmittedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&counter]() { counter.fetch_add(1); });
    }
    // No explicit wait: the destructor must run all 100 tasks.
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, CancelPendingDropsQueuedTasksOnly) {
  ThreadPool pool(1);
  std::atomic<bool> started{false};
  std::promise<void> release;
  auto release_future = release.get_future();
  auto gate = pool.submit([&]() {
    started = true;
    release_future.wait();
  });
  while (!started) std::this_thread::yield();  // the lone worker is now in-flight
  std::atomic<int> ran{0};
  std::vector<std::future<void>> queued;
  for (int i = 0; i < 10; ++i)
    queued.push_back(pool.submit([&ran]() { ran.fetch_add(1); }));
  pool.cancel_pending();
  release.set_value();
  gate.get();  // the in-flight task completes normally
  for (auto& future : queued) EXPECT_THROW(future.get(), std::future_error);
  EXPECT_EQ(ran.load(), 0);
}

TEST(TaskSeedTest, IsStableAndIndexSensitive) {
  // Pinned values: per-task streams must never silently change, or every
  // recorded sweep becomes irreproducible.
  EXPECT_EQ(task_seed(1, 0), task_seed(1, 0));
  EXPECT_NE(task_seed(1, 0), task_seed(1, 1));
  EXPECT_NE(task_seed(1, 0), task_seed(2, 0));
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) seeds.insert(task_seed(0x5EED5EEDULL, i));
  EXPECT_EQ(seeds.size(), 1000u);
}

TEST(SweepRunnerTest, ResultsComeBackInIndexOrder) {
  SweepRunner sweep({4, 123});
  const auto results =
      sweep.run(100, [](std::size_t i, Rng&) { return static_cast<int>(i) * 3; });
  ASSERT_EQ(results.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(results[static_cast<std::size_t>(i)], i * 3);
}

TEST(SweepRunnerTest, TwoJobSweepBitIdenticalToSerial) {
  const auto task = [](std::size_t i, Rng& rng) {
    // Mix several draw kinds so any per-task stream divergence shows up.
    double acc = rng.uniform(-1.0, 1.0) + rng.gaussian(0.0, 2.0);
    for (int k = 0; k < static_cast<int>(i % 7); ++k) acc += rng.uniform(0.0, 1.0);
    return acc;
  };
  SweepRunner serial({1, 0xC0FFEE});
  SweepRunner parallel({2, 0xC0FFEE});
  const auto expected = serial.run(64, task);
  const auto actual = parallel.run(64, task);
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    // Exact equality on purpose: the determinism contract is bit-identity.
    EXPECT_EQ(expected[i], actual[i]) << "index " << i;
  }
}

TEST(SweepRunnerTest, ChunkSizeNeverChangesResults) {
  const auto task = [](std::size_t i, Rng& rng) {
    return rng.uniform(0.0, 1.0) + static_cast<double>(i);
  };
  SweepRunner serial({1, 0xABCDEF});
  const auto expected = serial.run(97, task);  // prime count: ragged chunks
  for (std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{32},
                            std::size_t{97}, std::size_t{1000}}) {
    SweepOptions options{3, 0xABCDEF};
    options.chunk = chunk;
    const auto actual = SweepRunner(options).run(97, task);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
      EXPECT_EQ(expected[i], actual[i]) << "chunk " << chunk << " index " << i;
  }
}

TEST(SweepRunnerTest, WorkspaceIsReusedWithinAWorkerAndResultsStayOrdered) {
  struct CountingWorkspace {
    int uses = 0;
  };
  const auto count_use = [](std::size_t, Rng&, CountingWorkspace& workspace) {
    return ++workspace.uses;  // how many indices THIS workspace has served
  };
  // Serial: one workspace serves every index, so the counter must climb
  // 1..50 — a regression to a fresh workspace per index would return
  // all-ones here.
  SweepRunner serial({1, 7});
  const auto serial_uses = serial.run_with_workspace<CountingWorkspace>(50, count_use);
  ASSERT_EQ(serial_uses.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(serial_uses[static_cast<std::size_t>(i)], i + 1);
  // Parallel with a pinned chunk size: one workspace per CHUNK, so the
  // counter restarts at each chunk boundary and climbs within it.
  SweepOptions options{2, 7};
  options.chunk = 10;
  const auto chunked_uses =
      SweepRunner(options).run_with_workspace<CountingWorkspace>(50, count_use);
  ASSERT_EQ(chunked_uses.size(), 50u);
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(chunked_uses[static_cast<std::size_t>(i)], i % 10 + 1) << "index " << i;
}

TEST(ShardRangeTest, BlocksTileTheRangeExactly) {
  for (std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                            std::size_t{100}, std::size_t{101}}) {
    for (std::size_t shards = 1; shards <= 5; ++shards) {
      std::size_t covered = 0;
      std::size_t previous_end = 0;
      for (std::size_t i = 0; i < shards; ++i) {
        const auto range = shard_range(count, i, shards);
        EXPECT_EQ(range.begin, previous_end) << count << "/" << shards << " shard " << i;
        EXPECT_LE(range.begin, range.end);
        covered += range.size();
        previous_end = range.end;
      }
      EXPECT_EQ(previous_end, count);
      EXPECT_EQ(covered, count);
    }
  }
  EXPECT_THROW(shard_range(10, 2, 2), cps::Error);
  EXPECT_THROW(shard_range(10, 0, 0), cps::Error);
}

TEST(SweepRunnerTest, ShardsReproduceTheUnshardedResultsBitForBit) {
  const auto task = [](std::size_t i, Rng& rng) {
    double acc = rng.gaussian(0.0, 1.0);
    for (int k = 0; k < static_cast<int>(i % 5); ++k) acc += rng.uniform(-1.0, 1.0);
    return acc;
  };
  const std::size_t count = 83;  // prime: uneven shard blocks
  SweepRunner unsharded({2, 0xFEED});
  const auto expected = unsharded.run(count, task);
  for (std::size_t shards : {std::size_t{2}, std::size_t{3}, std::size_t{5}}) {
    std::vector<double> stitched;
    for (std::size_t i = 0; i < shards; ++i) {
      SweepOptions options{2, 0xFEED};
      options.shard_index = i;
      options.shard_count = shards;
      SweepRunner runner(options);
      EXPECT_EQ(runner.range(count).begin, stitched.size());
      const auto block = runner.run(count, task);
      stitched.insert(stitched.end(), block.begin(), block.end());
    }
    ASSERT_EQ(stitched.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
      EXPECT_EQ(expected[i], stitched[i]) << shards << " shards, index " << i;
  }
}

TEST(SweepRunnerTest, PropagatesTaskExceptions) {
  SweepRunner sweep({2, 9});
  EXPECT_THROW(sweep.run(8,
                         [](std::size_t i, Rng&) -> int {
                           if (i == 5) throw std::runtime_error("boom");
                           return 0;
                         }),
               std::runtime_error);
}

TEST(SharedIncumbentTest, ImproveIsAMonotoneMinimum) {
  SharedIncumbent incumbent(10);
  EXPECT_EQ(incumbent.load(), 10u);
  EXPECT_TRUE(incumbent.improve(7));
  EXPECT_FALSE(incumbent.improve(7));   // equal: no improvement
  EXPECT_FALSE(incumbent.improve(12));  // worse: never goes back up
  EXPECT_EQ(incumbent.load(), 7u);
  EXPECT_TRUE(incumbent.improve(2));
  EXPECT_EQ(incumbent.load(), 2u);
}

TEST(ParallelSearchTest, MapReturnsResultsInTaskIndexOrder) {
  ParallelSearch search({4});
  const auto results = search.map(23, [](std::size_t i) { return i * i; });
  ASSERT_EQ(results.size(), 23u);
  for (std::size_t i = 0; i < results.size(); ++i) EXPECT_EQ(results[i], i * i);
}

TEST(ParallelSearchTest, SharedIncumbentReachesTheGlobalMinimumAtAnyJobCount) {
  // Tasks race to lower the incumbent; the final minimum must be the
  // true minimum regardless of the worker count or schedule.
  for (const int jobs : {1, 2, 8}) {
    SharedIncumbent incumbent(1000);
    ParallelSearch search({jobs});
    search.map(64, [&](std::size_t i) {
      incumbent.improve(900 - (i * 13) % 700);
      return 0;
    });
    std::uint64_t expected = 1000;
    for (std::size_t i = 0; i < 64; ++i)
      expected = std::min(expected, 900 - (i * 13) % 700);
    EXPECT_EQ(incumbent.load(), expected) << jobs << " jobs";
  }
}

TEST(ParallelSearchTest, MapPropagatesTaskExceptions) {
  ParallelSearch search({2});
  EXPECT_THROW(search.map(16,
                          [](std::size_t i) -> int {
                            if (i == 11) throw std::runtime_error("subtree boom");
                            return 0;
                          }),
               std::runtime_error);
}

TEST(ExperimentRegistryTest, RegistersFindsAndRejectsDuplicates) {
  ExperimentRegistry registry;
  registry.add(Experiment("demo", "a demo experiment", [](ExperimentContext&) {}));
  ASSERT_NE(registry.find("demo"), nullptr);
  EXPECT_EQ(registry.find("demo")->description(), "a demo experiment");
  EXPECT_EQ(registry.find("absent"), nullptr);
  EXPECT_THROW(registry.add(Experiment("demo", "again", [](ExperimentContext&) {})),
               cps::Error);
}

TEST(ExperimentRegistryTest, ListIsSortedByName) {
  ExperimentRegistry registry;
  for (const char* name : {"zeta", "alpha", "mid"})
    registry.add(Experiment(name, "d", [](ExperimentContext&) {}));
  const auto listed = registry.list();
  ASSERT_EQ(listed.size(), 3u);
  EXPECT_EQ(listed[0]->name(), "alpha");
  EXPECT_EQ(listed[1]->name(), "mid");
  EXPECT_EQ(listed[2]->name(), "zeta");
}

TEST(ExperimentRegistryTest, ExperimentRunReceivesContext) {
  ExperimentRegistry registry;
  int seen_jobs = 0;
  registry.add(Experiment("probe", "records ctx",
                          [&seen_jobs](ExperimentContext& ctx) { seen_jobs = ctx.jobs; }));
  ExperimentContext context;
  context.jobs = 5;
  registry.find("probe")->run(context);
  EXPECT_EQ(seen_jobs, 5);
}

TEST(ExperimentContextTest, CsvPathJoinsDirectory) {
  ExperimentContext context;
  EXPECT_EQ(context.csv_path("a.csv"), "a.csv");
  context.csv_dir = "out";
  EXPECT_EQ(context.csv_path("a.csv"), "out/a.csv");
  context.csv_dir = "out/";
  EXPECT_EQ(context.csv_path("a.csv"), "out/a.csv");
}

TEST(ExperimentContextTest, ArtifactPathCarriesTheShardSuffix) {
  ExperimentContext context;
  context.csv_dir = "out";
  EXPECT_FALSE(context.sharded());
  EXPECT_EQ(context.artifact_path("a.csv"), "out/a.csv");  // canonical when unsharded
  context.shard_index = 1;
  context.shard_count = 4;
  EXPECT_TRUE(context.sharded());
  EXPECT_EQ(context.artifact_path("a.csv"), "out/a.csv.shard1of4");
}

TEST(ExperimentTest, SweepArtifactsMakeAnExperimentShardable) {
  const Experiment plain("plain", "d", [](ExperimentContext&) {});
  EXPECT_FALSE(plain.shardable());
  const Experiment sweep("sweep", "d", [](ExperimentContext&) {}, {"sweep.csv"});
  EXPECT_TRUE(sweep.shardable());
  ASSERT_EQ(sweep.sweep_artifacts().size(), 1u);
  EXPECT_EQ(sweep.sweep_artifacts()[0], "sweep.csv");
}

// ---------------------------------------------------------------------------
// Shard-CSV merge invariants

struct MergeFixture : public ::testing::Test {
  void SetUp() override {
    dir = (std::filesystem::temp_directory_path() /
           ("cps-merge-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter++)))
              .string();
    std::filesystem::create_directories(dir);
    canonical = dir + "/sweep.csv";
  }
  void TearDown() override {
    std::error_code error;
    std::filesystem::remove_all(dir, error);
  }
  void write_shard(std::size_t index, std::size_t count, const std::string& header,
                   const std::vector<std::size_t>& rows, std::uint64_t seed = 0x5EED) {
    {
      std::ofstream out(canonical + shard_suffix(index, count));
      out << header << '\n';
      for (auto row : rows) out << row << ",value" << row << '\n';
    }  // closed before the sidecar stamp reads the file back
    write_shard_meta(canonical + shard_suffix(index, count), seed, index, count);
  }
  std::string read_file(const std::string& path) {
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    return content;
  }
  static std::atomic<int> counter;
  std::string dir;
  std::string canonical;
};
std::atomic<int> MergeFixture::counter{0};

TEST_F(MergeFixture, ConcatenatesContiguousShardsInOrder) {
  write_shard(0, 2, "index,v", {0, 1, 2});
  write_shard(1, 2, "index,v", {3, 4});
  EXPECT_EQ(merge_sweep_csv(canonical, 2), 5u);
  EXPECT_EQ(read_file(canonical),
            "index,v\n0,value0\n1,value1\n2,value2\n3,value3\n4,value4\n");
}

TEST_F(MergeFixture, MissingShardFileFailsLoudly) {
  write_shard(0, 2, "index,v", {0, 1});
  EXPECT_THROW(merge_sweep_csv(canonical, 2), cps::Error);  // shard 1 absent
}

TEST_F(MergeFixture, GapBetweenShardsFailsLoudly) {
  write_shard(0, 2, "index,v", {0, 1});
  write_shard(1, 2, "index,v", {3, 4});  // index 2 missing
  EXPECT_THROW(merge_sweep_csv(canonical, 2), cps::Error);
}

TEST_F(MergeFixture, OverlappingShardsFailLoudly) {
  write_shard(0, 2, "index,v", {0, 1, 2});
  write_shard(1, 2, "index,v", {2, 3});  // index 2 twice
  EXPECT_THROW(merge_sweep_csv(canonical, 2), cps::Error);
}

TEST_F(MergeFixture, HeaderMismatchFailsLoudly) {
  write_shard(0, 2, "index,v", {0, 1});
  write_shard(1, 2, "index,other", {2, 3});
  EXPECT_THROW(merge_sweep_csv(canonical, 2), cps::Error);
}

TEST_F(MergeFixture, NonNumericIndexColumnFailsLoudly) {
  write_shard(0, 2, "index,v", {0});
  {
    std::ofstream out(canonical + shard_suffix(1, 2));
    out << "index,v\nnot-a-number,value\n";
  }
  write_shard_meta(canonical + shard_suffix(1, 2), 0x5EED, 1, 2);
  EXPECT_THROW(merge_sweep_csv(canonical, 2), cps::Error);
}

TEST_F(MergeFixture, MixedCampaignSeedsFailLoudly) {
  // Structurally perfect partials (contiguous indices, matching headers)
  // from two DIFFERENT campaigns: only the provenance sidecar can tell,
  // and it must refuse.
  write_shard(0, 2, "index,v", {0, 1}, /*seed=*/0xAAAA);
  write_shard(1, 2, "index,v", {2, 3}, /*seed=*/0xBBBB);
  EXPECT_THROW(merge_sweep_csv(canonical, 2), cps::Error);
}

TEST_F(MergeFixture, MissingSidecarFailsLoudly) {
  write_shard(0, 2, "index,v", {0, 1});
  {
    std::ofstream out(canonical + shard_suffix(1, 2));
    out << "index,v\n2,value2\n";  // CSV present, .meta absent
  }
  EXPECT_THROW(merge_sweep_csv(canonical, 2), cps::Error);
}

TEST_F(MergeFixture, SidecarClaimingWrongSlotFailsLoudly) {
  write_shard(0, 2, "index,v", {0, 1});
  write_shard(1, 2, "index,v", {2, 3});
  // Simulate a renamed partial: shard 1's sidecar claims slot 0.
  write_shard_meta(canonical + shard_suffix(1, 2), 0x5EED, 0, 2);
  EXPECT_THROW(merge_sweep_csv(canonical, 2), cps::Error);
}

TEST_F(MergeFixture, OneErrorReportsEveryBrokenShard) {
  // Three distinct problems in one campaign: shard 0 is missing, shard
  // 2's sidecar is gone.  The single error must name BOTH so one failed
  // merge diagnoses the whole campaign instead of forcing serial
  // rediscovery.
  write_shard(1, 3, "index,v", {2, 3});
  {
    std::ofstream out(canonical + shard_suffix(2, 3));
    out << "index,v\n4,value4\n";  // CSV present, .meta absent
  }
  try {
    merge_sweep_csv(canonical, 3);
    FAIL() << "merge of a broken campaign must throw";
  } catch (const cps::Error& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("shard 0/3"), std::string::npos) << message;
    EXPECT_NE(message.find("shard 2/3"), std::string::npos) << message;
    EXPECT_NE(message.find("missing sidecar"), std::string::npos) << message;
  }
}

TEST_F(MergeFixture, TruncatedSidecarIsRefusedAsInterruptedPublication) {
  // A sidecar that lost its tail (e.g. a pre-atomic-publication crash)
  // must be refused even though the CSV itself is fine.
  write_shard(0, 2, "index,v", {0, 1});
  write_shard(1, 2, "index,v", {2, 3});
  {
    std::ofstream out(canonical + shard_suffix(1, 2) + ".meta", std::ios::trunc);
    out << "seed=0x0000000000005eed\n";  // shard= and rows= lines lost
  }
  try {
    merge_sweep_csv(canonical, 2);
    FAIL() << "a truncated sidecar must be refused";
  } catch (const cps::Error& error) {
    EXPECT_NE(std::string(error.what()).find("truncated sidecar"), std::string::npos)
        << error.what();
  }
}

TEST_F(MergeFixture, PartialMergePublishesWhatLandedAndReportsTheRest) {
  write_shard(0, 3, "index,v", {0, 1});
  write_shard(2, 3, "index,v", {4, 5});  // shard 1 (indices 2..3) never landed
  const auto report = cps::runtime::merge_sweep_csv_partial(canonical, 3);
  EXPECT_FALSE(report.complete());
  EXPECT_EQ(report.rows_merged, 4u);
  ASSERT_EQ(report.merged_shards.size(), 2u);
  EXPECT_EQ(report.merged_shards[0], 0u);
  EXPECT_EQ(report.merged_shards[1], 2u);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].shard, 1u);
  // The published partial holds exactly the landed rows, in index order.
  EXPECT_EQ(read_file(canonical), "index,v\n0,value0\n1,value1\n4,value4\n5,value5\n");
  // And the coverage arithmetic pinpoints the hole.
  const auto missing = report.missing_ranges();
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0].begin, 2u);
  EXPECT_EQ(missing[0].end, 4u);
  EXPECT_FALSE(missing[0].open_ended);
}

TEST_F(MergeFixture, PartialMergeMissingFinalShardIsOpenEnded) {
  write_shard(0, 2, "index,v", {0, 1, 2});
  const auto report = cps::runtime::merge_sweep_csv_partial(canonical, 2);
  const auto missing = report.missing_ranges();
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0].begin, 3u);
  EXPECT_TRUE(missing[0].open_ended);  // total sweep size is unknowable
}

TEST_F(MergeFixture, PartialMergeWithNothingLandedPublishesNothing) {
  const auto report = cps::runtime::merge_sweep_csv_partial(canonical, 2);
  EXPECT_EQ(report.rows_merged, 0u);
  EXPECT_TRUE(report.merged_shards.empty());
  EXPECT_EQ(report.failures.size(), 2u);
  EXPECT_FALSE(std::filesystem::exists(canonical));
}

TEST_F(MergeFixture, ShardArtifactLandedVerifiesSeedAndIntegrity) {
  using cps::runtime::shard_artifact_landed;
  write_shard(0, 2, "index,v", {0, 1}, /*seed=*/0xCAFE);
  EXPECT_TRUE(shard_artifact_landed(canonical, 0, 2, 0xCAFE));
  EXPECT_FALSE(shard_artifact_landed(canonical, 0, 2, 0xBEEF));  // stale campaign
  EXPECT_FALSE(shard_artifact_landed(canonical, 1, 2, 0xCAFE));  // never written
  // Truncate the CSV below the sidecar's row count: no longer landed.
  {
    std::ofstream out(canonical + shard_suffix(0, 2), std::ios::trunc);
    out << "index,v\n0,value0\n";
  }
  EXPECT_FALSE(shard_artifact_landed(canonical, 0, 2, 0xCAFE));
}

TEST_F(MergeFixture, TruncatedFinalShardFailsLoudly) {
  // Losing the TAIL of the LAST shard keeps the index column contiguous
  // (any prefix is), so only the sidecar's recorded row count can catch
  // it — e.g. an interrupted copy from a shard machine.
  write_shard(0, 2, "index,v", {0, 1});
  write_shard(1, 2, "index,v", {2, 3, 4});  // sidecar records 3 rows
  {
    std::ofstream out(canonical + shard_suffix(1, 2), std::ios::trunc);
    out << "index,v\n2,value2\n";  // tail rows 3, 4 lost in transit
  }
  EXPECT_THROW(merge_sweep_csv(canonical, 2), cps::Error);
}

// The global registry, populated by the CPS_EXPERIMENT registrars linked
// into this binary (src/experiments/).
TEST(ExperimentCatalogTest, AllPaperExperimentsRegistered) {
  auto& registry = ExperimentRegistry::instance();
  EXPECT_GE(registry.size(), 10u);
  for (const char* name :
       {"fig3", "fig4", "fig5", "table1", "table_alloc", "ablation_allocator",
        "ablation_bounds", "ablation_envelope", "ablation_jitter", "sweep_alloc"}) {
    EXPECT_NE(registry.find(name), nullptr) << "missing experiment: " << name;
  }
}

}  // namespace
