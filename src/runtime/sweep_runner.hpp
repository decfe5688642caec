// Deterministic parallel fan-out of parameter grids.
//
// SweepRunner evaluates a task function over a (possibly sharded) global
// index range by RANGE WORK-STEALING (Blumofe & Leiserson, "Scheduling
// multithreaded computations by work stealing", J. ACM 1999).  Each of
// the W = min(jobs, points) workers owns one contiguous block of the
// shard.  A worker takes spans of a quarter of what is left of its own
// block from the front; once its block is empty it steals single
// indices from the BACK of the other blocks, so the last points of a
// grid (in sweep_alloc_scaling its hardest, the n = 20 fleets) start as
// soon as any worker goes idle instead of queueing behind one worker's
// fixed share.  The W workers run through parallel_map
// (runtime/thread_pool.hpp); one claim is one CAS on the block's packed
// atomic word, so the per-index overhead stays near zero.
//
// Determinism contract: each index receives its own Rng seeded by
// task_seed(base_seed, global_index) and must draw randomness ONLY from
// that Rng, so the result vector is bit-identical for any job count, any
// scheduling order, and any shard partition (results come back in global
// index order; a shard computes exactly the block shard_range(count, i,
// N) of the unsharded results).  Span boundaries depend on the job count,
// the shard and on timing (who steals what, when), so they may never
// change a result.  tests/runtime_test.cpp enforces jobs/shard
// invariance on a grid whose last indices cost far more than the rest.
//
// Per-worker workspaces: run_with_workspace() threads one reusable
// workspace object through every span a worker runs, its own and the
// ones it steals (and through all indices when jobs <= 1), so sweep
// bodies can keep scratch matrices/vectors (sim::DwellWaitWorkspace,
// sim::JitterWorkspace, analysis::TransientWorkspace, ...) across grid
// points instead of reallocating them per index.  The body must fully
// overwrite whatever workspace state it reads — the workspace is an
// allocation cache, never a data channel between indices.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/shard.hpp"
#include "runtime/thread_pool.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cps::runtime {

/// splitmix64-style mix of (seed, index): statistically independent,
/// scheduling-independent per-task seeds.
std::uint64_t task_seed(std::uint64_t base_seed, std::uint64_t index);

/// Contiguous block of global indices handed to a span body
/// (SweepRunner::run_span_with_workspace), with the per-index Rng factory
/// of the determinism contract: randomness for index i must come from
/// rng_at(i) only, never from span-level state, so the per-index results
/// cannot depend on where the span boundaries fall.
struct IndexSpan {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::uint64_t base_seed = 0;

  std::size_t size() const { return end - begin; }
  /// The Rng index i (in [begin, end)) must draw from.
  Rng rng_at(std::size_t index) const { return Rng(task_seed(base_seed, index)); }
};

/// The work-stealing schedule of one parallel sweep: the shard split
/// into one contiguous block per worker, each block packed into one
/// atomic word (front and back offsets from the shard's first index, 32
/// bits each), so that an owner's claim from the front and a thief's
/// claim from the back are one CAS each on the same word.
class StealingBlocks {
 public:
  /// Split `shard` (size >= workers >= 1, size < 2^32) into `workers`
  /// blocks, sizes differing by at most one.
  StealingBlocks(ShardRange shard, std::size_t workers);

  /// The next span of `worker`: a quarter of what is left of its own
  /// block (at least one index) from the front or, once that is empty,
  /// one index from the back of the first non-empty block after it.
  /// False when every block is empty or after stop().
  bool claim(std::size_t worker, IndexSpan& span);

  /// Make every later claim fail (a span body threw).
  void stop() { stopped_.store(true, std::memory_order_relaxed); }

 private:
  /// One block's word on its own cache line: owners and thieves of
  /// different blocks never contend for a line.
  struct alignas(64) Block {
    std::atomic<std::uint64_t> word{0};
  };

  std::size_t begin_;
  std::vector<Block> blocks_;
  std::atomic<bool> stopped_{false};
};

/// Fan-out knobs of one sweep.
struct SweepOptions {
  /// Worker threads; <= 1 runs inline on the calling thread.
  int jobs = 1;
  /// Base seed every per-task Rng derives from.
  std::uint64_t seed = 0x5EED5EEDULL;
  /// Shard of the global index range this runner evaluates (contiguous
  /// block partition; see runtime/shard.hpp).  Defaults to the whole
  /// range.
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
};

/// Deterministic parallel map over an index range (see file comment for
/// the determinism contract).
class SweepRunner {
 public:
  /// Capture the fan-out options; no threads spawn until run().
  explicit SweepRunner(SweepOptions options = {}) : options_(options) {
    CPS_ENSURE(options_.shard_count >= 1 && options_.shard_index < options_.shard_count,
               "SweepRunner: invalid shard spec");
  }

  /// Worker-thread count the next run() will use.
  int jobs() const { return options_.jobs; }
  /// Base seed the per-task Rngs derive from.
  std::uint64_t seed() const { return options_.seed; }

  /// The global index block this runner evaluates for a `count`-point
  /// sweep (the whole range unless sharded).
  ShardRange range(std::size_t count) const {
    return shard_range(count, options_.shard_index, options_.shard_count);
  }

  /// Evaluate fn(global_index, rng) for every index in range(count) and
  /// return the results in global index order (element i of the result
  /// is global index range(count).begin + i).  fn must not touch shared
  /// mutable state.
  template <typename Fn>
  auto run(std::size_t count, Fn fn)
      -> std::vector<decltype(fn(std::size_t{}, std::declval<Rng&>()))> {
    struct NoWorkspace {};
    return run_with_workspace<NoWorkspace>(
        count, [&fn](std::size_t index, Rng& rng, NoWorkspace&) { return fn(index, rng); });
  }

  /// run() with a per-worker scratch workspace: fn(global_index, rng,
  /// workspace) where one default-constructed Workspace is reused across
  /// every index a worker evaluates (all indices when jobs <= 1).
  /// Results must not depend on incoming workspace contents.  Each result
  /// is written into its own element of one pre-sized vector, so the
  /// result type must be default-constructible and may not be bool.
  template <typename Workspace, typename Fn>
  auto run_with_workspace(std::size_t count, Fn fn)
      -> std::vector<decltype(fn(std::size_t{}, std::declval<Rng&>(),
                                 std::declval<Workspace&>()))> {
    using Result = decltype(fn(std::size_t{}, std::declval<Rng&>(), std::declval<Workspace&>()));
    static_assert(!std::is_same_v<Result, bool>,
                  "SweepRunner: workers write results concurrently and std::vector<bool> "
                  "packs neighbouring results into one word; return char or int");
    const ShardRange shard = range(count);
    std::vector<Result> results(shard.size());
    for_each_span<Workspace>(shard, [&](const IndexSpan& span, Workspace& workspace) {
      for (std::size_t i = span.begin; i < span.end; ++i) {
        Rng rng = span.rng_at(i);
        results[i - shard.begin] = fn(i, rng, workspace);
      }
    });
    return results;
  }

  /// Batch-aware span iteration: where run_with_workspace calls fn once
  /// per index, this hands fn a whole CONTIGUOUS IndexSpan (plus the
  /// worker's workspace) and expects exactly span.size() results back,
  /// result j belonging to global index span.begin + j.  Span bodies can
  /// gather several consecutive grid points into one SoA batch
  /// (linalg/batch_kernels.hpp) and advance them per instruction stream.
  ///
  /// Determinism obligation ON THE BODY: span boundaries move with jobs,
  /// shard partition and timing, so the result for an index must not
  /// depend on which span evaluated it — batched kernels satisfy this by
  /// construction because every lane is bit-identical to the scalar path.
  /// Randomness must come from span.rng_at(index) only.  jobs <= 1 runs
  /// the whole shard as one span on the calling thread.
  template <typename Workspace, typename Fn>
  auto run_span_with_workspace(std::size_t count, Fn fn)
      -> decltype(fn(std::declval<const IndexSpan&>(), std::declval<Workspace&>())) {
    using Block = decltype(fn(std::declval<const IndexSpan&>(), std::declval<Workspace&>()));
    static_assert(!std::is_same_v<typename Block::value_type, bool>,
                  "SweepRunner: workers write results concurrently and std::vector<bool> "
                  "packs neighbouring results into one word; return char or int");
    const ShardRange shard = range(count);
    Block results(shard.size());
    for_each_span<Workspace>(shard, [&](const IndexSpan& span, Workspace& workspace) {
      Block block = fn(span, workspace);
      CPS_ENSURE(block.size() == span.size(),
                 "run_span_with_workspace: body must return one result per span index");
      std::move(block.begin(), block.end(),
                std::next(results.begin(),
                          static_cast<std::ptrdiff_t>(span.begin - shard.begin)));
    });
    return results;
  }

 private:
  /// Run span_fn(span, workspace) over spans that tile `shard` exactly
  /// once: the whole shard on the calling thread when jobs <= 1,
  /// otherwise the stealing schedule on min(jobs, shard size) workers,
  /// each with one workspace for all its spans.  When a span throws, no
  /// further span starts and the exception propagates once the running
  /// ones have finished.
  template <typename Workspace, typename SpanFn>
  void for_each_span(const ShardRange& shard, const SpanFn& span_fn) const {
    if (shard.size() == 0) return;
    if (options_.jobs <= 1 || shard.size() == 1) {
      Workspace workspace{};
      span_fn(IndexSpan{shard.begin, shard.end, options_.seed}, workspace);
      return;
    }
    const std::size_t workers =
        std::min(static_cast<std::size_t>(options_.jobs), shard.size());
    StealingBlocks blocks(shard, workers);
    parallel_map(options_.jobs, workers, [&](std::size_t worker) {
      Workspace workspace{};
      IndexSpan span{0, 0, options_.seed};
      try {
        while (blocks.claim(worker, span)) span_fn(span, workspace);
      } catch (...) {
        blocks.stop();
        throw;
      }
      return 0;
    });
  }

  SweepOptions options_;
};

}  // namespace cps::runtime
