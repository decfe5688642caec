// Deterministic parallel fan-out of parameter grids.
//
// SweepRunner evaluates a task function over a (possibly sharded) global
// index range in CONTIGUOUS CHUNKS, fanned out by parallel_map
// (runtime/thread_pool.hpp): instead of one future per index (whose
// promise/packaged_task machinery dominates fine-grained grids), each
// pool task runs a block of consecutive indices and returns the block's
// results, so the per-index overhead is amortized to nearly zero while
// work stealing still balances uneven grids chunk by chunk.
//
// Determinism contract: each index receives its own Rng seeded by
// task_seed(base_seed, global_index) and must draw randomness ONLY from
// that Rng, so the result vector is bit-identical for any job count, any
// chunk size, any scheduling order, and any shard partition (results
// come back in global index order; a shard computes exactly the block
// shard_range(count, i, N) of the unsharded results).
// tests/runtime_test.cpp enforces jobs/chunk/shard invariance.
//
// Per-worker workspaces: run_with_workspace() threads one reusable
// workspace object through every index of a chunk, so sweep bodies can
// keep scratch matrices/vectors (sim::DwellWaitWorkspace,
// sim::JitterWorkspace, analysis::TransientWorkspace, ...) across grid
// points instead of reallocating them per index.  The body must fully
// overwrite whatever workspace state it reads — the workspace is an
// allocation cache, never a data channel between indices.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
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
  /// Indices per pool task; 0 picks kChunksPerWorker chunks per worker.
  /// Any value yields bit-identical results.
  std::size_t chunk = 0;
};

/// Deterministic parallel map over an index range (see file comment for
/// the determinism contract).
class SweepRunner {
 public:
  /// Auto-chunking aims at this many chunks per worker: small enough to
  /// amortize future overhead, large enough for stealing to balance.
  static constexpr std::size_t kChunksPerWorker = 4;

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
  /// every index of a chunk (and across all indices when jobs <= 1).
  /// Results must not depend on incoming workspace contents.
  template <typename Workspace, typename Fn>
  auto run_with_workspace(std::size_t count, Fn fn)
      -> std::vector<decltype(fn(std::size_t{}, std::declval<Rng&>(),
                                 std::declval<Workspace&>()))> {
    using Result = decltype(fn(std::size_t{}, std::declval<Rng&>(), std::declval<Workspace&>()));
    return run_span_with_workspace<Workspace>(
        count, [&fn](const IndexSpan& span, Workspace& workspace) {
          std::vector<Result> block;
          block.reserve(span.size());
          for (std::size_t i = span.begin; i < span.end; ++i) {
            Rng rng = span.rng_at(i);
            block.push_back(fn(i, rng, workspace));
          }
          return block;
        });
  }

  /// Batch-aware chunk iteration: where run_with_workspace calls fn once
  /// per index, this hands fn a whole CONTIGUOUS IndexSpan (plus the
  /// per-chunk workspace) and expects exactly span.size() results back,
  /// result j belonging to global index span.begin + j.  Span bodies can
  /// gather several consecutive grid points into one SoA batch
  /// (linalg/batch_kernels.hpp) and advance them per instruction stream.
  ///
  /// Determinism obligation ON THE BODY: span boundaries move with jobs,
  /// chunk size, and shard partition, so the result for an index must not
  /// depend on which span evaluated it — batched kernels satisfy this by
  /// construction because every lane is bit-identical to the scalar path.
  /// Randomness must come from span.rng_at(index) only.  jobs <= 1 runs
  /// the whole shard as one span on the calling thread.
  template <typename Workspace, typename Fn>
  auto run_span_with_workspace(std::size_t count, Fn fn)
      -> decltype(fn(std::declval<const IndexSpan&>(), std::declval<Workspace&>())) {
    using Block = decltype(fn(std::declval<const IndexSpan&>(), std::declval<Workspace&>()));
    const ShardRange shard = range(count);
    if (shard.size() == 0) return Block{};

    // One chunk per pool task, one workspace per chunk: allocated scratch
    // survives across the chunk's indices.
    std::size_t chunk = shard.size();
    if (options_.jobs > 1) {
      const std::size_t workers =
          std::min(static_cast<std::size_t>(options_.jobs), shard.size());
      chunk = options_.chunk != 0
                  ? options_.chunk
                  : std::max<std::size_t>(1, shard.size() / (workers * kChunksPerWorker));
    }
    const std::uint64_t base = options_.seed;
    auto blocks = parallel_map(
        options_.jobs, (shard.size() + chunk - 1) / chunk, [&](std::size_t c) {
          const std::size_t lo = shard.begin + c * chunk;
          const IndexSpan span{lo, std::min(lo + chunk, shard.end), base};
          Workspace workspace{};
          Block block = fn(span, workspace);
          CPS_ENSURE(block.size() == span.size(),
                     "run_span_with_workspace: body must return one result per span index");
          return block;
        });
    if (blocks.size() == 1) return std::move(blocks.front());
    Block results;
    results.reserve(shard.size());
    for (auto& block : blocks)
      results.insert(results.end(), std::make_move_iterator(block.begin()),
                     std::make_move_iterator(block.end()));
    return results;
  }

 private:
  SweepOptions options_;
};

}  // namespace cps::runtime
