// Deterministic parallel fan-out for branch-and-bound style searches.
//
// SweepRunner handles embarrassingly parallel grids whose tasks must not
// share state.  Exact searches are different: subtree tasks WANT to share
// one monotone incumbent (the best solution found so far) so that a bound
// proven by one worker prunes every other worker's subtree.  ParallelSearch
// is the primitive for that shape, built on the same work-stealing
// ThreadPool:
//
//  * the caller decomposes the search into subtree tasks (canonical
//    order), each a closure over shared read-only problem facts plus a
//    SharedIncumbent;
//  * map() runs the tasks across the pool and returns their values in
//    task-index order, so any reduction the caller performs is
//    deterministic;
//  * the incumbent is an atomic monotone minimum — racing improvements
//    only ever tighten the bound, so the final minimum (and therefore the
//    proven optimum of a sound branch-and-bound) is independent of the
//    worker count and of scheduling order.  Only integers cross threads;
//    no floating-point accumulation depends on the schedule.
//
// Determinism contract of a search built on this primitive: what it
// returns must not depend on the schedule.  A proven optimum is
// schedule-independent; an answer beyond it (e.g. the witness partition
// an allocator returns) must come from a canonical position in the task
// list, never from whichever worker happened to finish first.  The exact
// slot allocator (analysis/slot_allocation.cpp, see docs/ARCHITECTURE.md,
// "parallel exact search") keeps the witness of the LOWEST-INDEX task
// that found one, with a SharedIncumbent over task indices so that
// higher-index tasks stop early.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <vector>

#include "runtime/thread_pool.hpp"

namespace cps::runtime {

/// Monotone shared bound of a minimizing branch-and-bound: workers read it
/// to prune and CAS it down when they find a better complete solution.
/// All operations are relaxed — the incumbent is a bound, not a
/// synchronization point, and a stale read only delays (never breaks)
/// pruning.
class SharedIncumbent {
 public:
  /// Start at `initial` (typically a heuristic upper bound).
  explicit SharedIncumbent(std::uint64_t initial) : value_(initial) {}

  /// Current bound (may be stale under concurrency; always an upper bound
  /// on the final value).
  std::uint64_t load() const { return value_.load(std::memory_order_relaxed); }

  /// Lower the incumbent to `candidate` if it improves it.  Returns true
  /// when this call performed the improvement.
  bool improve(std::uint64_t candidate) {
    std::uint64_t current = value_.load(std::memory_order_relaxed);
    while (candidate < current) {
      if (value_.compare_exchange_weak(current, candidate, std::memory_order_relaxed))
        return true;
    }
    return false;
  }

 private:
  std::atomic<std::uint64_t> value_;
};

/// Fan-out knobs of one search.
struct ParallelSearchOptions {
  /// Worker threads; <= 1 runs every task inline on the calling thread in
  /// task-index order.
  int jobs = 1;
};

/// Deterministic parallel map over a task index range (see the file
/// comment for the sharing and determinism contract).
class ParallelSearch {
 public:
  /// Capture the fan-out options; no threads spawn until map().
  explicit ParallelSearch(ParallelSearchOptions options = {}) : options_(options) {}

  /// Worker-thread count the next map() will use.
  int jobs() const { return options_.jobs; }

  /// Evaluate fn(index) for every index in [0, count) and return the
  /// results in index order.  fn may share monotone state (a
  /// SharedIncumbent, relaxed atomics) across tasks; any other shared
  /// state must be read-only.  An exception thrown by a task propagates
  /// after the pending tasks are cancelled.
  template <typename Fn>
  auto map(std::size_t count, Fn fn) -> std::vector<decltype(fn(std::size_t{}))> {
    using Result = decltype(fn(std::size_t{}));
    std::vector<Result> results;
    results.reserve(count);
    if (count == 0) return results;

    if (options_.jobs <= 1) {
      for (std::size_t i = 0; i < count; ++i) results.push_back(fn(i));
      return results;
    }

    const std::size_t workers =
        std::min(static_cast<std::size_t>(options_.jobs), count);
    ThreadPool pool(workers);
    std::vector<std::future<Result>> futures;
    futures.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
      futures.push_back(pool.submit([&fn, i]() { return fn(i); }));
    try {
      for (auto& future : futures) results.push_back(future.get());
    } catch (...) {
      pool.cancel_pending();
      throw;
    }
    return results;
  }

 private:
  ParallelSearchOptions options_;
};

}  // namespace cps::runtime
