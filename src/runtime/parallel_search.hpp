// Shared monotone bound for parallel branch-and-bound searches.
//
// SweepRunner handles embarrassingly parallel grids whose tasks must not
// share state.  Exact searches are different: subtree tasks WANT to share
// one monotone incumbent (the best solution found so far) so that a bound
// proven by one worker prunes every other worker's subtree.  Such a
// search decomposes itself into subtree tasks (canonical order), each a
// closure over shared read-only problem facts plus a SharedIncumbent, and
// runs them with parallel_map (runtime/thread_pool.hpp), which returns
// their values in task-index order, so any reduction the caller performs
// is deterministic.  The incumbent is an atomic monotone minimum: racing
// improvements only ever tighten the bound, so the final minimum (and
// therefore the proven optimum of a sound branch-and-bound) is
// independent of the worker count and of scheduling order.  Only integers
// cross threads; no floating-point accumulation depends on the schedule.
//
// Determinism contract of a search built this way: what it returns must
// not depend on the schedule.  A proven optimum is schedule-independent;
// an answer beyond it (e.g. the witness partition an allocator returns)
// must come from a canonical position in the task list, never from
// whichever worker happened to finish first.  The exact slot allocator
// (analysis/slot_allocation.cpp, see docs/ARCHITECTURE.md, "parallel
// exact search") keeps the witness of the LOWEST-INDEX task that found
// one, with a SharedIncumbent over task indices so that higher-index
// tasks stop early.
#pragma once

#include <atomic>
#include <cstdint>

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

}  // namespace cps::runtime
