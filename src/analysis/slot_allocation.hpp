// TT-slot allocation (paper Section IV, last paragraph).
//
// Finding the minimum number of slots is NP-hard, so the paper uses a
// first-fit heuristic over priority-ordered applications: place each
// application in the first existing slot on which EVERY application of
// that slot (including the newcomer — adding C_i changes the blocking of
// higher-priority apps and the interference of lower-priority ones)
// remains schedulable; open a new slot when none fits.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "analysis/schedulability.hpp"

namespace cps::analysis {

/// Result of allocating a set of applications to shared TT slots.
struct Allocation {
  /// Application names per slot, in priority order within the slot.
  std::vector<std::vector<std::string>> slots;
  /// Final per-slot analysis (same indexing as `slots`).
  std::vector<SlotAnalysis> analyses;

  /// Number of TT slots the allocation uses.
  std::size_t slot_count() const { return slots.size(); }
};

/// How hard one optimal_allocate search was.
struct ExactSearchStats {
  std::size_t first_fit_slots = 0;   ///< the first-fit seed, the search's upper bound
  std::size_t root_lower_bound = 0;  ///< utilization/packing/clique bound at the root
  std::size_t levels = 0;            ///< deepening levels searched (0: the seed met the bound)
  /// Search nodes expanded over all levels and subtree tasks.  Exact at
  /// exact_jobs <= 1; with more workers it depends on when higher-index
  /// subtree tasks observe a lower-index witness and stop.
  std::uint64_t nodes = 0;
};

/// Knobs shared by the three allocators.
struct AllocationOptions {
  /// How the per-application maximum wait time is computed.
  MaxWaitMethod method = MaxWaitMethod::kClosedFormBound;
  /// Upper bound on slots (the paper's m); throws InfeasibleError when
  /// exceeded.  0 = unlimited.
  std::size_t max_slots = 0;
  /// Worker threads for optimal_allocate's exact search (ignored by the
  /// heuristics).  <= 1 searches sequentially; > 1 fans each deepening
  /// level's canonical frontier subtrees across runtime::parallel_map
  /// and keeps the witness of the lowest-index subtree that holds one.
  /// The returned Allocation is IDENTICAL for every value: that witness is
  /// the canonical-first partition the sequential search returns.
  int exact_jobs = 1;
  /// Cooperative cancellation for optimal_allocate's exact search: when
  /// non-null, the search polls the flag every few dozen expanded nodes
  /// and throws cps::CancelledError once it reads true (the cps_serve
  /// daemon sets it when a per-request deadline expires, so a
  /// pathological exact query returns deadline_exceeded instead of
  /// starving the worker pool).  Under exact_jobs > 1 the throw
  /// propagates through runtime::parallel_map, which drops the pending
  /// subtree tasks.  A search that completes without observing
  /// the flag is unaffected — cancellation changes time, never answers.
  /// Ignored by the heuristics (they are allocation-free fast paths).
  const std::atomic<bool>* cancel = nullptr;
  /// When non-null, optimal_allocate writes what its search did here
  /// (ignored by the heuristics).
  ExactSearchStats* stats = nullptr;
};

/// First-fit allocation (the paper's heuristic).  Applications may be
/// passed in any order; they are processed by decreasing priority
/// (increasing deadline).
Allocation first_fit_allocate(std::vector<AppSchedParams> apps,
                              const AllocationOptions& options = {});

/// Best-fit variant: among the feasible slots, place the application on
/// the one whose resulting interference utilization (sum of xi_M / r) is
/// highest — packing slots tighter before opening new ones.  Same
/// worst-case slot count class as first-fit, sometimes one slot better.
Allocation best_fit_allocate(std::vector<AppSchedParams> apps,
                             const AllocationOptions& options = {});

/// Exact minimum-slot allocation by branch-and-bound over set partitions
/// (the problem the paper calls NP-hard).  Throws InvalidArgument for more
/// than `max_apps_for_exact` applications.
///
/// One canonical depth-first search, run by iterative deepening: bounded
/// at k slots it returns the first partition into <= k slots in canonical
/// order (applications in index order, each trying the existing slots by
/// index, then a new slot) or proves none exists.  Run at k = root lower
/// bound, k + 1, ... below the first-fit count, the first level that
/// finds a partition is the optimum and that partition is the
/// canonical-first optimal witness; when none does, the first-fit seed is
/// optimal and is returned.  Every level is pruned by (a) a precomputed
/// utilization / fractional-packing lower-bound table, (b) a greedy
/// max-clique bound over the precomputed conflict-pair graph (pairs that
/// provably can never share a slot), (c) canonical symmetry breaking over
/// interchangeable applications (an application whose adjacent priority
/// predecessor is identical never goes into a lower-indexed slot than
/// that twin), and (d) last-application dominance — all on top of a
/// slot-feasibility engine memoized by membership mask.  With
/// options.exact_jobs > 1 each level fans out over canonical frontier
/// subtrees (see AllocationOptions::exact_jobs).
///
/// The result is bit-identical to optimal_allocate_reference
/// (oracles/reference.hpp) for every input on which the slot analysis completes (asserted by
/// tests/analysis_golden_test.cpp) and identical at every exact_jobs
/// value (tests/analysis_parallel_alloc_test.cpp).  One carve-out: under
/// MaxWaitMethod::kFixedPoint, inputs whose recurrence exceeds the
/// iteration cap (interference utilization pathologically close to 1)
/// raise NumericalError at whichever candidate slot set a search tests
/// first, and the searches test different sets — so *which* call throws
/// may differ there.  The exact search additionally requires <= 64
/// applications (bitmask state).
Allocation optimal_allocate(std::vector<AppSchedParams> apps,
                            const AllocationOptions& options = {},
                            std::size_t max_apps_for_exact = 20);

}  // namespace cps::analysis
