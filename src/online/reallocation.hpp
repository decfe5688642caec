// Incremental re-allocation after a fault: repair, then exact search.
//
// When a fault changes the fleet (a tent drifts, a deadline shrinks, a
// slot disappears, an app joins or leaves), the online world first
// REPAIRS the previous partition against the patched analysis —
// departed apps drop out of their slots, new apps first-fit into the
// survivors — and re-analyzes only the touched slots.  If the repaired
// partition is still feasible within the slot budget, its slot count is
// an ACHIEVABLE upper bound: the warm bound.  The exact search then
// runs as it would cold (its iterative deepening climbs from the root
// lower bound and must refute every level below the optimum whatever
// upper bound it is given, so a warm bound would save it no work), and
// the report records the warm bound and the anytime gap — how much the
// exact optimum improves on the repair.  The result is therefore the
// cold optimum (tests/online_reallocation_test differential-checks it
// against optimal_allocate_reference).
//
// Every call records a ReallocationReport: feasibility, slots before
// and after, the warm bound and its anytime gap, and the proof wall
// time.  Proof time is for stdout tables ONLY — it never enters the
// byte-compared event-log CSVs (online/world.hpp's determinism
// contract).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/slot_allocation.hpp"

namespace cps::online {

/// Allocator knobs of the online layer.
struct ReallocationPolicy {
  analysis::MaxWaitMethod method = analysis::MaxWaitMethod::kClosedFormBound;
  /// Worker threads for the exact search (AllocationOptions::exact_jobs);
  /// the resulting Allocation — and therefore the event log — is
  /// identical for every value.
  int exact_jobs = 1;
  /// Largest fleet the exact search is asked to prove; beyond it the
  /// online layer falls back to first-fit (the paper's heuristic).
  std::size_t exact_max_apps = 16;
};

/// What one re-allocation did (one row of the run_scenario report table).
struct ReallocationReport {
  std::uint64_t tick = 0;        ///< tick the triggering event fired at
  std::string trigger;           ///< event kind name, or "init"
  bool feasible = false;         ///< a schedulable allocation fits the budget
  bool exact = false;            ///< the exact search ran (vs heuristic/fallback)
  bool repaired = false;         ///< previous partition repaired to feasibility
  std::size_t slots_before = 0;  ///< previous partition's slot count
  std::size_t slots_after = 0;   ///< new allocation's slot count
  /// Warm bound: the repaired partition's slot count (0 = cold: the
  /// repair failed or the exact search did not run).
  std::size_t warm_incumbent = 0;
  std::size_t anytime_gap = 0;     ///< warm_incumbent - proven optimum (0 when cold)
  double proof_seconds = 0.0;      ///< allocator wall time (stdout only, never CSV)
};

/// Outcome of one re-allocation.
struct ReallocationResult {
  analysis::Allocation allocation;  ///< partition + per-slot analyses
  bool feasible = false;            ///< all apps schedulable within the budget
  ReallocationReport report;
};

/// Repair `previous` (slot lists of app NAMES) against the patched
/// `apps`, then re-allocate within `slot_budget` (0 = unlimited):
/// exact when the fleet is small enough (reporting the repaired count
/// as the warm bound when the repair succeeded), first-fit beyond
/// policy.exact_max_apps.  When no
/// schedulable allocation fits the budget, returns feasible = false
/// with a deterministic degraded allocation (apps round-robined over
/// the budget slots in priority order, analyses attached) so the world
/// keeps ticking and counts the misses.  An empty `apps` yields an
/// empty feasible allocation.  Never throws on infeasibility.
ReallocationResult reallocate(const std::vector<analysis::AppSchedParams>& apps,
                              const std::vector<std::vector<std::string>>& previous,
                              std::size_t slot_budget, const ReallocationPolicy& policy);

}  // namespace cps::online
