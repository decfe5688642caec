// Frozen reference implementations ("oracles") of the optimized kernels.
//
// Each function here is the pre-optimization version of a production
// kernel, kept verbatim: one temporary per step, no memoization, no
// pruning beyond the original.  The optimized kernels must return
// bit-identical results; the golden suites (tests/analysis_golden_test,
// tests/sim_golden_test, tests/analysis_parallel_alloc_test,
// tests/online_reallocation_test) assert that, and the speedup benches
// time both side by side.  They live in the cps_oracles library, which
// only tests/ and bench/ link: no experiment, cps_run or cps_serve runs
// them.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "analysis/slot_allocation.hpp"
#include "analysis/transient.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "sim/dwell_wait.hpp"
#include "sim/jitter.hpp"
#include "sim/switched_system.hpp"
#include "util/rng.hpp"

namespace cps::analysis {

/// The pre-optimization exhaustive branch-and-bound, frozen verbatim (one
/// full analyze_slot per visited node, no lower bounds, no memoization).
/// optimal_allocate returns the same Allocation.
Allocation optimal_allocate_reference(std::vector<AppSchedParams> apps,
                                      const AllocationOptions& options = {},
                                      std::size_t max_apps_for_exact = 12);

/// Frozen pre-optimization copy of transient_growth() (one matrix
/// temporary per power step).
TransientGrowth transient_growth_reference(const linalg::Matrix& a,
                                           const TransientGrowthOptions& opts = {});

/// Frozen pre-optimization copy of transient_growth_restricted().
TransientGrowth transient_growth_restricted_reference(
    const linalg::Matrix& a, std::size_t norm_dim, const TransientGrowthOptions& opts = {});

}  // namespace cps::analysis

namespace cps::sim {

/// The pre-optimization sweep kernel, frozen verbatim: re-simulates the
/// ET prefix from x0 for every grid point through the naive vector code
/// path.
DwellWaitCurve measure_dwell_wait_curve_reference(const SwitchedLinearSystem& sys,
                                                  const linalg::Vector& x0,
                                                  double sampling_period,
                                                  const DwellWaitSweepOptions& opts);

/// Frozen pre-optimization copy of SwitchedLinearSystem::simulate() (one
/// Vector temporary per step through step()).
Trajectory simulate_reference(const SwitchedLinearSystem& sys, const linalg::Vector& x0,
                              std::size_t switch_step, std::size_t total_steps,
                              double sampling_period);

/// Frozen pre-optimization copy of
/// JitteryClosedLoop::settle_under_random_delays() (one Vector temporary
/// per step through step()).  Draws the same delay sequence from `rng`.
std::optional<std::size_t> settle_under_random_delays_reference(
    const JitteryClosedLoop& loop, const linalg::Vector& z0, double threshold, Rng& rng,
    std::size_t max_steps = kDefaultJitterMaxSteps);

}  // namespace cps::sim
