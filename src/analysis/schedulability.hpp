// Schedulability analysis for applications sharing one TT slot
// (paper Section IV).
//
// Applications contending for a slot are served non-preemptively in
// priority order (smaller deadline = higher priority).  For application
// C_i the worst case is: the largest lower-priority dwell has just started
// (blocking a), and every higher-priority application re-requests the slot
// as often as its minimum disturbance inter-arrival time allows.  The
// maximum wait time satisfies the recurrence (Eq. 5)
//
//     k(l+1) = a + sum_{j higher} ceil(k(l) / r_j) * xiM_j,
//
// whose iterates are monotone (Eqs. 9-14); the paper's closed-form bounds
// (Eqs. 20-21) bracket the fixed point:
//
//     a / (1 - m)  <=  k_hat  <  a' / (1 - m),
//     a' = a + sum_j xiM_j,   m = sum_j xiM_j / r_j  (must be < 1).
//
// The worst-case response time is xi_hat = k_hat + dwell(k_hat) using the
// application's dwell/wait model; C_i is schedulable iff xi_hat <= xi_d_i.
// Following the paper's case study, the UPPER bound (20) is the default
// k_hat (safe); the exact fixed point is also provided for the tightness
// ablation.
#pragma once

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "analysis/dwell_wait_model.hpp"

namespace cps::analysis {

/// Scheduling-relevant description of one control application.
struct AppSchedParams {
  std::string name;                ///< unique application name (e.g. "C3")
  double min_inter_arrival = 1.0;  ///< r_i [s]
  double deadline = 1.0;           ///< xi_d_i [s]
  ModelPtr model;                  ///< dwell/wait model (supplies xiM and dwell())
};

/// How to compute the maximum wait time.
enum class MaxWaitMethod {
  kClosedFormBound,  ///< a' / (1 - m): Eq. (20), the paper's choice
  kFixedPoint,       ///< exact fixed point of Eq. (5)
};

/// Outcome of the slot analysis for one application.
struct AppSchedResult {
  std::string name;             ///< application analyzed
  double blocking = 0.0;        ///< a: max lower-priority xiM
  double interference_util = 0.0;  ///< m: sum of higher-priority xiM_j / r_j
  double max_wait = 0.0;        ///< k_hat
  double response = 0.0;        ///< xi_hat = k_hat + dwell(k_hat)
  double deadline = 0.0;        ///< xi_d_i the response is checked against
  bool schedulable = false;     ///< xi_hat <= xi_d_i
  bool utilization_feasible = true;  ///< m < 1 held
};

/// Full analysis of one slot's application set.
struct SlotAnalysis {
  std::vector<AppSchedResult> results;  ///< in priority order
  bool all_schedulable = false;
};

/// Blocking term a = max over lower-priority apps' max dwell (Eq. 8);
/// 0 when the app has the lowest priority in the slot.
double blocking_term(const std::vector<AppSchedParams>& slot_apps, std::size_t index);

/// Interference utilization m of Eq. (19) for `index` (apps sorted by
/// priority, higher first).
double interference_utilization(const std::vector<AppSchedParams>& slot_apps,
                                std::size_t index);

/// Closed-form upper bound (20) on the maximum wait time.  Returns
/// std::nullopt when m >= 1 (not schedulable on this slot).
std::optional<double> max_wait_bound(const std::vector<AppSchedParams>& slot_apps,
                                     std::size_t index);

/// Lower bound (21), provided for the tightness ablation and tests.
std::optional<double> max_wait_lower_bound(const std::vector<AppSchedParams>& slot_apps,
                                           std::size_t index);

/// Exact fixed point of the recurrence (5)/(6), seeded with one arrival of
/// every higher-priority application (the critical instant).  Returns
/// std::nullopt when m >= 1.
std::optional<double> max_wait_fixed_point(const std::vector<AppSchedParams>& slot_apps,
                                           std::size_t index, int max_iterations = 10000);

/// One interference term of the Eq. (5) recurrence: arrivals of a
/// higher-priority application (peak dwell xi_m, minimum inter-arrival r)
/// during a wait of k, including the simultaneous critical-instant
/// release (the max with 1).  Exposed so every evaluation of the
/// recurrence — max_wait_fixed_point here and the allocator's feasibility
/// engine, whose never-feasible screen takes the same waits
/// (analysis/slot_allocation.cpp) — shares the IDENTICAL expression,
/// same ceil epsilon and operation order; the screen's soundness
/// depends on that bitwise agreement.
inline double fixed_point_interference_term(double k, double r, double xi_m) {
  return std::max(1.0, std::ceil(k / r - 1e-12)) * xi_m;
}

/// Analyze every application sharing one slot.  `slot_apps` in any order;
/// they are analyzed in deadline (priority) order and returned that way.
SlotAnalysis analyze_slot(std::vector<AppSchedParams> slot_apps,
                          MaxWaitMethod method = MaxWaitMethod::kClosedFormBound);

/// Sort by increasing deadline (the paper's priority rule), stable for ties.
void sort_by_priority(std::vector<AppSchedParams>& apps);

}  // namespace cps::analysis
