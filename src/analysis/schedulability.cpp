#include "analysis/schedulability.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

// NOTE: analysis/slot_allocation.cpp carries an index-based replica of
// this analysis (SlotFeasibility::member_wait) whose verdicts must stay
// bit-identical to analyze_slot.  The replica also produces the analyses
// the allocators report (SlotFeasibility::analyze), so every field of
// analyze_slot's result — blocking, interference utilization, wait,
// response, deadline and both flags — must come out of it bit for bit.
// tests/analysis_golden_test.cpp pins both equivalences.  Any change to
// the math below (tolerances, seeding, iteration caps, summation order)
// must be mirrored there.

namespace cps::analysis {

namespace {

void check_index(const std::vector<AppSchedParams>& apps, std::size_t index) {
  CPS_ENSURE(index < apps.size(), "schedulability: app index out of range");
  for (const auto& a : apps) {
    CPS_ENSURE(a.model != nullptr, "schedulability: every app needs a dwell/wait model");
    CPS_ENSURE(a.min_inter_arrival > 0.0, "schedulability: r must be positive");
    CPS_ENSURE(a.deadline > 0.0, "schedulability: deadline must be positive");
  }
}

}  // namespace

void sort_by_priority(std::vector<AppSchedParams>& apps) {
  std::stable_sort(apps.begin(), apps.end(), [](const AppSchedParams& a, const AppSchedParams& b) {
    return a.deadline < b.deadline;
  });
}

double blocking_term(const std::vector<AppSchedParams>& slot_apps, std::size_t index) {
  check_index(slot_apps, index);
  double a = 0.0;
  for (std::size_t k = index + 1; k < slot_apps.size(); ++k)
    a = std::max(a, slot_apps[k].model->max_dwell());
  return a;
}

double interference_utilization(const std::vector<AppSchedParams>& slot_apps,
                                std::size_t index) {
  check_index(slot_apps, index);
  double m = 0.0;
  for (std::size_t j = 0; j < index; ++j)
    m += slot_apps[j].model->max_dwell() / slot_apps[j].min_inter_arrival;
  return m;
}

std::optional<double> max_wait_bound(const std::vector<AppSchedParams>& slot_apps,
                                     std::size_t index) {
  const double m = interference_utilization(slot_apps, index);
  if (m >= 1.0) return std::nullopt;
  const double a = blocking_term(slot_apps, index);
  double a_prime = a;
  for (std::size_t j = 0; j < index; ++j) a_prime += slot_apps[j].model->max_dwell();
  return a_prime / (1.0 - m);
}

std::optional<double> max_wait_lower_bound(const std::vector<AppSchedParams>& slot_apps,
                                           std::size_t index) {
  const double m = interference_utilization(slot_apps, index);
  if (m >= 1.0) return std::nullopt;
  return blocking_term(slot_apps, index) / (1.0 - m);
}

std::optional<double> max_wait_fixed_point(const std::vector<AppSchedParams>& slot_apps,
                                           std::size_t index, int max_iterations) {
  const double m = interference_utilization(slot_apps, index);
  if (m >= 1.0) return std::nullopt;
  const double a = blocking_term(slot_apps, index);

  // Critical instant: every higher-priority application releases together
  // with C_i, so each contributes one dwell immediately; further arrivals
  // follow from the recurrence.  (Seeding with a alone would lose those
  // simultaneous first arrivals: ceil(0 / r) = 0.)
  double k = a;
  for (std::size_t j = 0; j < index; ++j) k += slot_apps[j].model->max_dwell();

  for (int it = 0; it < max_iterations; ++it) {
    double next = a;
    for (std::size_t j = 0; j < index; ++j)
      next += fixed_point_interference_term(k, slot_apps[j].min_inter_arrival,
                                            slot_apps[j].model->max_dwell());
    if (std::fabs(next - k) <= 1e-12) return next;
    k = next;
  }
  throw NumericalError("max_wait_fixed_point: recurrence did not converge (m < 1 violated?)");
}

SlotAnalysis analyze_slot(std::vector<AppSchedParams> slot_apps, MaxWaitMethod method) {
  CPS_ENSURE(!slot_apps.empty(), "analyze_slot: need at least one application");
  sort_by_priority(slot_apps);

  SlotAnalysis analysis;
  analysis.results.reserve(slot_apps.size());
  analysis.all_schedulable = true;

  for (std::size_t i = 0; i < slot_apps.size(); ++i) {
    AppSchedResult r;
    r.name = slot_apps[i].name;
    r.deadline = slot_apps[i].deadline;
    r.blocking = blocking_term(slot_apps, i);
    r.interference_util = interference_utilization(slot_apps, i);

    const auto k_hat = method == MaxWaitMethod::kClosedFormBound
                           ? max_wait_bound(slot_apps, i)
                           : max_wait_fixed_point(slot_apps, i);
    if (!k_hat.has_value()) {
      r.utilization_feasible = false;
      r.schedulable = false;
      analysis.all_schedulable = false;
      analysis.results.push_back(std::move(r));
      continue;
    }
    r.max_wait = *k_hat;
    r.response = slot_apps[i].model->response(*k_hat);
    r.schedulable = r.response <= r.deadline + 1e-12;
    if (!r.schedulable) analysis.all_schedulable = false;
    analysis.results.push_back(std::move(r));
  }
  return analysis;
}

}  // namespace cps::analysis
