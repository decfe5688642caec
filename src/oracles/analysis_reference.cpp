#include <algorithm>
#include <string>
#include <utility>

#include "linalg/eigen.hpp"
#include "linalg/svd.hpp"
#include "oracles/reference.hpp"
#include "util/error.hpp"

namespace cps::analysis {

Allocation optimal_allocate_reference(std::vector<AppSchedParams> apps,
                                      const AllocationOptions& options,
                                      std::size_t max_apps_for_exact) {
  CPS_ENSURE(!apps.empty(), "optimal_allocate: need at least one application");
  CPS_ENSURE(apps.size() <= max_apps_for_exact,
             "optimal_allocate: exact search limited to max_apps_for_exact applications");
  sort_by_priority(apps);
  for (const auto& app : apps) {
    if (!analyze_slot({app}, options.method).all_schedulable)
      throw InfeasibleError("application '" + app.name +
                            "' cannot meet its deadline even on a dedicated TT slot");
  }

  // The seed's pre-optimization branch and bound, frozen: place
  // applications one by one into an existing block or a new one, pruning
  // only branches that already use >= the best-known number of slots, with
  // a full analyze_slot per visited node.
  std::vector<std::vector<AppSchedParams>> best;
  std::size_t best_count;
  {
    const Allocation seed = first_fit_allocate(apps, AllocationOptions{options.method, 0});
    best_count = seed.slot_count();
    best.clear();
    for (const auto& names : seed.slots) {
      std::vector<AppSchedParams> block;
      for (const auto& name : names)
        for (const auto& app : apps)
          if (app.name == name) block.push_back(app);
      best.push_back(std::move(block));
    }
  }

  std::vector<std::vector<AppSchedParams>> current;
  auto recurse = [&](auto&& self, std::size_t index) -> void {
    if (current.size() >= best_count) return;  // cannot improve
    if (index == apps.size()) {
      best = current;
      best_count = current.size();
      return;
    }
    const AppSchedParams& app = apps[index];
    for (std::size_t s = 0; s < current.size(); ++s) {
      current[s].push_back(app);
      if (analyze_slot(current[s], options.method).all_schedulable) self(self, index + 1);
      current[s].pop_back();
    }
    if (current.size() + 1 < best_count) {
      current.push_back({app});
      self(self, index + 1);
      current.pop_back();
    }
  };
  recurse(recurse, 0);

  if (options.max_slots != 0 && best_count > options.max_slots)
    throw InfeasibleError("optimal allocation still exceeds the available " +
                          std::to_string(options.max_slots) + " TT slots");
  Allocation out;
  for (auto& slot : best) {
    sort_by_priority(slot);
    std::vector<std::string> names;
    for (const auto& a : slot) names.push_back(a.name);
    out.slots.push_back(std::move(names));
    out.analyses.push_back(analyze_slot(slot, options.method));
  }
  return out;
}

TransientGrowth transient_growth_reference(const linalg::Matrix& a,
                                           const TransientGrowthOptions& opts) {
  CPS_ENSURE(a.is_square(), "transient_growth: matrix must be square");
  if (!linalg::is_schur_stable(a, 0.0))
    throw NumericalError("transient_growth: loop is not Schur stable");

  TransientGrowth out;
  linalg::Matrix power = linalg::Matrix::identity(a.rows());
  for (std::size_t k = 1; k <= opts.max_steps; ++k) {
    power = power * a;
    const double gain = linalg::norm_two(power);
    if (gain > out.peak_gain) {
      out.peak_gain = gain;
      out.peak_step = k;
    }
    if (gain < opts.decay_stop * out.peak_gain) break;
  }
  out.growing = out.peak_gain > 1.0 + opts.tol;
  return out;
}

TransientGrowth transient_growth_restricted_reference(const linalg::Matrix& a,
                                                      std::size_t norm_dim,
                                                      const TransientGrowthOptions& opts) {
  CPS_ENSURE(a.is_square(), "transient_growth_restricted: matrix must be square");
  CPS_ENSURE(norm_dim >= 1 && norm_dim <= a.rows(),
             "transient_growth_restricted: norm_dim out of range");
  if (!linalg::is_schur_stable(a, 0.0))
    throw NumericalError("transient_growth_restricted: loop is not Schur stable");

  TransientGrowth out;
  linalg::Matrix power = linalg::Matrix::identity(a.rows());
  double running_full = 1.0;
  for (std::size_t k = 1; k <= opts.max_steps; ++k) {
    power = power * a;
    const double gain = linalg::norm_two(power.block(0, 0, norm_dim, norm_dim));
    if (gain > out.peak_gain) {
      out.peak_gain = gain;
      out.peak_step = k;
    }
    const double full = linalg::norm_two(power);
    running_full = std::max(running_full, full);
    if (full < opts.decay_stop * running_full) break;
  }
  out.growing = out.peak_gain > 1.0 + opts.tol;
  return out;
}

}  // namespace cps::analysis
