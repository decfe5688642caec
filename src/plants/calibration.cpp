#include "plants/calibration.hpp"

#include <cmath>

#include "sim/settling.hpp"
#include "util/error.hpp"

namespace cps::plants {

namespace {

/// Build the augmented initial state [x0; 0] matching a design's loops.
linalg::Vector augment_state(const linalg::Vector& x0_plant, std::size_t input_dim) {
  return linalg::Vector::concat(x0_plant, linalg::Vector::zero(input_dim));
}

}  // namespace

std::optional<double> measure_pure_mode_settle(const control::HybridLoopDesign& design,
                                               LoopMode mode, const linalg::Vector& x0_plant,
                                               double threshold) {
  CPS_ENSURE(x0_plant.size() == design.state_dim,
             "measure_pure_mode_settle: x0 must be in plant coordinates");
  const linalg::Matrix& a = mode == LoopMode::kTimeTriggered ? design.a_tt : design.a_et;
  sim::SettlingOptions opts;
  opts.threshold = threshold;
  const auto steps = sim::settling_step(a, augment_state(x0_plant, design.input_dim),
                                        design.state_dim, opts);
  if (!steps.has_value()) return std::nullopt;
  return static_cast<double>(*steps) * design.sys_tt.sampling_period();
}

namespace {

/// Replace the radius of the leading conjugate pair in a pole set.
std::vector<std::complex<double>> with_pair_radius(std::vector<std::complex<double>> poles,
                                                   double rho) {
  CPS_ENSURE(poles.size() >= 2, "pole set must contain the conjugate pair first");
  const double theta = std::arg(poles[0]);
  poles[0] = std::polar(rho, theta);
  poles[1] = std::polar(rho, -theta);
  return poles;
}

std::optional<double> settle_with_radius(const control::StateSpace& plant,
                                         control::PolePlacementLoopSpec spec, LoopMode mode,
                                         double rho, const linalg::Vector& x0_plant,
                                         double threshold) {
  if (mode == LoopMode::kTimeTriggered)
    spec.poles_tt = with_pair_radius(spec.poles_tt, rho);
  else
    spec.poles_et = with_pair_radius(spec.poles_et, rho);
  try {
    const control::HybridLoopDesign design = control::design_hybrid_loops(plant, spec);
    return measure_pure_mode_settle(design, mode, x0_plant, threshold);
  } catch (const Error&) {
    return std::nullopt;
  }
}

}  // namespace

std::optional<control::PolePlacementLoopSpec> calibrate_decay_radius(
    const control::StateSpace& plant, control::PolePlacementLoopSpec spec, LoopMode mode,
    const linalg::Vector& x0_plant, const CalibrationTarget& target,
    const RadiusCalibrationOptions& opts) {
  CPS_ENSURE(target.settle_seconds > 0.0, "calibration target must be positive");
  CPS_ENSURE(opts.rho_min > 0.0 && opts.rho_min < opts.rho_max && opts.rho_max < 1.0,
             "calibration: bad rho bracket");

  const double tol = target.tolerance_steps * spec.sampling_period;
  auto settle_at = [&](double rho) {
    return settle_with_radius(plant, spec, mode, rho, x0_plant, target.threshold);
  };

  const auto lo_settle = settle_at(opts.rho_min);
  const auto hi_settle = settle_at(opts.rho_max);
  if (!lo_settle.has_value()) return std::nullopt;
  if (*lo_settle > target.settle_seconds + tol) return std::nullopt;
  if (hi_settle.has_value() && *hi_settle < target.settle_seconds - tol) return std::nullopt;

  double lo = opts.rho_min, hi = opts.rho_max;
  double best_rho = opts.rho_min;
  double best_err = std::fabs(*lo_settle - target.settle_seconds);

  for (int i = 0; i < opts.max_bisections; ++i) {
    const double mid = 0.5 * (lo + hi);
    const auto settle = settle_at(mid);
    if (!settle.has_value()) {
      hi = mid;
      continue;
    }
    const double err = std::fabs(*settle - target.settle_seconds);
    if (err < best_err) {
      best_err = err;
      best_rho = mid;
    }
    if (err <= tol) break;
    if (*settle < target.settle_seconds)
      lo = mid;
    else
      hi = mid;
  }

  // Best effort: settle time is piecewise constant in rho with occasional
  // jumps across oscillation lobes, so the target may be unattainable
  // exactly; return the closest achievable design (the bracket checks
  // above already guaranteed the target is interior).
  if (mode == LoopMode::kTimeTriggered)
    spec.poles_tt = with_pair_radius(spec.poles_tt, best_rho);
  else
    spec.poles_et = with_pair_radius(spec.poles_et, best_rho);
  return spec;
}

}  // namespace cps::plants
