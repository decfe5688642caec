// Settle-time-targeted controller calibration.
//
// The paper reports settling times (xi^TT, xi^ET) for its applications but
// not the underlying controllers; to synthesize plants whose measured
// timing parameters land near Table I we search over the radius of the
// dominant closed-loop pole pair: a larger radius decays more slowly, so
// the settling time is (piecewise) increasing in it and a bracketed
// bisection finds a radius hitting the requested settling time.
#pragma once

#include <optional>

#include "control/loop_design.hpp"
#include "control/state_space.hpp"
#include "linalg/vector.hpp"

namespace cps::plants {

/// Which of the two mode loops is being calibrated.
enum class LoopMode { kTimeTriggered, kEventTriggered };

struct CalibrationTarget {
  double settle_seconds = 1.0;  ///< desired settling time of the pure-mode loop
  double threshold = 0.1;       ///< E_th used in the settling definition
  double tolerance_steps = 1.0; ///< accept within this many sampling periods
};

/// Measured pure-mode settling time [s] for a given design (helper shared
/// with tests/benches).  std::nullopt when the loop fails to settle.
std::optional<double> measure_pure_mode_settle(const control::HybridLoopDesign& design,
                                               LoopMode mode, const linalg::Vector& x0_plant,
                                               double threshold);

struct RadiusCalibrationOptions {
  double rho_min = 0.30;
  double rho_max = 0.998;
  int max_bisections = 60;
};

/// Bisect on the radius of the dominant conjugate pole pair of `mode`
/// (keeping its angle and the remaining poles fixed) until the pure-mode
/// settling time from `x0_plant` (plant coordinates, the held input is
/// initialized to zero) matches the target.  Returns the calibrated spec,
/// or std::nullopt when the target is unreachable within
/// [rho_min, rho_max] (e.g. requested faster than the plant allows).
std::optional<control::PolePlacementLoopSpec> calibrate_decay_radius(
    const control::StateSpace& plant, control::PolePlacementLoopSpec spec, LoopMode mode,
    const linalg::Vector& x0_plant, const CalibrationTarget& target,
    const RadiusCalibrationOptions& opts = {});

}  // namespace cps::plants
