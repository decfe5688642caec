// ControlApplication: everything the co-design pipeline knows about one
// distributed control application — its plant, the two mode controllers,
// the timing requirements, and (once measured) its dwell/wait curve and
// fitted models.
//
// This is the main user-facing type of the library: construct applications
// from plants and requirements, hand them to HybridCommDesign (pipeline.hpp)
// and receive a slot allocation plus verification.
#pragma once

#include <optional>
#include <string>

#include "analysis/dwell_wait_model.hpp"
#include "analysis/schedulability.hpp"
#include "control/loop_design.hpp"
#include "linalg/vector.hpp"
#include "sim/dwell_wait.hpp"
#include "sim/switched_system.hpp"

namespace cps::core {

/// Timing requirements of one application (Section II-C).
struct TimingRequirements {
  double min_inter_arrival = 1.0;  ///< r_i: minimum disturbance gap [s]
  double deadline = 1.0;           ///< xi_d_i: desired response time [s]
  double threshold = 0.1;          ///< E_th: steady-state norm bound
};

class ControlApplication {
 public:
  /// `x0_plant` is the plant-coordinate state right after a worst-case
  /// disturbance (the augmented held-input entry is zeroed internally).
  ControlApplication(std::string name, control::HybridLoopDesign design,
                     TimingRequirements timing, linalg::Vector x0_plant);

  const std::string& name() const { return name_; }
  const control::HybridLoopDesign& design() const { return design_; }
  const TimingRequirements& timing() const { return timing_; }

  /// Augmented disturbed state [x0; 0] used by all simulations.
  const linalg::Vector& disturbed_state() const { return x0_aug_; }

  /// The switched pair (A1 = ET loop, A2 = TT loop) with the threshold
  /// norm restricted to the plant states.
  const sim::SwitchedLinearSystem& switched_system() const { return switched_; }

  double sampling_period() const { return design_.sys_tt.sampling_period(); }

  /// Measure (and cache) the dwell/wait curve from the disturbed state.
  const sim::DwellWaitCurve& measure_curve();

  /// Install an externally measured curve (e.g. one shared through the
  /// runtime FixtureCache) so measure_curve()/fit_model() skip the sweep.
  /// The caller must supply the curve measure_curve() would produce; the
  /// sampling period is validated as a cheap guard.
  void set_curve(sim::DwellWaitCurve curve);

  /// Curve if already measured.
  const std::optional<sim::DwellWaitCurve>& curve() const { return curve_; }

  /// Fit (and cache) the given envelope family to the measured curve;
  /// measures the curve on demand.  Returns the model also kept in
  /// sched_params().
  enum class ModelKind { kNonMonotonic, kConservativeMonotonic, kSimpleMonotonic, kConcave };
  analysis::ModelPtr fit_model(ModelKind kind);

  /// Scheduling view of this application.  Requires fit_model() first
  /// (throws otherwise).
  analysis::AppSchedParams sched_params() const;

 private:
  std::string name_;
  control::HybridLoopDesign design_;
  TimingRequirements timing_;
  linalg::Vector x0_aug_;
  sim::SwitchedLinearSystem switched_;
  std::optional<sim::DwellWaitCurve> curve_;
  analysis::ModelPtr model_;
};

}  // namespace cps::core
