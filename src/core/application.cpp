#include "core/application.hpp"

#include "util/error.hpp"

namespace cps::core {

ControlApplication::ControlApplication(std::string name, control::HybridLoopDesign design,
                                       TimingRequirements timing, linalg::Vector x0_plant)
    : name_(std::move(name)),
      design_(std::move(design)),
      timing_(timing),
      x0_aug_(linalg::Vector::concat(x0_plant, linalg::Vector::zero(design_.input_dim))),
      switched_(design_.a_et, design_.a_tt, design_.state_dim) {
  CPS_ENSURE(!name_.empty(), "ControlApplication: name must not be empty");
  CPS_ENSURE(x0_plant.size() == design_.state_dim,
             "ControlApplication: x0 must be in plant coordinates");
  CPS_ENSURE(timing_.min_inter_arrival > 0.0, "ControlApplication: r must be positive");
  CPS_ENSURE(timing_.deadline > 0.0, "ControlApplication: deadline must be positive");
  CPS_ENSURE(timing_.deadline <= timing_.min_inter_arrival,
             "ControlApplication: the paper assumes xi_d <= r");
  CPS_ENSURE(timing_.threshold > 0.0, "ControlApplication: threshold must be positive");
}

const sim::DwellWaitCurve& ControlApplication::measure_curve() {
  if (!curve_.has_value()) {
    sim::DwellWaitSweepOptions opts;
    opts.settling.threshold = timing_.threshold;
    curve_ = sim::measure_dwell_wait_curve(switched_, x0_aug_, sampling_period(), opts);
  }
  return *curve_;
}

void ControlApplication::set_curve(sim::DwellWaitCurve curve) {
  CPS_ENSURE(curve.sampling_period() == sampling_period(),
             "ControlApplication: curve sampling period mismatch");
  curve_ = std::move(curve);
}

analysis::ModelPtr ControlApplication::fit_model(ModelKind kind) {
  const sim::DwellWaitCurve& curve = measure_curve();
  switch (kind) {
    case ModelKind::kNonMonotonic:
      model_ = std::make_shared<analysis::NonMonotonicModel>(
          analysis::NonMonotonicModel::fit(curve));
      break;
    case ModelKind::kConservativeMonotonic:
      model_ = std::make_shared<analysis::ConservativeMonotonicModel>(
          analysis::ConservativeMonotonicModel::fit(curve));
      break;
    case ModelKind::kSimpleMonotonic:
      model_ = std::make_shared<analysis::SimpleMonotonicModel>(
          analysis::SimpleMonotonicModel::fit(curve));
      break;
    case ModelKind::kConcave:
      model_ = std::make_shared<analysis::ConcaveEnvelopeModel>(curve);
      break;
  }
  return model_;
}

analysis::AppSchedParams ControlApplication::sched_params() const {
  CPS_ENSURE(model_ != nullptr, "ControlApplication: fit_model() before sched_params()");
  analysis::AppSchedParams params;
  params.name = name_;
  params.min_inter_arrival = timing_.min_inter_arrival;
  params.deadline = timing_.deadline;
  params.model = model_;
  return params;
}

}  // namespace cps::core
