#include "sim/jitter.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/kernels.hpp"
#include "util/error.hpp"

namespace cps::sim {

JitteryClosedLoop::JitteryClosedLoop(const control::StateSpace& plant, double sampling_period,
                                     std::vector<double> delays, linalg::Matrix gain)
    : n_(plant.state_dim()) {
  CPS_ENSURE(!delays.empty(), "JitteryClosedLoop: need at least one delay realization");
  CPS_ENSURE(sampling_period > 0.0, "JitteryClosedLoop: h must be positive");
  const std::size_t m = plant.input_dim();
  CPS_ENSURE(gain.rows() == m && gain.cols() == n_ + m,
             "JitteryClosedLoop: gain must be m x (n+m) (augmented state)");

  loops_.reserve(delays.size());
  for (double d : delays) {
    CPS_ENSURE(d >= 0.0 && d <= sampling_period,
               "JitteryClosedLoop: every delay must lie in [0, h]");
    const control::DiscreteSystem sys = control::c2d(plant, sampling_period, d);
    const auto aug = sys.augmented();
    loops_.push_back(aug.a - aug.b * gain);
  }
}

linalg::Vector JitteryClosedLoop::step(const linalg::Vector& z, std::size_t delay_index) const {
  CPS_ENSURE(delay_index < loops_.size(), "JitteryClosedLoop: delay index out of range");
  return loops_[delay_index] * z;
}

const linalg::Matrix& JitteryClosedLoop::loop_matrix(std::size_t delay_index) const {
  CPS_ENSURE(delay_index < loops_.size(), "JitteryClosedLoop: delay index out of range");
  return loops_[delay_index];
}

std::optional<std::size_t> JitteryClosedLoop::settle_under_random_delays(
    const linalg::Vector& z0, double threshold, Rng& rng, std::size_t max_steps) const {
  JitterWorkspace workspace;
  return settle_under_random_delays(z0, threshold, rng, max_steps, workspace);
}

std::optional<std::size_t> JitteryClosedLoop::settle_under_random_delays(
    const linalg::Vector& z0, double threshold, Rng& rng, std::size_t max_steps,
    JitterWorkspace& workspace) const {
  CPS_ENSURE(z0.size() == loops_.front().rows(), "settle: z0 dimension mismatch");
  CPS_ENSURE(threshold > 0.0, "settle: threshold must be positive");

  // Double-buffered inner loop: apply_into + swap evolve z with zero
  // per-step allocations, on buffers the caller may reuse across runs.
  // Same delay draws and FP order as the frozen
  // settle_under_random_delays_reference (oracles/reference.hpp) —
  // settling steps are bit-identical (tests/sim_golden_test.cpp).
  linalg::Vector& z = workspace.state;
  linalg::Vector& scratch = workspace.scratch;
  z.assign(z0.data(), z0.size());
  std::size_t last_violation = 0;
  bool ever_violated = false;
  const double stop_level = threshold * 1e-3;
  for (std::size_t k = 0; k <= max_steps; ++k) {
    const double* zd = z.data();
    double acc = 0.0;
    for (std::size_t i = 0; i < n_; ++i) acc += zd[i] * zd[i];
    const double norm = std::sqrt(acc);
    if (!std::isfinite(norm)) return std::nullopt;
    if (norm > threshold) {
      last_violation = k;
      ever_violated = true;
    } else if (norm <= stop_level) {
      return ever_violated ? last_violation + 1 : 0;
    }
    const std::size_t pick =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(loops_.size()) - 1));
    linalg::apply_into(loops_[pick], z, scratch);
    z.swap(scratch);
  }
  return std::nullopt;
}

JitterCampaignResult run_jitter_campaign(const JitteryClosedLoop& loop,
                                         const linalg::Vector& z0, double threshold,
                                         double sampling_period, std::size_t runs, Rng& rng) {
  JitterWorkspace workspace;
  return run_jitter_campaign(loop, z0, threshold, sampling_period, runs, rng, workspace);
}

JitterCampaignResult run_jitter_campaign(const JitteryClosedLoop& loop,
                                         const linalg::Vector& z0, double threshold,
                                         double sampling_period, std::size_t runs, Rng& rng,
                                         JitterWorkspace& workspace) {
  CPS_ENSURE(runs > 0, "run_jitter_campaign: need at least one run");
  JitterCampaignResult out;
  out.runs = runs;
  out.best_settle_s = std::numeric_limits<double>::infinity();
  double sum = 0.0;
  for (std::size_t r = 0; r < runs; ++r) {
    const auto settle =
        loop.settle_under_random_delays(z0, threshold, rng, kDefaultJitterMaxSteps, workspace);
    if (!settle.has_value()) continue;
    const double seconds = static_cast<double>(*settle) * sampling_period;
    ++out.settled_runs;
    sum += seconds;
    out.worst_settle_s = std::max(out.worst_settle_s, seconds);
    out.best_settle_s = std::min(out.best_settle_s, seconds);
  }
  if (out.settled_runs > 0) out.mean_settle_s = sum / static_cast<double>(out.settled_runs);
  return out;
}

}  // namespace cps::sim
