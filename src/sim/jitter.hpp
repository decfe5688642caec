// Time-varying-delay (jitter) simulation of the ET-mode loop.
//
// The controller design assumes the WORST-CASE dynamic-segment delay
// (Section II-B: "due to the non-determinism, we must consider the worst
// case").  On the real bus the per-sample delay varies between nearly
// zero and that worst case.  This module simulates the closed loop under
// randomly drawn per-step delays so the robustness of the worst-case
// design can be checked empirically (bench/ablation_jitter).
//
// Model: per step the actual delay d_k is drawn from a finite grid
// {d_0 .. d_{m-1}} in [0, d_max]; the plant evolves with the exact
// discretization for that delay,
//   x[k+1] = Phi x[k] + Gamma0(d_k) u[k] + Gamma1(d_k) u[k-1],
// while the controller gain stays the one designed for d_max.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "control/discretize.hpp"
#include "control/state_space.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "util/rng.hpp"

namespace cps::sim {

/// Default settle-loop cap shared by every settle_under_random_delays
/// overload and run_jitter_campaign — one constant, so the overloads can
/// never silently diverge on it (they promise bit-identical results).
inline constexpr std::size_t kDefaultJitterMaxSteps = 20000;

/// Reusable scratch of the jitter settle loop: the double-buffered state
/// pair.  One workspace per SweepRunner worker keeps randomized jitter
/// campaigns allocation-free across runs (the buffers are fully
/// overwritten per call; results never depend on previous contents).
struct JitterWorkspace {
  linalg::Vector state;
  linalg::Vector scratch;
};

/// Closed loop with a per-step selectable delay realization.
class JitteryClosedLoop {
 public:
  /// `gain` is the augmented-state feedback (m x (n+m)) designed for the
  /// worst-case delay; `delays` is the grid of realizable delays (each in
  /// [0, h]).  The loop state is z = [x; u_prev].
  JitteryClosedLoop(const control::StateSpace& plant, double sampling_period,
                    std::vector<double> delays, linalg::Matrix gain);

  std::size_t delay_count() const { return loops_.size(); }
  std::size_t state_dim() const { return n_; }

  /// One step under delay grid index `delay_index`.
  linalg::Vector step(const linalg::Vector& z, std::size_t delay_index) const;

  /// Closed-loop matrix for one delay realization (for stability checks).
  const linalg::Matrix& loop_matrix(std::size_t delay_index) const;

  /// Settling step of the norm of the first n components under uniformly
  /// random per-step delays; std::nullopt if the cap is hit.
  /// Allocation-free per step (in-place matvec, double-buffered state).
  std::optional<std::size_t> settle_under_random_delays(
      const linalg::Vector& z0, double threshold, Rng& rng,
      std::size_t max_steps = kDefaultJitterMaxSteps) const;

  /// Workspace-threading overload: identical draws and arithmetic
  /// (bit-identical settling step), state buffers reused from
  /// `workspace` instead of constructed per call.
  std::optional<std::size_t> settle_under_random_delays(const linalg::Vector& z0,
                                                        double threshold, Rng& rng,
                                                        std::size_t max_steps,
                                                        JitterWorkspace& workspace) const;

 private:
  std::size_t n_;
  std::vector<linalg::Matrix> loops_;  // closed-loop matrix per delay
};

/// Summary of a randomized jitter campaign.
struct JitterCampaignResult {
  std::size_t runs = 0;
  std::size_t settled_runs = 0;
  double mean_settle_s = 0.0;
  double worst_settle_s = 0.0;
  double best_settle_s = 0.0;
};

/// Run `runs` random-delay simulations from `z0` and summarize.
JitterCampaignResult run_jitter_campaign(const JitteryClosedLoop& loop,
                                         const linalg::Vector& z0, double threshold,
                                         double sampling_period, std::size_t runs, Rng& rng);

/// Workspace-threading overload: one state-buffer pair serves all
/// `runs` simulations (and, through SweepRunner's per-worker workspace,
/// every campaign a worker executes).  Bit-identical summary.
JitterCampaignResult run_jitter_campaign(const JitteryClosedLoop& loop,
                                         const linalg::Vector& z0, double threshold,
                                         double sampling_period, std::size_t runs, Rng& rng,
                                         JitterWorkspace& workspace);

}  // namespace cps::sim
