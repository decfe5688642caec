// Switched autonomous linear system of the paper's Section III:
//
//   x1[k]        = A1^k x0                      (ET mode, Eq. 3)
//   x2[kwait, k] = A2^k A1^{kwait} x0           (after the switch, Eq. 4)
//
// One application switches at most once per disturbance (ET -> TT,
// non-preemptive access), so the trajectory is fully described by the pair
// (A1, A2), the initial state x0, and the switch step kwait.
//
// The `norm_dim` parameter restricts the threshold norm ||x|| to the first
// `norm_dim` components of the (possibly augmented) state — the paper's
// threshold applies to the *plant* states, while our closed loops evolve
// the augmented state z = [x; u_prev].
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/simd_batch.hpp"
#include "linalg/vector.hpp"

namespace cps::sim {

/// Which closed loop drives the state at a step.
enum class Mode { kEventTriggered, kTimeTriggered };

/// One simulated step: state, its threshold norm, and the active mode.
struct Sample {
  linalg::Vector state;
  double norm = 0.0;
  Mode mode = Mode::kEventTriggered;
};

/// A recorded trajectory with the sampling period for time conversion.
class Trajectory {
 public:
  Trajectory(double sampling_period, std::vector<Sample> samples);

  double sampling_period() const { return h_; }
  std::size_t length() const { return samples_.size(); }
  const Sample& at(std::size_t k) const;
  const std::vector<Sample>& samples() const { return samples_; }

  /// Time of step k in seconds.
  double time_at(std::size_t k) const { return static_cast<double>(k) * h_; }

  /// Largest threshold norm along the trajectory.
  double peak_norm() const;

  /// Destructively moves the sample storage out (rvalue only) so a batch
  /// workspace can recycle its capacity; the trajectory is left empty.
  std::vector<Sample> release_samples() && { return std::move(samples_); }

 private:
  double h_;
  std::vector<Sample> samples_;
};

/// Reusable scratch for simulate_batch: the SoA state pair, the
/// de-interleave buffer, and a pool of recycled per-lane sample vectors.
/// A sweep loop that gives consumed trajectories back via recycle() keeps
/// the dominant allocation — count vectors of total_steps+1 Samples per
/// call — at zero once warm.
struct TrajectoryBatchWorkspace {
  linalg::BatchVector<linalg::kSimdWidth> state;
  linalg::BatchVector<linalg::kSimdWidth> scratch;
  std::vector<double> transposed;
  std::vector<std::vector<Sample>> sample_pool;

  /// Take back a consumed trajectory's sample storage for the next call.
  void recycle(Trajectory&& used) {
    sample_pool.push_back(std::move(used).release_samples());
    sample_pool.back().clear();
  }
};

/// The switched pair (A1, A2) with the threshold-norm restriction.
class SwitchedLinearSystem {
 public:
  /// `a_et` (= A1) and `a_tt` (= A2) must be square of equal dimension;
  /// `norm_dim` in [1, dim] selects the leading components entering ||x||.
  SwitchedLinearSystem(linalg::Matrix a_et, linalg::Matrix a_tt, std::size_t norm_dim);

  const linalg::Matrix& a_et() const { return a_et_; }
  const linalg::Matrix& a_tt() const { return a_tt_; }
  std::size_t dimension() const { return a_et_.rows(); }
  std::size_t norm_dim() const { return norm_dim_; }

  /// Threshold norm of a state: Euclidean norm of its first norm_dim
  /// components (paper's ||x||).
  double threshold_norm(const linalg::Vector& state) const;

  /// Evolve one step under `mode`.
  linalg::Vector step(const linalg::Vector& state, Mode mode) const;

  /// Simulate `total_steps` steps from x0, switching ET -> TT at step
  /// `switch_step` (never switches if switch_step >= total_steps).
  /// `sampling_period` only scales the recorded time axis.
  /// Allocation-free per step (in-place matvec, double-buffered state).
  Trajectory simulate(const linalg::Vector& x0, std::size_t switch_step,
                      std::size_t total_steps, double sampling_period) const;

  /// Simulate `count` trajectories (1 <= count <= linalg::kSimdWidth) of
  /// this system in SIMD lockstep: all share switch_step / total_steps /
  /// sampling_period, lane l starts from x0s[l].  The per-step update is
  /// the batched shared-matrix matvec and a W-wide threshold norm
  /// (linalg/batch_kernels.hpp), each lane in the exact FP order of
  /// simulate(), so result[l] is bit-identical to
  /// simulate(x0s[l], switch_step, total_steps, sampling_period).
  /// count == 1 falls back to the scalar simulate() path.
  std::vector<Trajectory> simulate_batch(const linalg::Vector* x0s, std::size_t count,
                                         std::size_t switch_step, std::size_t total_steps,
                                         double sampling_period) const;

  /// Workspace form of simulate_batch: identical results (bit-for-bit),
  /// but the SoA buffers and the per-lane sample storage come from `ws` —
  /// a loop that recycle()s consumed trajectories performs no sample
  /// allocations once warm.  The flag-free overload above delegates here
  /// with a cold local workspace.
  std::vector<Trajectory> simulate_batch(const linalg::Vector* x0s, std::size_t count,
                                         std::size_t switch_step, std::size_t total_steps,
                                         double sampling_period,
                                         TrajectoryBatchWorkspace& ws) const;

 private:
  linalg::Matrix a_et_;
  linalg::Matrix a_tt_;
  std::size_t norm_dim_;
};

}  // namespace cps::sim
