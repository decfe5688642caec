// Design of the two mode controllers of the paper's dynamic resource
// allocation scheme and construction of the switched closed-loop matrices.
//
// For one control application the paper designs two state-feedback
// controllers (Section II-B):
//   * TT mode: the control message uses a time-triggered slot; the
//     sensor-to-actuator delay is negligible (d_tt ~ 0), giving the
//     closed-loop matrix A2;
//   * ET mode: the message goes through the dynamic (event-triggered)
//     segment; the worst-case delay d_et (<= h) must be assumed, giving
//     the closed-loop matrix A1.
//
// Both loops are realized on the COMMON augmented state z = [x; u_prev]
// so that the ET -> TT switch (Eq. 3-4 of the paper) is a plain change of
// the system matrix on one state vector:
//   ET:  z[k+1] = A1 z[k],   A1 = Abar_et - Bbar_et K_et
//   TT:  z[k+1] = A2 z[k],   A2 = Abar_tt - Bbar_tt K_tt
// where Abar/Bbar are the delay-augmented realizations (discretize.hpp)
// and the gains come from discrete LQR with per-mode weights.
#pragma once

#include <complex>
#include <vector>

#include "control/discretize.hpp"
#include "control/lqr.hpp"
#include "control/state_space.hpp"
#include "linalg/matrix.hpp"

namespace cps::control {

/// Everything needed to design the two mode controllers of one application.
struct HybridLoopSpec {
  double sampling_period = 0.02;  ///< h [s]
  double delay_tt = 0.0;          ///< sensor-to-actuator delay in TT mode [s]
  double delay_et = 0.02;         ///< worst-case delay in ET mode [s], <= h
  linalg::Matrix q_tt;            ///< LQR state weight, TT mode (n x n)
  linalg::Matrix r_tt;            ///< LQR input weight, TT mode (m x m)
  linalg::Matrix q_et;            ///< LQR state weight, ET mode (n x n)
  linalg::Matrix r_et;            ///< LQR input weight, ET mode (m x m)
  /// Weight put on the stored input u_prev in the augmented LQR problem
  /// (must be >= 0; small values leave the physical behaviour unchanged).
  double input_memory_weight = 1e-8;
};

/// Result of the two-mode design for one application.
struct HybridLoopDesign {
  DiscreteSystem sys_tt;     ///< sampled plant under TT-mode delay
  DiscreteSystem sys_et;     ///< sampled plant under ET-mode (worst) delay
  linalg::Matrix gain_tt;    ///< K_tt on the augmented state (m x (n+m))
  linalg::Matrix gain_et;    ///< K_et on the augmented state (m x (n+m))
  linalg::Matrix a_tt;       ///< A2: closed loop in TT mode ((n+m) x (n+m))
  linalg::Matrix a_et;       ///< A1: closed loop in ET mode ((n+m) x (n+m))
  std::size_t state_dim = 0;  ///< n, physical states (norm threshold applies to these)
  std::size_t input_dim = 0;  ///< m

  /// Spectral radii of the two closed loops (both < 1 by construction).
  double rho_tt = 0.0;
  double rho_et = 0.0;
};

/// Design both mode controllers for `plant` according to `spec`.
/// Throws NumericalError when either loop cannot be stabilized.
HybridLoopDesign design_hybrid_loops(const StateSpace& plant, const HybridLoopSpec& spec);

/// Pole-placement flavour of the two-mode design (single-input plants).
///
/// Where the LQR weights shape the loops indirectly, placing the augmented
/// closed-loop poles pins the decay rate (pole radius -> settling time) and
/// the oscillation (pole angle -> transient overshoot of ||x||, which is
/// what produces the paper's non-monotonic dwell/wait relation) directly.
/// Each pole set must contain exactly n+1 poles (n plant states plus the
/// held-input state), be conjugation-closed, and lie inside the unit disc.
struct PolePlacementLoopSpec {
  double sampling_period = 0.02;
  double delay_tt = 0.0;
  double delay_et = 0.02;
  std::vector<std::complex<double>> poles_tt;
  std::vector<std::complex<double>> poles_et;
};

HybridLoopDesign design_hybrid_loops(const StateSpace& plant,
                                     const PolePlacementLoopSpec& spec);

/// Batched pole-placement design: result[i] is bit-identical to
/// design_hybrid_loops(*plants[i], *specs[i]) for every i (any count; the
/// call groups entries of equal (state, input) shape internally and runs
/// linalg::kSimdWidth lanes per batch).  The c2d_pair stage — where the
/// expm cost lives — runs through the batched SIMD kernels; Ackermann
/// pole placement and the spectral-radius audit stay scalar per lane
/// (data-dependent eliminations), operating on batch-produced matrices
/// that are bit-identical to the scalar path's, so the gains are too.
std::vector<HybridLoopDesign> design_hybrid_loops_batch(
    const std::vector<const StateSpace*>& plants,
    const std::vector<const PolePlacementLoopSpec*>& specs);

/// Helper: conjugate pair at radius rho and angle theta plus real poles
/// for the remaining states (all at `rest`).
std::vector<std::complex<double>> oscillatory_pole_set(double rho, double theta,
                                                       std::size_t total, double rest = 0.1);

/// Expand an n x n state weight to the (n+m) augmented problem by placing
/// `input_weight` on the u_prev block diagonal.
linalg::Matrix augment_state_weight(const linalg::Matrix& q, std::size_t input_dim,
                                    double input_weight);

}  // namespace cps::control
