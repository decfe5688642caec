// Transient-growth analysis of the mode closed loops.
//
// A Schur-stable loop can still amplify ||x|| transiently (non-normal A:
// ||A^k|| > 1 before the asymptotic decay wins).  Two consequences matter
// for the paper's scheme:
//
//  * the ET loop's transient growth is exactly what makes the dwell/wait
//    relation non-monotonic (Section III) — the growth envelope bounds how
//    much dwell a longer wait can cost;
//  * after an application releases its TT slot at ||x|| = E_th, the ET
//    loop may transiently push the norm back above the threshold
//    (steady-state excursions, cf. core/co_simulation.hpp).  The excursion
//    factor computed here bounds that re-crossing: with
//    gamma = max_k ||A_et^k||_2, the post-release norm never exceeds
//    gamma * E_th, and excursions are impossible iff gamma <= 1.
#pragma once

#include <cstddef>

#include "linalg/matrix.hpp"

namespace cps::analysis {

/// Growth envelope of a discrete loop: gamma = max_{0 <= k <= horizon}
/// ||A^k||_2 and the step attaining it.
struct TransientGrowth {
  double peak_gain = 1.0;   ///< gamma >= 1 (k = 0 gives the identity)
  std::size_t peak_step = 0;
  bool growing = false;     ///< gamma > 1 + tol: the loop is non-normal enough
                            ///  to amplify some initial state
};

struct TransientGrowthOptions {
  std::size_t max_steps = 5000;
  /// Stop early once ||A^k||_2 has decayed below this fraction of the
  /// running peak (the envelope of a stable loop is eventually decreasing).
  double decay_stop = 1e-3;
  double tol = 1e-9;
};

/// Reusable scratch of the matrix-power recursion: the running power and
/// its double buffer.  One workspace per SweepRunner worker lets sweep
/// bodies compute many envelopes without reallocating the pair (both
/// matrices are fully overwritten per call).
struct TransientWorkspace {
  linalg::Matrix power;
  linalg::Matrix scratch;
};

/// Compute the growth envelope of a Schur-stable `a`.  Throws
/// NumericalError when `a` is not Schur stable (the envelope diverges).
/// The matrix-power recursion runs on double-buffered in-place kernels.
TransientGrowth transient_growth(const linalg::Matrix& a,
                                 const TransientGrowthOptions& opts = {});

/// Workspace-threading overload (bit-identical envelope, buffers reused
/// from `workspace`).
TransientGrowth transient_growth(const linalg::Matrix& a, const TransientGrowthOptions& opts,
                                 TransientWorkspace& workspace);

/// Growth envelope restricted to the leading `norm_dim` coordinates on
/// both sides: gamma = max_k ||P A^k P^T||_2 with P selecting the first
/// norm_dim states.  This is the growth the paper's threshold norm ||x||
/// actually sees on the augmented loops (the held-input coordinate carries
/// actuator units and would otherwise distort the 2-norm), assuming the
/// held input is at its steady value when the excursion starts.
TransientGrowth transient_growth_restricted(const linalg::Matrix& a, std::size_t norm_dim,
                                            const TransientGrowthOptions& opts = {});

/// Workspace-threading overload of transient_growth_restricted()
/// (bit-identical envelope, buffers reused from `workspace`).
TransientGrowth transient_growth_restricted(const linalg::Matrix& a, std::size_t norm_dim,
                                            const TransientGrowthOptions& opts,
                                            TransientWorkspace& workspace);

/// Upper bound on the steady-state excursion after a TT-slot release at
/// the norm threshold: peak_gain * threshold.  The scheme is chatter-free
/// iff this is <= threshold, i.e. peak_gain <= 1.
double excursion_bound(const TransientGrowth& growth, double threshold);

}  // namespace cps::analysis
