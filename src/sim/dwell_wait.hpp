// Measurement of the dwell-time-vs-wait-time relation (paper Fig. 3).
//
// For every wait time kwait in [0, xi_et] the simulator evolves the ET
// loop for kwait steps and then counts the TT-mode steps needed to settle
// below E_th.  The resulting curve is the empirical k_dw(k_wait) that the
// analysis layer over-approximates with piecewise-linear envelope models
// (paper Fig. 4).
#pragma once

#include <cstddef>
#include <vector>

#include "sim/settling.hpp"
#include "sim/switched_system.hpp"

namespace cps::sim {

/// One measured point of the curve (both step and second units).
struct DwellWaitPoint {
  std::size_t wait_steps = 0;
  std::size_t dwell_steps = 0;
  double wait_s = 0.0;
  double dwell_s = 0.0;
};

/// The measured curve plus the characteristic values derived from it.
class DwellWaitCurve {
 public:
  DwellWaitCurve(double sampling_period, std::vector<DwellWaitPoint> points);

  const std::vector<DwellWaitPoint>& points() const { return points_; }
  double sampling_period() const { return h_; }
  bool empty() const { return points_.empty(); }

  /// xi^TT: settling time with pure TT communication (= dwell at wait 0) [s].
  double xi_tt() const;

  /// xi^ET: settling time with pure ET communication (= largest measured
  /// wait time; by construction the sweep runs exactly up to it) [s].
  double xi_et() const;

  /// xi^M: maximum dwell time over all wait times [s].
  double xi_m() const;

  /// k_p: (smallest) wait time at which the dwell is maximal [s].
  double k_p() const;

  /// Total response time wait + dwell for a measured point [s].
  double response_at(std::size_t index) const;

  /// True iff the measured curve is non-monotonic (some dwell increase).
  bool is_non_monotonic() const;

 private:
  double h_;
  std::vector<DwellWaitPoint> points_;  // indexed by wait_steps
};

struct DwellWaitSweepOptions {
  SettlingOptions settling;
  /// Cap on the sweep length in steps (guards against ET loops that barely
  /// settle); the sweep normally stops at xi_et.
  std::size_t max_wait_steps = 100000;
};

/// Reusable scratch of one dwell/wait sweep: the carried ET prefix
/// state, the per-point TT settle buffer and the shared matvec scratch,
/// plus the SoA lane buffers of the batched TT settle (linalg::kSimdWidth
/// wait points per lockstep group).  A SweepRunner worker keeps one of
/// these across every curve it measures (runtime/sweep_runner.hpp,
/// run_with_workspace), so back-to-back sweeps stop paying the per-call
/// allocations.  All contents are fully overwritten per call — results
/// never depend on what a previous sweep left behind.
struct DwellWaitWorkspace {
  std::vector<double> et_state;
  std::vector<double> tt_state;
  std::vector<double> scratch;
  linalg::BatchVec batch_state;
  linalg::BatchVec batch_scratch;
};

/// Run the full sweep.  Throws NumericalError when either pure-mode loop
/// fails to settle within the caps (e.g. unstable configurations).
///
/// Incremental kernel: the ET-mode state at wait w is advanced one step
/// from the state at wait w - 1 (instead of re-simulating the w-step
/// prefix from x0 per grid point), and the per-point TT settling runs on
/// reusable buffers.  Both reuse the exact floating-point operation order
/// of the naive kernel, so the curve is bit-identical to
/// measure_dwell_wait_curve_reference (oracles/reference.hpp) for every
/// input.
DwellWaitCurve measure_dwell_wait_curve(const SwitchedLinearSystem& sys,
                                        const linalg::Vector& x0, double sampling_period,
                                        const DwellWaitSweepOptions& opts);

/// Workspace-threading overload for sweep bodies that measure many
/// curves: identical arithmetic (bit-identical curve), scratch reused
/// from `workspace` instead of allocated per call.
DwellWaitCurve measure_dwell_wait_curve(const SwitchedLinearSystem& sys,
                                        const linalg::Vector& x0, double sampling_period,
                                        const DwellWaitSweepOptions& opts,
                                        DwellWaitWorkspace& workspace);

}  // namespace cps::sim
