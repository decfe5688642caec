// Piecewise-linear models of the dwell-time-vs-wait-time relation
// (paper Section III, Fig. 4).
//
// The schedulability analysis never uses the raw measured curve; it uses a
// model that must OVER-approximate it ("the actual curve must be entirely
// below the model... otherwise deadlines may be violated").  Three models
// from the paper, plus the concave-hull envelope for the ablation study:
//
//  * NonMonotonicModel   — the paper's two-piece "tent": a rising line
//    (0, xi_tt) -> (k_p, xi_m) and a falling line (k_p, xi_m) ->
//    (xi_et, 0).  Fitted from a measured curve, the two pieces are support
//    lines of the curve's least concave majorant (each hull edge, extended,
//    dominates the entire curve), anchored at the peak.
//  * ConservativeMonotonicModel — one falling line; from Table I data it is
//    the falling piece extended back to wait 0, giving the intercept
//    xi'_m = xi_m * xi_et / (xi_et - k_p).  Safe but over-provisions.
//  * SimpleMonotonicModel — straight line from (0, xi_tt) to (xi_et, 0).
//    UNSAFE (underestimates dwell between the endpoints); included to
//    demonstrate the paper's point that deadlines would be violated.
//  * ConcaveEnvelopeModel — the least concave majorant itself (the
//    N -> infinity limit of the paper's "three or more piecewise linear
//    curves" remark); tightest sound concave envelope.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/dwell_wait.hpp"

namespace cps::analysis {

/// Bitwise double equality (distinguishes -0.0 from 0.0 and NaN
/// payloads) — the strictest notion of "the analysis cannot tell these
/// values apart".  Shared by the model-identity checks below
/// (same_curve) and the slot allocator's twin detection, which must
/// agree exactly for the symmetry screen to be sound.
inline bool bits_equal(double a, double b) {
  std::uint64_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof(a));
  std::memcpy(&bb, &b, sizeof(b));
  return ba == bb;
}

/// Interface of all dwell/wait models (times in seconds).
class DwellWaitModel {
 public:
  virtual ~DwellWaitModel() = default;

  /// Modeled dwell time for a given wait time (>= 0; 0 once the
  /// disturbance would already be rejected in ET mode).
  virtual double dwell(double wait) const = 0;

  /// Maximum dwell over all wait times — the interference one instance of
  /// this application inflicts on TT-slot contenders (xi^M / xi'^M).
  virtual double max_dwell() const = 0;

  /// Wait time beyond which the modeled dwell is zero.
  virtual double zero_wait() const = 0;

  /// Short, stable identifier of the model family (used in tables/CSV).
  virtual std::string name() const = 0;

  /// Total response time xi = k_wait + k_dw for a given wait.
  double response(double wait) const { return wait + dwell(wait); }

  /// True iff the model dominates the measured curve pointwise
  /// (soundness requirement of Section III).
  bool dominates(const sim::DwellWaitCurve& curve, double tol = 1e-9) const;

  /// Largest under-approximation versus the curve (0 when sound).
  double max_violation(const sim::DwellWaitCurve& curve) const;

  /// Sound lower bound on inf over w >= wait of response(w).  Used by the
  /// slot allocator's never-feasible screen (its conflict pairs and its
  /// look-ahead): once an application's wait in any candidate slot is
  /// known to be at least `wait`, a bound above the deadline proves the
  /// slot infeasible without running the analysis.
  /// The base implementation returns `wait` (dwell times are
  /// non-negative), which is always sound; piecewise-linear models
  /// override it with the exact infimum over their breakpoints.
  virtual double min_response_from(double wait) const { return wait; }

  /// True when `other` models the IDENTICAL dwell/wait curve (same family,
  /// bitwise-equal parameters), so the schedulability analysis cannot
  /// distinguish the two applications.  Used by the slot allocator's
  /// symmetry breaking; the base implementation (object identity) is the
  /// sound fallback for model families that do not override it.
  virtual bool same_curve(const DwellWaitModel& other) const { return this == &other; }
};

/// Shared-ownership handle used across the analysis layer.
using ModelPtr = std::shared_ptr<const DwellWaitModel>;

/// A line d = intercept + slope * w (support line of an envelope).
struct EnvelopeLine {
  double intercept = 0.0;  ///< dwell at wait 0
  double slope = 0.0;      ///< d(dwell)/d(wait)
  /// Value of the line at wait `w`.
  double at(double w) const { return intercept + slope * w; }
};

/// Least concave majorant vertices of a measured curve: (wait, dwell)
/// pairs in increasing wait order, ending in a zero-dwell terminal point
/// one sample past the sweep.  Shared by the fit routines.
std::vector<std::pair<double, double>> concave_hull(const sim::DwellWaitCurve& curve);

/// The paper's two-piece non-monotonic envelope.
class NonMonotonicModel final : public DwellWaitModel {
 public:
  /// From characteristic values (e.g. Table I rows): rising line through
  /// (0, xi_tt) and (k_p, xi_m), falling line through (k_p, xi_m) and
  /// (xi_et, 0).  k_p = 0 degenerates to the falling line with a flat cap
  /// at xi_m.
  NonMonotonicModel(double xi_tt, double xi_m, double k_p, double xi_et);

  /// Tightest-at-the-peak two-piece envelope of a measured curve: the two
  /// concave-hull edges incident to the hull's maximum vertex, extended.
  static NonMonotonicModel fit(const sim::DwellWaitCurve& curve);

  double dwell(double wait) const override;
  double max_dwell() const override { return xi_m_; }
  double zero_wait() const override { return zero_wait_; }
  std::string name() const override { return "non-monotonic"; }
  double min_response_from(double wait) const override;
  bool same_curve(const DwellWaitModel& other) const override;

  /// Modeled dwell at wait 0 (the pure-TT settling time).
  double xi_tt() const { return rising_.at(0.0); }
  /// Peak dwell xi^M of the tent.
  double xi_m() const { return xi_m_; }
  /// Wait time at the peak.
  double k_p() const { return k_p_; }

 private:
  NonMonotonicModel(EnvelopeLine rising, EnvelopeLine falling);

  EnvelopeLine rising_;   // slope >= 0 (slope 0 = flat cap)
  EnvelopeLine falling_;  // slope < 0
  double xi_m_ = 0.0;     // peak of min(rising, falling)
  double k_p_ = 0.0;      // wait at the peak
  double zero_wait_ = 0.0;
};

/// The safe single-line monotonic envelope (paper's comparison baseline).
class ConservativeMonotonicModel final : public DwellWaitModel {
 public:
  /// Falling line from (0, xi'_m) to (xi_et, 0).
  ConservativeMonotonicModel(double xi_m_prime, double xi_et);

  /// From the non-monotonic characteristics: extend the falling piece back
  /// to wait 0 (Table I's xi'^M column).
  static ConservativeMonotonicModel from_non_monotonic(double xi_m, double k_p, double xi_et);

  /// From a measured curve: the concave-hull edge right of the peak,
  /// extended in both directions (a support line, hence sound).
  static ConservativeMonotonicModel fit(const sim::DwellWaitCurve& curve);

  double dwell(double wait) const override;
  double max_dwell() const override { return xi_m_prime_; }
  double zero_wait() const override { return xi_et_; }
  std::string name() const override { return "conservative-monotonic"; }
  double min_response_from(double wait) const override;
  bool same_curve(const DwellWaitModel& other) const override;

  /// The over-provisioned maximum dwell xi'^M (Table I's xi'^M column).
  double xi_m_prime() const { return xi_m_prime_; }

 private:
  double xi_m_prime_;
  double xi_et_;
};

/// The unsafe straight line from (0, xi_tt) to (xi_et, 0).
class SimpleMonotonicModel final : public DwellWaitModel {
 public:
  /// Straight line from (0, xi_tt) to (xi_et, 0).
  SimpleMonotonicModel(double xi_tt, double xi_et);

  /// Fit from a measured curve's endpoints (xi_tt, xi_et).
  static SimpleMonotonicModel fit(const sim::DwellWaitCurve& curve);

  double dwell(double wait) const override;
  double max_dwell() const override { return xi_tt_; }
  double zero_wait() const override { return xi_et_; }
  std::string name() const override { return "simple-monotonic"; }
  double min_response_from(double wait) const override;
  bool same_curve(const DwellWaitModel& other) const override;

 private:
  double xi_tt_;
  double xi_et_;
};

/// Least concave majorant of a measured curve (piecewise linear, as many
/// pieces as the upper hull needs).
class ConcaveEnvelopeModel final : public DwellWaitModel {
 public:
  /// Build the least concave majorant of a measured curve.
  explicit ConcaveEnvelopeModel(const sim::DwellWaitCurve& curve);

  double dwell(double wait) const override;
  double max_dwell() const override;
  double zero_wait() const override;
  std::string name() const override { return "concave-envelope"; }
  double min_response_from(double wait) const override;
  bool same_curve(const DwellWaitModel& other) const override;

  /// Number of linear pieces of the hull.
  std::size_t piece_count() const;

 private:
  std::vector<std::pair<double, double>> hull_;
};

}  // namespace cps::analysis
