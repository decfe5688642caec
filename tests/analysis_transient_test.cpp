// Tests for the transient-growth analysis: the bridge between the ET
// loop's non-normality, the non-monotonic dwell/wait relation, and the
// steady-state excursions after a TT-slot release.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/transient.hpp"
#include "linalg/matrix.hpp"
#include "plants/servo_motor.hpp"
#include "util/error.hpp"

namespace {

using namespace cps;
using namespace cps::analysis;
using linalg::Matrix;

TEST(TransientTest, NormalMatrixDoesNotGrow) {
  // Symmetric (normal) stable matrices satisfy ||A^k||_2 = rho^k <= 1.
  const Matrix a = Matrix::diagonal({0.8, 0.5});
  const TransientGrowth g = transient_growth(a);
  EXPECT_NEAR(g.peak_gain, 1.0, 1e-12);
  EXPECT_EQ(g.peak_step, 0u);
  EXPECT_FALSE(g.growing);
}

TEST(TransientTest, JordanBlockGrowsBeforeDecaying) {
  // [[r, c], [0, r]]: ||A^k|| ~ k c r^{k-1} initially grows for large c.
  Matrix a{{0.9, 2.0}, {0.0, 0.9}};
  const TransientGrowth g = transient_growth(a);
  EXPECT_TRUE(g.growing);
  EXPECT_GT(g.peak_gain, 2.0);
  EXPECT_GT(g.peak_step, 0u);
}

TEST(TransientTest, PeakGainBoundsSimulatedNormGrowth) {
  // Property: for any x0, max_k ||A^k x0|| <= peak_gain * ||x0||.
  Matrix a{{0.9, 1.5}, {-0.1, 0.85}};
  const TransientGrowth g = transient_growth(a);
  for (double angle = 0.0; angle < 6.28; angle += 0.37) {
    linalg::Vector x{std::cos(angle), std::sin(angle)};
    double peak = 0.0;
    for (int k = 0; k < 500; ++k) {
      peak = std::max(peak, x.norm());
      x = a * x;
    }
    EXPECT_LE(peak, g.peak_gain + 1e-9) << "angle " << angle;
  }
}

TEST(TransientTest, UnstableLoopRejected) {
  EXPECT_THROW(transient_growth(Matrix{{1.05}}), NumericalError);
}

TEST(TransientTest, ExcursionBoundArithmetic) {
  TransientGrowth g;
  g.peak_gain = 3.0;
  EXPECT_NEAR(excursion_bound(g, 0.1), 0.3, 1e-12);
  EXPECT_THROW(excursion_bound(g, -0.1), InvalidArgument);
}

TEST(TransientTest, RestrictedGrowthIgnoresHeldInputUnits) {
  // On the servo's augmented loop the held-input coordinate carries
  // actuator units; restricting to the plant states gives the growth the
  // threshold norm actually sees, which is far smaller.
  const auto design = plants::design_servo_loops();
  const TransientGrowth full = transient_growth(design.a_et);
  const TransientGrowth plant_only =
      transient_growth_restricted(design.a_et, design.state_dim);
  EXPECT_LT(plant_only.peak_gain, full.peak_gain);
  EXPECT_TRUE(plant_only.growing);
}

TEST(TransientTest, RestrictedGrowthBoundsPlantNormSimulation) {
  const auto design = plants::design_servo_loops();
  const TransientGrowth g = transient_growth_restricted(design.a_et, design.state_dim);
  // From any plant-state unit disturbance with zero held input, the plant
  // norm never exceeds gamma.
  for (double angle = 0.0; angle < 6.28; angle += 0.5) {
    linalg::Vector z{std::cos(angle), std::sin(angle), 0.0};
    double peak = 0.0;
    for (int k = 0; k < 400; ++k) {
      peak = std::max(peak, std::hypot(z[0], z[1]));
      z = design.a_et * z;
    }
    EXPECT_LE(peak, g.peak_gain + 1e-9) << "angle " << angle;
  }
}

TEST(TransientTest, RestrictedGrowthValidation) {
  EXPECT_THROW(transient_growth_restricted(Matrix::diagonal({0.5, 0.5}), 0), InvalidArgument);
  EXPECT_THROW(transient_growth_restricted(Matrix::diagonal({0.5, 0.5}), 3), InvalidArgument);
  EXPECT_THROW(transient_growth_restricted(Matrix{{1.2}}, 1), NumericalError);
}

TEST(TransientTest, ServoEtLoopIsTheNonMonotonicityDriver) {
  // The servo's ET loop must exhibit transient growth — that growth IS the
  // rising phase of the paper's Fig. 3 curve.
  const auto design = plants::design_servo_loops();
  const TransientGrowth et = transient_growth(design.a_et);
  EXPECT_TRUE(et.growing);
  // The TT loop grows less than the ET loop (its job is crisp rejection).
  const TransientGrowth tt = transient_growth(design.a_tt);
  EXPECT_LT(tt.peak_gain, et.peak_gain);
}

}  // namespace
