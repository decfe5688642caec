// Unit and property tests for the discrete Riccati solvers.
#include <gtest/gtest.h>

#include <cmath>

#include "linalg/eigen.hpp"
#include "linalg/matrix.hpp"
#include "linalg/riccati.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using cps::Rng;
using namespace cps::linalg;

Matrix random_stable(Rng& rng, std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) m(i, j) = rng.uniform(-1, 1);
  const double rho = spectral_radius(m);
  return m * (0.8 / std::max(rho, 0.1));
}

Matrix random_spd(Rng& rng, std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) m(i, j) = rng.uniform(-1, 1);
  return m * m.transpose() + Matrix::identity(n) * 0.1;
}

TEST(DareTest, ScalarClosedForm) {
  // Scalar DARE: x = a^2 x - a^2 b^2 x^2 / (r + b^2 x) + q.
  // With a = 1, b = 1, q = 1, r = 1 the stabilizing root satisfies
  // x^2 - x - 1 = 0 -> x = golden ratio.
  const auto result = solve_dare(Matrix{{1.0}}, Matrix{{1.0}}, Matrix{{1.0}}, Matrix{{1.0}});
  EXPECT_NEAR(result.x(0, 0), (1.0 + std::sqrt(5.0)) / 2.0, 1e-9);
  EXPECT_LT(result.residual, 1e-9);
}

TEST(DareTest, SdaAndIterativeAgree) {
  Rng rng(59);
  for (int trial = 0; trial < 15; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 4));
    const Matrix a = random_stable(rng, n) * 1.2;  // mildly expansive is fine
    Matrix b(n, 1);
    for (std::size_t i = 0; i < n; ++i) b(i, 0) = rng.uniform(0.2, 1.0);
    const Matrix q = random_spd(rng, n);
    const Matrix r = Matrix{{rng.uniform(0.1, 2.0)}};
    const auto sda = solve_dare(a, b, q, r);
    const auto it = solve_dare_iterative(a, b, q, r);
    EXPECT_TRUE(sda.x.approx_equal(it.x, 1e-6)) << "trial " << trial;
    EXPECT_LT(sda.residual, 1e-7);
  }
}

TEST(DareTest, GainStabilizesUnstablePlant) {
  // Discretized inverted-pendulum-like unstable plant.
  Matrix a{{1.1, 0.1}, {0.3, 1.05}};
  Matrix b{{0.0}, {0.5}};
  Matrix q = Matrix::identity(2);
  Matrix r{{1.0}};
  const auto result = solve_dare(a, b, q, r);
  const Matrix k = lqr_gain_from_dare(a, b, r, result.x);
  EXPECT_TRUE(is_schur_stable(a - b * k, 0.0));
}

TEST(DareTest, SolutionIsSymmetricPsd) {
  Rng rng(61);
  const Matrix a = random_stable(rng, 3);
  Matrix b(3, 1);
  for (std::size_t i = 0; i < 3; ++i) b(i, 0) = rng.uniform(0.1, 1.0);
  const auto result = solve_dare(a, b, random_spd(rng, 3), Matrix{{0.5}});
  EXPECT_TRUE(result.x.approx_equal(result.x.transpose(), 1e-9));
  for (const auto& e : eigenvalues(result.x)) EXPECT_GE(e.real(), -1e-9);
}

TEST(DareTest, ZeroQGivesMinimumEnergyMirror) {
  // With Q -> 0 the LQR merely mirrors the unstable pole: |closed-loop
  // pole| ~ 1 / |open-loop pole| for scalar systems.
  const double a = 1.5;
  const auto result = solve_dare(Matrix{{a}}, Matrix{{1.0}}, Matrix{{1e-12}}, Matrix{{1.0}});
  const Matrix k = lqr_gain_from_dare(Matrix{{a}}, Matrix{{1.0}}, Matrix{{1.0}}, result.x);
  EXPECT_NEAR(a - k(0, 0), 1.0 / a, 1e-4);
}

TEST(DareTest, DimensionValidation) {
  EXPECT_THROW(solve_dare(Matrix(2, 3), Matrix(2, 1), Matrix(2, 2), Matrix{{1.0}}),
               cps::DimensionMismatch);
  EXPECT_THROW(solve_dare(Matrix::identity(2), Matrix(3, 1), Matrix::identity(2), Matrix{{1.0}}),
               cps::DimensionMismatch);
  // Asymmetric Q rejected.
  Matrix q{{1.0, 0.5}, {0.0, 1.0}};
  EXPECT_THROW(solve_dare(Matrix::identity(2), Matrix{{0.0}, {1.0}}, q, Matrix{{1.0}}),
               cps::InvalidArgument);
}

TEST(DareTest, ResidualFunctionIsZeroAtSolution) {
  Matrix a{{0.9, 0.2}, {0.0, 0.8}};
  Matrix b{{0.0}, {1.0}};
  Matrix q = Matrix::identity(2);
  Matrix r{{1.0}};
  const auto result = solve_dare(a, b, q, r);
  EXPECT_LT(dare_residual(a, b, q, r, result.x), 1e-9);
  // And clearly nonzero away from it.
  EXPECT_GT(dare_residual(a, b, q, r, result.x + Matrix::identity(2)), 0.01);
}

}  // namespace
