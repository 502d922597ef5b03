#include "linalg/least_squares.hpp"

#include <gtest/gtest.h>

#include "stats/rng.hpp"
#include "test_util.hpp"

namespace mtdgrid::linalg {
namespace {

TEST(LeastSquaresTest, UniformWeightsMatchOls) {
  stats::Rng rng(1);
  const Matrix a = test::random_matrix(9, 4, rng);
  const Vector b = test::random_vector(9, rng);
  const Vector x_wls =
      solve_weighted_least_squares(a, Vector(9, 1.0), b);
  const Vector x_ols = solve_least_squares(a, b);
  EXPECT_NEAR(max_abs_diff(x_wls, x_ols), 0.0, 1e-8);
}

TEST(LeastSquaresTest, RecoverExactSolution) {
  stats::Rng rng(2);
  const Matrix a = test::random_matrix(10, 3, rng);
  const Vector x_true = test::random_vector(3, rng);
  const Vector x = solve_weighted_least_squares(a, Vector(10, 2.0), a * x_true);
  EXPECT_NEAR(max_abs_diff(x, x_true), 0.0, 1e-9);
}

TEST(LeastSquaresTest, WeightedResidualOrthogonality) {
  // WLS optimality: A^T W r = 0.
  stats::Rng rng(3);
  const Matrix a = test::random_matrix(8, 3, rng);
  const Vector b = test::random_vector(8, rng);
  Vector w(8);
  for (std::size_t i = 0; i < 8; ++i) w[i] = 0.5 + rng.uniform();
  const Vector x = solve_weighted_least_squares(a, w, b);
  const Vector r = b - a * x;
  const Vector atwr = a.transpose_times(w.hadamard(r));
  EXPECT_NEAR(atwr.norm_inf(), 0.0, 1e-9);
}

TEST(LeastSquaresTest, HeavyWeightPullsFitTowardThatRow) {
  // Two inconsistent equations for one unknown: x = 0 and x = 1.
  Matrix a{{1.0}, {1.0}};
  Vector b{0.0, 1.0};
  const Vector balanced = solve_weighted_least_squares(a, Vector{1.0, 1.0}, b);
  EXPECT_NEAR(balanced[0], 0.5, 1e-12);
  const Vector skewed =
      solve_weighted_least_squares(a, Vector{1.0, 99.0}, b);
  EXPECT_NEAR(skewed[0], 0.99, 1e-12);
}

TEST(LeastSquaresTest, ThrowsOnRankDeficiency) {
  Matrix a(5, 2);
  for (std::size_t i = 0; i < 5; ++i) {
    a(i, 0) = 1.0;
    a(i, 1) = 3.0;
  }
  EXPECT_THROW(
      solve_weighted_least_squares(a, Vector(5, 1.0), Vector(5, 1.0)),
      std::runtime_error);
}

// Property: WLS solution minimizes the weighted residual against random
// competitor points.
class WlsOptimalityProperty : public ::testing::TestWithParam<int> {};

TEST_P(WlsOptimalityProperty, BeatsRandomCompetitors) {
  stats::Rng rng(GetParam() + 40);
  const Matrix a = test::random_matrix(10, 3, rng);
  const Vector b = test::random_vector(10, rng);
  Vector w(10);
  for (std::size_t i = 0; i < 10; ++i) w[i] = 0.1 + rng.uniform();
  const Vector x = solve_weighted_least_squares(a, w, b);
  const auto weighted_ss = [&](const Vector& point) {
    const Vector r = b - a * point;
    return r.hadamard(r).dot(w);
  };
  const double best = weighted_ss(x);
  for (int trial = 0; trial < 20; ++trial) {
    const Vector competitor = x + test::random_vector(3, rng, 0.3);
    EXPECT_LE(best, weighted_ss(competitor) + 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WlsOptimalityProperty,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace mtdgrid::linalg
