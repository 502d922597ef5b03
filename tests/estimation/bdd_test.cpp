#include "estimation/bdd.hpp"

#include <gtest/gtest.h>
#include <cmath>

#include "grid/measurement.hpp"
#include "io/case_registry.hpp"
#include "stats/rng.hpp"

namespace mtdgrid::estimation {
namespace {

StateEstimator make_estimator(double sigma = 1.0) {
  const grid::PowerSystem sys = io::load_case("case14");
  return StateEstimator(grid::measurement_matrix(sys), sigma);
}

TEST(BddTest, ThresholdDecreasesWithAlpha) {
  const StateEstimator est = make_estimator();
  const BadDataDetector strict(est, 1e-4);
  const BadDataDetector loose(est, 0.1);
  EXPECT_GT(strict.threshold(), loose.threshold());
}

TEST(BddTest, RejectsInvalidFpRate) {
  const StateEstimator est = make_estimator();
  EXPECT_THROW(BadDataDetector(est, 0.0), std::invalid_argument);
  EXPECT_THROW(BadDataDetector(est, 1.0), std::invalid_argument);
  EXPECT_THROW(BadDataDetector(est, -0.5), std::invalid_argument);
}

TEST(BddTest, AlarmLogic) {
  const StateEstimator est = make_estimator();
  const BadDataDetector bdd(est, 0.05);
  EXPECT_FALSE(bdd.alarm(bdd.threshold() * 0.99));
  EXPECT_TRUE(bdd.alarm(bdd.threshold()));
  EXPECT_TRUE(bdd.alarm(bdd.threshold() * 1.01));
}

TEST(BddTest, DofMatchesEstimator) {
  const StateEstimator est = make_estimator();
  const BadDataDetector bdd(est, 0.05);
  EXPECT_EQ(bdd.dof(), est.residual_dof());
}

// Property: the empirical false-positive rate under attack-free Gaussian
// noise matches the calibrated alpha across a grid of alphas. This is the
// chi-square calibration claim of the paper's Section III.
class BddCalibrationProperty : public ::testing::TestWithParam<double> {};

TEST_P(BddCalibrationProperty, EmpiricalFpRateMatchesAlpha) {
  const double alpha = GetParam();
  const double sigma = 0.8;
  const StateEstimator est = make_estimator(sigma);
  const BadDataDetector bdd(est, alpha);

  stats::Rng rng(77);
  const int trials = 20000;
  int alarms = 0;
  linalg::Vector z(est.num_measurements());
  for (int t = 0; t < trials; ++t) {
    for (std::size_t i = 0; i < z.size(); ++i)
      z[i] = rng.gaussian(0.0, sigma);
    if (bdd.alarm(est.normalized_residual_norm(z))) ++alarms;
  }
  const double empirical = static_cast<double>(alarms) / trials;
  // Binomial tolerance: 4 standard deviations.
  const double tol =
      4.0 * std::sqrt(alpha * (1.0 - alpha) / trials) + 2e-4;
  EXPECT_NEAR(empirical, alpha, tol);
}

INSTANTIATE_TEST_SUITE_P(Alphas, BddCalibrationProperty,
                         ::testing::Values(0.002, 0.01, 0.05, 0.2));

TEST(BddTest, FpRateInvariantToMtdPerturbation) {
  // "MTD does not alter the FP rate of the BDD" (paper Section VII-B):
  // the threshold recalibrates with H' and the dof is unchanged.
  const grid::PowerSystem sys = io::load_case("case14");
  linalg::Vector x = sys.reactances();
  for (std::size_t l : sys.dfacts_branches()) x[l] *= 1.3;
  const StateEstimator before(grid::measurement_matrix(sys), 1.0);
  const StateEstimator after(grid::measurement_matrix(sys, x), 1.0);
  const BadDataDetector bdd_before(before, 5e-4);
  const BadDataDetector bdd_after(after, 5e-4);
  EXPECT_EQ(bdd_before.dof(), bdd_after.dof());
  EXPECT_DOUBLE_EQ(bdd_before.threshold(), bdd_after.threshold());
}

}  // namespace
}  // namespace mtdgrid::estimation
