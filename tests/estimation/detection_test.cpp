#include "estimation/detection.hpp"

#include <gtest/gtest.h>
#include <cmath>

#include "grid/measurement.hpp"
#include "io/case_registry.hpp"
#include "stats/rng.hpp"
#include "test_util.hpp"

namespace mtdgrid::estimation {
namespace {

struct Scenario {
  linalg::Matrix h_old;
  linalg::Matrix h_new;
};

Scenario make_scenario(double perturbation = 1.4) {
  const grid::PowerSystem sys = io::load_case("case14");
  Scenario s;
  s.h_old = grid::measurement_matrix(sys);
  linalg::Vector x = sys.reactances();
  for (std::size_t l : sys.dfacts_branches()) x[l] *= perturbation;
  s.h_new = grid::measurement_matrix(sys, x);
  return s;
}

TEST(DetectionTest, StealthyAttackDetectedAtFpRateOnly) {
  // Attack in the *new* column space: P_D == alpha by Proposition 1.
  const Scenario s = make_scenario();
  StateEstimator est(s.h_new, 1.0);
  BadDataDetector bdd(est, 0.01);
  stats::Rng rng(1);
  const linalg::Vector a = s.h_new * test::random_vector(s.h_new.cols(), rng);
  EXPECT_NEAR(analytic_detection_probability(est, bdd, a), 0.01, 1e-6);
}

TEST(DetectionTest, ZeroAttackGivesFpRate) {
  const Scenario s = make_scenario();
  StateEstimator est(s.h_new, 1.0);
  BadDataDetector bdd(est, 5e-4);
  EXPECT_NEAR(analytic_detection_probability(
                  est, bdd, linalg::Vector(s.h_new.rows())),
              5e-4, 1e-8);
}

TEST(DetectionTest, DetectionIncreasesWithAttackMagnitude) {
  // P_D is monotone in ||r'_a|| (paper Appendix B).
  const Scenario s = make_scenario();
  StateEstimator est(s.h_new, 0.5);
  BadDataDetector bdd(est, 5e-4);
  stats::Rng rng(2);
  const linalg::Vector base =
      s.h_old * test::random_vector(s.h_old.cols(), rng);
  double prev = 0.0;
  for (double scale : {0.5, 1.0, 2.0, 4.0, 8.0}) {
    const double pd =
        analytic_detection_probability(est, bdd, base * scale);
    EXPECT_GE(pd, prev - 1e-12);
    prev = pd;
  }
}

TEST(DetectionTest, OldSpaceAttacksAreDetectableAfterPerturbation) {
  // A random pre-perturbation attack has a component outside Col(H') and
  // is detected with probability well above alpha for large magnitudes.
  const Scenario s = make_scenario();
  StateEstimator est(s.h_new, 0.1);
  BadDataDetector bdd(est, 5e-4);
  stats::Rng rng(3);
  const linalg::Vector a =
      s.h_old * test::random_vector(s.h_old.cols(), rng, 1.0);
  EXPECT_GT(analytic_detection_probability(est, bdd, a), 0.99);
}

// Property: analytic and Monte-Carlo detection probabilities agree across
// attack magnitudes — the validation of the noncentral-chi-square model.
class DetectionAgreementProperty : public ::testing::TestWithParam<double> {};

TEST_P(DetectionAgreementProperty, AnalyticMatchesMonteCarlo) {
  const double scale = GetParam();
  const Scenario s = make_scenario();
  const double sigma = 1.0;
  StateEstimator est(s.h_new, sigma);
  BadDataDetector bdd(est, 0.01);

  stats::Rng rng(42);
  linalg::Vector c = test::random_vector(s.h_old.cols(), rng, 0.0);
  for (std::size_t i = 0; i < c.size(); ++i) c[i] = rng.gaussian();
  linalg::Vector a = s.h_old * c;
  a *= scale / a.norm();  // exact attack 2-norm = scale

  const double analytic = analytic_detection_probability(est, bdd, a);
  const int trials = 4000;
  const double mc = monte_carlo_detection_probability(
      est, bdd, linalg::Vector(a.size()), a, trials, rng);
  const double tol =
      4.0 * std::sqrt(std::max(analytic * (1 - analytic), 0.01) / trials) +
      0.01;
  EXPECT_NEAR(mc, analytic, tol) << "attack 2-norm " << scale;
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, DetectionAgreementProperty,
                         ::testing::Values(0.5, 2.0, 5.0, 8.0, 12.0));

TEST(DetectionTest, MonteCarloBaseSignalIrrelevant) {
  // The residual is invariant to any z_base in Col(H'), so detection must
  // not depend on the operating point used for the Monte-Carlo base.
  const Scenario s = make_scenario();
  StateEstimator est(s.h_new, 1.0);
  BadDataDetector bdd(est, 0.01);
  stats::Rng rng1(9), rng2(9);
  const linalg::Vector a =
      s.h_old * test::random_vector(s.h_old.cols(), rng1, 0.5);
  stats::Rng noise1(100), noise2(100);
  const double pd_origin = monte_carlo_detection_probability(
      est, bdd, linalg::Vector(a.size()), a, 2000, noise1);
  const linalg::Vector z_base =
      s.h_new * test::random_vector(s.h_new.cols(), rng2, 3.0);
  const double pd_shifted = monte_carlo_detection_probability(
      est, bdd, z_base, a, 2000, noise2);
  EXPECT_NEAR(pd_origin, pd_shifted, 1e-12);
}

}  // namespace
}  // namespace mtdgrid::estimation
