#include "mtd/random_mtd.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "io/case_registry.hpp"

namespace mtdgrid::mtd {
namespace {

TEST(RandomMtdTest, OnlyDfactsBranchesPerturbed) {
  const grid::PowerSystem sys = io::load_case("case14");
  stats::Rng rng(1);
  const linalg::Vector x0 = sys.reactances();
  const linalg::Vector x = random_reactance_perturbation(sys, x0, 0.02, rng);
  const auto dfacts = sys.dfacts_branches();
  for (std::size_t l = 0; l < sys.num_branches(); ++l) {
    const bool is_dfacts =
        std::find(dfacts.begin(), dfacts.end(), l) != dfacts.end();
    if (!is_dfacts) EXPECT_DOUBLE_EQ(x[l], x0[l]) << "line " << l;
  }
}

TEST(RandomMtdTest, PerturbationWithinRequestedFraction) {
  const grid::PowerSystem sys = io::load_case("case14");
  stats::Rng rng(2);
  const linalg::Vector x0 = sys.reactances();
  for (int trial = 0; trial < 50; ++trial) {
    const linalg::Vector x =
        random_reactance_perturbation(sys, x0, 0.02, rng);
    for (std::size_t l : sys.dfacts_branches()) {
      EXPECT_LE(std::abs(x[l] - x0[l]) / x0[l], 0.02 + 1e-12);
    }
  }
}

TEST(RandomMtdTest, StaysWithinDeviceLimits) {
  const grid::PowerSystem sys = io::load_case("case14");
  stats::Rng rng(3);
  const linalg::Vector x0 = sys.reactances();
  for (int trial = 0; trial < 50; ++trial) {
    // Request a fraction beyond the 50% device range: must be clipped.
    const linalg::Vector x =
        random_reactance_perturbation(sys, x0, 0.9, rng);
    EXPECT_TRUE(sys.reactances_within_limits(x));
  }
}

TEST(RandomMtdTest, ActuallyPerturbsSomething) {
  const grid::PowerSystem sys = io::load_case("case14");
  stats::Rng rng(4);
  const linalg::Vector x0 = sys.reactances();
  const linalg::Vector x = random_reactance_perturbation(sys, x0, 0.02, rng);
  EXPECT_GT(linalg::max_abs_diff(x, x0), 1e-6);
}

TEST(RandomMtdTest, Reproducible) {
  const grid::PowerSystem sys = io::load_case("case14");
  stats::Rng rng_a(9), rng_b(9);
  const linalg::Vector x0 = sys.reactances();
  const linalg::Vector a = random_reactance_perturbation(sys, x0, 0.02, rng_a);
  const linalg::Vector b = random_reactance_perturbation(sys, x0, 0.02, rng_b);
  EXPECT_NEAR(linalg::max_abs_diff(a, b), 0.0, 0.0);
}

TEST(RandomMtdTest, ValidatesArguments) {
  const grid::PowerSystem sys = io::load_case("case14");
  stats::Rng rng(5);
  EXPECT_THROW(
      random_reactance_perturbation(sys, linalg::Vector(3, 0.1), 0.02, rng),
      std::invalid_argument);
  EXPECT_THROW(
      random_reactance_perturbation(sys, sys.reactances(), 0.0, rng),
      std::invalid_argument);
}

}  // namespace
}  // namespace mtdgrid::mtd
