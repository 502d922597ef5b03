#include "oracles/dense_wls.hpp"

#include <gtest/gtest.h>

#include "stats/rng.hpp"
#include "test_util.hpp"

namespace mtdgrid::linalg {
namespace {

// The weighted hat matrix K of the dense WLS oracle: the projection whose
// complement (I - K) is the residual operator the oracle applies.

TEST(HatMatrixTest, IsIdempotentProjection) {
  stats::Rng rng(4);
  const Matrix a = test::random_matrix(7, 3, rng);
  Vector w(7);
  for (std::size_t i = 0; i < 7; ++i) w[i] = 1.0 + rng.uniform();
  const Matrix k = oracles::weighted_hat_matrix(a, w);
  EXPECT_NEAR(max_abs_diff(k * k, k), 0.0, 1e-8);
}

TEST(HatMatrixTest, FixesColumnSpace) {
  stats::Rng rng(5);
  const Matrix a = test::random_matrix(8, 3, rng);
  const Matrix k = oracles::weighted_hat_matrix(a, Vector(8, 1.0));
  EXPECT_NEAR(max_abs_diff(k * a, a), 0.0, 1e-8);
}

TEST(HatMatrixTest, ResidualOperatorAnnihilatesColumnSpace) {
  // (I - K) H c == 0: exactly why a = Hc bypasses the BDD (paper App. A).
  stats::Rng rng(6);
  const Matrix h = test::random_matrix(9, 4, rng);
  const Matrix k = oracles::weighted_hat_matrix(h, Vector(9, 4.0));
  const Vector c = test::random_vector(4, rng);
  const Vector residual = h * c - k * (h * c);
  EXPECT_NEAR(residual.norm_inf(), 0.0, 1e-8);
}

}  // namespace
}  // namespace mtdgrid::linalg
