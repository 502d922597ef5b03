#include "linalg/qr.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "stats/rng.hpp"
#include "test_util.hpp"

namespace mtdgrid::linalg {
namespace {

TEST(QrTest, ReconstructsInput) {
  stats::Rng rng(1);
  const Matrix a = test::random_matrix(6, 4, rng);
  QrDecomposition qr(a);
  EXPECT_NEAR(max_abs_diff(qr.q_thin() * qr.r(), a), 0.0, 1e-10);
}

TEST(QrTest, ThinQHasOrthonormalColumns) {
  stats::Rng rng(2);
  const Matrix a = test::random_matrix(7, 3, rng);
  QrDecomposition qr(a);
  const Matrix qtq = qr.q_thin().transpose_times(qr.q_thin());
  EXPECT_NEAR(max_abs_diff(qtq, Matrix::identity(3)), 0.0, 1e-10);
}

TEST(QrTest, RIsUpperTriangular) {
  stats::Rng rng(3);
  const Matrix a = test::random_matrix(5, 5, rng);
  QrDecomposition qr(a);
  for (std::size_t i = 1; i < 5; ++i)
    for (std::size_t j = 0; j < i; ++j)
      EXPECT_NEAR(qr.r()(i, j), 0.0, 1e-12);
}

TEST(QrTest, FullRankDetection) {
  stats::Rng rng(4);
  const Matrix a = test::random_matrix(6, 4, rng);
  EXPECT_EQ(QrDecomposition(a).rank(), 4u);
}

TEST(QrTest, RankDeficientDetection) {
  // Third column = first + second.
  Matrix a(5, 3);
  stats::Rng rng(5);
  for (std::size_t i = 0; i < 5; ++i) {
    a(i, 0) = rng.gaussian();
    a(i, 1) = rng.gaussian();
    a(i, 2) = a(i, 0) + a(i, 1);
  }
  EXPECT_EQ(QrDecomposition(a).rank(), 2u);
}

TEST(QrTest, LeastSquaresMatchesExactSolve) {
  // Consistent overdetermined system: b in range(A).
  stats::Rng rng(6);
  const Matrix a = test::random_matrix(8, 3, rng);
  const Vector x_true = test::random_vector(3, rng);
  const Vector b = a * x_true;
  const Vector x = QrDecomposition(a).solve_least_squares(b);
  EXPECT_NEAR(max_abs_diff(x, x_true), 0.0, 1e-9);
}

TEST(QrTest, LeastSquaresResidualOrthogonalToRange) {
  stats::Rng rng(7);
  const Matrix a = test::random_matrix(10, 4, rng);
  const Vector b = test::random_vector(10, rng);
  const Vector x = QrDecomposition(a).solve_least_squares(b);
  const Vector r = b - a * x;
  const Vector atr = a.transpose_times(r);
  EXPECT_NEAR(atr.norm_inf(), 0.0, 1e-9);
}

TEST(QrTest, LeastSquaresThrowsOnRankDeficiency) {
  Matrix a(4, 2);
  for (std::size_t i = 0; i < 4; ++i) {
    a(i, 0) = 1.0;
    a(i, 1) = 2.0;  // parallel columns
  }
  EXPECT_THROW(QrDecomposition(a).solve_least_squares(Vector(4, 1.0)),
               std::runtime_error);
}

// --- implicit Q: apply_qt / apply_q -------------------------------------

TEST(QrImplicitQTest, ThinQIsApplyQOfLeadingIdentity) {
  stats::Rng rng(11);
  const Matrix a = test::random_matrix(9, 4, rng);
  const QrDecomposition qr(a);
  Matrix e(9, 4);
  for (std::size_t j = 0; j < 4; ++j) e(j, j) = 1.0;
  const Matrix q = qr.q_thin();
  const Matrix applied = qr.apply_q(e);
  ASSERT_EQ(q.rows(), applied.rows());
  ASSERT_EQ(q.cols(), applied.cols());
  for (std::size_t i = 0; i < q.rows(); ++i)
    for (std::size_t j = 0; j < q.cols(); ++j)
      EXPECT_EQ(q(i, j), applied(i, j)) << i << "," << j;
}

TEST(QrImplicitQTest, ApplyQtInvertsApplyQ) {
  stats::Rng rng(12);
  const Matrix a = test::random_matrix(11, 5, rng);
  const Matrix x = test::random_matrix(11, 3, rng);
  const QrDecomposition qr(a);
  EXPECT_LT(max_abs_diff(qr.apply_qt(qr.apply_q(x)), x), 1e-12);
  EXPECT_LT(max_abs_diff(qr.apply_q(qr.apply_qt(x)), x), 1e-12);
}

TEST(QrImplicitQTest, ApplyQtOfInputIsRPaddedWithZeros) {
  stats::Rng rng(13);
  const std::size_t m = 10;
  const std::size_t n = 4;
  const Matrix a = test::random_matrix(m, n, rng);
  const QrDecomposition qr(a);
  const Matrix qta = qr.apply_qt(a);
  EXPECT_LT(max_abs_diff(qta.block(0, 0, n, n), qr.r()), 1e-12);
  EXPECT_LT(qta.block(n, 0, m - n, n).max_abs(), 1e-12);
}

TEST(OrthonormalBasisTest, SpansInputAndIsOrthonormal) {
  stats::Rng rng(8);
  const Matrix a = test::random_matrix(7, 3, rng);
  const Matrix q = orthonormal_column_basis(a);
  ASSERT_EQ(q.cols(), 3u);
  EXPECT_NEAR(max_abs_diff(q.transpose_times(q), Matrix::identity(3)), 0.0,
              1e-10);
  // Projection of A onto span(Q) recovers A.
  const Matrix proj = q * q.transpose_times(a);
  EXPECT_NEAR(max_abs_diff(proj, a), 0.0, 1e-9);
}

TEST(OrthonormalBasisTest, DropsDependentColumns) {
  stats::Rng rng(9);
  Matrix a(6, 4);
  const Vector u = test::random_vector(6, rng);
  const Vector v = test::random_vector(6, rng);
  a.set_col(0, u);
  a.set_col(1, v);
  a.set_col(2, u + v);
  a.set_col(3, u - v);
  EXPECT_EQ(orthonormal_column_basis(a).cols(), 2u);
}

TEST(OrthonormalBasisTest, ZeroMatrixGivesEmptyBasis) {
  const Matrix a(5, 3);
  EXPECT_EQ(orthonormal_column_basis(a).cols(), 0u);
}

TEST(RankTest, WideMatrixUsesRowRank) {
  Matrix a{{1.0, 2.0, 3.0, 4.0}, {2.0, 4.0, 6.0, 8.0}};
  EXPECT_EQ(rank(a), 1u);
}

// Property: rank(A) == rank(A^T) == min(m, n) for random dense matrices.
class QrRankProperty : public ::testing::TestWithParam<int> {};

TEST_P(QrRankProperty, RandomMatricesHaveFullRank) {
  stats::Rng rng(GetParam() + 1000);
  const std::size_t m = 3 + static_cast<std::size_t>(GetParam()) % 5;
  const std::size_t n = 2 + static_cast<std::size_t>(GetParam()) % 3;
  const Matrix a = test::random_matrix(m + n, n, rng);
  EXPECT_EQ(rank(a), n);
  EXPECT_EQ(rank(a.transposed()), n);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QrRankProperty, ::testing::Range(0, 10));

// --- Householder thin-QR orthonormal basis ------------------------------

class QrBasisProperty : public ::testing::TestWithParam<int> {};

TEST_P(QrBasisProperty, BasisIsOrthonormalAndSpansColumnSpace) {
  stats::Rng rng(800 + GetParam());
  const std::size_t m = 8 + 9 * GetParam();
  const std::size_t n = 2 + GetParam() % 7;
  const Matrix a = test::random_matrix(m, n, rng);
  const Matrix q = orthonormal_basis_qr(a);
  ASSERT_EQ(q.rows(), m);
  ASSERT_EQ(q.cols(), n);
  // Q^T Q = I.
  const Matrix gram = q.transpose_times(q);
  EXPECT_LT(max_abs_diff(gram, Matrix::identity(n)), 1e-12);
  // Every column of a is reproduced by the projection Q Q^T a.
  const Matrix projected = q * q.transpose_times(a);
  EXPECT_LT(max_abs_diff(projected, a), 1e-10 * std::max(1.0, a.max_abs()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, QrBasisProperty, ::testing::Range(0, 8));

TEST(QrBasisTest, RankDeficientFallsBackToRankRevealingBasis) {
  stats::Rng rng(42);
  Matrix a = test::random_matrix(12, 4, rng);
  for (std::size_t i = 0; i < a.rows(); ++i) a(i, 3) = 3.0 * a(i, 1);
  const Matrix q = orthonormal_basis_qr(a);
  EXPECT_EQ(q.cols(), 3u);
  const Matrix projected = q * q.transpose_times(a);
  EXPECT_LT(max_abs_diff(projected, a), 1e-9 * std::max(1.0, a.max_abs()));
}

TEST(QrBasisTest, EmptyMatrix) {
  const Matrix q = orthonormal_basis_qr(Matrix(5, 0));
  EXPECT_EQ(q.rows(), 5u);
  EXPECT_EQ(q.cols(), 0u);
}

}  // namespace
}  // namespace mtdgrid::linalg
