#include "linalg/backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "grid/cases.hpp"
#include "grid/measurement.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/least_squares.hpp"
#include "stats/rng.hpp"
#include "test_util.hpp"

namespace mtdgrid::linalg {
namespace {

// Backend-conformance suite: the CSR `NormalEquationsSolver` (sparse
// Cholesky and both CG variants) against the dense reference — the dense
// `solve_weighted_least_squares` and a dense Cholesky of `weighted_gram` —
// plus the dense-vs-sparse WLS agreement bound (<= 1e-10 on the bundled
// IEEE cases).

Vector unit_weights(std::size_t m) { return Vector(m, 1.0); }

Vector random_weights(std::size_t m, stats::Rng& rng) {
  Vector w(m);
  for (std::size_t i = 0; i < m; ++i) w[i] = rng.uniform(0.25, 4.0);
  return w;
}

// --- shared conformance against the dense reference ---------------------

struct SolverVariant {
  const char* name;
  SolverOptions options;
};

class BackendConformance : public ::testing::TestWithParam<int> {
 protected:
  static std::vector<SolverVariant> solver_variants() {
    SolverOptions chol;  // defaults: direct Cholesky
    SolverOptions cg_ic;
    cg_ic.method = SolverOptions::Method::kConjugateGradient;
    SolverOptions cg_jacobi = cg_ic;
    cg_jacobi.preconditioner = SolverOptions::Preconditioner::kJacobi;
    return {{"cholesky", chol}, {"cg-ic0", cg_ic}, {"cg-jacobi", cg_jacobi}};
  }
};

TEST_P(BackendConformance, SolveLeastSquaresAgreesAcrossPolicies) {
  stats::Rng rng(400 + GetParam());
  const std::size_t m = 24, n = 9;
  const Matrix d = test::random_matrix(m, n, rng);
  const SparseMatrix s = SparseMatrix::from_dense(d);
  const Vector w = random_weights(m, rng);
  const Vector b = test::random_vector(m, rng);

  const Vector x_dense = solve_weighted_least_squares(d, w, b);

  for (const SolverVariant& variant : solver_variants()) {
    const NormalEquationsSolver sparse_solver(s, w, variant.options);
    ASSERT_FALSE(sparse_solver.failed()) << variant.name;
    EXPECT_LT(max_abs_diff(sparse_solver.solve_least_squares(b), x_dense),
              1e-9)
        << variant.name;
  }
}

TEST_P(BackendConformance, SolveNormalEquationsAgreesAcrossPolicies) {
  stats::Rng rng(440 + GetParam());
  const std::size_t m = 20, n = 8;
  const Matrix d = test::random_matrix(m, n, rng);
  const SparseMatrix s = SparseMatrix::from_dense(d);
  const Vector w = random_weights(m, rng);
  const Vector rhs = test::random_vector(n, rng);

  const Matrix gram = weighted_gram(d, w);
  const CholeskyDecomposition dense_chol(gram);
  ASSERT_FALSE(dense_chol.failed());
  const Vector x_dense = dense_chol.solve(rhs);
  // The dense solve really inverts A^T W A.
  EXPECT_LT(max_abs_diff(gram * x_dense, rhs),
            1e-9 * std::max(1.0, rhs.norm()));

  for (const SolverVariant& variant : solver_variants()) {
    const NormalEquationsSolver sparse_solver(s, w, variant.options);
    ASSERT_FALSE(sparse_solver.failed()) << variant.name;
    EXPECT_LT(max_abs_diff(sparse_solver.solve(rhs), x_dense), 1e-8)
        << variant.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendConformance, ::testing::Range(0, 10));

// --- the dense solver is the bit-exact historical reference -------------

TEST(BackendDenseExactnessTest, MatchesLegacyDenseSolverBitForBit) {
  // The dense WLS must keep reproducing the historical computation
  // exactly: the same Gram accumulation, the same dense Cholesky and the
  // same moment-vector loop.
  const grid::PowerSystem sys = grid::make_case57();
  const Matrix h = grid::measurement_matrix(sys);
  stats::Rng rng(71);
  const Vector w = random_weights(h.rows(), rng);
  const Vector b = test::random_vector(h.rows(), rng);

  const CholeskyDecomposition chol(weighted_gram(h, w));
  ASSERT_FALSE(chol.failed());
  Vector rhs(h.cols());
  for (std::size_t k = 0; k < h.rows(); ++k) {
    const double wb = w[k] * b[k];
    if (wb == 0.0) continue;
    for (std::size_t j = 0; j < h.cols(); ++j) rhs[j] += h(k, j) * wb;
  }
  const Vector legacy = chol.solve(rhs);
  const Vector current = solve_weighted_least_squares(h, w, b);

  ASSERT_EQ(legacy.size(), current.size());
  for (std::size_t i = 0; i < legacy.size(); ++i)
    EXPECT_EQ(legacy[i], current[i]) << "entry " << i;
}

// --- IEEE-case agreement (acceptance criterion) -------------------------

void expect_case_agreement(const grid::PowerSystem& sys, int seed) {
  const Matrix h = grid::measurement_matrix(sys);
  const SparseMatrix hs = grid::sparse_measurement_matrix(sys);
  stats::Rng rng(seed);
  const Vector w = random_weights(h.rows(), rng);

  SolverOptions cg;
  cg.method = SolverOptions::Method::kConjugateGradient;
  const NormalEquationsSolver sparse_chol(hs, w);
  const NormalEquationsSolver sparse_cg(hs, w, cg);
  ASSERT_FALSE(sparse_chol.failed());
  ASSERT_FALSE(sparse_cg.failed());

  for (int trial = 0; trial < 3; ++trial) {
    // Realistic magnitudes: states ~0.1 rad, noise-scale perturbations.
    const Vector theta = test::random_vector(h.cols(), rng, 0.1);
    const Vector b = h * theta + test::random_vector(h.rows(), rng, 0.01);
    const Vector x_dense = solve_weighted_least_squares(h, w, b);
    const double scale = std::max(1.0, x_dense.norm_inf());
    EXPECT_LT(max_abs_diff(sparse_chol.solve_least_squares(b), x_dense),
              1e-10 * scale)
        << sys.name() << " cholesky trial " << trial;
    // CG is iterative: its agreement is bounded by the residual tolerance
    // through the Gram conditioning, not by direct-solve rounding.
    EXPECT_LT(max_abs_diff(sparse_cg.solve_least_squares(b), x_dense),
              1e-8 * scale)
        << sys.name() << " cg trial " << trial;
  }
}

TEST(BackendCaseAgreementTest, Case14DenseVsSparseWithin1em10) {
  expect_case_agreement(grid::make_case14(), 81);
}

TEST(BackendCaseAgreementTest, Case57DenseVsSparseWithin1em10) {
  expect_case_agreement(grid::make_case57(), 82);
}

TEST(BackendCaseAgreementTest, Case118DenseVsSparseWithin1em10) {
  expect_case_agreement(grid::make_case118(), 83);
}

// --- failure paths, dense and sparse ------------------------------------

TEST(BackendFailureTest, RankDeficientMatrixFailsUnderBothPolicies) {
  // Duplicate column -> A^T W A singular.
  Matrix a(5, 2);
  for (std::size_t i = 0; i < 5; ++i) {
    a(i, 0) = static_cast<double>(i + 1);
    a(i, 1) = 2.0 * static_cast<double>(i + 1);
  }
  const SparseMatrix s = SparseMatrix::from_dense(a);
  const Vector w = unit_weights(5);
  const Vector b(5, 1.0);

  EXPECT_THROW(solve_weighted_least_squares(a, w, b), std::runtime_error);

  // The direct (Cholesky) method detects the singular Gram matrix in CSR
  // too. (CG does not: on a consistent singular system it quietly
  // converges to one of the least-squares solutions.)
  const NormalEquationsSolver sparse_solver(s, w);
  EXPECT_TRUE(sparse_solver.failed());
  EXPECT_THROW(sparse_solver.solve_least_squares(b), std::runtime_error);
}

TEST(BackendFailureTest, ZeroWeightsCanSinkTheProblem) {
  // All-zero weights make A^T W A identically zero, dense or sparse.
  stats::Rng rng(91);
  const Matrix a = test::random_matrix(6, 3, rng);
  const SparseMatrix s = SparseMatrix::from_dense(a);
  const Vector w(6, 0.0);
  EXPECT_TRUE(CholeskyDecomposition(weighted_gram(a, w)).failed());
  EXPECT_THROW(solve_weighted_least_squares(a, w, Vector(6, 1.0)),
               std::runtime_error);
  EXPECT_TRUE(NormalEquationsSolver(s, w).failed());
}

TEST(BackendFailureTest, FreeFunctionThrowsHistoricalMessage) {
  Matrix a(3, 2);  // zero matrix: rank deficient
  const Vector w = unit_weights(3);
  const Vector b(3, 1.0);
  try {
    solve_weighted_least_squares(a, w, b);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "weighted least squares: normal equations not positive "
                 "definite (rank-deficient matrix or non-positive weights)");
  }
}

TEST(BackendFailureTest, CgDivergenceReportsResidual) {
  // A one-iteration cap on a non-trivial system cannot converge; the
  // sparse CG solve must throw rather than return a bad estimate. Jacobi
  // here: IC(0) on the fully dense Gram pattern IS an exact factorization
  // and would legitimately converge in one step.
  stats::Rng rng(92);
  const Matrix a = test::random_matrix(12, 6, rng);
  const SparseMatrix s = SparseMatrix::from_dense(a);
  const Vector w = random_weights(12, rng);
  SolverOptions cg;
  cg.method = SolverOptions::Method::kConjugateGradient;
  cg.preconditioner = SolverOptions::Preconditioner::kJacobi;
  cg.cg_max_iterations = 1;
  const NormalEquationsSolver solver(s, w, cg);
  ASSERT_FALSE(solver.failed());
  EXPECT_THROW(solver.solve_least_squares(Vector(12, 1.0)),
               std::runtime_error);
}

}  // namespace
}  // namespace mtdgrid::linalg
