#include "linalg/backend.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

namespace mtdgrid::linalg {

NormalEquationsSolver::NormalEquationsSolver(const SparseMatrix& a,
                                             const Vector& weights,
                                             const SolverOptions& options)
    : a_(&a), weights_(weights), options_(options) {
  assert(weights_.size() == a.rows());
  SparseMatrix gram = a.weighted_gram(weights_);
  if (options_.method == SolverOptions::Method::kCholesky) {
    chol_.emplace(gram);
    failed_ = chol_->failed();
    return;
  }
  if (options_.preconditioner ==
      SolverOptions::Preconditioner::kIncompleteCholesky) {
    auto ic = std::make_unique<IncompleteCholeskyPreconditioner>(gram);
    if (!ic->failed()) preconditioner_ = std::move(ic);
  }
  if (!preconditioner_) {
    try {
      preconditioner_ = std::make_unique<JacobiPreconditioner>(gram);
    } catch (const std::runtime_error&) {
      failed_ = true;  // Gram diagonal not positive: A is rank deficient
    }
  }
  gram_ = std::move(gram);
}

Vector NormalEquationsSolver::solve(const Vector& rhs) const {
  if (failed_)
    throw std::runtime_error(
        "normal equations solver: matrix not positive definite");
  if (chol_) return chol_->solve(rhs);
  CgOptions cg;
  cg.tolerance = options_.cg_tolerance;
  cg.max_iterations = options_.cg_max_iterations;
  const CgResult result = preconditioned_cg(gram_, rhs, *preconditioner_, cg);
  if (!result.converged)
    throw std::runtime_error(
        "normal equations solver: conjugate gradient did not converge "
        "(relative residual " +
        std::to_string(result.relative_residual) + " after " +
        std::to_string(result.iterations) + " iterations)");
  return result.x;
}

Vector NormalEquationsSolver::solve_least_squares(const Vector& b) const {
  const SparseMatrix& a = *a_;
  assert(b.size() == a.rows());
  Vector rhs(a.cols());
  for (std::size_t k = 0; k < a.rows(); ++k) {
    const double wb = weights_[k] * b[k];
    if (wb == 0.0) continue;
    for (std::size_t p = a.row_ptr()[k]; p < a.row_ptr()[k + 1]; ++p)
      rhs[a.col_idx()[p]] += a.values()[p] * wb;
  }
  return solve(rhs);
}

}  // namespace mtdgrid::linalg
