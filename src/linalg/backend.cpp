#include "linalg/backend.hpp"

#include <cassert>
#include <stdexcept>

namespace mtdgrid::linalg {

NormalEquationsSolver::NormalEquationsSolver(const SparseMatrix& a,
                                             const Vector& weights)
    : a_(&a), weights_(weights), chol_(a.weighted_gram(weights_)) {
  assert(weights_.size() == a.rows());
}

Vector NormalEquationsSolver::solve(const Vector& rhs) const {
  if (chol_.failed())
    throw std::runtime_error(
        "normal equations solver: matrix not positive definite");
  return chol_.solve(rhs);
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
