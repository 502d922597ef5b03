#pragma once

#include "linalg/sparse_cholesky.hpp"
#include "linalg/sparse_matrix.hpp"
#include "linalg/vector.hpp"

namespace mtdgrid::linalg {

/// The solver for weighted normal equations (A^T W A) x = rhs over a CSR
/// matrix A — the kernel of WLS state estimation. The Gram matrix is
/// assembled sparsely (O(sum of row nnz^2)) at construction and factored
/// once by `SparseCholesky` under a minimum-degree ordering; any number
/// of `solve`/`solve_least_squares` calls follow. Both are const and keep
/// no scratch state, so one solver may serve concurrent callers.
///
/// Lifetime: keeps a pointer to `a`, so the matrix must outlive the
/// solver. Failure (rank-deficient A, non-positive weights) is reported
/// through `failed()`; `solve*` on a failed solver throws.
class NormalEquationsSolver {
 public:
  NormalEquationsSolver(const SparseMatrix& a, const Vector& weights);

  /// True when the normal equations were found not positive definite.
  bool failed() const { return chol_.failed(); }

  /// Solves (A^T W A) x = rhs. Requires `!failed()`.
  Vector solve(const Vector& rhs) const;

  /// Weighted least squares: x = argmin || W^{1/2} (A x - b) ||.
  Vector solve_least_squares(const Vector& b) const;

 private:
  const SparseMatrix* a_;
  Vector weights_;
  SparseCholesky chol_;
};

}  // namespace mtdgrid::linalg
