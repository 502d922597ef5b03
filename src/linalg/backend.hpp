#pragma once

#include <cstddef>
#include <memory>
#include <optional>

#include "linalg/cg.hpp"
#include "linalg/sparse_cholesky.hpp"
#include "linalg/sparse_matrix.hpp"
#include "linalg/vector.hpp"

namespace mtdgrid::linalg {

/// Options of `NormalEquationsSolver`: which factorization/iteration
/// answers `solve`, and how CG is preconditioned. The defaults (direct
/// sparse Cholesky) are what every production caller uses.
struct SolverOptions {
  enum class Method {
    kCholesky,           ///< direct: factor A^T W A once, then solve
    kConjugateGradient,  ///< iterative: the mega-grid escape hatch
  };
  enum class Preconditioner {
    kJacobi,              ///< diagonal scaling — cannot break down
    kIncompleteCholesky,  ///< IC(0) — stronger; falls back to Jacobi on
                          ///< breakdown
  };

  Method method = Method::kCholesky;
  Preconditioner preconditioner = Preconditioner::kIncompleteCholesky;
  double cg_tolerance = 1e-12;      ///< CG stop: ||r|| / ||b||
  std::size_t cg_max_iterations = 0;  ///< 0 = 4n
};

/// The solver for weighted normal equations (A^T W A) x = rhs over a CSR
/// matrix A — the kernel of WLS state estimation. The Gram matrix is
/// assembled sparsely (O(sum of row nnz^2)) at construction and either
/// factored once by `SparseCholesky` under a minimum-degree ordering, or
/// solved iteratively by preconditioned CG; any number of
/// `solve`/`solve_least_squares` calls follow. Both are const and keep no
/// scratch state, so one solver may serve concurrent callers.
///
/// Lifetime: keeps a pointer to `a`, so the matrix must outlive the
/// solver. Failure (rank-deficient A, non-positive weights) is reported
/// through `failed()`; `solve*` on a failed solver throws.
class NormalEquationsSolver {
 public:
  NormalEquationsSolver(const SparseMatrix& a, const Vector& weights,
                        const SolverOptions& options = {});

  /// True when the normal equations were found not positive definite
  /// (Cholesky) or no usable preconditioner exists (CG on a Gram matrix
  /// with a non-positive diagonal).
  bool failed() const { return failed_; }

  /// Solves (A^T W A) x = rhs. Requires `!failed()`; the CG method
  /// throws std::runtime_error if it fails to converge within the cap.
  Vector solve(const Vector& rhs) const;

  /// Weighted least squares: x = argmin || W^{1/2} (A x - b) ||.
  Vector solve_least_squares(const Vector& b) const;

 private:
  const SparseMatrix* a_;
  Vector weights_;
  SolverOptions options_;
  bool failed_ = false;

  std::optional<SparseCholesky> chol_;
  // CG state: the Gram matrix the iteration multiplies by.
  SparseMatrix gram_;
  std::shared_ptr<const Preconditioner> preconditioner_;
};

}  // namespace mtdgrid::linalg
