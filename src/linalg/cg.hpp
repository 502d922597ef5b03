#pragma once

#include <cstddef>
#include <vector>

#include "linalg/sparse_matrix.hpp"
#include "linalg/vector.hpp"

namespace mtdgrid::linalg {

/// Interface of a symmetric-positive-definite preconditioner M: `apply`
/// returns z = M^{-1} r. Used by `preconditioned_cg` and selected through
/// `SolverOptions::preconditioner` (linalg/backend.hpp).
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;
  virtual Vector apply(const Vector& r) const = 0;
};

/// Jacobi (diagonal) preconditioner M = diag(A): free to set up, always
/// defined for an SPD matrix, and enough to fix the scale disparity of
/// normal-equation Gram matrices. The fallback when IC(0) breaks down.
class JacobiPreconditioner : public Preconditioner {
 public:
  /// `a` must be square with a positive diagonal.
  explicit JacobiPreconditioner(const SparseMatrix& a);

  Vector apply(const Vector& r) const override;

 private:
  Vector inv_diag_;
};

/// Incomplete Cholesky with zero fill-in, IC(0): L has exactly the lower-
/// triangular pattern of A, so setup and each apply cost O(nnz). Much
/// stronger than Jacobi on the diagonally dominant Gram matrices of the
/// DC measurement model; can break down (non-positive pivot) on general
/// SPD input, reported through `failed()` — callers then fall back to
/// Jacobi (see `NormalEquationsSolver`'s CG method).
class IncompleteCholeskyPreconditioner : public Preconditioner {
 public:
  /// `a` must be square and symmetric with both triangles stored.
  explicit IncompleteCholeskyPreconditioner(const SparseMatrix& a);

  /// True when a pivot came out non-positive (breakdown).
  bool failed() const { return failed_; }

  /// z = (L L^T)^{-1} r. Requires `!failed()`.
  Vector apply(const Vector& r) const override;

 private:
  std::size_t n_ = 0;
  // L in CSC, diagonal entry first in each column.
  std::vector<std::size_t> col_ptr_;
  std::vector<std::size_t> row_idx_;
  std::vector<double> values_;
  bool failed_ = false;
};

/// Options for `preconditioned_cg`.
struct CgOptions {
  /// Convergence threshold on ||r_k|| / ||b|| (b == 0 converges at once).
  double tolerance = 1e-12;
  /// Iteration cap; 0 means 4n (normal-equation systems are well inside
  /// this once preconditioned).
  std::size_t max_iterations = 0;
};

/// Outcome of a CG solve.
struct CgResult {
  Vector x;                        ///< the (approximate) solution
  std::size_t iterations = 0;      ///< iterations performed
  bool converged = false;          ///< tolerance reached within the cap
  double relative_residual = 0.0;  ///< final ||b - A x|| / ||b||
};

/// Preconditioned conjugate gradients on the SPD system `A x = b`.
/// Entirely deterministic: fixed iteration order, ordered reductions, no
/// randomness — repeated calls produce bit-identical iterates.
CgResult preconditioned_cg(const SparseMatrix& a, const Vector& b,
                           const Preconditioner& m,
                           const CgOptions& options = {});

}  // namespace mtdgrid::linalg
