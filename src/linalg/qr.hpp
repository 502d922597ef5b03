#pragma once

#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace mtdgrid::linalg {

/// Householder QR factorization `A = Q [R; 0]` of an m x n matrix with
/// m >= n.
///
/// Q (m x m, orthogonal) is kept implicitly as its n Householder
/// reflectors: `apply_qt`/`apply_q` multiply by it without forming it, and
/// the thin factor (m x n with orthonormal columns) that the
/// principal-angle computations of the MTD design criterion need is formed
/// only on request.
class QrDecomposition {
 public:
  /// Factorizes `a` (requires `a.rows() >= a.cols()`).
  explicit QrDecomposition(const Matrix& a);

  /// Thin orthonormal factor: m x n, `Q^T Q = I`. Formed on each call as
  /// `apply_q([I_n; 0])`.
  Matrix q_thin() const;

  /// Upper-triangular factor: n x n.
  const Matrix& r() const { return r_; }

  /// `Q^T x` for an m-row `x`: its first n rows are the coordinates of `x`
  /// in the thin basis, the rest those in the orthogonal complement of
  /// Col(A).
  Matrix apply_qt(Matrix x) const;

  /// `Q x` for an m-row `x`.
  Matrix apply_q(Matrix x) const;

  /// Numerical rank: the number of diagonal entries of R whose magnitude
  /// exceeds `tol * max|R_ii|`.
  std::size_t rank(double tol = 1e-10) const;

  /// Least-squares solution of `A x = b` via `R x = (Q^T b)[0:n]`.
  /// Requires full column rank.
  Vector solve_least_squares(const Vector& b) const;

 private:
  /// `x <- (I - 2 w_k w_k^T) x` for reflector k.
  void reflect(std::size_t k, Matrix& x, std::vector<double>& dots) const;

  Matrix w_;  // n x m: row k is the k-th unit Householder vector
  Matrix r_;
};

/// Orthonormal basis for the column space of `a` (columns with numerically
/// non-zero R pivots are kept; `a` may be rank deficient). Implemented via
/// modified Gram-Schmidt with re-orthogonalization for stability.
Matrix orthonormal_column_basis(const Matrix& a, double tol = 1e-10);

/// Orthonormal column-space basis via Householder thin QR — the fast path
/// for the full-column-rank matrices of the measurement model (a single
/// Householder sweep instead of doubly re-orthogonalized Gram-Schmidt).
/// Wide or numerically rank-deficient inputs fall back to
/// `orthonormal_column_basis`, so the result is always a basis of Col(a)
/// with exactly rank(a) columns, for any shape.
Matrix orthonormal_basis_qr(const Matrix& a, double tol = 1e-10);

/// Numerical rank of an arbitrary matrix (via the basis construction above).
std::size_t rank(const Matrix& a, double tol = 1e-10);

}  // namespace mtdgrid::linalg
