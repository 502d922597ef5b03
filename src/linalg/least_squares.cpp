#include "linalg/least_squares.hpp"

#include <cassert>
#include <stdexcept>

#include "linalg/cholesky.hpp"
#include "linalg/qr.hpp"

namespace mtdgrid::linalg {

Matrix weighted_gram(const Matrix& a, const Vector& weights) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  Matrix gram(n, n);
  for (std::size_t k = 0; k < m; ++k) {
    const double w = weights[k];
    if (w == 0.0) continue;
    for (std::size_t i = 0; i < n; ++i) {
      const double waki = w * a(k, i);
      if (waki == 0.0) continue;
      for (std::size_t j = 0; j < n; ++j) {
        gram(i, j) += waki * a(k, j);
      }
    }
  }
  return gram;
}

Vector solve_weighted_least_squares(const Matrix& a, const Vector& weights,
                                    const Vector& b) {
  assert(a.rows() == weights.size() && a.rows() == b.size());
  const CholeskyDecomposition chol(weighted_gram(a, weights));
  if (chol.failed())
    throw std::runtime_error(
        "weighted least squares: normal equations not positive definite "
        "(rank-deficient matrix or non-positive weights)");
  Vector rhs(a.cols());
  for (std::size_t k = 0; k < a.rows(); ++k) {
    const double wb = weights[k] * b[k];
    if (wb == 0.0) continue;
    for (std::size_t j = 0; j < a.cols(); ++j) rhs[j] += a(k, j) * wb;
  }
  return chol.solve(rhs);
}

Vector solve_least_squares(const Matrix& a, const Vector& b) {
  QrDecomposition qr(a);
  return qr.solve_least_squares(b);
}

}  // namespace mtdgrid::linalg
