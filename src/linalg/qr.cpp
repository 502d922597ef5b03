#include "linalg/qr.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace mtdgrid::linalg {

QrDecomposition::QrDecomposition(const Matrix& a) : w_(a.cols(), a.rows()) {
  assert(a.rows() >= a.cols() && "QR requires rows >= cols");
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();

  // Householder reduction: w_ stores the reflectors, r becomes triangular.
  // Reflector applications sweep whole rows (the storage is row-major), so
  // the inner loops run over contiguous memory.
  Matrix r = a;
  std::vector<double> v(m);
  std::vector<double> dots(n);
  double* d = dots.data();
  for (std::size_t k = 0; k < n; ++k) {
    double norm = 0.0;
    for (std::size_t i = k; i < m; ++i) {
      const double rik = r.row_data(i)[k];
      norm += rik * rik;
    }
    norm = std::sqrt(norm);
    if (norm == 0.0) continue;  // column already zero below the diagonal

    const double rkk = r.row_data(k)[k];
    const double alpha = (rkk >= 0.0) ? -norm : norm;
    v[k] = rkk - alpha;
    for (std::size_t i = k + 1; i < m; ++i) v[i] = r.row_data(i)[k];
    double vnorm2 = 0.0;
    for (std::size_t i = k; i < m; ++i) vnorm2 += v[i] * v[i];
    if (vnorm2 == 0.0) continue;

    // Apply the reflector to the remaining columns of R: first gather the
    // dot products v^T R row by row, then update row by row.
    for (std::size_t j = k; j < n; ++j) d[j] = 0.0;
    for (std::size_t i = k; i < m; ++i) {
      const double vi = v[i];
      if (vi == 0.0) continue;
      const double* ri = r.row_data(i);
      for (std::size_t j = k; j < n; ++j) d[j] += vi * ri[j];
    }
    const double beta = 2.0 / vnorm2;
    for (std::size_t j = k; j < n; ++j) d[j] *= beta;
    for (std::size_t i = k; i < m; ++i) {
      const double vi = v[i];
      if (vi == 0.0) continue;
      double* ri = r.row_data(i);
      for (std::size_t j = k; j < n; ++j) ri[j] -= d[j] * vi;
    }
    const double vnorm = std::sqrt(vnorm2);
    double* wk = w_.row_data(k);
    for (std::size_t i = k; i < m; ++i) wk[i] = v[i] / vnorm;
  }
  r_ = r.block(0, 0, n, n);
}

void QrDecomposition::reflect(std::size_t k, Matrix& x,
                              std::vector<double>& dots) const {
  // Same row-sweeping structure as the reduction: gather w^T x row by row,
  // then update row by row. A skipped (all-zero) reflector is a no-op.
  const std::size_t m = x.rows();
  const std::size_t p = x.cols();
  const double* w = w_.row_data(k);
  double* d = dots.data();
  for (std::size_t j = 0; j < p; ++j) d[j] = 0.0;
  for (std::size_t i = k; i < m; ++i) {
    const double wi = w[i];
    if (wi == 0.0) continue;
    const double* xi = x.row_data(i);
    for (std::size_t j = 0; j < p; ++j) d[j] += wi * xi[j];
  }
  for (std::size_t j = 0; j < p; ++j) d[j] *= 2.0;
  for (std::size_t i = k; i < m; ++i) {
    const double wi = w[i];
    if (wi == 0.0) continue;
    double* xi = x.row_data(i);
    for (std::size_t j = 0; j < p; ++j) xi[j] -= d[j] * wi;
  }
}

Matrix QrDecomposition::apply_qt(Matrix x) const {
  assert(x.rows() == w_.cols());
  // Q = H_0 H_1 ... H_{n-1}, so Q^T x applies H_0 first.
  std::vector<double> dots(x.cols());
  for (std::size_t k = 0; k < w_.rows(); ++k) reflect(k, x, dots);
  return x;
}

Matrix QrDecomposition::apply_q(Matrix x) const {
  assert(x.rows() == w_.cols());
  std::vector<double> dots(x.cols());
  for (std::size_t k = w_.rows(); k-- > 0;) reflect(k, x, dots);
  return x;
}

Matrix QrDecomposition::q_thin() const {
  Matrix e(w_.cols(), w_.rows());
  for (std::size_t j = 0; j < w_.rows(); ++j) e(j, j) = 1.0;
  return apply_q(std::move(e));
}

std::size_t QrDecomposition::rank(double tol) const {
  double max_diag = 0.0;
  for (std::size_t i = 0; i < r_.rows(); ++i)
    max_diag = std::max(max_diag, std::abs(r_(i, i)));
  if (max_diag == 0.0) return 0;
  std::size_t rk = 0;
  for (std::size_t i = 0; i < r_.rows(); ++i)
    if (std::abs(r_(i, i)) > tol * max_diag) ++rk;
  return rk;
}

Vector QrDecomposition::solve_least_squares(const Vector& b) const {
  assert(b.size() == w_.cols());
  const std::size_t n = r_.rows();
  if (rank() < n)
    throw std::runtime_error("QR least squares: rank-deficient matrix");
  const Matrix qtb = apply_qt(Matrix::column(b));
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = qtb(ii, 0);
    for (std::size_t j = ii + 1; j < n; ++j) acc -= r_(ii, j) * x[j];
    x[ii] = acc / r_(ii, ii);
  }
  return x;
}

Matrix orthonormal_basis_qr(const Matrix& a, double tol) {
  if (a.cols() == 0) return Matrix(a.rows(), 0);
  // Wide matrices are necessarily rank deficient in their columns, and
  // QrDecomposition requires rows >= cols: route them (and any
  // rank-deficient tall input) through the rank-revealing basis.
  if (a.rows() < a.cols()) return orthonormal_column_basis(a, tol);
  const QrDecomposition qr(a);
  if (qr.rank(tol) == a.cols()) return qr.q_thin();
  return orthonormal_column_basis(a, tol);
}

Matrix orthonormal_column_basis(const Matrix& a, double tol) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();

  // Modified Gram-Schmidt with one re-orthogonalization pass; columns whose
  // residual norm collapses below tol * original-norm are dropped.
  std::vector<Vector> basis;
  double max_col_norm = 0.0;
  for (std::size_t j = 0; j < n; ++j)
    max_col_norm = std::max(max_col_norm, a.col(j).norm());
  if (max_col_norm == 0.0) return Matrix(m, 0);

  for (std::size_t j = 0; j < n; ++j) {
    Vector v = a.col(j);
    for (int pass = 0; pass < 2; ++pass) {
      for (const Vector& q : basis) {
        const double proj = q.dot(v);
        v -= proj * q;
      }
    }
    const double vn = v.norm();
    if (vn > tol * max_col_norm) {
      basis.push_back(v / vn);
    }
  }

  Matrix out(m, basis.size());
  for (std::size_t j = 0; j < basis.size(); ++j) out.set_col(j, basis[j]);
  return out;
}

std::size_t rank(const Matrix& a, double tol) {
  if (a.rows() >= a.cols()) return orthonormal_column_basis(a, tol).cols();
  return orthonormal_column_basis(a.transposed(), tol).cols();
}

}  // namespace mtdgrid::linalg
