#pragma once

// Reference dense weighted-least-squares state estimator, kept as a test
// and benchmark oracle for `estimation::StateEstimator` (CSR H, one sparse
// Cholesky of the Gram matrix, residuals as z - H theta_hat). Header-only
// and not part of libmtdgrid.
//
// The oracle precomputes the M x M residual operator (I - K) with
// K = H (H^T W H)^{-1} H^T W, so every residual is one dense
// matrix-vector product; estimates re-solve the dense normal equations.

#include <cassert>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>

#include "linalg/cholesky.hpp"
#include "linalg/least_squares.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace mtdgrid::oracles {

/// The weighted-projection "hat" matrix  K = A (A^T W A)^{-1} A^T W.
/// The state-estimation residual operator is (I - K); the paper's
/// Appendix A writes it as Gamma'. Requires full column rank.
inline linalg::Matrix weighted_hat_matrix(const linalg::Matrix& a,
                                          const linalg::Vector& weights) {
  assert(a.rows() == weights.size());
  const linalg::Matrix gram = linalg::weighted_gram(a, weights);
  linalg::CholeskyDecomposition chol(gram);
  if (chol.failed())
    throw std::runtime_error("weighted hat matrix: rank-deficient matrix");

  // K = A G^{-1} A^T W, built column by column: K e_j = A G^{-1} A^T W e_j.
  const std::size_t m = a.rows();
  linalg::Matrix k(m, m);
  for (std::size_t j = 0; j < m; ++j) {
    if (weights[j] == 0.0) continue;
    linalg::Vector atw(a.cols());
    for (std::size_t c = 0; c < a.cols(); ++c) atw[c] = a(j, c) * weights[j];
    const linalg::Vector x = chol.solve(atw);
    const linalg::Vector column = a * x;
    k.set_col(j, column);
  }
  return k;
}

/// Dense WLS estimator with the same queries as `estimation::StateEstimator`
/// (construction validates sigma and M > n the same way).
class DenseStateEstimator {
 public:
  DenseStateEstimator(linalg::Matrix h, double sigma)
      : h_(std::move(h)), sigmas_(h_.rows(), sigma) {
    if (sigma <= 0.0)
      throw std::invalid_argument("state estimator: sigma must be positive");
    initialize();
  }

  DenseStateEstimator(linalg::Matrix h, linalg::Vector sigmas)
      : h_(std::move(h)), sigmas_(std::move(sigmas)) {
    if (sigmas_.size() != h_.rows())
      throw std::invalid_argument("state estimator: sigma vector length");
    for (double s : sigmas_)
      if (s <= 0.0)
        throw std::invalid_argument("state estimator: sigma must be positive");
    initialize();
  }

  const linalg::Matrix& h() const { return h_; }
  std::size_t num_measurements() const { return h_.rows(); }
  std::size_t state_dimension() const { return h_.cols(); }
  std::size_t residual_dof() const { return h_.rows() - h_.cols(); }
  const linalg::Vector& sigmas() const { return sigmas_; }

  linalg::Vector estimate(const linalg::Vector& z) const {
    assert(z.size() == h_.rows());
    return linalg::solve_weighted_least_squares(h_, weights_, z);
  }

  linalg::Vector residual(const linalg::Vector& z) const {
    assert(z.size() == h_.rows());
    return residual_op_ * z;
  }

  double normalized_residual_norm(const linalg::Vector& z) const {
    const linalg::Vector r = residual(z);
    double acc = 0.0;
    for (std::size_t i = 0; i < r.size(); ++i) {
      const double scaled = r[i] / sigmas_[i];
      acc += scaled * scaled;
    }
    return std::sqrt(acc);
  }

  double attack_residual_norm(const linalg::Vector& attack) const {
    return normalized_residual_norm(attack);
  }

 private:
  void initialize() {
    if (h_.rows() <= h_.cols())
      throw std::invalid_argument(
          "state estimator: needs more measurements than states");
    weights_ = linalg::Vector(h_.rows());
    for (std::size_t i = 0; i < h_.rows(); ++i)
      weights_[i] = 1.0 / (sigmas_[i] * sigmas_[i]);
    const linalg::Matrix k = weighted_hat_matrix(h_, weights_);
    residual_op_ = linalg::Matrix::identity(h_.rows()) - k;
  }

  linalg::Matrix h_;
  linalg::Vector sigmas_;
  linalg::Vector weights_;      // 1 / sigma_i^2
  linalg::Matrix residual_op_;  // I - K
};

}  // namespace mtdgrid::oracles
