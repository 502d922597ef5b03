#pragma once

#include <memory>
#include <optional>

#include "linalg/backend.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse_matrix.hpp"
#include "linalg/vector.hpp"

namespace mtdgrid::estimation {

/// Weighted-least-squares DC state estimator (paper Section III):
///
///   theta_hat = (H^T W H)^{-1} H^T W z,
///
/// with W = diag(1/sigma_i^2).
///
/// H is held in CSR whichever type it arrives as (a dense `Matrix` is
/// compressed with `SparseMatrix::from_dense`). The Gram matrix is
/// assembled sparsely and factored once at construction (minimum-degree
/// sparse Cholesky, `linalg::NormalEquationsSolver`); residuals
/// are computed as z - H theta_hat = (I - K) z with
/// K = H (H^T W H)^{-1} H^T W, so the dense M x M operator I - K is never
/// materialized. All queries are const and safe to call concurrently on
/// one estimator.
class StateEstimator {
 public:
  /// Builds the estimator for measurement matrix `h` (M x n, full column
  /// rank) with homogeneous sensor noise standard deviation `sigma`.
  StateEstimator(linalg::Matrix h, double sigma);

  /// Builds the estimator with per-sensor noise standard deviations.
  StateEstimator(linalg::Matrix h, linalg::Vector sigmas);

  /// Builds the estimator from a CSR `h` with homogeneous noise `sigma`.
  StateEstimator(linalg::SparseMatrix h, double sigma);

  /// CSR `h` with per-sensor noise standard deviations.
  StateEstimator(linalg::SparseMatrix h, linalg::Vector sigmas);

  /// The dense measurement matrix a `Matrix` constructor was given; empty
  /// (0 x 0) after a `SparseMatrix` constructor.
  const linalg::Matrix& h() const { return h_; }

  /// The measurement matrix in CSR, for every constructor.
  const linalg::SparseMatrix& sparse_h() const { return *sparse_h_; }

  std::size_t num_measurements() const { return sparse_h_->rows(); }
  std::size_t state_dimension() const { return sparse_h_->cols(); }

  /// Degrees of freedom of the residual: M - n.
  std::size_t residual_dof() const {
    return num_measurements() - state_dimension();
  }

  /// Per-sensor noise standard deviations.
  const linalg::Vector& sigmas() const { return sigmas_; }

  /// WLS state estimate for measurement vector `z`.
  linalg::Vector estimate(const linalg::Vector& z) const;

  /// Raw residual vector r = z - H theta_hat = (I - K) z.
  linalg::Vector residual(const linalg::Vector& z) const;

  /// Noise-normalized residual norm || W^{1/2} (z - H theta_hat) ||.
  /// With homogeneous sigma this equals ||z - H theta_hat|| / sigma; its
  /// square is chi-square distributed with `residual_dof()` degrees of
  /// freedom under attack-free Gaussian noise.
  double normalized_residual_norm(const linalg::Vector& z) const;

  /// Norm of the *attack component* of the normalized residual,
  /// || W^{1/2} (I - K) a ||. This is the paper's ||r'_a|| (Appendix B)
  /// and the square root of the noncentral-chi-square noncentrality.
  double attack_residual_norm(const linalg::Vector& attack) const;

 private:
  void initialize();
  void validate_sigmas() const;

  linalg::Matrix h_;
  // Shared and immutable: the solver views this matrix, so its address
  // must survive moves, and copies of the estimator share it together
  // with the factor.
  std::shared_ptr<const linalg::SparseMatrix> sparse_h_;
  linalg::Vector sigmas_;
  linalg::Vector weights_;  // 1 / sigma_i^2
  std::optional<linalg::NormalEquationsSolver> solver_;
};

}  // namespace mtdgrid::estimation
