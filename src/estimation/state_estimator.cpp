#include "estimation/state_estimator.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace mtdgrid::estimation {

StateEstimator::StateEstimator(linalg::Matrix h, double sigma)
    : StateEstimator(linalg::SparseMatrix::from_dense(h), sigma) {
  h_ = std::move(h);
}

StateEstimator::StateEstimator(linalg::Matrix h, linalg::Vector sigmas)
    : StateEstimator(linalg::SparseMatrix::from_dense(h), std::move(sigmas)) {
  h_ = std::move(h);
}

StateEstimator::StateEstimator(linalg::SparseMatrix h, double sigma)
    : sparse_h_(std::make_shared<const linalg::SparseMatrix>(std::move(h))),
      sigmas_(sparse_h_->rows(), sigma) {
  if (sigma <= 0.0)
    throw std::invalid_argument("state estimator: sigma must be positive");
  initialize();
}

StateEstimator::StateEstimator(linalg::SparseMatrix h, linalg::Vector sigmas)
    : sparse_h_(std::make_shared<const linalg::SparseMatrix>(std::move(h))),
      sigmas_(std::move(sigmas)) {
  if (sigmas_.size() != sparse_h_->rows())
    throw std::invalid_argument("state estimator: sigma vector length");
  validate_sigmas();
  initialize();
}

void StateEstimator::validate_sigmas() const {
  for (double s : sigmas_)
    if (s <= 0.0)
      throw std::invalid_argument("state estimator: sigma must be positive");
}

void StateEstimator::initialize() {
  if (sparse_h_->rows() <= sparse_h_->cols())
    throw std::invalid_argument(
        "state estimator: needs more measurements than states");
  weights_ = linalg::Vector(sparse_h_->rows());
  for (std::size_t i = 0; i < sparse_h_->rows(); ++i)
    weights_[i] = 1.0 / (sigmas_[i] * sigmas_[i]);
  solver_.emplace(*sparse_h_, weights_);
  if (solver_->failed())
    throw std::runtime_error(
        "state estimator: measurement matrix is rank deficient");
}

linalg::Vector StateEstimator::estimate(const linalg::Vector& z) const {
  assert(z.size() == num_measurements());
  return solver_->solve_least_squares(z);
}

linalg::Vector StateEstimator::residual(const linalg::Vector& z) const {
  assert(z.size() == num_measurements());
  return z - (*sparse_h_) * estimate(z);
}

double StateEstimator::normalized_residual_norm(
    const linalg::Vector& z) const {
  const linalg::Vector r = residual(z);
  double acc = 0.0;
  for (std::size_t i = 0; i < r.size(); ++i) {
    const double scaled = r[i] / sigmas_[i];
    acc += scaled * scaled;
  }
  return std::sqrt(acc);
}

double StateEstimator::attack_residual_norm(
    const linalg::Vector& attack) const {
  return normalized_residual_norm(attack);
}

}  // namespace mtdgrid::estimation
