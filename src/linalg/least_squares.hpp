#pragma once

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace mtdgrid::linalg {

/// The weighted Gram matrix `A^T W A` of the normal equations, accumulated
/// in the library's reference order (row-major scan, zero contributions
/// skipped). This exact loop is the dense bit-exactness anchor of
/// `solve_weighted_least_squares`.
Matrix weighted_gram(const Matrix& a, const Vector& weights);

/// Dense weighted least-squares solver for `min_x || W^{1/2} (A x - b) ||`.
///
/// `weights` holds the diagonal of W (one non-negative weight per row of A;
/// in state estimation these are reciprocal noise variances). Solves the
/// normal equations with a dense Cholesky factorization; requires A to
/// have full column rank. Throws std::runtime_error otherwise. The state
/// estimator solves the same equations over CSR storage through
/// `NormalEquationsSolver` (linalg/backend.hpp).
Vector solve_weighted_least_squares(const Matrix& a, const Vector& weights,
                                    const Vector& b);

/// Ordinary least squares `min_x ||A x - b||` via Householder QR.
/// Requires A to have full column rank. Throws std::runtime_error otherwise.
Vector solve_least_squares(const Matrix& a, const Vector& b);

}  // namespace mtdgrid::linalg
