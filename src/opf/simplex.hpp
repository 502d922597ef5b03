#pragma once

#include <limits>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace mtdgrid::opf {

/// Value used for "no bound" entries in LinearProgram bound vectors.
inline constexpr double kLpInfinity = std::numeric_limits<double>::infinity();

/// A linear program in the general form
///
///   minimize    c^T x
///   subject to  A_eq x  = b_eq
///               A_ub x <= b_ub
///               lb <= x <= ub          (entries may be +/- infinity)
///
/// This is the workhorse behind the DC optimal power flow: for fixed
/// branch reactances, problem (1) of the paper is such an LP in the
/// dispatch, with PTDF flow-limit rows added as they bind
/// (`opf::solve_dc_opf`).
struct LinearProgram {
  linalg::Vector objective;  ///< cost vector c
  linalg::Matrix eq_matrix;  ///< may have zero rows
  linalg::Vector eq_rhs;     ///< right-hand side of A_eq x == b_eq
  linalg::Matrix ub_matrix;  ///< may have zero rows
  linalg::Vector ub_rhs;     ///< right-hand side of A_ub x <= b_ub
  linalg::Vector lower_bounds;  ///< per-variable lb (may be -infinity)
  linalg::Vector upper_bounds;  ///< per-variable ub (may be +infinity)

  /// Number of decision variables.
  std::size_t num_variables() const { return objective.size(); }

  /// Throws std::invalid_argument when dimensions are inconsistent.
  void validate() const;
};

/// Termination state of a `solve_linear_program` call.
enum class LpStatus {
  kOptimal,         ///< optimal basic feasible solution found
  kInfeasible,      ///< constraints admit no feasible point
  kUnbounded,       ///< objective decreases without bound
  kIterationLimit,  ///< pivot budget exhausted before convergence
};

/// Result of a `solve_linear_program` call.
struct LpSolution {
  LpStatus status = LpStatus::kIterationLimit;  ///< termination state
  linalg::Vector x;        ///< optimal point (valid when kOptimal)
  double objective = 0.0;  ///< optimal objective value (valid when kOptimal)
};

/// Solves the linear program with a dense two-phase primal simplex using
/// Bland's anti-cycling rule. Intended for the small/medium LPs that arise
/// from the benchmark grids (tens to a few hundred rows).
LpSolution solve_linear_program(const LinearProgram& lp);

}  // namespace mtdgrid::opf
