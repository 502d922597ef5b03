#pragma once

// Reference B-theta formulation of the DC-OPF dispatch LP, kept as a test
// and benchmark oracle for `opf::solve_dc_opf` (PTDF rows generated
// lazily). Header-only and not part of libmtdgrid.
//
// Variables are the G generator outputs plus the N-1 free non-slack bus
// angles; there is one nodal-balance equality per bus and two dense
// flow-limit rows per branch, all solved in one dense simplex tableau.

#include <cassert>
#include <cstddef>

#include "grid/power_flow.hpp"
#include "grid/power_system.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "opf/dc_opf.hpp"
#include "opf/simplex.hpp"

namespace mtdgrid::oracles {

/// Solves the DC-OPF at reactances `x` as one B-theta LP.
inline opf::DispatchResult solve_btheta_dc_opf(const grid::PowerSystem& sys,
                                               const linalg::Vector& x) {
  assert(x.size() == sys.num_branches());
  const std::size_t num_gen = sys.num_generators();
  const std::size_t num_buses = sys.num_buses();
  const std::size_t num_branches = sys.num_branches();
  const std::size_t state_dim = num_buses - 1;
  const std::size_t num_vars = num_gen + state_dim;

  opf::LinearProgram lp;
  lp.objective = linalg::Vector(num_vars);
  for (std::size_t g = 0; g < num_gen; ++g)
    lp.objective[g] = sys.generator(g).cost_per_mwh;

  // Nodal balance (one equality per bus): sum_g@i G - [B theta]_i = load_i,
  // where B theta uses the full susceptance matrix with the slack angle
  // fixed at zero (so only non-slack columns appear).
  const linalg::Matrix b_full = sys.susceptance_matrix(x);
  const linalg::Matrix b_cols = b_full.without_col(sys.slack_bus());
  lp.eq_matrix = linalg::Matrix(num_buses, num_vars);
  lp.eq_rhs = linalg::Vector(num_buses);
  for (std::size_t i = 0; i < num_buses; ++i) {
    for (std::size_t j = 0; j < state_dim; ++j)
      lp.eq_matrix(i, num_gen + j) = -b_cols(i, j);
    lp.eq_rhs[i] = sys.bus(i).load_mw;
  }
  for (std::size_t g = 0; g < num_gen; ++g)
    lp.eq_matrix(sys.generator(g).bus, g) += 1.0;

  // Flow limits: -fmax <= D A_r^T theta <= fmax (two rows per branch).
  const linalg::Matrix a_reduced = sys.reduced_branch_incidence();
  const linalg::Vector d = sys.branch_susceptances(x);
  lp.ub_matrix = linalg::Matrix(2 * num_branches, num_vars);
  lp.ub_rhs = linalg::Vector(2 * num_branches);
  for (std::size_t l = 0; l < num_branches; ++l) {
    for (std::size_t j = 0; j < state_dim; ++j) {
      const double coeff = d[l] * a_reduced(l, j);
      lp.ub_matrix(l, num_gen + j) = coeff;
      lp.ub_matrix(num_branches + l, num_gen + j) = -coeff;
    }
    lp.ub_rhs[l] = sys.branch(l).flow_limit_mw;
    lp.ub_rhs[num_branches + l] = sys.branch(l).flow_limit_mw;
  }

  // Variable bounds: generator limits; angles free.
  lp.lower_bounds = linalg::Vector(num_vars, -opf::kLpInfinity);
  lp.upper_bounds = linalg::Vector(num_vars, opf::kLpInfinity);
  for (std::size_t g = 0; g < num_gen; ++g) {
    lp.lower_bounds[g] = sys.generator(g).min_mw;
    lp.upper_bounds[g] = sys.generator(g).max_mw;
  }

  const opf::LpSolution sol = opf::solve_linear_program(lp);
  opf::DispatchResult result;
  if (sol.status != opf::LpStatus::kOptimal) return result;

  result.feasible = true;
  result.cost = sol.objective;
  result.generation_mw = linalg::Vector(num_gen);
  for (std::size_t g = 0; g < num_gen; ++g)
    result.generation_mw[g] = sol.x[g];
  result.theta_reduced = linalg::Vector(state_dim);
  for (std::size_t j = 0; j < state_dim; ++j)
    result.theta_reduced[j] = sol.x[num_gen + j];
  result.flows_mw = grid::branch_flows(sys, x, result.theta_reduced);
  return result;
}

/// The B-theta oracle at the system's nominal reactances.
inline opf::DispatchResult solve_btheta_dc_opf(const grid::PowerSystem& sys) {
  return solve_btheta_dc_opf(sys, sys.reactances());
}

}  // namespace mtdgrid::oracles
