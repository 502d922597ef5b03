#include "opf/dc_opf.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "grid/power_flow.hpp"
#include "linalg/sparse_cholesky.hpp"
#include "obs/scope.hpp"
#include "opf/simplex.hpp"

namespace mtdgrid::opf {

namespace {

// A dispatch is accepted only when every |f_l| <= limit_l + kFlowTolMw.
constexpr double kFlowTolMw = 1e-6;

// The PTDF flow-limit row pair of branch `l`: with w = B_r^{-1} a_l (one
// solve against the reduced incidence column a_l = e_from - e_to, slack
// entries dropped), the flow is f_l = d_l w^T p_r, where p_r is the
// reduced nodal injection. Splitting p_r into generation and the fixed
// load part gives f_l = coeff^T G + offset, and the pair
//   coeff^T G <= fmax - offset,   -coeff^T G <= fmax + offset.
void append_flow_rows(const grid::PowerSystem& sys,
                      const linalg::SparseCholesky& chol, double d_l,
                      std::size_t l, const linalg::Vector& load_injections,
                      std::vector<linalg::Vector>& rows,
                      std::vector<double>& rhs) {
  const grid::Branch& br = sys.branch(l);
  linalg::Vector a(sys.num_buses() - 1);
  if (br.from != 0) a[br.from - 1] = 1.0;
  if (br.to != 0) a[br.to - 1] = -1.0;
  const linalg::Vector w = chol.solve(a);
  linalg::Vector coeff(sys.num_generators());
  for (std::size_t g = 0; g < sys.num_generators(); ++g) {
    const std::size_t bus = sys.generator(g).bus;
    if (bus != 0) coeff[g] = d_l * w[bus - 1];
  }
  const double offset = d_l * w.dot(load_injections);
  rows.push_back(coeff);
  rhs.push_back(br.flow_limit_mw - offset);
  rows.push_back(-1.0 * coeff);
  rhs.push_back(br.flow_limit_mw + offset);
}

}  // namespace

DispatchResult solve_dc_opf(const grid::PowerSystem& sys,
                            const linalg::Vector& x) {
  return DispatchEvaluator(sys).evaluate(x);
}

DispatchResult solve_dc_opf(const grid::PowerSystem& sys) {
  return solve_dc_opf(sys, sys.reactances());
}

double dispatch_cost(const grid::PowerSystem& sys,
                     const linalg::Vector& generation_mw) {
  assert(generation_mw.size() == sys.num_generators());
  double cost = 0.0;
  for (std::size_t g = 0; g < sys.num_generators(); ++g)
    cost += sys.generator(g).cost_per_mwh * generation_mw[g];
  return cost;
}

DispatchEvaluator::DispatchEvaluator(const grid::PowerSystem& sys)
    : sys_(sys) {
  ordering_ = linalg::minimum_degree_ordering(
      grid::reduced_susceptance_sparse(sys_, sys_.reactances()));
  load_injections_ = linalg::Vector(sys_.num_buses() - 1);
  for (std::size_t i = 1; i < sys_.num_buses(); ++i)
    load_injections_[i - 1] = -sys_.bus(i).load_mw;

  // Merit-order fill: every generator at its minimum, then the residual
  // load assigned in ascending cost order. This is the exact optimum of
  // the dispatch LP with the flow limits relaxed (the balance constraints
  // summed over buses reduce to sum G = total load, and the angles are
  // free), so it is a valid optimum certificate whenever it is
  // flow-feasible — and when it does not exist, neither does a dispatch.
  const std::size_t num_gen = sys_.num_generators();
  relaxed_generation_ = linalg::Vector(num_gen);
  double residual = sys_.total_load_mw();
  for (std::size_t g = 0; g < num_gen; ++g) {
    relaxed_generation_[g] = sys_.generator(g).min_mw;
    residual -= sys_.generator(g).min_mw;
  }
  if (residual < -1e-9) return;  // sum of minimums exceeds the load

  std::vector<std::size_t> order(num_gen);
  for (std::size_t g = 0; g < num_gen; ++g) order[g] = g;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return sys_.generator(a).cost_per_mwh < sys_.generator(b).cost_per_mwh;
  });
  for (std::size_t g : order) {
    const double headroom =
        sys_.generator(g).max_mw - sys_.generator(g).min_mw;
    const double add = std::min(residual, headroom);
    if (add > 0.0) {
      relaxed_generation_[g] += add;
      residual -= add;
    }
  }
  if (residual > 1e-9) return;  // insufficient capacity: LP infeasible too

  relaxed_cost_ = dispatch_cost(sys_, relaxed_generation_);
  relaxed_ok_ = true;
}

DispatchResult DispatchEvaluator::evaluate(const linalg::Vector& x) const {
  assert(x.size() == sys_.num_branches());
  DispatchResult result;
  if (!relaxed_ok_) return result;  // the relaxation is already infeasible
  const linalg::SparseCholesky chol(grid::reduced_susceptance_sparse(sys_, x),
                                    ordering_);
  if (chol.failed()) return result;  // singular B_r (disconnected network)
  const linalg::Vector d = sys_.branch_susceptances(x);
  const std::size_t num_gen = sys_.num_generators();

  // The relaxed LP grows by whole rounds: one equality (sum G = load),
  // the generator bounds, and a PTDF row pair per branch found violated,
  // appended in branch order round after round. Every round adds at least
  // one new branch, so at most L LP rounds (L + 1 power flows) run.
  LinearProgram lp;
  lp.objective = linalg::Vector(num_gen);
  lp.eq_matrix = linalg::Matrix(1, num_gen);
  lp.eq_rhs = linalg::Vector(1, sys_.total_load_mw());
  lp.lower_bounds = linalg::Vector(num_gen);
  lp.upper_bounds = linalg::Vector(num_gen);
  for (std::size_t g = 0; g < num_gen; ++g) {
    lp.objective[g] = sys_.generator(g).cost_per_mwh;
    lp.eq_matrix(0, g) = 1.0;
    lp.lower_bounds[g] = sys_.generator(g).min_mw;
    lp.upper_bounds[g] = sys_.generator(g).max_mw;
  }
  std::vector<linalg::Vector> rows;
  std::vector<double> rhs;
  std::vector<bool> in_lp(sys_.num_branches(), false);

  linalg::Vector generation = relaxed_generation_;
  double cost = relaxed_cost_;
  std::size_t rounds = 0;
  for (;;) {
    linalg::Vector p = load_injections_;
    for (std::size_t g = 0; g < num_gen; ++g) {
      const std::size_t bus = sys_.generator(g).bus;
      if (bus != 0) p[bus - 1] += generation[g];
    }
    linalg::Vector theta = chol.solve(p);
    linalg::Vector flows = grid::branch_flows(sys_, x, theta);

    std::vector<std::size_t> violated;
    bool stalled = false;  // a row already in the LP is still violated
    for (std::size_t l = 0; l < sys_.num_branches(); ++l) {
      if (std::abs(flows[l]) <= sys_.branch(l).flow_limit_mw + kFlowTolMw)
        continue;
      if (in_lp[l])
        stalled = true;
      else
        violated.push_back(l);
    }
    if (violated.empty()) {
      if (stalled) break;  // LP numerics cannot certify this dispatch
      if (rounds == 0) {
        ++fast_hits_;
        obs::add(obs::Work::kDispatchCertificateHits);
      }
      result.feasible = true;
      result.generation_mw = std::move(generation);
      result.theta_reduced = std::move(theta);
      result.flows_mw = std::move(flows);
      result.cost = cost;
      break;
    }

    if (rounds++ == 0) ++lp_fallbacks_;
    obs::add(obs::Work::kDispatchFlowRows, violated.size());
    for (const std::size_t l : violated) {
      in_lp[l] = true;
      append_flow_rows(sys_, chol, d[l], l, load_injections_, rows, rhs);
    }
    lp.ub_matrix = linalg::Matrix(rows.size(), num_gen);
    lp.ub_rhs = linalg::Vector(rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      for (std::size_t g = 0; g < num_gen; ++g)
        lp.ub_matrix(r, g) = rows[r][g];
      lp.ub_rhs[r] = rhs[r];
    }
    const LpSolution sol = solve_linear_program(lp);
    // The flow rows relax the full LP, so an infeasible relaxation proves
    // the full dispatch problem infeasible.
    if (sol.status != LpStatus::kOptimal) break;
    generation = sol.x;
    cost = dispatch_cost(sys_, generation);
  }
  return result;
}

}  // namespace mtdgrid::opf
