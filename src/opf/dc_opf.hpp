#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "grid/power_system.hpp"
#include "linalg/vector.hpp"

namespace mtdgrid::opf {

/// Solution of the DC optimal power flow (paper problem (1) for fixed
/// branch reactances): the least-cost generation dispatch that balances
/// the load and respects flow and generator limits.
struct DispatchResult {
  bool feasible = false;         ///< a valid dispatch was found
  linalg::Vector generation_mw;  ///< per-generator dispatch G_i (MW)
  linalg::Vector theta_reduced;  ///< bus angles, slack removed (rad)
  linalg::Vector flows_mw;       ///< branch flows (MW)
  double cost = 0.0;             ///< total generation cost, $/h
};

/// Solves the DC-OPF for the given branch reactances `x` (length L).
/// Returns `feasible == false` when no dispatch satisfies the constraints,
/// and also when B_r(x) cannot be factored (never for a validated
/// system's positive reactances; the call does not throw).
///
/// The LP is solved by constraint generation over the G generator
/// outputs (DESIGN.md "PTDF dispatch with lazy flow rows"): starting from
/// the merit-order fill, each round runs one power flow and adds a PTDF
/// flow-limit row pair for every newly violated branch, until the
/// dispatch's flows all lie within limit + 1e-6 MW. Equivalent to
/// `DispatchEvaluator(sys).evaluate(x)`, bit for bit.
DispatchResult solve_dc_opf(const grid::PowerSystem& sys,
                            const linalg::Vector& x);

/// Solves the DC-OPF at the system's current nominal reactances.
DispatchResult solve_dc_opf(const grid::PowerSystem& sys);

/// Total generation cost of a dispatch under the system's linear cost
/// model, sum_i c_i * G_i.
double dispatch_cost(const grid::PowerSystem& sys,
                     const linalg::Vector& generation_mw);

/// Amortized DC-OPF evaluation for sweeping many reactance candidates over
/// a fixed system and load (the MTD selection loop calls the dispatch LP
/// once per candidate).
///
/// Everything that does not depend on the reactances is computed ONCE at
/// construction: the merit-order generator fill (the exact optimum of the
/// LP with the flow limits dropped) and the fill-reducing ordering of
/// B_r, whose pattern is fixed by the topology. `evaluate(x)` then runs
/// the constraint-generation loop of `solve_dc_opf` from that fill. When
/// the fill's power flow is within the flow limits (the common case away
/// from congestion) it is provably optimal and no LP is solved — the
/// merit-order certificate; otherwise PTDF rows for the violated branches
/// enter a G-variable LP, typically for a few rounds.
class DispatchEvaluator {
 public:
  /// Builds the evaluator for `sys`, solving the flow-relaxed dispatch
  /// once; `sys` must outlive the evaluator.
  explicit DispatchEvaluator(const grid::PowerSystem& sys);
  /// The evaluator only references the system; a temporary would dangle.
  explicit DispatchEvaluator(grid::PowerSystem&&) = delete;

  /// Optimal dispatch at reactances `x`; bit-identical to
  /// `solve_dc_opf(sys, x)`. Safe to call concurrently from several
  /// threads: all candidate-independent state is set at construction and
  /// the instrumentation counters are atomic. The selection sweep shares
  /// one evaluator across all pool workers.
  DispatchResult evaluate(const linalg::Vector& x) const;

  /// Instrumentation: evaluations accepted at round 0 (the merit-order
  /// certificate held, no LP solved).
  std::size_t fast_path_hits() const { return fast_hits_; }
  /// Instrumentation: evaluations that solved at least one LP round.
  std::size_t lp_fallbacks() const { return lp_fallbacks_; }

 private:
  const grid::PowerSystem& sys_;  // must outlive the evaluator
  bool relaxed_ok_ = false;
  linalg::Vector relaxed_generation_;
  double relaxed_cost_ = 0.0;
  // Minimum-degree elimination order of B_r (pattern fixed by topology).
  std::vector<std::size_t> ordering_;
  // Reduced (slack-removed) injection of the loads alone, -load_i.
  linalg::Vector load_injections_;
  mutable std::atomic<std::size_t> fast_hits_{0};
  mutable std::atomic<std::size_t> lp_fallbacks_{0};
};

}  // namespace mtdgrid::opf
