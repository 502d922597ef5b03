// Quickstart: the whole story of the paper in ~80 lines.
//
//  1. Load the IEEE 14-bus system and run the optimal power flow.
//  2. Let an attacker craft a stealthy FDI attack a = H c from the learned
//     measurement matrix — the bad-data detector cannot see it.
//  3. Apply an SPA-designed MTD reactance perturbation (problem (4)).
//  4. Show that the same attack now trips the detector, and what the
//     defense costs in dispatch dollars.
//
// Build: cmake --build build && ./build/examples/quickstart

#include <cstdio>

#include "attack/fdi_attack.hpp"
#include "estimation/bdd.hpp"
#include "estimation/detection.hpp"
#include "estimation/state_estimator.hpp"
#include "grid/measurement.hpp"
#include "grid/power_flow.hpp"
#include "io/case_registry.hpp"
#include "mtd/selection.hpp"
#include "mtd/spa.hpp"
#include "opf/reactance_opf.hpp"
#include "stats/rng.hpp"

int main(int argc, char** argv) {
  using namespace mtdgrid;
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s  (takes no arguments)\n", argv[0]);
    return 2;
  }
  stats::Rng rng(42);

  // --- 1. The grid and its optimal operating point -----------------------
  grid::PowerSystem sys = io::load_case("case14");
  const opf::DispatchResult base = opf::solve_dc_opf(sys);
  std::printf("IEEE 14-bus: %zu buses, %zu lines, load %.0f MW\n",
              sys.num_buses(), sys.num_branches(), sys.total_load_mw());
  std::printf("No-MTD OPF cost: $%.2f/h\n\n", base.cost);

  // --- 2. The attacker learns H and crafts a stealthy attack -------------
  const linalg::Matrix h = grid::measurement_matrix(sys);
  const linalg::Vector z_true = grid::noiseless_measurements(
      sys, sys.reactances(), base.theta_reduced);
  const attack::FdiAttack attack =
      attack::random_stealthy_attack(h, z_true, 0.08, rng);

  const double sigma = 0.1;  // sensor noise standard deviation, MW
  const estimation::StateEstimator estimator(h, sigma);
  const estimation::BadDataDetector bdd(estimator, 5e-4);
  const double pd_before =
      estimation::analytic_detection_probability(estimator, bdd, attack.a);
  std::printf("Attack ||a||_1/||z||_1 = %.3f; detection probability against "
              "the unperturbed grid: %.4f\n",
              attack.a.norm1() / z_true.norm1(), pd_before);
  std::printf("(=> the attack is invisible: P_D equals the %.1e false-"
              "positive rate)\n\n", bdd.fp_rate());

  // --- 3. The defender applies an SPA-designed MTD -----------------------
  mtd::MtdSelectionOptions options;
  options.gamma_threshold = 0.2;  // radians; see the Fig. 9 tradeoff
  const mtd::MtdSelectionResult defense =
      mtd::select_mtd_perturbation(sys, h, base.cost, options, rng);
  std::printf("MTD perturbation: gamma(H, H') = %.3f rad, OPF cost "
              "$%.2f/h (+%.3f%%)\n",
              defense.spa, defense.opf_cost,
              100.0 * std::max(0.0, defense.cost_increase));

  // --- 4. The same attack against the moved target -----------------------
  const estimation::StateEstimator estimator_mtd(defense.h_mtd, sigma);
  const estimation::BadDataDetector bdd_mtd(estimator_mtd, 5e-4);
  const double pd_after = estimation::analytic_detection_probability(
      estimator_mtd, bdd_mtd, attack.a);
  std::printf("Detection probability after the MTD: %.4f\n", pd_after);
  std::printf("Monte-Carlo check (1000 noise draws): %.4f\n",
              estimation::monte_carlo_detection_probability(
                  estimator_mtd, bdd_mtd,
                  grid::noiseless_measurements(
                      sys, defense.reactances,
                      defense.dispatch.theta_reduced),
                  attack.a, 1000, rng));
  std::printf("\nThe attacker's knowledge is invalidated: the stealthy "
              "attack is now caught\nwith high probability, at an "
              "operational premium of %.3f%% of the dispatch cost.\n",
              100.0 * std::max(0.0, defense.cost_increase));
  return 0;
}
