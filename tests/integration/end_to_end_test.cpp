// Cross-module integration: the full defender pipeline (base OPF ->
// attacker knowledge -> MTD selection -> effectiveness evaluation) on
// multiple benchmark systems, plus the key comparison against the
// random-perturbation baseline of prior work.

#include <gtest/gtest.h>

#include "grid/measurement.hpp"
#include "grid/power_flow.hpp"
#include "io/case_registry.hpp"
#include "mtd/effectiveness.hpp"
#include "mtd/random_mtd.hpp"
#include "mtd/selection.hpp"
#include "mtd/spa.hpp"
#include "opf/dc_opf.hpp"

namespace mtdgrid {
namespace {

struct PipelineResult {
  mtd::MtdSelectionResult selection;
  mtd::EffectivenessResult effectiveness;
};

PipelineResult run_pipeline(const grid::PowerSystem& sys, double gamma_th,
                            std::uint64_t seed) {
  stats::Rng rng(seed);
  const opf::DispatchResult base = opf::solve_dc_opf(sys);
  EXPECT_TRUE(base.feasible);
  const linalg::Matrix h_attacker = grid::measurement_matrix(sys);

  mtd::MtdSelectionOptions sel;
  sel.gamma_threshold = gamma_th;
  sel.extra_starts = 3;
  sel.search.max_evaluations = 800;
  PipelineResult out;
  out.selection =
      mtd::select_mtd_perturbation(sys, h_attacker, base.cost, sel, rng);
  EXPECT_TRUE(out.selection.dispatch.feasible);

  const linalg::Vector z_ref = grid::noiseless_measurements(
      sys, out.selection.reactances, out.selection.dispatch.theta_reduced);
  mtd::EffectivenessOptions eff;
  eff.num_attacks = 200;
  eff.sigma_mw = 0.05;
  out.effectiveness = mtd::evaluate_effectiveness(
      h_attacker, out.selection.h_mtd, z_ref, eff, rng);
  return out;
}

TEST(EndToEndTest, Ieee14PipelineIsEffective) {
  const PipelineResult r = run_pipeline(io::load_case("case14"), 0.25, 1);
  EXPECT_TRUE(r.selection.feasible);
  EXPECT_GT(r.effectiveness.eta[0], 0.6);  // eta'(0.5)
}

TEST(EndToEndTest, Ieee30PipelineIsEffective) {
  const PipelineResult r = run_pipeline(io::load_case("ieee30"), 0.2, 2);
  EXPECT_TRUE(r.selection.feasible);
  EXPECT_GT(r.effectiveness.eta[0], 0.5);
}

TEST(EndToEndTest, Wscc9PipelineIsEffective) {
  const PipelineResult r = run_pipeline(io::load_case("wscc9"), 0.2, 3);
  EXPECT_TRUE(r.selection.feasible);
  EXPECT_GT(r.effectiveness.eta[0], 0.5);
}

TEST(EndToEndTest, Case57PipelineIsEffective) {
  // IEEE 57-bus: the largest scenario. A trimmed search budget keeps the
  // 217 x 56 measurement-model pipeline inside test-suite time while still
  // demanding a defense that detects most attacks at delta = 0.5.
  const grid::PowerSystem sys = io::load_case("case57");
  stats::Rng rng(9);
  const opf::DispatchResult base = opf::solve_dc_opf(sys);
  ASSERT_TRUE(base.feasible);
  const linalg::Matrix h_attacker = grid::measurement_matrix(sys);

  mtd::MtdSelectionOptions sel;
  sel.gamma_threshold = 0.12;
  sel.extra_starts = 1;
  sel.search.max_evaluations = 150;
  const mtd::MtdSelectionResult selection =
      mtd::select_mtd_perturbation(sys, h_attacker, base.cost, sel, rng);
  ASSERT_TRUE(selection.dispatch.feasible);

  const linalg::Vector z_ref = grid::noiseless_measurements(
      sys, selection.reactances, selection.dispatch.theta_reduced);
  mtd::EffectivenessOptions eff;
  eff.num_attacks = 100;
  eff.sigma_mw = 0.05;
  const mtd::EffectivenessResult effectiveness = mtd::evaluate_effectiveness(
      h_attacker, selection.h_mtd, z_ref, eff, rng);
  EXPECT_GT(effectiveness.eta[0], 0.5);
}

TEST(EndToEndTest, DesignedMtdBeatsRandomBaseline) {
  // The paper's headline comparison (Fig. 7/8 vs Fig. 6): an SPA-designed
  // perturbation achieves far higher eta'(delta) than random +/-2%
  // perturbations of prior work.
  const grid::PowerSystem sys = io::load_case("case14");
  stats::Rng rng(4);
  const opf::DispatchResult base = opf::solve_dc_opf(sys);
  const linalg::Matrix h0 = grid::measurement_matrix(sys);

  mtd::EffectivenessOptions eff;
  eff.num_attacks = 200;
  eff.sigma_mw = 0.05;

  // Random baseline: average eta'(0.5) over 10 keyspace draws.
  double random_total = 0.0;
  const linalg::Vector z0 =
      grid::noiseless_measurements(sys, sys.reactances(), base.theta_reduced);
  for (int t = 0; t < 10; ++t) {
    const linalg::Vector x =
        mtd::random_reactance_perturbation(sys, sys.reactances(), 0.02, rng);
    const auto r = mtd::evaluate_effectiveness(
        h0, grid::measurement_matrix(sys, x), z0, eff, rng);
    random_total += r.eta[0];
  }
  const double random_mean = random_total / 10.0;

  const PipelineResult designed = run_pipeline(sys, 0.3, 5);
  EXPECT_GT(designed.effectiveness.eta[0], random_mean + 0.3);
}

TEST(EndToEndTest, MtdCostBoundedOnUncongestedSystem) {
  // WSCC-9 with generous limits: the MTD should be nearly free even at a
  // demanding threshold (the "insurance premium" is load dependent).
  const grid::PowerSystem sys = io::load_case("wscc9");
  const PipelineResult r = run_pipeline(sys, 0.2, 6);
  ASSERT_TRUE(r.selection.feasible);
  EXPECT_LT(r.selection.cost_increase, 0.05);
}

TEST(EndToEndTest, AttackerLearningNewMatrixRestoresStealth) {
  // If the attacker re-learns H' (the paper's secrecy-decay caveat), the
  // MTD is defeated: attacks crafted from H' are undetectable again.
  const grid::PowerSystem sys = io::load_case("case14");
  const PipelineResult r = run_pipeline(sys, 0.25, 7);
  stats::Rng rng(8);
  const linalg::Vector z_ref = grid::noiseless_measurements(
      sys, r.selection.reactances, r.selection.dispatch.theta_reduced);
  mtd::EffectivenessOptions eff;
  eff.num_attacks = 100;
  eff.sigma_mw = 0.05;
  const auto relearned = mtd::evaluate_effectiveness(
      r.selection.h_mtd, r.selection.h_mtd, z_ref, eff, rng);
  for (double eta : relearned.eta) EXPECT_DOUBLE_EQ(eta, 0.0);
}

}  // namespace
}  // namespace mtdgrid
