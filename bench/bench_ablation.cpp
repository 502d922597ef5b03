// Ablation studies for the design choices recorded in DESIGN.md:
//  (1) multi-start budget of the problem-(4) direct search — solution
//      quality and feasibility stability;
//  (2) analytic (noncentral chi-square) vs Monte-Carlo detection
//      probability — agreement and speed;
//  (3) false-positive-rate sensitivity of the effectiveness metric;
//  (4) pinned vs deficit-only SPA penalty in the selection objective.

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench_util.hpp"
#include "grid/measurement.hpp"
#include "grid/power_flow.hpp"
#include "io/case_registry.hpp"
#include "mtd/effectiveness.hpp"
#include "mtd/selection.hpp"
#include "opf/reactance_opf.hpp"
#include "stats/rng.hpp"

namespace {

using namespace mtdgrid;

struct Context {
  grid::PowerSystem sys = io::load_case("case14");
  linalg::Matrix h0;
  double base_cost = 0.0;
  linalg::Vector x_mtd;
  linalg::Matrix h_mtd;
  linalg::Vector z_ref;
};

Context make_context() {
  Context c;
  stats::Rng rng(17);
  // Nominal-reactance baseline: box center of the D-FACTS range, so the
  // full gamma sweep range is available to the ablations.
  const opf::DispatchResult base = opf::solve_dc_opf(c.sys);
  c.h0 = grid::measurement_matrix(c.sys);
  c.base_cost = base.cost;

  mtd::MtdSelectionOptions sel;
  sel.gamma_threshold = 0.25;
  sel.extra_starts = 4;
  const mtd::MtdSelectionResult r =
      mtd::select_mtd_perturbation(c.sys, c.h0, c.base_cost, sel, rng);
  c.x_mtd = r.reactances;
  c.h_mtd = r.h_mtd;
  c.z_ref = grid::noiseless_measurements(c.sys, r.reactances,
                                         r.dispatch.theta_reduced);
  return c;
}

void ablate_multistart(const Context& c) {
  bench::print_header(
      "Ablation 1 — multi-start budget of the problem-(4) search",
      "More starts stabilize feasibility at demanding thresholds "
      "(corner starts matter near the achievable gamma ceiling).");
  std::printf("  %-8s %-10s %10s %10s %12s\n", "starts", "gamma_th",
              "feasible", "gamma", "cost incr.");
  for (int starts : {0, 2, 4, 8}) {
    for (double gth : {0.20, 0.35}) {
      stats::Rng rng(23);  // same seed: isolates the budget effect
      mtd::MtdSelectionOptions sel;
      sel.gamma_threshold = gth;
      sel.extra_starts = starts;
      sel.search.max_evaluations = 800;
      const auto r =
          mtd::select_mtd_perturbation(c.sys, c.h0, c.base_cost, sel, rng);
      std::printf("  %-8d %-10.2f %10s %10.3f %11.3f%%\n", starts, gth,
                  r.feasible ? "yes" : "no", r.spa,
                  100.0 * std::max(0.0, r.cost_increase));
    }
  }
  std::printf("\n");
}

void ablate_detection_method(const Context& c) {
  bench::print_header(
      "Ablation 2 — analytic vs Monte-Carlo detection probability",
      "The noncentral-chi-square expression matches the paper's "
      "1000-noise-draw Monte Carlo at a fraction of the cost.");
  std::printf("  %-12s %12s %12s %12s\n", "method", "eta(0.5)", "eta(0.9)",
              "seconds");
  for (auto method : {mtd::DetectionMethod::kAnalytic,
                      mtd::DetectionMethod::kMonteCarlo}) {
    stats::Rng rng(29);
    mtd::EffectivenessOptions eff;
    eff.num_attacks = 200;
    eff.sigma_mw = 0.1;
    eff.method = method;
    eff.noise_trials = 1000;
    eff.deltas = {0.5, 0.9};
    const auto start = std::chrono::steady_clock::now();
    const auto r =
        mtd::evaluate_effectiveness(c.h0, c.h_mtd, c.z_ref, eff, rng);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    std::printf("  %-12s %12.3f %12.3f %12.3f\n",
                method == mtd::DetectionMethod::kAnalytic ? "analytic"
                                                          : "monte-carlo",
                r.eta[0], r.eta[1], secs);
  }
  std::printf("\n");
}

void ablate_fp_rate(const Context& c) {
  bench::print_header(
      "Ablation 3 — false-positive-rate sensitivity",
      "A looser alpha lowers the BDD threshold and raises detection; the "
      "paper fixes alpha = 5e-4.");
  std::printf("  %-10s %12s %12s\n", "alpha", "eta(0.9)", "mean P_D");
  for (double alpha : {1e-4, 5e-4, 1e-3, 1e-2}) {
    stats::Rng rng(31);
    mtd::EffectivenessOptions eff;
    eff.num_attacks = 300;
    eff.sigma_mw = 0.1;
    eff.fp_rate = alpha;
    eff.deltas = {0.9};
    const auto r =
        mtd::evaluate_effectiveness(c.h0, c.h_mtd, c.z_ref, eff, rng);
    std::printf("  %-10.0e %12.3f %12.3f\n", alpha, r.eta[0],
                r.mean_detection);
  }
  std::printf("\n");
}

void ablate_pinning(const Context& c) {
  bench::print_header(
      "Ablation 4 — pinned vs deficit-only SPA penalty",
      "With a deficit-only penalty the optimizer drifts across the "
      "flat-cost plateau to larger angles; pinning keeps the achieved "
      "gamma at the threshold (used for the Fig. 6/9/10 sweeps).");
  std::printf("  %-10s %-10s %10s %12s\n", "mode", "gamma_th", "gamma",
              "cost incr.");
  for (bool pin : {false, true}) {
    for (double gth : {0.10, 0.20}) {
      stats::Rng rng(37);
      mtd::MtdSelectionOptions sel;
      sel.gamma_threshold = gth;
      sel.pin_gamma = pin;
      sel.extra_starts = 3;
      sel.search.max_evaluations = 800;
      const auto r =
          mtd::select_mtd_perturbation(c.sys, c.h0, c.base_cost, sel, rng);
      std::printf("  %-10s %-10.2f %10.3f %11.3f%%\n",
                  pin ? "pinned" : "deficit", gth, r.spa,
                  100.0 * std::max(0.0, r.cost_increase));
    }
  }
  std::printf("\n");
}

void BM_AnalyticDetection(benchmark::State& state) {
  const Context c = make_context();
  stats::Rng rng(41);
  mtd::EffectivenessOptions eff;
  eff.num_attacks = 100;
  eff.sigma_mw = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mtd::evaluate_effectiveness(c.h0, c.h_mtd, c.z_ref, eff, rng));
  }
}
BENCHMARK(BM_AnalyticDetection)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const Context c = make_context();
  ablate_multistart(c);
  ablate_detection_method(c);
  ablate_fp_rate(c);
  ablate_pinning(c);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
