// Reproduces Fig. 6(a)/(b): MTD effectiveness eta'(delta) as a function of
// the subspace angle gamma(H_t, H'_t') for the IEEE 14-bus and IEEE 30-bus
// systems, delta in {0.5, 0.8, 0.9, 0.95}, FP rate 5e-4, attacks scaled to
// ||a||_1/||z||_1 ~ 0.08.
//
// For the 14-bus system each point solves the paper's problem (4) with the
// SPA pinned at the target angle (fmincon + MultiStart analogue). For the
// 30-bus system the perturbation is found by bisecting along a segment
// from the no-MTD reactances to a high-angle corner of the D-FACTS box —
// a much cheaper generator of "a feasible perturbation with the requested
// gamma" that leaves the effectiveness statistics unchanged.

#include <benchmark/benchmark.h>

#include <optional>

#include "bench_util.hpp"
#include "core/thread_pool.hpp"
#include "grid/measurement.hpp"
#include "grid/power_flow.hpp"
#include "io/case_registry.hpp"
#include "mtd/effectiveness.hpp"
#include "mtd/selection.hpp"
#include "mtd/spa.hpp"
#include "opf/dc_opf.hpp"
#include "opf/reactance_opf.hpp"
#include "stats/rng.hpp"

namespace {

using namespace mtdgrid;

mtd::EffectivenessOptions effectiveness_options(bench::Scale scale) {
  mtd::EffectivenessOptions opt;
  opt.num_attacks = bench::attacks_for(scale);
  opt.sigma_mw = 0.1;  // spreads the eta transition over the gamma range
                       // reachable by our D-FACTS model (~0-0.26 rad on
                       // the 14-bus system); see EXPERIMENTS.md
  opt.fp_rate = 5e-4;
  if (scale == bench::Scale::kFull) {
    opt.method = mtd::DetectionMethod::kMonteCarlo;
    opt.noise_trials = 1000;
  }
  return opt;
}

/// Bisection along x(t) = x0 + t (corner - x0) for gamma(H0, H(x(t))) ==
/// target, keeping the OPF feasible. Returns nullopt if the target exceeds
/// the reachable angle.
std::optional<linalg::Vector> perturbation_with_gamma(
    const grid::PowerSystem& sys, const linalg::Matrix& h0, double target,
    stats::Rng& rng) {
  const auto dfacts = sys.dfacts_branches();
  const linalg::Vector lo = sys.reactance_lower_limits();
  const linalg::Vector hi = sys.reactance_upper_limits();

  // Pick the best of a few random corners as the far end of the segment.
  linalg::Vector best_corner;
  double best_gamma = -1.0;
  for (int trial = 0; trial < 24; ++trial) {
    linalg::Vector corner = sys.reactances();
    for (std::size_t l : dfacts)
      corner[l] = (rng.uniform() < 0.5) ? lo[l] : hi[l];
    if (!opf::solve_dc_opf(sys, corner).feasible) continue;
    const double gamma = mtd::spa(h0, grid::measurement_matrix(sys, corner));
    if (gamma > best_gamma) {
      best_gamma = gamma;
      best_corner = corner;
    }
  }
  if (best_gamma < target) return std::nullopt;

  const linalg::Vector x0 = sys.reactances();
  double t_lo = 0.0, t_hi = 1.0;
  linalg::Vector x = best_corner;
  for (int iter = 0; iter < 40; ++iter) {
    const double t = 0.5 * (t_lo + t_hi);
    for (std::size_t i = 0; i < x.size(); ++i)
      x[i] = x0[i] + t * (best_corner[i] - x0[i]);
    const double gamma = mtd::spa(h0, grid::measurement_matrix(sys, x));
    if (gamma < target) {
      t_lo = t;
    } else {
      t_hi = t;
    }
    if (t_hi - t_lo < 1e-4) break;
  }
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = x0[i] + t_hi * (best_corner[i] - x0[i]);
  if (!opf::solve_dc_opf(sys, x).feasible) return std::nullopt;
  return x;
}

void run_figure(const grid::PowerSystem& sys_in,
                const std::vector<double>& gammas, bool use_problem4,
                bench::Scale scale, std::uint64_t seed) {
  grid::PowerSystem sys = sys_in;
  stats::Rng rng(seed);

  // The no-MTD operating point the attacker learned: the nominal case-file
  // reactances (box center of the D-FACTS range, giving the full gamma
  // sweep range of the paper's static-load experiment) with the dispatch
  // from problem (1).
  const opf::DispatchResult base = opf::solve_dc_opf(sys);
  if (!base.feasible) {
    std::printf("  base OPF infeasible for %s\n", sys.name().c_str());
    return;
  }
  const linalg::Matrix h0 = grid::measurement_matrix(sys);

  const std::vector<double> deltas = {0.5, 0.8, 0.9, 0.95};
  std::printf("  %-14s %10s %10s %10s %10s\n", "gamma (rad)", "eta(0.50)",
              "eta(0.80)", "eta(0.90)", "eta(0.95)");
  for (double gamma_target : gammas) {
    std::optional<linalg::Vector> x;
    if (use_problem4) {
      mtd::MtdSelectionOptions sel;
      sel.gamma_threshold = gamma_target;
      sel.pin_gamma = true;
      sel.extra_starts = bench::extra_starts_for(scale);
      sel.search.max_evaluations = bench::search_evals_for(scale);
      const mtd::MtdSelectionResult r =
          mtd::select_mtd_perturbation(sys, h0, base.cost, sel, rng);
      if (r.feasible) x = r.reactances;
    } else {
      x = perturbation_with_gamma(sys, h0, gamma_target, rng);
    }
    if (!x) {
      std::printf("  %-14.3f        (gamma unreachable)\n", gamma_target);
      continue;
    }
    const opf::DispatchResult d = opf::solve_dc_opf(sys, *x);
    const linalg::Matrix h_mtd = grid::measurement_matrix(sys, *x);
    const linalg::Vector z_ref =
        grid::noiseless_measurements(sys, *x, d.theta_reduced);
    mtd::EffectivenessOptions eff = effectiveness_options(scale);
    eff.deltas = deltas;
    const mtd::EffectivenessResult res =
        mtd::evaluate_effectiveness(h0, h_mtd, z_ref, eff, rng);
    std::printf("  %-14.3f %10.3f %10.3f %10.3f %10.3f\n",
                mtd::spa(h0, h_mtd), res.eta[0], res.eta[1], res.eta[2],
                res.eta[3]);
  }
  std::printf("\n");
}

void run_experiment() {
  const bench::Scale scale = bench::scale_from_env();

  bench::print_header(
      "Fig. 6(a) — eta'(delta) vs gamma(H_t, H'_t'), IEEE 14-bus",
      "Paper shape: eta' rises monotonically with gamma and saturates near "
      "the achievable\nceiling (the paper's axis reaches 0.45 rad; our "
      "D-FACTS model tops out at ~0.26 rad\nfrom the nominal reactances — "
      "see EXPERIMENTS.md). FP rate 5e-4.");
  run_figure(io::load_case("case14"),
             {0.025, 0.05, 0.075, 0.10, 0.125, 0.15, 0.175, 0.20, 0.225,
              0.25},
             /*use_problem4=*/true, scale, 101);

  bench::print_header(
      "Fig. 6(b) — eta'(delta) vs gamma(H_t, H'_t'), IEEE 30-bus",
      "Same trend on the larger system (scalability check).");
  run_figure(io::load_case("ieee30"),
             {0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40},
             /*use_problem4=*/false, scale, 202);
}

void BM_EffectivenessEvaluation(benchmark::State& state) {
  grid::PowerSystem sys = io::load_case("case14");
  stats::Rng rng(7);
  const linalg::Matrix h0 = grid::measurement_matrix(sys);
  linalg::Vector x = sys.reactances();
  for (std::size_t l : sys.dfacts_branches()) x[l] *= 1.35;
  const linalg::Matrix h_mtd = grid::measurement_matrix(sys, x);
  const opf::DispatchResult d = opf::solve_dc_opf(sys, x);
  const linalg::Vector z_ref =
      grid::noiseless_measurements(sys, x, d.theta_reduced);
  mtd::EffectivenessOptions eff;
  eff.num_attacks = static_cast<int>(state.range(0));
  eff.sigma_mw = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mtd::evaluate_effectiveness(h0, h_mtd, z_ref, eff, rng));
  }
}
BENCHMARK(BM_EffectivenessEvaluation)->Arg(100)->Arg(500);

// Batched vs per-candidate effectiveness: the batched API draws the attack
// sample once for the whole candidate set, so the speedup approaches
// (sample + score) / score per candidate.
void BM_EffectivenessBatched(benchmark::State& state) {
  grid::PowerSystem sys = io::load_case("case14");
  stats::Rng rng(7);
  const linalg::Matrix h0 = grid::measurement_matrix(sys);
  std::vector<linalg::Matrix> candidates;
  for (double factor : {0.8, 0.9, 1.1, 1.2, 1.3, 1.35, 1.4, 1.45}) {
    linalg::Vector x = sys.reactances();
    for (std::size_t l : sys.dfacts_branches()) x[l] *= factor;
    candidates.push_back(grid::measurement_matrix(sys, x));
  }
  linalg::Vector x = sys.reactances();
  for (std::size_t l : sys.dfacts_branches()) x[l] *= 1.35;
  const opf::DispatchResult d = opf::solve_dc_opf(sys, x);
  const linalg::Vector z_ref =
      grid::noiseless_measurements(sys, x, d.theta_reduced);
  mtd::EffectivenessOptions eff;
  eff.num_attacks = static_cast<int>(state.range(0));
  eff.sigma_mw = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mtd::evaluate_candidates(h0, candidates, z_ref, eff, rng));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int>(candidates.size()));
}
BENCHMARK(BM_EffectivenessBatched)->Arg(100)->Arg(500);

// Thread-scaling sweep on the Case118 effectiveness evaluation (the
// gating cost of the large-case keyspace audits): same seed at every
// thread count, so this doubles as a determinism check — the mean
// detection probability must not move between rows. Wall-clock (real
// time) is the quantity of interest. The recorded baseline was measured
// on the 1-core reference VM (see CONTRIBUTING.md for the regeneration
// workflow); on an 8-core machine the 8-thread row should run >= 4x
// faster than the 1-thread row.
void BM_Case118EffectivenessParallel(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  grid::PowerSystem sys = io::load_case("case118");
  const linalg::Matrix h0 = grid::measurement_matrix(sys);
  linalg::Vector x = sys.reactances();
  for (std::size_t l : sys.dfacts_branches()) x[l] *= 1.35;
  const linalg::Matrix h_mtd = grid::measurement_matrix(sys, x);
  const opf::DispatchResult d = opf::solve_dc_opf(sys, x);
  const linalg::Vector z_ref =
      grid::noiseless_measurements(sys, x, d.theta_reduced);
  mtd::EffectivenessOptions eff;
  eff.num_attacks = 300;
  eff.sigma_mw = 0.1;

  core::ThreadPool::set_global_num_threads(threads);
  for (auto _ : state) {
    stats::Rng rng(7);  // fixed seed: every thread count computes the
                        // same sample, so rows are directly comparable
    const mtd::EffectivenessResult r =
        mtd::evaluate_effectiveness(h0, h_mtd, z_ref, eff, rng);
    benchmark::DoNotOptimize(r.mean_detection);
  }
  core::ThreadPool::set_global_num_threads(0);  // restore the default
}
BENCHMARK(BM_Case118EffectivenessParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_SpaComputation(benchmark::State& state) {
  const grid::PowerSystem sys = io::load_case("case14");
  const linalg::Matrix h0 = grid::measurement_matrix(sys);
  linalg::Vector x = sys.reactances();
  for (std::size_t l : sys.dfacts_branches()) x[l] *= 1.25;
  const linalg::Matrix h1 = grid::measurement_matrix(sys, x);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mtd::spa(h0, h1));
  }
}
BENCHMARK(BM_SpaComputation);

}  // namespace

int main(int argc, char** argv) {
  run_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
