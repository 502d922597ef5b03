// Reproduces Fig. 7 and Fig. 8: the random-perturbation MTD baseline of
// prior work ([11]-[13]) on the IEEE 14-bus system. Perturbations are
// drawn uniformly within +/-2% of the optimal reactances (the "keyspace").
//
// Fig. 7: eta'(delta) as a function of delta for five random draws —
// showing the high trial-to-trial variability.
// Fig. 8: the fraction of 500 random draws achieving eta'(delta) >= 0.9 —
// showing that fewer than ~10% of random perturbations are effective.

#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "grid/measurement.hpp"
#include "grid/power_flow.hpp"
#include "io/case_registry.hpp"
#include "mtd/effectiveness.hpp"
#include "mtd/random_mtd.hpp"
#include "mtd/spa.hpp"
#include "opf/dc_opf.hpp"
#include "opf/reactance_opf.hpp"
#include "stats/rng.hpp"

namespace {

using namespace mtdgrid;

// Sensor noise for the random-MTD experiments. Random +/-2% perturbations
// produce tiny subspace rotations (gamma ~ 0.002-0.007 rad); the paper's
// Fig. 7 variability is only visible when the BDD operates at high
// precision, hence the smaller sigma than the Fig. 6 runs (EXPERIMENTS.md
// discusses the calibration).
constexpr double kSigmaMw = 0.005;

struct Baseline {
  grid::PowerSystem sys;
  linalg::Matrix h0;
  linalg::Vector z0;
};

Baseline make_baseline() {
  grid::PowerSystem sys = io::load_case("case14");
  const opf::DispatchResult base = opf::solve_dc_opf(sys);
  Baseline b{std::move(sys), {}, {}};
  b.h0 = grid::measurement_matrix(b.sys);
  b.z0 = grid::noiseless_measurements(b.sys, b.sys.reactances(),
                                      base.theta_reduced);
  return b;
}

void run_fig7(const Baseline& b, bench::Scale scale) {
  bench::print_header(
      "Fig. 7 — eta'(delta) for five random +/-2% MTD perturbations",
      "Paper shape: wildly different curves across trials — random "
      "keyspace draws cannot guarantee effectiveness.");
  stats::Rng rng(11);
  const std::vector<double> deltas = {0.05, 0.2, 0.4, 0.6, 0.8, 0.95};
  std::printf("  %-8s %-12s", "trial", "gamma (rad)");
  for (double d : deltas) std::printf(" eta(%.2f)", d);
  std::printf("\n");
  for (int trial = 0; trial < 5; ++trial) {
    const linalg::Vector x = mtd::random_reactance_perturbation(
        b.sys, b.sys.reactances(), 0.02, rng);
    const linalg::Matrix hp = grid::measurement_matrix(b.sys, x);
    mtd::EffectivenessOptions eff;
    eff.num_attacks = bench::attacks_for(scale);
    eff.sigma_mw = kSigmaMw;
    eff.deltas = deltas;
    const auto r = mtd::evaluate_effectiveness(b.h0, hp, b.z0, eff, rng);
    std::printf("  %-8d %-12.4f", trial + 1, mtd::spa(b.h0, hp));
    for (double eta : r.eta) std::printf(" %9.3f", eta);
    std::printf("\n");
  }
  std::printf("\n");
}

void run_fig8(const Baseline& b, bench::Scale scale) {
  const int keyspace =
      scale == bench::Scale::kFast ? 100 : 500;  // paper: 500 draws
  bench::print_header(
      "Fig. 8 — fraction of random perturbations with eta'(delta) >= 0.9",
      "Paper shape: less than ~10% of the keyspace satisfies "
      "eta'(0.9) >= 0.9; the curve decays as delta grows.");
  stats::Rng rng(13);
  const std::vector<double> deltas = {0.05, 0.1, 0.2, 0.3, 0.4, 0.5,
                                      0.6,  0.7, 0.8, 0.9, 0.95};
  std::vector<int> hits(deltas.size(), 0);
  mtd::EffectivenessOptions eff;
  eff.num_attacks =
      scale == bench::Scale::kFast ? 100 : bench::attacks_for(scale);
  eff.sigma_mw = kSigmaMw;
  eff.deltas = deltas;
  for (int k = 0; k < keyspace; ++k) {
    const linalg::Vector x = mtd::random_reactance_perturbation(
        b.sys, b.sys.reactances(), 0.02, rng);
    const auto r = mtd::evaluate_effectiveness(
        b.h0, grid::measurement_matrix(b.sys, x), b.z0, eff, rng);
    for (std::size_t i = 0; i < deltas.size(); ++i)
      if (r.eta[i] >= 0.9) ++hits[i];
  }
  std::printf("  %-8s %22s\n", "delta", "fraction of keyspace");
  for (std::size_t i = 0; i < deltas.size(); ++i)
    std::printf("  %-8.2f %22.3f\n", deltas[i],
                static_cast<double>(hits[i]) / keyspace);
  std::printf("  (keyspace size: %d)\n\n", keyspace);
}

void BM_RandomPerturbationDraw(benchmark::State& state) {
  const grid::PowerSystem sys = io::load_case("case14");
  stats::Rng rng(3);
  const linalg::Vector x0 = sys.reactances();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mtd::random_reactance_perturbation(sys, x0, 0.02, rng));
  }
}
BENCHMARK(BM_RandomPerturbationDraw);

void BM_KeyspaceMemberEvaluation(benchmark::State& state) {
  const Baseline b = make_baseline();
  stats::Rng rng(4);
  mtd::EffectivenessOptions eff;
  eff.num_attacks = 200;
  eff.sigma_mw = kSigmaMw;
  for (auto _ : state) {
    const linalg::Vector x = mtd::random_reactance_perturbation(
        b.sys, b.sys.reactances(), 0.02, rng);
    benchmark::DoNotOptimize(mtd::evaluate_effectiveness(
        b.h0, grid::measurement_matrix(b.sys, x), b.z0, eff, rng));
  }
}
BENCHMARK(BM_KeyspaceMemberEvaluation);

}  // namespace

int main(int argc, char** argv) {
  const bench::Scale scale = bench::scale_from_env();
  const Baseline b = make_baseline();
  run_fig7(b, scale);
  run_fig8(b, scale);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
