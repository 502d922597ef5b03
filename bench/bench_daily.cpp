// Reproduces Fig. 10 and Fig. 11: the day-long MTD simulation on the IEEE
// 14-bus system driven by the NYISO-shaped hourly load trace. At each hour
// the threshold gamma_th is tuned so the MTD achieves eta'(0.9) >= 0.9
// against an attacker whose knowledge is one hour stale.
//
// Fig. 10: total load and MTD operational cost (%) per hour — the cost
// tracks the load/congestion level.
// Fig. 11: gamma(H_t, H_t'), gamma(H_t, H'_t'), gamma(H_t', H'_t') per
// hour — natural drift is ~0 and the attacker-view angle approximates the
// defender-view angle.

#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "grid/load_trace.hpp"
#include "io/case_registry.hpp"
#include "mtd/daily.hpp"
#include "stats/rng.hpp"

namespace {

using namespace mtdgrid;

const char* hour_label(std::size_t h) {
  // Hour h covers [h, h+1); label it by its end time so that trace index
  // 17 (the peak) reads "6PM" as in the paper's Fig. 10.
  static const char* kLabels[] = {
      " 1AM", " 2AM", " 3AM", " 4AM", " 5AM", " 6AM", " 7AM", " 8AM",
      " 9AM", "10AM", "11AM", "12PM", " 1PM", " 2PM", " 3PM", " 4PM",
      " 5PM", " 6PM", " 7PM", " 8PM", " 9PM", "10PM", "11PM", "12AM"};
  return kLabels[h % 24];
}

void run_experiment() {
  const bench::Scale scale = bench::scale_from_env();
  const grid::PowerSystem sys = io::load_case("case14");
  const grid::DailyLoadTrace trace =
      grid::DailyLoadTrace::nyiso_winter_weekday();

  mtd::DailySimulationOptions opt;
  opt.effectiveness.num_attacks =
      scale == bench::Scale::kFast ? 120 : bench::attacks_for(scale);
  opt.selection.extra_starts = bench::extra_starts_for(scale);
  opt.selection.search.max_evaluations = bench::search_evals_for(scale);
  stats::Rng rng(2024);
  const auto records = mtd::run_daily_simulation(sys, trace, opt, rng);

  bench::print_header(
      "Fig. 10 — MTD operational cost over a day (NYISO-shaped trace)",
      "Paper shape: cost ~ 0 overnight, rising to a few percent around the "
      "evening peak; cost tracks the load level.");
  std::printf("  %-6s %10s %12s %10s %10s\n", "hour", "load (MW)",
              "cost incr.", "gamma_th", "eta(0.9)");
  for (const auto& r : records) {
    std::printf("  %-6s %10.0f %11.3f%% %10.2f %10.2f%s\n",
                hour_label(r.hour), r.total_load_mw, r.cost_increase_pct,
                r.gamma_threshold, r.eta_at_target,
                r.feasible ? "" : "  (infeasible)");
  }

  bench::print_header(
      "Fig. 11 — subspace angles over the day",
      "Paper shape: gamma(H_t, H_t') ~ 0 (temporal load correlation) and "
      "gamma(H_t, H'_t') ~ gamma(H_t', H'_t').");
  std::printf("  %-6s %14s %16s %16s\n", "hour", "g(Ht,Ht')",
              "g(Ht,H'_t')", "g(Ht',H'_t')");
  for (const auto& r : records) {
    std::printf("  %-6s %14.4f %16.4f %16.4f\n", hour_label(r.hour),
                r.gamma_ht_htp, r.gamma_ht_hmtd, r.gamma_htp_hmtd);
  }
  std::printf("\n");
}

void BM_HourlyBaseOpf(benchmark::State& state) {
  grid::PowerSystem sys = io::load_case("case14");
  for (auto _ : state) {
    benchmark::DoNotOptimize(opf::solve_dc_opf(sys));
  }
}
BENCHMARK(BM_HourlyBaseOpf);

}  // namespace

int main(int argc, char** argv) {
  run_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
