// Daily operations: what a system operator's MTD schedule looks like.
//
// Replays a 24-hour load trace against the IEEE 14-bus system. Every hour
// the operator (a) tracks the load with the ordinary reactance-augmented
// OPF, and (b) applies an MTD perturbation tuned to keep eta'(0.9) >= 0.9
// against an attacker whose knowledge is one hour stale. The program
// prints the resulting schedule and totals the "insurance premium" the
// defense costs over the day (the paper's Section VI framing).
//
// Usage: daily_operations [trough_mw peak_mw]
//   With no arguments, the NYISO-shaped winter-weekday trace is used.

#include <algorithm>
#include <cstdio>
#include <limits>

#include "cli.hpp"
#include "grid/load_trace.hpp"
#include "io/case_registry.hpp"
#include "mtd/daily.hpp"
#include "stats/rng.hpp"

int main(int argc, char** argv) {
  using namespace mtdgrid;
  stats::Rng rng(7);

  const auto usage = [&] {
    std::fprintf(stderr,
                 "usage: %s [trough_mw peak_mw]  "
                 "(0 < trough_mw <= peak_mw)\n",
                 argv[0]);
    return 2;
  };
  if (argc != 1 && argc != 3) return usage();

  grid::DailyLoadTrace trace = grid::DailyLoadTrace::nyiso_winter_weekday();
  if (argc == 3) {
    constexpr double kMaxMw = std::numeric_limits<double>::max();
    double trough = 0.0;
    double peak = 0.0;
    if (!examples::parse_double(argv[1], 0.0, kMaxMw, trough) ||
        trough == 0.0 ||
        !examples::parse_double(argv[2], trough, kMaxMw, peak))
      return usage();
    trace = grid::DailyLoadTrace::synthetic(trough, peak, /*peak_hour=*/18,
                                            /*jitter=*/0.02, rng);
    std::printf("Using synthetic trace: trough %.0f MW, peak %.0f MW\n",
                trough, peak);
  }

  const grid::PowerSystem sys = io::load_case("case14");
  mtd::DailySimulationOptions options;
  options.effectiveness.num_attacks = 300;
  options.selection.extra_starts = 4;
  options.selection.search.max_evaluations = 900;

  const auto schedule = mtd::run_daily_simulation(sys, trace, options, rng);

  std::printf("\n hour | load (MW) | gamma_th | eta'(0.9) | MTD cost\n");
  std::printf("------+-----------+----------+-----------+---------\n");
  double premium_dollars = 0.0;
  double base_dollars = 0.0;
  for (const mtd::HourlyRecord& hour : schedule) {
    std::printf("  %02zu  | %9.0f | %8.2f | %9.2f | %6.3f%%%s\n", hour.hour,
                hour.total_load_mw, hour.gamma_threshold, hour.eta_at_target,
                hour.cost_increase_pct,
                hour.feasible ? "" : "  (target missed)");
    premium_dollars += hour.mtd_opf_cost - hour.base_opf_cost;
    base_dollars += hour.base_opf_cost;
  }
  premium_dollars = std::max(0.0, premium_dollars);

  std::printf("\nDaily dispatch cost without MTD: $%.0f\n", base_dollars);
  std::printf("Daily MTD insurance premium:     $%.0f (%.3f%% of dispatch)\n",
              premium_dollars, 100.0 * premium_dollars / base_dollars);
  std::printf(
      "\nFor perspective, the paper cites prior work in which a single\n"
      "undetected FDI attack raised the OPF cost by up to 28%% and tripped\n"
      "transmission lines — the premium buys detection of such attacks\n"
      "within one MTD period.\n");
  return 0;
}
