// Conformance of the PTDF constraint-generation dispatch (`solve_dc_opf`)
// against the B-theta oracle (tests/oracles/btheta_dc_opf.hpp): every
// bundled case up to 118 buses, all 24 hours of the serving daemon's
// trace, at the nominal key and at seeded points of the D-FACTS box.

#include "opf/ptdf_conformance.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "grid/load_trace.hpp"
#include "io/case_registry.hpp"
#include "mtd/daily.hpp"
#include "opf/dc_opf.hpp"
#include "serve/daemon.hpp"
#include "stats/rng.hpp"

namespace mtdgrid::opf {
namespace {

class PtdfConformance : public ::testing::TestWithParam<std::string> {};

TEST_P(PtdfConformance, MatchesBThetaOracleEveryHourAndKey) {
  const grid::PowerSystem nominal = io::load_case(GetParam());
  const grid::DailyLoadTrace trace = serve::default_daemon_trace(nominal);
  std::vector<std::size_t> hours(trace.size());
  for (std::size_t h = 0; h < hours.size(); ++h) hours[h] = h;
  test::expect_conforms(nominal, trace, hours, /*box_keys=*/3, /*seed=*/2024);
}

INSTANTIATE_TEST_SUITE_P(Cases, PtdfConformance,
                         ::testing::Values("case4", "wscc9", "case14",
                                           "ieee30", "case57", "case118"));

// The certificate path and the LP path must report the same cost for the
// same key, bit for bit, whichever entry point asked: one loop serves both.
class SameCostBothEntryPoints : public ::testing::TestWithParam<std::string> {};

TEST_P(SameCostBothEntryPoints, CongestedAndUncongestedKeys) {
  // The trace hours, then the case's nominal loads: the case118
  // certificate never holds at trace loads, but does at its nominal key.
  grid::PowerSystem sys = io::load_case(GetParam());
  const grid::DailyLoadTrace trace = serve::default_daemon_trace(sys);
  const linalg::Vector loads = sys.loads_mw();
  const linalg::Vector lo = sys.reactance_lower_limits();
  const linalg::Vector hi = sys.reactance_upper_limits();
  stats::Rng rng(7);
  bool saw_congested = false, saw_uncongested = false;
  for (std::size_t h = 0; h <= trace.size(); ++h) {
    if (h < trace.size())
      trace.apply(sys, h, loads);
    else
      sys.set_loads_mw(loads);
    for (int k = 0; k < 3; ++k) {
      linalg::Vector x = sys.reactances();
      if (k > 0)
        for (std::size_t b : sys.dfacts_branches())
          x[b] = rng.uniform(lo[b], hi[b]);
      const DispatchEvaluator evaluator(sys);
      const DispatchResult via_evaluator = evaluator.evaluate(x);
      const DispatchResult direct = solve_dc_opf(sys, x);
      ASSERT_EQ(direct.feasible, via_evaluator.feasible);
      if (!direct.feasible) continue;
      EXPECT_EQ(direct.cost, via_evaluator.cost) << "load step " << h;
      saw_uncongested |= evaluator.fast_path_hits() == 1;
      saw_congested |= evaluator.lp_fallbacks() == 1;
    }
  }
  EXPECT_TRUE(saw_congested) << "no congested key on " << GetParam();
  EXPECT_TRUE(saw_uncongested) << "no uncongested key on " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Cases, SameCostBothEntryPoints,
                         ::testing::Values("case14", "case118"));

// On hours where the merit-order certificate holds at both the problem-(1)
// baseline and the MTD key, both costs come from the same merit-order fill,
// so C_MTD is exactly zero (not a last-digit LP residue).
TEST(PtdfCostIncrease, UncongestedCase57HoursCostExactlyNothing) {
  mtd::DailySimulationOptions opt;
  opt.base_search_evaluations = 60;
  opt.selection.search.max_evaluations = 150;
  opt.selection.extra_starts = 1;
  opt.effectiveness.num_attacks = 200;
  const grid::PowerSystem sys = io::load_case("case57");
  mtd::DailyEngine engine(sys, serve::default_daemon_trace(sys), opt);
  stats::Rng rng(42);
  for (std::size_t hour = 0; hour <= 3; ++hour) {
    const mtd::DailyHourOutcome out = engine.advance_hour(rng);
    if (hour == 0) continue;
    ASSERT_TRUE(out.record.feasible) << "hour " << hour;
    EXPECT_EQ(out.record.mtd_opf_cost, out.record.base_opf_cost)
        << "hour " << hour;
    EXPECT_EQ(out.record.cost_increase_pct, 0.0) << "hour " << hour;
  }
}

}  // namespace
}  // namespace mtdgrid::opf
