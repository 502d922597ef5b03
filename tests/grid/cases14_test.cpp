#include "io/case_registry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "grid/measurement.hpp"
#include "grid/power_flow.hpp"
#include "opf/dc_opf.hpp"

namespace mtdgrid::grid {
namespace {

// Coverage for the canonical case14 / case57 scenario entry points:
// structure, measurement-model dimensions, per-bus DC power-flow balance,
// and a feasible base-case OPF dispatch on each.

TEST(Case14Test, Structure) {
  const PowerSystem sys = io::load_case("case14");
  EXPECT_EQ(sys.num_buses(), 14u);
  EXPECT_EQ(sys.num_branches(), 20u);
  EXPECT_EQ(sys.num_generators(), 5u);
  EXPECT_EQ(sys.dfacts_branches().size(), 6u);
  EXPECT_NEAR(sys.total_load_mw(), 259.0, 0.01);
}

TEST(Case14Test, MeasurementMatrixDimensions) {
  // M = 2L + N = 2*20 + 14 = 54 measurements against n = N - 1 = 13 states.
  const PowerSystem sys = io::load_case("case14");
  EXPECT_EQ(measurement_count(sys), 54u);
  const linalg::Matrix h = measurement_matrix(sys);
  EXPECT_EQ(h.rows(), 54u);
  EXPECT_EQ(h.cols(), 13u);
}

TEST(Case57Test, StructureMatchesMatpowerCase57) {
  const PowerSystem sys = io::load_case("case57");
  EXPECT_EQ(sys.num_buses(), 57u);
  EXPECT_EQ(sys.num_branches(), 80u);
  EXPECT_EQ(sys.num_generators(), 7u);
  EXPECT_NEAR(sys.total_load_mw(), 1250.8, 0.01);
  EXPECT_EQ(sys.dfacts_branches().size(), 10u);

  // MATPOWER case57 generator buses {1,2,3,6,8,9,12} (1-based).
  const std::size_t gen_buses[] = {0, 1, 2, 5, 7, 8, 11};
  for (std::size_t g = 0; g < 7; ++g)
    EXPECT_EQ(sys.generator(g).bus, gen_buses[g]);
}

TEST(Case57Test, KeepsMatpowerParallelCircuits) {
  // case57 has double circuits on 4-18 and 24-25; the DC model sums their
  // susceptances, so both must survive into the branch list.
  const PowerSystem sys = io::load_case("case57");
  int count_4_18 = 0;
  int count_24_25 = 0;
  for (const Branch& br : sys.branches()) {
    if (br.from == 3 && br.to == 17) ++count_4_18;
    if (br.from == 23 && br.to == 24) ++count_24_25;
  }
  EXPECT_EQ(count_4_18, 2);
  EXPECT_EQ(count_24_25, 2);
}

TEST(Case57Test, MeasurementMatrixDimensions) {
  // M = 2L + N = 2*80 + 57 = 217 measurements against n = N - 1 = 56 states.
  const PowerSystem sys = io::load_case("case57");
  EXPECT_EQ(measurement_count(sys), 217u);
  const linalg::Matrix h = measurement_matrix(sys);
  EXPECT_EQ(h.rows(), 217u);
  EXPECT_EQ(h.cols(), 56u);
}

TEST(Case57Test, DcPowerFlowBalancesAtEveryBus) {
  const PowerSystem sys = io::load_case("case57");
  const opf::DispatchResult r = opf::solve_dc_opf(sys);
  ASSERT_TRUE(r.feasible);

  // Net flow out of each bus must equal its injection (generation - load).
  const linalg::Vector inj = nodal_injections(sys, r.generation_mw);
  std::vector<double> net(sys.num_buses(), 0.0);
  for (std::size_t l = 0; l < sys.num_branches(); ++l) {
    net[sys.branch(l).from] += r.flows_mw[l];
    net[sys.branch(l).to] -= r.flows_mw[l];
  }
  for (std::size_t i = 0; i < sys.num_buses(); ++i)
    EXPECT_NEAR(net[i], inj[i], 1e-6) << "bus " << i + 1;
}

TEST(Case57Test, SolveDcPowerFlowAgreesWithOpfFlows) {
  const PowerSystem sys = io::load_case("case57");
  const opf::DispatchResult r = opf::solve_dc_opf(sys);
  ASSERT_TRUE(r.feasible);
  const DcPowerFlowResult pf = solve_dc_power_flow(
      sys, sys.reactances(), nodal_injections(sys, r.generation_mw));
  for (std::size_t l = 0; l < sys.num_branches(); ++l)
    EXPECT_NEAR(pf.flows_mw[l], r.flows_mw[l], 1e-6);
}

TEST(Case57Test, BaseOpfDispatchIsFeasibleAndEconomic) {
  const PowerSystem sys = io::load_case("case57");
  const opf::DispatchResult r = opf::solve_dc_opf(sys);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.generation_mw.sum(), sys.total_load_mw(), 1e-6);
  // Unconstrained merit order: buses 1 and 8 at capacity, bus 12 marginal.
  EXPECT_NEAR(r.generation_mw[0], 575.88, 0.01);
  EXPECT_NEAR(r.generation_mw[4], 550.0, 0.01);
  EXPECT_NEAR(r.cost, 27115.4, 1.0);
  // Every flow within its thermal limit.
  for (std::size_t l = 0; l < sys.num_branches(); ++l)
    EXPECT_LE(std::abs(r.flows_mw[l]), sys.branch(l).flow_limit_mw + 1e-9)
        << "branch " << l;
}

TEST(Case57Test, OpfStaysFeasibleUnderDfactsPerturbations) {
  // The MTD pipeline re-runs the OPF after each reactance perturbation;
  // the full +/-50% D-FACTS envelope must keep the case solvable.
  const PowerSystem sys = io::load_case("case57");
  for (double factor : {0.5, 0.75, 1.25, 1.5}) {
    linalg::Vector x = sys.reactances();
    for (std::size_t l : sys.dfacts_branches()) x[l] *= factor;
    const opf::DispatchResult r = opf::solve_dc_opf(sys, x);
    EXPECT_TRUE(r.feasible) << "factor " << factor;
  }
}

TEST(Case57Test, GenerationHeadroomForLoadScaling) {
  const PowerSystem sys = io::load_case("case57");
  double capacity = 0.0;
  for (std::size_t g = 0; g < sys.num_generators(); ++g)
    capacity += sys.generator(g).max_mw;
  EXPECT_GT(capacity, 1.2 * sys.total_load_mw());
}

}  // namespace
}  // namespace mtdgrid::grid
