#include "opf/reactance_opf.hpp"

#include <gtest/gtest.h>

#include "io/case_registry.hpp"

namespace mtdgrid::opf {
namespace {

TEST(ReactanceOpfTest, NeverWorseThanNominalDispatch) {
  // Optimizing the D-FACTS reactances can only relieve congestion.
  for (const char* name : {"case4", "case14", "wscc9"}) {
    const grid::PowerSystem sys = io::load_case(name);
    stats::Rng rng(3);
    const DispatchResult nominal = solve_dc_opf(sys);
    const ReactanceOpfResult r = solve_reactance_opf(sys, rng);
    ASSERT_TRUE(r.feasible) << sys.name();
    EXPECT_LE(r.dispatch.cost, nominal.cost + 1e-6) << sys.name();
  }
}

TEST(ReactanceOpfTest, RelievesCongestionOnIeee14) {
  // The IEEE 14-bus case at full load is congested at nominal reactances;
  // the D-FACTS optimum is strictly cheaper.
  const grid::PowerSystem sys = io::load_case("case14");
  stats::Rng rng(4);
  const double nominal_cost = solve_dc_opf(sys).cost;
  const ReactanceOpfResult r = solve_reactance_opf(sys, rng);
  ASSERT_TRUE(r.feasible);
  EXPECT_LT(r.dispatch.cost, nominal_cost - 1.0);
}

TEST(ReactanceOpfTest, ReactancesStayWithinDfactsLimits) {
  const grid::PowerSystem sys = io::load_case("case14");
  stats::Rng rng(5);
  const ReactanceOpfResult r = solve_reactance_opf(sys, rng);
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(sys.reactances_within_limits(r.reactances));
}

TEST(ReactanceOpfTest, NonDfactsBranchesUntouched) {
  const grid::PowerSystem sys = io::load_case("case14");
  stats::Rng rng(6);
  const ReactanceOpfResult r = solve_reactance_opf(sys, rng);
  const linalg::Vector nominal = sys.reactances();
  const auto dfacts = sys.dfacts_branches();
  for (std::size_t l = 0; l < sys.num_branches(); ++l) {
    const bool is_dfacts =
        std::find(dfacts.begin(), dfacts.end(), l) != dfacts.end();
    if (!is_dfacts) EXPECT_DOUBLE_EQ(r.reactances[l], nominal[l]);
  }
}

TEST(ReactanceOpfTest, ExpandDfactsReactances) {
  const grid::PowerSystem sys = io::load_case("case14");
  const auto dfacts = sys.dfacts_branches();
  linalg::Vector dx(dfacts.size(), 0.123);
  const linalg::Vector full = expand_dfacts_reactances(sys, dx);
  ASSERT_EQ(full.size(), sys.num_branches());
  for (std::size_t k = 0; k < dfacts.size(); ++k)
    EXPECT_DOUBLE_EQ(full[dfacts[k]], 0.123);
  EXPECT_DOUBLE_EQ(full[1], sys.branch(1).reactance);  // non-D-FACTS
}

TEST(ReactanceOpfTest, DegeneratesWithoutDfacts) {
  // A system without D-FACTS devices: result equals the plain dispatch LP.
  std::vector<grid::Bus> buses = {{0.0}, {50.0}};
  std::vector<grid::Branch> branches(1);
  branches[0] = {.from = 0, .to = 1, .reactance = 0.1,
                 .flow_limit_mw = 100.0};
  std::vector<grid::Generator> gens = {
      {.bus = 0, .min_mw = 0.0, .max_mw = 100.0, .cost_per_mwh = 7.0}};
  const grid::PowerSystem sys("plain", buses, branches, gens);
  stats::Rng rng(7);
  const ReactanceOpfResult r = solve_reactance_opf(sys, rng);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.dispatch.cost, 350.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.reactances[0], 0.1);
}

}  // namespace
}  // namespace mtdgrid::opf
