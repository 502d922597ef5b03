#include "grid/power_system.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "io/case_registry.hpp"

namespace mtdgrid::grid {
namespace {

PowerSystem make_triangle() {
  // Three buses in a ring, one generator, loads on two buses.
  std::vector<Bus> buses = {{0.0}, {60.0}, {40.0}};
  std::vector<Branch> branches(3);
  branches[0] = {.from = 0, .to = 1, .reactance = 0.1, .flow_limit_mw = 100.0};
  branches[1] = {.from = 1, .to = 2, .reactance = 0.2, .flow_limit_mw = 100.0};
  branches[2] = {.from = 0, .to = 2, .reactance = 0.1, .flow_limit_mw = 100.0,
                 .has_dfacts = true, .dfacts_min_factor = 0.5,
                 .dfacts_max_factor = 1.5};
  std::vector<Generator> gens = {
      {.bus = 0, .min_mw = 0.0, .max_mw = 200.0, .cost_per_mwh = 10.0}};
  return PowerSystem("triangle", buses, branches, gens);
}

TEST(PowerSystemTest, BasicAccessors) {
  const PowerSystem sys = make_triangle();
  EXPECT_EQ(sys.num_buses(), 3u);
  EXPECT_EQ(sys.num_branches(), 3u);
  EXPECT_EQ(sys.num_generators(), 1u);
  EXPECT_EQ(sys.slack_bus(), 0u);
  EXPECT_DOUBLE_EQ(sys.total_load_mw(), 100.0);
}

TEST(PowerSystemTest, ReactanceRoundTrip) {
  PowerSystem sys = make_triangle();
  linalg::Vector x = sys.reactances();
  x[1] = 0.25;
  sys.set_reactances(x);
  EXPECT_DOUBLE_EQ(sys.branch(1).reactance, 0.25);
}

TEST(PowerSystemTest, SetReactancesRejectsBadInput) {
  PowerSystem sys = make_triangle();
  EXPECT_THROW(sys.set_reactances(linalg::Vector(2, 0.1)),
               std::invalid_argument);
  EXPECT_THROW(sys.set_reactances(linalg::Vector(3, -0.1)),
               std::invalid_argument);
  EXPECT_THROW(sys.set_reactances(linalg::Vector(
                   3, std::numeric_limits<double>::quiet_NaN())),
               std::invalid_argument);
}

TEST(PowerSystemTest, LoadScaling) {
  PowerSystem sys = make_triangle();
  sys.scale_loads(1.5);
  EXPECT_DOUBLE_EQ(sys.total_load_mw(), 150.0);
  EXPECT_DOUBLE_EQ(sys.bus(1).load_mw, 90.0);
}

TEST(PowerSystemTest, DfactsBranchListAndLimits) {
  const PowerSystem sys = make_triangle();
  const auto dfacts = sys.dfacts_branches();
  ASSERT_EQ(dfacts.size(), 1u);
  EXPECT_EQ(dfacts[0], 2u);
  const linalg::Vector lo = sys.reactance_lower_limits();
  const linalg::Vector hi = sys.reactance_upper_limits();
  EXPECT_DOUBLE_EQ(lo[2], 0.05);
  EXPECT_DOUBLE_EQ(hi[2], 0.15);
  // Non-D-FACTS branch is pinned at nominal.
  EXPECT_DOUBLE_EQ(lo[0], 0.1);
  EXPECT_DOUBLE_EQ(hi[0], 0.1);
}

TEST(PowerSystemTest, ReactancesWithinLimits) {
  const PowerSystem sys = make_triangle();
  linalg::Vector x = sys.reactances();
  EXPECT_TRUE(sys.reactances_within_limits(x));
  x[2] = 0.149;
  EXPECT_TRUE(sys.reactances_within_limits(x));
  x[2] = 0.2;
  EXPECT_FALSE(sys.reactances_within_limits(x));
  x[2] = 0.1;
  x[0] = 0.11;  // non-D-FACTS branch must stay at nominal
  EXPECT_FALSE(sys.reactances_within_limits(x));
}

TEST(PowerSystemTest, IncidenceMatrixStructure) {
  const PowerSystem sys = make_triangle();
  const linalg::Matrix at = sys.branch_incidence();
  ASSERT_EQ(at.rows(), 3u);
  ASSERT_EQ(at.cols(), 3u);
  // Every branch row sums to zero (+1 at from, -1 at to).
  for (std::size_t l = 0; l < 3; ++l) {
    double row_sum = 0.0;
    for (std::size_t i = 0; i < 3; ++i) row_sum += at(l, i);
    EXPECT_DOUBLE_EQ(row_sum, 0.0);
  }
  EXPECT_DOUBLE_EQ(at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(at(0, 1), -1.0);
}

TEST(PowerSystemTest, ReducedIncidenceDropsSlackColumn) {
  const PowerSystem sys = make_triangle();
  const linalg::Matrix ar = sys.reduced_branch_incidence();
  EXPECT_EQ(ar.cols(), 2u);
}

TEST(PowerSystemTest, SusceptanceMatrixRowsSumToZero) {
  const PowerSystem sys = make_triangle();
  const linalg::Matrix b = sys.susceptance_matrix(sys.reactances());
  for (std::size_t i = 0; i < 3; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < 3; ++j) row_sum += b(i, j);
    EXPECT_NEAR(row_sum, 0.0, 1e-9);
  }
}

TEST(PowerSystemTest, SusceptanceMatrixIsSymmetric) {
  const PowerSystem sys = make_triangle();
  const linalg::Matrix b = sys.susceptance_matrix(sys.reactances());
  EXPECT_NEAR(max_abs_diff(b, b.transposed()), 0.0, 1e-12);
}

TEST(PowerSystemTest, ValidationRejectsSelfLoop) {
  std::vector<Bus> buses = {{0.0}, {10.0}};
  std::vector<Branch> branches(2);
  branches[0] = {.from = 0, .to = 1, .reactance = 0.1, .flow_limit_mw = 10.0};
  branches[1] = {.from = 1, .to = 1, .reactance = 0.1, .flow_limit_mw = 10.0};
  std::vector<Generator> gens = {
      {.bus = 0, .min_mw = 0.0, .max_mw = 20.0, .cost_per_mwh = 1.0}};
  EXPECT_THROW(PowerSystem("bad", buses, branches, gens),
               std::invalid_argument);
}

TEST(PowerSystemTest, ValidationRejectsDisconnectedNetwork) {
  std::vector<Bus> buses = {{0.0}, {10.0}, {5.0}, {5.0}};
  std::vector<Branch> branches(2);
  branches[0] = {.from = 0, .to = 1, .reactance = 0.1, .flow_limit_mw = 10.0};
  branches[1] = {.from = 2, .to = 3, .reactance = 0.1, .flow_limit_mw = 10.0};
  std::vector<Generator> gens = {
      {.bus = 0, .min_mw = 0.0, .max_mw = 20.0, .cost_per_mwh = 1.0}};
  EXPECT_THROW(PowerSystem("split", buses, branches, gens),
               std::invalid_argument);
}

TEST(PowerSystemTest, ValidationRejectsNegativeReactance) {
  std::vector<Bus> buses = {{0.0}, {10.0}};
  std::vector<Branch> branches(1);
  branches[0] = {.from = 0, .to = 1, .reactance = -0.1, .flow_limit_mw = 10.0};
  std::vector<Generator> gens = {
      {.bus = 0, .min_mw = 0.0, .max_mw = 20.0, .cost_per_mwh = 1.0}};
  EXPECT_THROW(PowerSystem("neg", buses, branches, gens),
               std::invalid_argument);
  // NaN reactance, flow limit and D-FACTS range fail the same guards.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  branches[0].reactance = nan;
  EXPECT_THROW(PowerSystem("nan", buses, branches, gens),
               std::invalid_argument);
  branches[0].reactance = 0.1;
  branches[0].flow_limit_mw = nan;
  EXPECT_THROW(PowerSystem("nan", buses, branches, gens),
               std::invalid_argument);
  branches[0].flow_limit_mw = 10.0;
  branches[0].has_dfacts = true;
  branches[0].dfacts_min_factor = nan;
  EXPECT_THROW(PowerSystem("nan", buses, branches, gens),
               std::invalid_argument);
}

TEST(PowerSystemTest, ValidationRejectsOutOfRangeGenerator) {
  std::vector<Bus> buses = {{0.0}, {10.0}};
  std::vector<Branch> branches(1);
  branches[0] = {.from = 0, .to = 1, .reactance = 0.1, .flow_limit_mw = 10.0};
  std::vector<Generator> gens = {
      {.bus = 5, .min_mw = 0.0, .max_mw = 20.0, .cost_per_mwh = 1.0}};
  EXPECT_THROW(PowerSystem("gen", buses, branches, gens),
               std::invalid_argument);
}

}  // namespace
}  // namespace mtdgrid::grid
