#include "io/case_registry.hpp"

#include <gtest/gtest.h>

#include "opf/dc_opf.hpp"

namespace mtdgrid::grid {
namespace {

TEST(CasesTest, Case4MatchesPaperFigure3) {
  const PowerSystem sys = io::load_case("case4");
  EXPECT_EQ(sys.num_buses(), 4u);
  EXPECT_EQ(sys.num_branches(), 4u);
  EXPECT_EQ(sys.num_generators(), 2u);
  EXPECT_DOUBLE_EQ(sys.total_load_mw(), 500.0);
  // Every line carries a D-FACTS device for the Table I experiments.
  EXPECT_EQ(sys.dfacts_branches().size(), 4u);
}

TEST(CasesTest, Case4PrePerturbationOpfReproducesTable2) {
  // Paper Table II: dispatch (350, 150) MW, cost $1.15e4, flows
  // (126.56, 173.44, -43.44, -26.56) MW.
  const PowerSystem sys = io::load_case("case4");
  const opf::DispatchResult r = opf::solve_dc_opf(sys);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.cost, 1.15e4, 1.0);
  EXPECT_NEAR(r.generation_mw[0], 350.0, 0.01);
  EXPECT_NEAR(r.generation_mw[1], 150.0, 0.01);
  EXPECT_NEAR(r.flows_mw[0], 126.56, 0.01);
  EXPECT_NEAR(r.flows_mw[1], 173.44, 0.01);
  EXPECT_NEAR(r.flows_mw[2], -43.44, 0.01);
  EXPECT_NEAR(r.flows_mw[3], -26.56, 0.01);
}

TEST(CasesTest, Ieee14MatchesTable4Generators) {
  const PowerSystem sys = io::load_case("case14");
  EXPECT_EQ(sys.num_buses(), 14u);
  EXPECT_EQ(sys.num_branches(), 20u);
  ASSERT_EQ(sys.num_generators(), 5u);

  // Table IV: buses {1,2,3,6,8}, Pmax {300,50,30,50,20}, c {20,30,40,50,35}.
  const std::size_t buses[] = {0, 1, 2, 5, 7};
  const double pmax[] = {300, 50, 30, 50, 20};
  const double cost[] = {20, 30, 40, 50, 35};
  for (std::size_t g = 0; g < 5; ++g) {
    EXPECT_EQ(sys.generator(g).bus, buses[g]);
    EXPECT_DOUBLE_EQ(sys.generator(g).max_mw, pmax[g]);
    EXPECT_DOUBLE_EQ(sys.generator(g).cost_per_mwh, cost[g]);
  }
}

TEST(CasesTest, Ieee14DfactsAndFlowLimitsPerPaper) {
  const PowerSystem sys = io::load_case("case14");
  // D-FACTS on branches {1,5,9,11,17,19} (1-based) with eta_max = 0.5.
  const std::vector<std::size_t> expected = {0, 4, 8, 10, 16, 18};
  EXPECT_EQ(sys.dfacts_branches(), expected);
  for (std::size_t l : expected) {
    EXPECT_DOUBLE_EQ(sys.branch(l).dfacts_min_factor, 0.5);
    EXPECT_DOUBLE_EQ(sys.branch(l).dfacts_max_factor, 1.5);
  }
  EXPECT_DOUBLE_EQ(sys.branch(0).flow_limit_mw, 160.0);
  for (std::size_t l = 1; l < sys.num_branches(); ++l)
    EXPECT_DOUBLE_EQ(sys.branch(l).flow_limit_mw, 60.0);
}

TEST(CasesTest, Ieee14LoadsMatchMatpowerCase14) {
  const PowerSystem sys = io::load_case("case14");
  EXPECT_NEAR(sys.total_load_mw(), 259.0, 0.01);
  EXPECT_DOUBLE_EQ(sys.bus(0).load_mw, 0.0);
  EXPECT_DOUBLE_EQ(sys.bus(2).load_mw, 94.2);
  EXPECT_DOUBLE_EQ(sys.bus(13).load_mw, 14.9);
}

TEST(CasesTest, Ieee30Structure) {
  const PowerSystem sys = io::load_case("ieee30");
  EXPECT_EQ(sys.num_buses(), 30u);
  EXPECT_EQ(sys.num_branches(), 41u);
  EXPECT_EQ(sys.num_generators(), 6u);
  EXPECT_NEAR(sys.total_load_mw(), 283.4, 0.01);
  EXPECT_EQ(sys.dfacts_branches().size(), 10u);
}

TEST(CasesTest, Wscc9Structure) {
  const PowerSystem sys = io::load_case("wscc9");
  EXPECT_EQ(sys.num_buses(), 9u);
  EXPECT_EQ(sys.num_branches(), 9u);
  EXPECT_EQ(sys.num_generators(), 3u);
  EXPECT_DOUBLE_EQ(sys.total_load_mw(), 315.0);
  EXPECT_EQ(sys.dfacts_branches().size(), 3u);
}

TEST(CasesTest, AllCasesSolveBaseOpf) {
  for (const char* name : {"case4", "case14", "ieee30", "wscc9", "case57"}) {
    const PowerSystem sys = io::load_case(name);
    const opf::DispatchResult r = opf::solve_dc_opf(sys);
    EXPECT_TRUE(r.feasible) << sys.name();
    EXPECT_NEAR(r.generation_mw.sum(), sys.total_load_mw(), 1e-6)
        << sys.name();
  }
}

TEST(CasesTest, AllCasesHaveGenerationHeadroom) {
  // Capacity margin so the dynamic-load experiments can scale loads up.
  for (const char* name : {"case4", "case14", "ieee30", "wscc9", "case57"}) {
    const PowerSystem sys = io::load_case(name);
    double capacity = 0.0;
    for (std::size_t g = 0; g < sys.num_generators(); ++g)
      capacity += sys.generator(g).max_mw;
    EXPECT_GT(capacity, sys.total_load_mw()) << sys.name();
  }
}

}  // namespace
}  // namespace mtdgrid::grid
