#include <gtest/gtest.h>

#include <string>

#include "io/case_registry.hpp"
#include "io/matpower.hpp"

namespace mtdgrid::io {
namespace {

/// Field-by-field equality to machine precision (EXPECT_EQ on doubles is
/// deliberate: the writer's shortest-round-trip formatting must reproduce
/// the exact bits).
void expect_identical(const grid::PowerSystem& a, const grid::PowerSystem& b,
                      bool compare_name = true) {
  if (compare_name) EXPECT_EQ(a.name(), b.name());
  EXPECT_EQ(a.base_mva(), b.base_mva());
  ASSERT_EQ(a.num_buses(), b.num_buses());
  ASSERT_EQ(a.num_branches(), b.num_branches());
  ASSERT_EQ(a.num_generators(), b.num_generators());
  for (std::size_t i = 0; i < a.num_buses(); ++i)
    EXPECT_EQ(a.bus(i).load_mw, b.bus(i).load_mw) << "bus " << i + 1;
  for (std::size_t l = 0; l < a.num_branches(); ++l) {
    const grid::Branch& ba = a.branch(l);
    const grid::Branch& bb = b.branch(l);
    EXPECT_EQ(ba.from, bb.from) << "branch " << l + 1;
    EXPECT_EQ(ba.to, bb.to) << "branch " << l + 1;
    EXPECT_EQ(ba.reactance, bb.reactance) << "branch " << l + 1;
    EXPECT_EQ(ba.flow_limit_mw, bb.flow_limit_mw) << "branch " << l + 1;
    EXPECT_EQ(ba.has_dfacts, bb.has_dfacts) << "branch " << l + 1;
    EXPECT_EQ(ba.dfacts_min_factor, bb.dfacts_min_factor) << "branch "
                                                          << l + 1;
    EXPECT_EQ(ba.dfacts_max_factor, bb.dfacts_max_factor) << "branch "
                                                          << l + 1;
  }
  for (std::size_t g = 0; g < a.num_generators(); ++g) {
    EXPECT_EQ(a.generator(g).bus, b.generator(g).bus) << "gen " << g + 1;
    EXPECT_EQ(a.generator(g).min_mw, b.generator(g).min_mw) << "gen " << g;
    EXPECT_EQ(a.generator(g).max_mw, b.generator(g).max_mw) << "gen " << g;
    EXPECT_EQ(a.generator(g).cost_per_mwh, b.generator(g).cost_per_mwh)
        << "gen " << g + 1;
  }
}

grid::PowerSystem roundtrip(const grid::PowerSystem& sys) {
  const std::string text = write_matpower(sys);
  ParseError error;
  const auto mpc = parse_matpower(text, &error);
  EXPECT_TRUE(mpc.has_value()) << error.to_string();
  const auto back = to_power_system(*mpc, &error);
  EXPECT_TRUE(back.has_value()) << error.to_string();
  return *back;
}

// Every file-backed registry entry: loading the bundled file, writing it
// and parsing the text back must reproduce the loaded system exactly.
class BundledCaseRoundtrip : public ::testing::TestWithParam<std::string> {};

TEST_P(BundledCaseRoundtrip, WriteThenParseIsExact) {
  const grid::PowerSystem sys = load_case(GetParam());
  expect_identical(sys, roundtrip(sys));
}

INSTANTIATE_TEST_SUITE_P(Registry, BundledCaseRoundtrip,
                         ::testing::Values("case4", "wscc9", "case14",
                                           "ieee30", "case57", "case118",
                                           "case300"));

TEST(MatpowerRoundtripTest, AwkwardDoublesSurviveExactly) {
  // Values with no short decimal representation must still round-trip
  // bit-for-bit through the shortest-round-trip formatter.
  std::vector<grid::Bus> buses = {{0.0}, {1.0 / 3.0}, {2e-17}};
  std::vector<grid::Branch> branches;
  grid::Branch br;
  br.from = 0;
  br.to = 1;
  br.reactance = 0.1 + 0.2;  // 0.30000000000000004
  br.flow_limit_mw = 1234.5678901234567;
  branches.push_back(br);
  br.from = 1;
  br.to = 2;
  br.reactance = 1.0 / 7.0;
  br.has_dfacts = true;
  br.dfacts_min_factor = 1.0 - 1.0 / 3.0;
  br.dfacts_max_factor = 1.0 + 1.0 / 3.0;
  branches.push_back(br);
  std::vector<grid::Generator> generators;
  grid::Generator g;
  g.bus = 0;
  g.max_mw = 99.999999999999986;
  g.cost_per_mwh = 3.141592653589793;
  generators.push_back(g);
  const grid::PowerSystem sys("awkward", std::move(buses),
                              std::move(branches), std::move(generators),
                              97.3);
  expect_identical(sys, roundtrip(sys));
}

TEST(MatpowerRoundtripTest, UnlimitedFlowLimitSurvives) {
  std::vector<grid::Bus> buses = {{0.0}, {10.0}};
  std::vector<grid::Branch> branches(1);
  branches[0].from = 0;
  branches[0].to = 1;
  branches[0].reactance = 0.2;
  branches[0].flow_limit_mw = kUnlimitedFlowMw;
  std::vector<grid::Generator> generators(1);
  generators[0].bus = 0;
  generators[0].max_mw = 20.0;
  generators[0].cost_per_mwh = 10.0;
  const grid::PowerSystem sys("unlimited", std::move(buses),
                              std::move(branches), std::move(generators));
  const grid::PowerSystem back = roundtrip(sys);
  EXPECT_EQ(back.branch(0).flow_limit_mw, kUnlimitedFlowMw);
}

}  // namespace
}  // namespace mtdgrid::io
