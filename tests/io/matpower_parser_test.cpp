#include "io/matpower.hpp"

#include <gtest/gtest.h>

#include <string>

namespace mtdgrid::io {
namespace {

// A minimal but complete 3-bus case exercising comments, inline `];`,
// blank lines, and the mpc.dfacts extension.
constexpr char kTinyCase[] = R"(function mpc = tiny3
% a comment line
mpc.version = '2';
mpc.baseMVA = 100;   % trailing comment
mpc.bus = [
  1 3 0   0 0 0 1 1 0 0 1 1.06 0.94;
  2 1 60  0 0 0 1 1 0 0 1 1.06 0.94;
  3 1 40  0 0 0 1 1 0 0 1 1.06 0.94;
];
mpc.gen = [
  1 0 0 0 0 1 100 1 150 0;
];
mpc.gencost = [
  2 0 0 2 25 0;
];
mpc.branch = [
  1 2 0 0.1  0 80 0 0 0 0 1;
  2 3 0 0.2  0 60 0 0 0 0 1;
  1 3 0 0.25 0 60 0 0 0 0 1;
];
mpc.dfacts = [ 1 0.5; ];
)";

ParseError parse_failure(const std::string& text) {
  ParseError error;
  EXPECT_FALSE(parse_matpower(text, &error).has_value()) << text;
  return error;
}

ParseError build_failure(const std::string& text) {
  ParseError parse_error;
  const auto mpc = parse_matpower(text, &parse_error);
  EXPECT_TRUE(mpc.has_value()) << parse_error.to_string();
  ParseError error;
  EXPECT_FALSE(to_power_system(*mpc, &error).has_value());
  return error;
}

/// Replaces the first occurrence of `from` in the tiny case.
std::string tiny_with(const std::string& from, const std::string& to) {
  std::string text = kTinyCase;
  const std::size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  return text.replace(pos, from.size(), to);
}

TEST(MatpowerParserTest, ParsesTinyCase) {
  ParseError error;
  const auto mpc = parse_matpower(kTinyCase, &error);
  ASSERT_TRUE(mpc.has_value()) << error.to_string();
  EXPECT_EQ(mpc->name, "tiny3");
  EXPECT_TRUE(mpc->has_base_mva);
  EXPECT_DOUBLE_EQ(mpc->base_mva, 100.0);
  ASSERT_NE(mpc->find("bus"), nullptr);
  ASSERT_NE(mpc->find("branch"), nullptr);
  ASSERT_NE(mpc->find("dfacts"), nullptr);
  EXPECT_EQ(mpc->find("bus")->rows.size(), 3u);
  EXPECT_EQ(mpc->find("bus")->rows[0].size(), 13u);
  EXPECT_EQ(mpc->find("branch")->rows.size(), 3u);
  EXPECT_EQ(mpc->find("dfacts")->rows.size(), 1u);
  // Row source lines are tracked (1-based): bus rows start at line 6.
  EXPECT_EQ(mpc->find("bus")->row_lines[0], 6);
  EXPECT_EQ(mpc->find("bus")->row_lines[2], 8);
}

TEST(MatpowerParserTest, BuildsTinyPowerSystem) {
  ParseError error;
  const auto mpc = parse_matpower(kTinyCase, &error);
  ASSERT_TRUE(mpc.has_value());
  const auto sys = to_power_system(*mpc, &error);
  ASSERT_TRUE(sys.has_value()) << error.to_string();
  EXPECT_EQ(sys->name(), "tiny3");
  EXPECT_EQ(sys->num_buses(), 3u);
  EXPECT_EQ(sys->num_branches(), 3u);
  EXPECT_EQ(sys->num_generators(), 1u);
  EXPECT_DOUBLE_EQ(sys->total_load_mw(), 100.0);
  EXPECT_DOUBLE_EQ(sys->branch(0).reactance, 0.1);
  EXPECT_DOUBLE_EQ(sys->branch(0).flow_limit_mw, 80.0);
  EXPECT_TRUE(sys->branch(0).has_dfacts);
  EXPECT_DOUBLE_EQ(sys->branch(0).dfacts_min_factor, 0.5);
  EXPECT_DOUBLE_EQ(sys->branch(0).dfacts_max_factor, 1.5);
  EXPECT_FALSE(sys->branch(1).has_dfacts);
  EXPECT_DOUBLE_EQ(sys->generator(0).cost_per_mwh, 25.0);
}

// ---- parse-level error paths (each must carry a line number) -----------

TEST(MatpowerParserTest, MalformedNumericTokenReportsLine) {
  const ParseError e =
      parse_failure(tiny_with("2 3 0 0.2", "2 3 0 0.2x"));
  EXPECT_EQ(e.line, 18);  // the branch row's source line
  EXPECT_NE(e.message.find("malformed numeric token"), std::string::npos);
  EXPECT_NE(e.message.find("0.2x"), std::string::npos);
  EXPECT_NE(e.to_string().find("line 18"), std::string::npos);
}

TEST(MatpowerParserTest, RaggedMatrixReportsOffendingRowLine) {
  // Drop a column from the second bus row: rectangularity check fires.
  const ParseError e = parse_failure(
      tiny_with("2 1 60  0 0 0 1 1 0 0 1 1.06 0.94;",
                "2 1 60  0 0 0 1 1 0 0 1 1.06;"));
  EXPECT_EQ(e.line, 7);
  EXPECT_NE(e.message.find("12 columns, expected 13"), std::string::npos);
}

TEST(MatpowerParserTest, UnterminatedMatrixReportsOpeningLine) {
  const ParseError e = parse_failure(tiny_with("mpc.dfacts = [ 1 0.5; ];",
                                               "mpc.dfacts = [ 1 0.5;"));
  EXPECT_EQ(e.line, 21);
  EXPECT_NE(e.message.find("never closed"), std::string::npos);
}

TEST(MatpowerParserTest, DuplicateMatrixRejected) {
  const ParseError e = parse_failure(std::string(kTinyCase) +
                                     "mpc.bus = [ 1 3 0; ];\n");
  EXPECT_NE(e.message.find("duplicate matrix"), std::string::npos);
}

TEST(MatpowerParserTest, TrailingTextAfterInlineCloseRejected) {
  const ParseError e = parse_failure(tiny_with(
      "mpc.dfacts = [ 1 0.5; ];", "mpc.dfacts = [ 1 0.5 ] [ 2 0.5 ];"));
  EXPECT_EQ(e.line, 21);
  EXPECT_NE(e.message.find("unexpected text after ']'"), std::string::npos);
}

TEST(MatpowerParserTest, DuplicateBaseMvaRejected) {
  const ParseError e = parse_failure(std::string(kTinyCase) +
                                     "mpc.baseMVA = 1;\n");
  EXPECT_NE(e.message.find("duplicate mpc.baseMVA"), std::string::npos);
  EXPECT_NE(e.message.find("line 4"), std::string::npos);
}

TEST(MatpowerParserTest, HugeBusIdRejectedNotUndefinedBehavior) {
  const ParseError e = build_failure(tiny_with("3 1 40", "1e30 1 40"));
  EXPECT_EQ(e.line, 8);
  EXPECT_NE(e.message.find("bus id"), std::string::npos);
}

TEST(MatpowerParserTest, MalformedBaseMvaRejected) {
  const ParseError e = parse_failure(tiny_with("mpc.baseMVA = 100;",
                                               "mpc.baseMVA = ;"));
  EXPECT_EQ(e.line, 4);
  EXPECT_NE(e.message.find("baseMVA"), std::string::npos);
}

// ---- builder-level error paths -----------------------------------------

TEST(MatpowerParserTest, MissingBaseMvaIsDiagnosed) {
  const ParseError e = build_failure(tiny_with("mpc.baseMVA = 100;", ""));
  EXPECT_NE(e.message.find("missing mpc.baseMVA"), std::string::npos);
}

TEST(MatpowerParserTest, MissingGencostIsDiagnosed) {
  const ParseError e =
      build_failure(tiny_with("mpc.gencost = [\n  2 0 0 2 25 0;\n];", ""));
  EXPECT_NE(e.message.find("missing mpc.gencost"), std::string::npos);
}

TEST(MatpowerParserTest, UnknownBranchBusReportsRowLine) {
  const ParseError e = build_failure(tiny_with("1 3 0 0.25", "1 9 0 0.25"));
  EXPECT_EQ(e.line, 19);
  EXPECT_NE(e.message.find("bus 9 is not in mpc.bus"), std::string::npos);
}

TEST(MatpowerParserTest, ZeroReactanceBranchReportsRowLine) {
  const ParseError e = build_failure(tiny_with("2 3 0 0.2", "2 3 0 0.0"));
  EXPECT_EQ(e.line, 18);
  EXPECT_NE(e.message.find("non-positive reactance"), std::string::npos);
  // NaN fails the positivity guard too, with the same line and message.
  const ParseError n = build_failure(tiny_with("2 3 0 0.2", "2 3 0 nan"));
  EXPECT_EQ(n.line, 18);
  EXPECT_EQ(n.message, e.message);
}

TEST(MatpowerParserTest, ReferenceBusMustComeFirst) {
  std::string text = tiny_with("1 3 0   0", "1 1 0   0");
  text = text.replace(text.find("2 1 60"), 6, "2 3 60");
  const ParseError e = build_failure(text);
  EXPECT_NE(e.message.find("reference"), std::string::npos);
}

TEST(MatpowerParserTest, DuplicateBusIdRejected) {
  const ParseError e = build_failure(
      tiny_with("3 1 40", "2 1 40"));
  EXPECT_EQ(e.line, 8);
  EXPECT_NE(e.message.find("duplicate bus id"), std::string::npos);
}

TEST(MatpowerParserTest, GencostRowCountMismatchDiagnosed) {
  const ParseError e = build_failure(
      tiny_with("2 0 0 2 25 0;", "2 0 0 2 25 0;\n  2 0 0 2 30 0;"));
  EXPECT_NE(e.message.find("mpc.gencost has 2 rows"), std::string::npos);
}

TEST(MatpowerParserTest, PiecewiseLinearGencostRejected) {
  const ParseError e =
      build_failure(tiny_with("2 0 0 2 25 0;", "1 0 0 2 0 0 10 250;"));
  EXPECT_NE(e.message.find("polynomial"), std::string::npos);
}

TEST(MatpowerParserTest, DisconnectedNetworkDiagnosed) {
  // Remove branches 2-3 and 1-3: bus 3 becomes unreachable.
  std::string text = tiny_with("2 3 0 0.2  0 60 0 0 0 0 1;", "");
  text = text.replace(text.find("1 3 0 0.25 0 60 0 0 0 0 1;"),
                      std::string("1 3 0 0.25 0 60 0 0 0 0 1;").size(), "");
  const ParseError e = build_failure(text);
  EXPECT_NE(e.message.find("not connected"), std::string::npos);
}

TEST(MatpowerParserTest, DfactsBranchIndexValidated) {
  const ParseError e = build_failure(tiny_with("[ 1 0.5; ]", "[ 7 0.5; ]"));
  EXPECT_NE(e.message.find("branch index out of range"), std::string::npos);
}

TEST(MatpowerParserTest, DfactsEtaRangeValidated) {
  const ParseError e = build_failure(tiny_with("[ 1 0.5; ]", "[ 1 1.5; ]"));
  EXPECT_NE(e.message.find("eta_max"), std::string::npos);
}

// ---- MATPOWER semantics honored by the builder -------------------------

TEST(MatpowerParserTest, OutOfServiceBranchesAndGensAreDropped) {
  // Branch 1-3 out of service; an extra offline generator (status 0) and a
  // synchronous condenser (Pmax 0) are both skipped along with their cost
  // rows.
  std::string text = tiny_with("1 3 0 0.25 0 60 0 0 0 0 1;",
                               "1 3 0 0.25 0 60 0 0 0 0 0;");
  text = text.replace(text.find("1 0 0 0 0 1 100 1 150 0;"),
                      std::string("1 0 0 0 0 1 100 1 150 0;").size(),
                      "1 0 0 0 0 1 100 1 150 0;\n"
                      "  2 0 0 0 0 1 100 0 90 0;\n"
                      "  3 0 0 0 0 1 100 1 0 0;");
  text = text.replace(text.find("2 0 0 2 25 0;"),
                      std::string("2 0 0 2 25 0;").size(),
                      "2 0 0 2 25 0;\n  2 0 0 2 99 0;\n  2 0 0 2 98 0;");
  ParseError error;
  const auto mpc = parse_matpower(text, &error);
  ASSERT_TRUE(mpc.has_value()) << error.to_string();
  const auto sys = to_power_system(*mpc, &error);
  ASSERT_TRUE(sys.has_value()) << error.to_string();
  EXPECT_EQ(sys->num_branches(), 2u);
  EXPECT_EQ(sys->num_generators(), 1u);
  EXPECT_DOUBLE_EQ(sys->generator(0).cost_per_mwh, 25.0);
}

TEST(MatpowerParserTest, ZeroRateAMeansUnlimited) {
  const std::string text = tiny_with("0.2  0 60", "0.2  0 0");
  ParseError error;
  const auto sys = to_power_system(*parse_matpower(text, &error), &error);
  ASSERT_TRUE(sys.has_value()) << error.to_string();
  EXPECT_DOUBLE_EQ(sys->branch(1).flow_limit_mw, kUnlimitedFlowMw);
}

TEST(MatpowerParserTest, TransformerTapFoldsIntoReactance) {
  const std::string text = tiny_with("2 3 0 0.2  0 60 0 0 0 0 1;",
                                     "2 3 0 0.2  0 60 0 0 0.95 0 1;");
  ParseError error;
  const auto sys = to_power_system(*parse_matpower(text, &error), &error);
  ASSERT_TRUE(sys.has_value()) << error.to_string();
  EXPECT_DOUBLE_EQ(sys->branch(1).reactance, 0.2 * 0.95);
}

TEST(MatpowerParserTest, QuadraticGencostLinearizedAtMidpoint) {
  // c2 = 0.01, c1 = 20, Pmin = 0, Pmax = 150: marginal cost at the
  // midpoint is c1 + c2 * (Pmin + Pmax) = 21.5.
  const std::string text =
      tiny_with("2 0 0 2 25 0;", "2 0 0 3 0.01 20 0;");
  ParseError error;
  const auto sys = to_power_system(*parse_matpower(text, &error), &error);
  ASSERT_TRUE(sys.has_value()) << error.to_string();
  EXPECT_DOUBLE_EQ(sys->generator(0).cost_per_mwh, 20.0 + 0.01 * 150.0);
}

TEST(MatpowerParserTest, NegativePminClampedToZero) {
  const std::string text = tiny_with("100 1 150 0;", "100 1 150 -20;");
  ParseError error;
  const auto sys = to_power_system(*parse_matpower(text, &error), &error);
  ASSERT_TRUE(sys.has_value()) << error.to_string();
  EXPECT_DOUBLE_EQ(sys->generator(0).min_mw, 0.0);
}

}  // namespace
}  // namespace mtdgrid::io
