#include "grid/load_trace.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "io/case_registry.hpp"

namespace mtdgrid::grid {
namespace {

TEST(LoadTraceTest, RequiresExactly24Entries) {
  EXPECT_THROW(DailyLoadTrace(std::vector<double>(23, 100.0)),
               std::invalid_argument);
  EXPECT_THROW(DailyLoadTrace(std::vector<double>(25, 100.0)),
               std::invalid_argument);
  EXPECT_NO_THROW(DailyLoadTrace(std::vector<double>(24, 100.0)));
}

TEST(LoadTraceTest, RejectsNonPositiveEntries) {
  std::vector<double> totals(24, 100.0);
  totals[5] = 0.0;
  EXPECT_THROW(DailyLoadTrace{totals}, std::invalid_argument);
}

TEST(LoadTraceTest, NyisoProfileShape) {
  const DailyLoadTrace trace = DailyLoadTrace::nyiso_winter_weekday();
  ASSERT_EQ(trace.size(), 24u);
  // Overnight trough at 4 AM, evening peak at 6 PM (hour 17).
  double min_v = 1e9, max_v = 0;
  std::size_t argmin = 0, argmax = 0;
  for (std::size_t h = 0; h < 24; ++h) {
    if (trace.total_mw(h) < min_v) { min_v = trace.total_mw(h); argmin = h; }
    if (trace.total_mw(h) > max_v) { max_v = trace.total_mw(h); argmax = h; }
  }
  EXPECT_EQ(argmin, 4u);
  EXPECT_EQ(argmax, 17u);
  // Range scaled to the IEEE 14-bus system (paper Fig. 10: ~140-220 MW).
  EXPECT_GT(min_v, 135.0);
  EXPECT_LT(max_v, 225.0);
}

TEST(LoadTraceTest, ApplyPreservesLoadDistribution) {
  PowerSystem sys = io::load_case("case14");
  const linalg::Vector base = sys.loads_mw();
  const DailyLoadTrace trace = DailyLoadTrace::nyiso_winter_weekday();
  trace.apply(sys, 17, base);
  EXPECT_NEAR(sys.total_load_mw(), trace.total_mw(17), 1e-9);
  // Relative distribution preserved: bus3 load / total unchanged.
  EXPECT_NEAR(sys.bus(2).load_mw / sys.total_load_mw(), 94.2 / 259.0, 1e-9);
}

TEST(LoadTraceTest, ApplyRejectsWrongBaseLength) {
  PowerSystem sys = io::load_case("case14");
  const DailyLoadTrace trace = DailyLoadTrace::nyiso_winter_weekday();
  EXPECT_THROW(trace.apply(sys, 0, linalg::Vector(5, 1.0)),
               std::invalid_argument);
}

TEST(LoadTraceTest, SyntheticTraceRespectsRangeAndPeak) {
  stats::Rng rng(1);
  const DailyLoadTrace trace =
      DailyLoadTrace::synthetic(100.0, 200.0, 18, 0.0, rng);
  ASSERT_EQ(trace.size(), 24u);
  EXPECT_NEAR(trace.total_mw(4), 100.0, 1e-9);   // trough anchor
  EXPECT_NEAR(trace.total_mw(18), 200.0, 1e-9);  // peak anchor
  for (std::size_t h = 0; h < 24; ++h) {
    EXPECT_GE(trace.total_mw(h), 99.0);
    EXPECT_LE(trace.total_mw(h), 201.0);
  }
}

TEST(LoadTraceTest, SyntheticTraceJitterIsReproducible) {
  stats::Rng rng_a(42), rng_b(42);
  const DailyLoadTrace a = DailyLoadTrace::synthetic(100, 200, 18, 0.05, rng_a);
  const DailyLoadTrace b = DailyLoadTrace::synthetic(100, 200, 18, 0.05, rng_b);
  for (std::size_t h = 0; h < 24; ++h)
    EXPECT_DOUBLE_EQ(a.total_mw(h), b.total_mw(h));
}

TEST(LoadTraceTest, SyntheticTraceValidatesArguments) {
  stats::Rng rng(1);
  EXPECT_THROW(DailyLoadTrace::synthetic(-5, 100, 18, 0, rng),
               std::invalid_argument);
  EXPECT_THROW(DailyLoadTrace::synthetic(200, 100, 18, 0, rng),
               std::invalid_argument);
  EXPECT_THROW(DailyLoadTrace::synthetic(100, 200, 24, 0, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace mtdgrid::grid
