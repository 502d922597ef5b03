// Conformance of the closed-form SPA (`SpaEvaluator::gamma`) against the
// reference `spa()` on case14, case57 and case118 (case300 lives in the
// `slow` twin), plus the routing of candidates the closed form does not
// cover.

#include "mtd/spa_conformance.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "grid/cases.hpp"
#include "grid/measurement.hpp"
#include "io/case_registry.hpp"
#include "mtd/spa.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"

namespace mtdgrid::mtd {
namespace {

class SpaConformance : public ::testing::TestWithParam<std::string> {};

TEST_P(SpaConformance, ClosedFormMatchesSpaOnSeededCandidates) {
  test::expect_spa_conforms(io::load_case(GetParam()), /*seed=*/2024);
}

INSTANTIATE_TEST_SUITE_P(Cases, SpaConformance,
                         ::testing::Values("case14", "case57", "case118"));

TEST(SpaConformanceTest, NonDfactsChangeRoutesToGammaFull) {
  const grid::PowerSystem sys = grid::make_case57();
  const linalg::Matrix h0 = grid::measurement_matrix(sys);
  std::size_t plain = sys.num_branches();
  for (std::size_t l = 0; l < sys.num_branches() && plain == sys.num_branches();
       ++l)
    if (!sys.branch(l).has_dfacts) plain = l;
  ASSERT_LT(plain, sys.num_branches());

  linalg::Vector x = sys.reactances();
  x[sys.dfacts_branches()[0]] *= 1.1;
  x[plain] *= 1.3;
  obs::MetricsRegistry registry;
  obs::ScopedRegistry scope(&registry);
  const SpaEvaluator eval(sys, h0);
  ASSERT_TRUE(eval.incremental());
  EXPECT_NEAR(eval.gamma(x), spa(h0, grid::measurement_matrix(sys, x)),
              test::kSpaConformanceTol);
  const obs::WorkSnapshot work = registry.work_snapshot();
  EXPECT_EQ(work[static_cast<std::size_t>(obs::Work::kSpaFullEvals)], 1u);
  EXPECT_EQ(work[static_cast<std::size_t>(obs::Work::kSpaFastPathEvals)], 0u);
}

}  // namespace
}  // namespace mtdgrid::mtd
