// The closed-form SPA against the reference `spa()` on the 300-bus case.
// Slow: every reference call runs a Jacobi SVD of a 299 x 299 core.

#include <gtest/gtest.h>

#include "grid/cases.hpp"
#include "mtd/spa_conformance.hpp"

namespace mtdgrid::mtd {
namespace {

TEST(SpaConformanceCase300, ClosedFormMatchesSpaOnSeededCandidates) {
  test::expect_spa_conforms(grid::make_case300(), /*seed=*/2024);
}

}  // namespace
}  // namespace mtdgrid::mtd
