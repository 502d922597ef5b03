// Conformance of the WLS state estimator (CSR H, one sparse Cholesky of
// the Gram matrix) against the dense oracle (tests/oracles/dense_wls.hpp)
// on case14, case57 and case118, at the nominal key and two seeded
// D-FACTS keys (case300 runs the same check in the slow
// Case300SlowTest.SparseStateEstimationMatchesDenseTo1em10).

#include "estimation/wls_conformance.hpp"

#include <gtest/gtest.h>

#include <string>

#include "io/case_registry.hpp"

namespace mtdgrid::estimation {
namespace {

class WlsConformance : public ::testing::TestWithParam<std::string> {};

TEST_P(WlsConformance, MatchesDenseOracleAtNominalAndSeededKeys) {
  test::expect_estimator_conforms(io::load_case(GetParam()), /*box_keys=*/2,
                                  /*seed=*/2025);
}

INSTANTIATE_TEST_SUITE_P(Cases, WlsConformance,
                         ::testing::Values("case14", "case57", "case118"));

}  // namespace
}  // namespace mtdgrid::estimation
