// The PTDF dispatch against the B-theta oracle on the 300-bus case at the
// serving trace's trough and peak hours (nominal key). Slow: each oracle
// solve is a dense simplex over ~900 rows.

#include <gtest/gtest.h>

#include "io/case_registry.hpp"
#include "opf/ptdf_conformance.hpp"
#include "serve/daemon.hpp"

namespace mtdgrid::opf {
namespace {

TEST(PtdfConformanceCase300, MatchesBThetaOracleAtTroughAndPeak) {
  const grid::PowerSystem sys = io::load_case("case300");
  test::expect_conforms(sys, serve::default_daemon_trace(sys), {4, 18},
                        /*box_keys=*/0, /*seed=*/2024);
}

}  // namespace
}  // namespace mtdgrid::opf
