#pragma once

// Shared body of the PTDF dispatch conformance tests: `solve_dc_opf`
// against the B-theta oracle at chosen trace hours and D-FACTS keys.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "grid/load_trace.hpp"
#include "grid/power_system.hpp"
#include "opf/dc_opf.hpp"
#include "oracles/btheta_dc_opf.hpp"
#include "stats/rng.hpp"

namespace mtdgrid::test {

/// Checks one dispatch against the oracle's at the same (hour, key):
/// identical feasibility verdict, cost within 1e-7 relative, flows within
/// limit + 1e-6 MW, and nodal balance within 1e-6 MW at every bus.
inline void expect_dispatch_conforms(const grid::PowerSystem& sys,
                                     const opf::DispatchResult& ptdf,
                                     const opf::DispatchResult& oracle) {
  ASSERT_EQ(ptdf.feasible, oracle.feasible);
  if (!ptdf.feasible) return;
  EXPECT_LE(std::abs(ptdf.cost - oracle.cost), 1e-7 * std::abs(oracle.cost))
      << "ptdf " << ptdf.cost << " oracle " << oracle.cost;
  std::vector<double> balance(sys.num_buses(), 0.0);
  for (std::size_t i = 0; i < sys.num_buses(); ++i)
    balance[i] = -sys.bus(i).load_mw;
  for (std::size_t g = 0; g < sys.num_generators(); ++g)
    balance[sys.generator(g).bus] += ptdf.generation_mw[g];
  for (std::size_t l = 0; l < sys.num_branches(); ++l) {
    const grid::Branch& br = sys.branch(l);
    EXPECT_LE(std::abs(ptdf.flows_mw[l]), br.flow_limit_mw + 1e-6)
        << "branch " << l;
    balance[br.from] -= ptdf.flows_mw[l];
    balance[br.to] += ptdf.flows_mw[l];
  }
  for (std::size_t i = 0; i < sys.num_buses(); ++i)
    EXPECT_LE(std::abs(balance[i]), 1e-6) << "bus " << i;
}

/// Runs `expect_dispatch_conforms` at every listed trace hour, for the
/// nominal key plus `box_keys` seeded uniform points of the D-FACTS box.
inline void expect_conforms(grid::PowerSystem sys,
                            const grid::DailyLoadTrace& trace,
                            const std::vector<std::size_t>& hours,
                            int box_keys, std::uint64_t seed) {
  const linalg::Vector loads = sys.loads_mw();
  const linalg::Vector lo = sys.reactance_lower_limits();
  const linalg::Vector hi = sys.reactance_upper_limits();
  stats::Rng rng(seed);
  for (const std::size_t h : hours) {
    trace.apply(sys, h, loads);
    for (int k = 0; k <= box_keys; ++k) {
      linalg::Vector x = sys.reactances();
      if (k > 0)
        for (std::size_t b : sys.dfacts_branches())
          x[b] = rng.uniform(lo[b], hi[b]);
      SCOPED_TRACE(::testing::Message()
                   << sys.name() << " hour " << h << " key " << k);
      expect_dispatch_conforms(sys, opf::solve_dc_opf(sys, x),
                               oracles::solve_btheta_dc_opf(sys, x));
    }
  }
}

}  // namespace mtdgrid::test
