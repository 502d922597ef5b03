#pragma once

// Shared body of the SPA conformance tests: the closed-form
// `SpaEvaluator::gamma` against the reference `spa()` (a full Jacobi SVD
// of the principal-angle core) on seeded D-FACTS candidates.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/parallel.hpp"
#include "grid/measurement.hpp"
#include "grid/power_system.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"
#include "mtd/spa.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "stats/rng.hpp"

namespace mtdgrid::test {

/// Largest |closed form - spa()| accepted, in radians.
inline constexpr double kSpaConformanceTol = 1e-10;

/// A copy of `sys` with a D-FACTS device on both circuits of its first
/// parallel pair (two branches joining the same buses), whose reduced
/// incidence rows a_l coincide. Empty when the case has no such pair.
inline std::optional<grid::PowerSystem> with_parallel_pair_dfacts(
    const grid::PowerSystem& sys) {
  for (std::size_t a = 0; a < sys.num_branches(); ++a)
    for (std::size_t b = a + 1; b < sys.num_branches(); ++b) {
      const grid::Branch& ba = sys.branch(a);
      const grid::Branch& bb = sys.branch(b);
      const bool same = (ba.from == bb.from && ba.to == bb.to) ||
                        (ba.from == bb.to && ba.to == bb.from);
      if (!same) continue;
      grid::PowerSystem out = sys;
      for (const std::size_t l : {a, b}) {
        out.branch(l).has_dfacts = true;
        out.branch(l).dfacts_min_factor = 0.8;
        out.branch(l).dfacts_max_factor = 1.2;
      }
      return out;
    }
  return std::nullopt;
}

/// The reference angle: `spa()`, except below 1e-4 rad. There `spa()`'s
/// acos(sigma_min(Q0^T Q)) has lost digits (acos of a cosine within one
/// rounding of 1 is ~1.5e-8 rad, whatever the true angle), so the sine
/// route asin(sigma_max((I - Q0 Q0^T) Q)), accurate to rounding at small
/// angles, stands in.
inline double reference_gamma(const linalg::Matrix& h_old,
                              const linalg::Matrix& h_new) {
  const double gamma = mtd::spa(h_old, h_new);
  if (gamma >= 1e-4) return gamma;
  const linalg::Matrix q0 = linalg::orthonormal_column_basis(h_old);
  linalg::Matrix q = linalg::orthonormal_column_basis(h_new);
  q -= q0 * q0.transpose_times(q);
  return std::asin(
      std::min(1.0, linalg::SvdDecomposition(q).sigma_max()));
}

/// Scores every candidate with an evaluator built on `h_attacker` and
/// with `reference_gamma`, requiring agreement within `kSpaConformanceTol`
/// and that every candidate took the closed form (no `gamma_full`
/// fallback).
inline void expect_candidates_conform(
    const grid::PowerSystem& sys, const linalg::Matrix& h_attacker,
    const std::vector<linalg::Vector>& candidates, const std::string& what) {
  SCOPED_TRACE(what);
  obs::MetricsRegistry registry;
  obs::ScopedRegistry scope(&registry);
  // The references are full SVDs (seconds each at 300 buses): spread
  // them over the pool.
  const std::vector<double> references = core::parallel_map<double>(
      candidates.size(), [&](std::size_t c) {
        return reference_gamma(h_attacker,
                               grid::measurement_matrix(sys, candidates[c]));
      });
  const mtd::SpaEvaluator eval(sys, h_attacker);
  ASSERT_TRUE(eval.incremental());
  for (std::size_t c = 0; c < candidates.size(); ++c)
    EXPECT_NEAR(eval.gamma(candidates[c]), references[c], kSpaConformanceTol)
        << "candidate " << c;
  const obs::WorkSnapshot work = registry.work_snapshot();
  EXPECT_EQ(work[static_cast<std::size_t>(obs::Work::kSpaFullEvals)], 0u);
  EXPECT_EQ(work[static_cast<std::size_t>(obs::Work::kSpaFastPathEvals)],
            candidates.size());
}

/// 64 seeded candidates for `sys`: against the nominal attacker matrix, 8
/// box corners, one single-branch change per D-FACTS branch (up to 8), 4
/// changes of at most 1e-9 relative and random interior points; against a
/// perturbed-reference (stale) attacker matrix, 16 box points; and, when
/// the case has a parallel pair, 16 box points with D-FACTS on both of its
/// circuits (the stale attacker again otherwise).
inline void expect_spa_conforms(const grid::PowerSystem& sys,
                                std::uint64_t seed) {
  stats::Rng rng(seed);
  const auto box_point = [&](const grid::PowerSystem& s, bool corner) {
    const linalg::Vector lo = s.reactance_lower_limits();
    const linalg::Vector hi = s.reactance_upper_limits();
    linalg::Vector x = s.reactances();
    for (std::size_t l : s.dfacts_branches())
      x[l] = corner ? (rng.uniform() < 0.5 ? lo[l] : hi[l])
                    : rng.uniform(lo[l], hi[l]);
    return x;
  };
  const std::vector<std::size_t> dfacts = sys.dfacts_branches();
  ASSERT_FALSE(dfacts.empty());
  const linalg::Vector hi = sys.reactance_upper_limits();

  std::vector<linalg::Vector> nominal;
  for (int c = 0; c < 8; ++c) nominal.push_back(box_point(sys, true));
  for (std::size_t j = 0; j < dfacts.size() && j < 8; ++j) {
    linalg::Vector x = sys.reactances();
    x[dfacts[j]] = hi[dfacts[j]];
    nominal.push_back(std::move(x));
  }
  for (int c = 0; c < 4; ++c) {
    linalg::Vector x = sys.reactances();
    for (std::size_t l : dfacts)
      x[l] *= 1.0 + rng.uniform(-1e-9, 1e-9);
    nominal.push_back(std::move(x));
  }
  while (nominal.size() < 32) nominal.push_back(box_point(sys, false));
  expect_candidates_conform(sys, grid::measurement_matrix(sys), nominal,
                            "nominal attacker");

  // The attacker's knowledge is usually H at an earlier key, not at the
  // nominal reactances: the reference is recovered from the matrix.
  const linalg::Matrix h_stale =
      grid::measurement_matrix(sys, box_point(sys, false));
  std::vector<linalg::Vector> stale;
  for (int c = 0; c < 16; ++c) stale.push_back(box_point(sys, c % 4 == 0));
  expect_candidates_conform(sys, h_stale, stale, "stale attacker");

  if (const auto paired = with_parallel_pair_dfacts(sys)) {
    std::vector<linalg::Vector> pair;
    for (int c = 0; c < 16; ++c)
      pair.push_back(box_point(*paired, c % 4 == 0));
    expect_candidates_conform(*paired, grid::measurement_matrix(*paired),
                              pair, "parallel pair");
  } else {
    std::vector<linalg::Vector> more;
    for (int c = 0; c < 16; ++c) more.push_back(box_point(sys, false));
    expect_candidates_conform(sys, h_stale, more, "stale attacker (more)");
  }
}

}  // namespace mtdgrid::test
