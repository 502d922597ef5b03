// Stale-key replay regression (ISSUE 10): an attack crafted on hour h's
// key and replayed after the defender re-keys at h+1 is detected with
// high probability whenever the key actually moved, while the omniscient
// attacker (the paper's worst case, knowing the key in force) reproduces
// the keyspace-audit evasion baseline: detection at the false-positive
// rate and eta = 0.

#include <gtest/gtest.h>

#include <vector>

#include "grid/load_trace.hpp"
#include "grid/measurement.hpp"
#include "io/case_registry.hpp"
#include "mtd/daily.hpp"
#include "mtd/effectiveness.hpp"
#include "mtd/spa.hpp"
#include "stats/rng.hpp"

namespace mtdgrid::attack {
namespace {

mtd::DailySimulationOptions fast_daily() {
  mtd::DailySimulationOptions options;
  options.gamma_grid = {0.05, 0.15};
  options.base_search_evaluations = 120;
  options.effectiveness.num_attacks = 200;
  options.selection.extra_starts = 1;
  options.selection.search.max_evaluations = 150;
  return options;
}

struct KeyedHour {
  linalg::Matrix h;
  linalg::Vector z_ref;
};

/// Advances a fast case14 engine for `hours` hours and returns the keyed
/// outcomes in order (infeasible hours skipped).
std::vector<KeyedHour> keyed_hours(std::size_t hours, std::uint64_t seed) {
  mtd::DailyEngine engine(io::load_case("case14"),
                          grid::DailyLoadTrace::nyiso_winter_weekday(),
                          fast_daily());
  stats::Rng rng(seed);
  std::vector<KeyedHour> out;
  for (std::size_t h = 0; h < hours; ++h) {
    mtd::DailyHourOutcome o = engine.advance_hour(rng);
    if (!o.record.feasible) continue;
    out.push_back({std::move(o.h_mtd), std::move(o.z_ref)});
  }
  return out;
}

TEST(StaleReplayTest, ReplayAcrossRekeyBoundaryIsDetectedWhenKeyMoves) {
  const std::vector<KeyedHour> hours = keyed_hours(6, 11);
  ASSERT_GE(hours.size(), 3u);

  mtd::EffectivenessOptions eff;
  eff.num_attacks = 200;
  eff.deltas = {0.9};

  // The warm-started hourly selection occasionally re-adopts (nearly) the
  // same perturbation, so the stale key is only *guaranteed* useless to
  // the defender's detector on boundaries where the key actually moved.
  std::size_t moved = 0;
  for (std::size_t i = 1; i < hours.size(); ++i) {
    const double gamma = mtd::spa(hours[i - 1].h, hours[i].h);
    stats::Rng rng(33);
    const mtd::EffectivenessResult er = mtd::evaluate_effectiveness(
        hours[i - 1].h, hours[i].h, hours[i].z_ref, eff, rng);
    if (gamma > 0.05) {
      ++moved;
      // Replaying yesterday's key against a moved key trips the detector
      // with high probability.
      EXPECT_GT(er.mean_detection, 0.5) << "boundary " << i;
    }
    // Never worse than the false-positive floor.
    EXPECT_GE(er.mean_detection, 0.0);
  }
  EXPECT_GE(moved, 1u);  // the trajectory re-keyed for real at least once
}

TEST(StaleReplayTest, OmniscientAttackerReproducesEvasionBaseline) {
  // h_attacker == h_actual: every sampled attack stays in the keyed
  // column space, so detection collapses to the tuned false-positive
  // rate and the improvement factor eta is exactly zero — the
  // keyspace_audit evasion baseline.
  const std::vector<KeyedHour> hours = keyed_hours(3, 11);
  ASSERT_FALSE(hours.empty());
  mtd::EffectivenessOptions eff;
  eff.num_attacks = 200;
  eff.deltas = {0.9};
  for (const KeyedHour& hour : hours) {
    stats::Rng rng(44);
    const mtd::EffectivenessResult er =
        mtd::evaluate_effectiveness(hour.h, hour.h, hour.z_ref, eff, rng);
    EXPECT_LT(er.mean_detection, 0.01);  // ~ fp_rate = 5e-4
    EXPECT_EQ(er.eta[0], 0.0);
  }
}

TEST(StaleReplayTest, ZeroKnowledgeAttackerIsDetectedWithHighProbability) {
  // The opposite end of the knowledge axis: an attacker with only the
  // public nominal model attacks a keyed system and is detected with
  // high probability on every keyed hour. (The p >= 0.95 acceptance
  // number is a case118 campaign figure; these fast case14 knobs pick
  // small-gamma keys, observed detections 0.79-0.94.)
  const grid::PowerSystem sys = io::load_case("case14");
  const linalg::Matrix h_nominal = grid::measurement_matrix(sys);
  const std::vector<KeyedHour> hours = keyed_hours(3, 11);
  ASSERT_FALSE(hours.empty());
  mtd::EffectivenessOptions eff;
  eff.num_attacks = 200;
  eff.deltas = {0.9};
  for (const KeyedHour& hour : hours) {
    stats::Rng rng(55);
    const mtd::EffectivenessResult er = mtd::evaluate_effectiveness(
        h_nominal, hour.h, hour.z_ref, eff, rng);
    EXPECT_GT(er.mean_detection, 0.7);
  }
}

}  // namespace
}  // namespace mtdgrid::attack
