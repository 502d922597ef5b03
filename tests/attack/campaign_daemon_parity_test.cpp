// The CLI and the daemon score the same defender: `attack::score_policy`
// run on a case14 daemon's retained snapshots, with `run_campaign`'s
// substream roots, reproduces every non-ramp cell of the campaign on the
// same case, seed and daily options. This pins the shared serving trace
// (`serve::default_daemon_trace`) and the shared engine seeding
// (`Rng(seed)` consumed hour by hour) that DESIGN.md claims. Exact == on
// doubles on purpose.

#include "attack/campaign.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "grid/measurement.hpp"
#include "io/case_registry.hpp"
#include "serve/daemon.hpp"
#include "serve/serve_test_util.hpp"
#include "stats/rng.hpp"

namespace mtdgrid::attack {
namespace {

TEST(CampaignDaemonParityTest, ScorePolicyOnDaemonSnapshotsMatchesCampaign) {
  serve::DaemonOptions daemon_options = serve::test::fast_daemon_options();
  daemon_options.case_name = "case14";
  // One random multi-start (corners alone are seed-free on case14), so
  // the keys depend on how the engine consumes `Rng(seed)`.
  daemon_options.daily.selection.extra_starts = 2;
  serve::MtdDaemon daemon(daemon_options);
  while (daemon.current_hour() < 3) daemon.tick();

  CampaignOptions options;
  options.seed = daemon_options.seed;
  options.horizon_hours = 4;
  options.rekey_every = {1};
  options.daily = daemon_options.daily;
  const CampaignFrontier frontier = run_campaign("case14", options);

  // Hours 1..3: each re-keys, so its retired key is the previous hour's.
  std::vector<std::shared_ptr<const serve::HourKeySnapshot>> snaps;
  for (std::size_t h = 0; h <= 3; ++h) {
    snaps.push_back(daemon.snapshot_at(h));
    ASSERT_NE(snaps.back(), nullptr) << "hour " << h;
    ASSERT_TRUE(snaps.back()->keyed) << "hour " << h;
  }
  std::vector<ScoredHour> hours;
  for (std::size_t h = 1; h <= 3; ++h)
    hours.push_back({h,
                     {h, &snaps[h]->estimator->h()},
                     {h - 1, &snaps[h - 1]->estimator->h()},
                     &snaps[h]->z_ref});

  const grid::PowerSystem sys = io::load_case("case14");
  const linalg::Matrix h_nominal = grid::measurement_matrix(sys);
  const std::uint64_t campaign_root =
      stats::stream_seed(options.seed, kCampaignStreamTag);
  const std::uint64_t probe_root =
      stats::stream_seed(options.seed, kProbeOracleTag);

  std::size_t compared = 0;
  for (std::size_t i = 0; i < frontier.cells.size(); ++i) {
    const CampaignCell& cell = frontier.cells[i];
    if (cell.attacker.policy == AttackerPolicy::kRamp) continue;
    SCOPED_TRACE(attacker_policy_name(cell.attacker.policy));
    const CampaignCell scored = score_policy(
        sys, h_nominal, cell.attacker, hours,
        stats::stream_seed(campaign_root, i), probe_root, options.daily,
        options.estimation);
    EXPECT_EQ(cell.hours_scored, 3u);
    EXPECT_EQ(scored.hours_scored, cell.hours_scored);
    EXPECT_EQ(scored.hourly_mean_detection, cell.hourly_mean_detection);
    EXPECT_EQ(scored.hourly_eta, cell.hourly_eta);
    EXPECT_EQ(scored.mean_detection, cell.mean_detection);
    EXPECT_EQ(scored.eta, cell.eta);
    EXPECT_EQ(scored.probes_used, cell.probes_used);
    EXPECT_EQ(scored.boundary_replays, cell.boundary_replays);
    ++compared;
  }
  // zero, stale, probe at budgets 4 and 32, omniscient.
  EXPECT_EQ(compared, 5u);
}

}  // namespace
}  // namespace mtdgrid::attack
