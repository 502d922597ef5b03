#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "attack/adaptive.hpp"
#include "grid/load_trace.hpp"
#include "grid/power_system.hpp"
#include "mtd/daily.hpp"
#include "serve/json.hpp"

namespace mtdgrid::attack {

/// How much the attacker knows about the defender's current D-FACTS key
/// when crafting a = H_attacker c (DESIGN.md "Adaptive adversary &
/// campaigns"). The policies form the knowledge axis of the campaign
/// frontier, from nothing to everything:
enum class AttackerPolicy {
  kZeroKnowledge,  ///< public case data only: nominal-reactance H
  kStaleKey,       ///< the key the defender retired at the last re-key
  kProbe,          ///< probe-oracle subspace estimate of the current key
  kOmniscient,     ///< the current key itself (the paper's attacker)
  kRamp,           ///< omniscient at ramp start, then a multi-hour
                   ///< magnitude ramp on that aging knowledge
};

/// The wire/report name of a policy ("zero", "stale", "probe",
/// "omniscient", "ramp").
const char* attacker_policy_name(AttackerPolicy policy);

/// Parses a policy name; returns false on an unknown name.
bool parse_attacker_policy(const std::string& name, AttackerPolicy& out);

/// One attacker configuration of a campaign.
struct AttackerSpec {
  AttackerPolicy policy = AttackerPolicy::kZeroKnowledge;
  /// Probe-oracle samples per evaluated hour (kProbe only, >= 1).
  int probe_budget = 8;
  /// Ramp window length in hours (kRamp only, >= 1): the attacker locks
  /// in the key in force at the window's first hour and ramps the attack
  /// magnitude linearly to the configured maximum across the window.
  std::size_t ramp_hours = 4;
};

/// The default attacker panel: zero-knowledge, stale-key, probe at two
/// budgets (4 and 32), omniscient, and a 3-hour ramp.
std::vector<AttackerSpec> default_attackers();

/// Campaign configuration: the scenario grid is
/// `rekey_every x attackers`, played against one defender trajectory per
/// re-keying schedule on the given case.
struct CampaignOptions {
  /// Root seed. Every number in the frontier is a pure function of
  /// (seed, options) — see the seeding contract in DESIGN.md.
  std::uint64_t seed = 7;
  /// Defender hours simulated per re-keying schedule (>= 2; hour 0 only
  /// establishes the first key and is never scored).
  std::size_t horizon_hours = 6;
  /// Defender re-keying schedules: a schedule P adopts a freshly selected
  /// key every P hours and holds it in between (the OPF keeps tracking
  /// the hourly load at the held reactances).
  std::vector<std::size_t> rekey_every = {1};
  /// The attacker panel (default: `default_attackers()` when empty).
  std::vector<AttackerSpec> attackers;
  /// Re-keying budgets and targets of the defender trajectory; the
  /// embedded effectiveness options also score every campaign cell
  /// (eta is reported at `daily.target_delta`).
  mtd::DailySimulationOptions daily;
  /// Attacker-side key-estimation knobs (kProbe).
  KeyEstimationOptions estimation;
};

/// One cell of the frontier: one attacker against one re-keying schedule,
/// aggregated over every scored hour of the trajectory.
struct CampaignCell {
  AttackerSpec attacker;                      ///< the attacker scored
  std::size_t rekey_every = 1;                ///< the defender schedule
  std::size_t hours_scored = 0;               ///< hours entering the means
  std::vector<double> hourly_mean_detection;  ///< per-hour mean P'_D
  std::vector<double> hourly_eta;             ///< per-hour eta'(delta)
  double mean_detection = 0.0;  ///< mean over hours of the hourly means
  double eta = 0.0;             ///< mean over hours of eta'(delta)
  std::uint64_t probes_used = 0;      ///< oracle samples this cell drew
  /// Evaluations whose attacker knowledge predated the key in force (the
  /// stale/ramp replays that crossed a re-keying boundary).
  std::uint64_t boundary_replays = 0;
};

/// The campaign result: the detection-probability-vs-attacker-knowledge
/// frontier, cells in schedule-major, attacker-minor order.
struct CampaignFrontier {
  std::string case_name;          ///< the case the campaign ran on
  std::uint64_t seed = 0;         ///< the root seed
  double target_delta = 0.9;      ///< the delta eta is reported at
  std::size_t horizon_hours = 0;  ///< defender hours per schedule
  std::vector<CampaignCell> cells;
};

/// A defender key as the scorer sees it (the matrix is borrowed).
struct ScoredKey {
  std::size_t adopted_hour = 0;       ///< hour the key went live
  const linalg::Matrix* h = nullptr;  ///< the key's measurement matrix H'
};

/// One hour a cell scores (pointers borrowed for the `score_policy` call).
struct ScoredHour {
  std::size_t hour = 0;  ///< substream index of the attacks; probe hour
  ScoredKey key;         ///< the key in force this hour
  ScoredKey retired;     ///< the key retired at the last re-key
  const linalg::Vector* z_ref = nullptr;  ///< noiseless measurements (MW)
};

/// Scores one attacker against the key in force, hour by hour: the one
/// policy-scoring routine of `run_campaign` and the daemon's `campaign`
/// verb, which differ only in `root` and `hours` (increasing hour order).
/// H_attacker is `h_nominal` (zero), the retired key (stale), the
/// estimate from `attacker.probe_budget` probes on `(probe_root, hour)`
/// (probe), the key in force (omniscient), or the key in force at the ramp
/// window's first hour, with the magnitude ramped (ramp; every re-key
/// after the first key must be a scored hour). Hour `hour` draws its
/// attacks from `make_stream(root, hour)`; eta is reported at
/// `daily.target_delta`. The cell's `rekey_every` is left at 1. Work
/// counters: `kAttackerProbes` per oracle sample, `kStaleReplays` per
/// boundary-crossing replay, one `kCampaignCells`.
CampaignCell score_policy(const grid::PowerSystem& sys,
                          const linalg::Matrix& h_nominal,
                          const AttackerSpec& attacker,
                          const std::vector<ScoredHour>& hours,
                          std::uint64_t root, std::uint64_t probe_root,
                          const mtd::DailySimulationOptions& daily,
                          const KeyEstimationOptions& estimation);

/// Appends a cell's six score fields, `mean_detection` to `hourly_eta`,
/// to a JSON object: the shared tail of `to_json`'s cells and the daemon's
/// `campaign` reply.
void write_scores(const CampaignCell& cell, serve::Json& out);

/// Serializes a frontier as one compact JSON object (stable field order,
/// shortest-round-trip doubles) — the CLI report format, and what the
/// determinism tests byte-compare across thread counts.
std::string to_json(const CampaignFrontier& frontier);

/// Runs a campaign: for each re-keying schedule, one sequential defender
/// trajectory (a `mtd::DailyEngine` advanced hourly, adopting the freshly
/// selected key every P hours), and for each attacker of the panel one
/// frontier cell scored hour by hour against the key actually in force.
///
/// Scoring starts at the first re-keying boundary (every scored hour has
/// a current *and* a previous key, so the stale policy is well defined on
/// exactly the hours every other policy is scored on) and skips hours
/// where the defender has no feasible key or dispatch.
///
/// Seeding contract: the engine consumes `Rng(seed)` exactly as
/// `run_daily_simulation` would; cell `i` is `score_policy` with root
/// `stream_seed(campaign_root, i)`, `campaign_root = stream_seed(seed,
/// kCampaignStreamTag)`, and the daemon's probe root
/// `stream_seed(seed, kProbeOracleTag)`, so campaign probes match daemon
/// probes sample for sample. Every cell is therefore a bit-identical pure
/// function of (seed, options) at any thread count.
CampaignFrontier run_campaign(const grid::PowerSystem& sys,
                              const grid::DailyLoadTrace& trace,
                              const CampaignOptions& options);

/// Convenience: loads `case_name` through `io::load_case` (registry
/// names, composed `<case>xN` grids, or a `.m` path) and replays
/// `serve::default_daemon_trace`, so a campaign and a daemon on the same
/// case see the same defender.
CampaignFrontier run_campaign(const std::string& case_name,
                              const CampaignOptions& options);

/// Substream family tag of the campaign cell evaluations (see the seeding
/// contract on `run_campaign`).
inline constexpr std::uint64_t kCampaignStreamTag =
    0x63616d706169676eULL;  // "campaign"

}  // namespace mtdgrid::attack
