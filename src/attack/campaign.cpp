#include "attack/campaign.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "grid/measurement.hpp"
#include "io/case_registry.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "opf/dc_opf.hpp"
#include "serve/daemon.hpp"
#include "stats/rng.hpp"

namespace mtdgrid::attack {

namespace {

/// One adopted key: what the defender operates (and what an attacker who
/// captured it can replay).
struct KeyState {
  std::size_t adopted_hour = 0;  ///< trajectory hour the key went live
  linalg::Matrix h;              ///< the key's measurement matrix H'
  linalg::Vector reactances;     ///< the key's full reactance vector
};

/// One scored trajectory hour: owns what its `ScoredHour` view borrows.
struct HourState {
  std::size_t hour = 0;                  ///< trajectory hour
  std::shared_ptr<const KeyState> key;   ///< key in force this hour
  std::shared_ptr<const KeyState> prev;  ///< key retired at the last re-key
  linalg::Vector z_ref;  ///< noiseless measurements at the operating point
};

/// The scored hours of one re-keying schedule's defender trajectory: the
/// engine advances hourly (consuming `Rng(seed)` exactly as
/// `run_daily_simulation` would); a freshly selected key is *adopted* only
/// every `rekey_every` hours and held in between, with the OPF re-tracking
/// the hourly load at the held reactances. Hours without a feasible key or
/// dispatch are skipped.
std::vector<HourState> defender_trajectory(const grid::PowerSystem& sys,
                                           const grid::DailyLoadTrace& trace,
                                           const CampaignOptions& options,
                                           std::size_t rekey_every) {
  mtd::DailyEngine engine(sys, trace, options.daily);
  stats::Rng rng(options.seed);
  std::vector<HourState> hours;
  std::shared_ptr<const KeyState> key, prev;
  for (std::size_t h = 0; h < options.horizon_hours; ++h) {
    mtd::DailyHourOutcome out = engine.advance_hour(rng);
    linalg::Vector z_ref;
    bool dispatched = false;
    if (h % rekey_every == 0 && out.record.feasible) {
      if (key) prev = key;
      key = std::make_shared<const KeyState>(
          KeyState{h, std::move(out.h_mtd), std::move(out.reactances)});
      z_ref = std::move(out.z_ref);
      dispatched = true;
    } else if (key) {
      // Held key: the defender keeps the reactances and re-dispatches for
      // this hour's loads (the engine applied them during advance_hour).
      const opf::DispatchResult d =
          opf::solve_dc_opf(engine.system(), key->reactances);
      if (d.feasible) {
        z_ref = grid::noiseless_measurements(
            engine.system(), key->reactances, d.theta_reduced);
        dispatched = true;
      }
    }
    // Scoring starts at the first re-keying boundary so the stale policy
    // is defined on exactly the hours every other policy sees.
    if (dispatched && prev) hours.push_back({h, key, prev, std::move(z_ref)});
  }
  return hours;
}

}  // namespace

const char* attacker_policy_name(AttackerPolicy policy) {
  switch (policy) {
    case AttackerPolicy::kZeroKnowledge: return "zero";
    case AttackerPolicy::kStaleKey: return "stale";
    case AttackerPolicy::kProbe: return "probe";
    case AttackerPolicy::kOmniscient: return "omniscient";
    case AttackerPolicy::kRamp: return "ramp";
  }
  return "?";
}

bool parse_attacker_policy(const std::string& name, AttackerPolicy& out) {
  if (name == "zero") out = AttackerPolicy::kZeroKnowledge;
  else if (name == "stale") out = AttackerPolicy::kStaleKey;
  else if (name == "probe") out = AttackerPolicy::kProbe;
  else if (name == "omniscient") out = AttackerPolicy::kOmniscient;
  else if (name == "ramp") out = AttackerPolicy::kRamp;
  else return false;
  return true;
}

std::vector<AttackerSpec> default_attackers() {
  std::vector<AttackerSpec> panel;
  panel.push_back({AttackerPolicy::kZeroKnowledge, 0, 0});
  panel.push_back({AttackerPolicy::kStaleKey, 0, 0});
  panel.push_back({AttackerPolicy::kProbe, 4, 0});
  panel.push_back({AttackerPolicy::kProbe, 32, 0});
  panel.push_back({AttackerPolicy::kOmniscient, 0, 0});
  panel.push_back({AttackerPolicy::kRamp, 0, 3});
  return panel;
}

CampaignCell score_policy(const grid::PowerSystem& sys,
                          const linalg::Matrix& h_nominal,
                          const AttackerSpec& attacker,
                          const std::vector<ScoredHour>& hours,
                          std::uint64_t root, std::uint64_t probe_root,
                          const mtd::DailySimulationOptions& daily,
                          const KeyEstimationOptions& estimation) {
  CampaignCell cell;
  cell.attacker = attacker;
  mtd::EffectivenessOptions eff = daily.effectiveness;
  eff.deltas = {daily.target_delta};
  double detection_sum = 0.0;
  double eta_sum = 0.0;
  for (const ScoredHour& hour : hours) {
    KeyEstimate estimate;  // keeps the probe H alive
    const linalg::Matrix* h_attacker = &h_nominal;
    bool crossed_boundary = false;
    switch (attacker.policy) {
      case AttackerPolicy::kZeroKnowledge:
        break;
      case AttackerPolicy::kStaleKey:
        h_attacker = hour.retired.h;
        crossed_boundary = true;  // the replayed key is retired
        break;
      case AttackerPolicy::kProbe:
        estimate = probe_and_estimate_key(
            sys, *hour.z_ref, daily.effectiveness.sigma_mw, probe_root,
            hour.hour, attacker.probe_budget, estimation);
        h_attacker = &estimate.h;
        cell.probes_used += static_cast<std::uint64_t>(attacker.probe_budget);
        break;
      case AttackerPolicy::kOmniscient:
        h_attacker = hour.key.h;
        break;
      case AttackerPolicy::kRamp: {
        // Knowledge locked at the ramp window's first hour; magnitude ramps
        // linearly across the window. Until the defender re-keys
        // mid-window the attack stays stealthy; afterwards the locked key
        // is a boundary-crossing replay.
        const std::size_t h0 =
            (hour.hour / attacker.ramp_hours) * attacker.ramp_hours;
        // The key in force at h0: the latest adopted at or before h0 (every
        // re-key after the first key is a scored hour, and the first key is
        // the first scored hour's retired one). Null before the first key.
        const linalg::Matrix* locked = nullptr;
        for (const ScoredHour& past : hours) {
          if (past.retired.adopted_hour > h0) break;
          locked = past.key.adopted_hour <= h0 ? past.key.h : past.retired.h;
        }
        h_attacker = locked ? locked : &h_nominal;
        crossed_boundary = locked != hour.key.h;
        eff.attack_relative_magnitude =
            daily.effectiveness.attack_relative_magnitude *
            (static_cast<double>(hour.hour - h0 + 1) /
             static_cast<double>(attacker.ramp_hours));
        break;
      }
    }
    if (crossed_boundary) {
      obs::add(obs::Work::kStaleReplays);
      ++cell.boundary_replays;
    }
    stats::Rng rng = stats::make_stream(root, hour.hour);
    const mtd::EffectivenessResult er = mtd::evaluate_effectiveness(
        *h_attacker, *hour.key.h, *hour.z_ref, eff, rng);
    cell.hourly_mean_detection.push_back(er.mean_detection);
    cell.hourly_eta.push_back(er.eta[0]);
    detection_sum += er.mean_detection;
    eta_sum += er.eta[0];
  }
  cell.hours_scored = hours.size();
  if (cell.hours_scored > 0) {
    cell.mean_detection =
        detection_sum / static_cast<double>(cell.hours_scored);
    cell.eta = eta_sum / static_cast<double>(cell.hours_scored);
  }
  obs::add(obs::Work::kCampaignCells);
  return cell;
}

void write_scores(const CampaignCell& cell, serve::Json& out) {
  using serve::Json;
  const auto number_array = [](const std::vector<double>& v) {
    Json arr{Json::Array{}};
    for (const double x : v) arr.push_back(Json(x));
    return arr;
  };
  out.set("mean_detection", Json(cell.mean_detection));
  out.set("eta", Json(cell.eta));
  out.set("probes_used", Json(cell.probes_used));
  out.set("boundary_replays", Json(cell.boundary_replays));
  out.set("hourly_mean_detection", number_array(cell.hourly_mean_detection));
  out.set("hourly_eta", number_array(cell.hourly_eta));
}

std::string to_json(const CampaignFrontier& frontier) {
  using serve::Json;
  Json doc;
  doc.set("case", Json(frontier.case_name));
  doc.set("seed", Json(frontier.seed));
  doc.set("delta", Json(frontier.target_delta));
  doc.set("horizon_hours", Json(frontier.horizon_hours));
  Json cells{Json::Array{}};
  for (const CampaignCell& cell : frontier.cells) {
    Json c;
    c.set("policy", Json(attacker_policy_name(cell.attacker.policy)));
    if (cell.attacker.policy == AttackerPolicy::kProbe)
      c.set("probe_budget", Json(cell.attacker.probe_budget));
    if (cell.attacker.policy == AttackerPolicy::kRamp)
      c.set("ramp_hours", Json(cell.attacker.ramp_hours));
    c.set("rekey_every", Json(cell.rekey_every));
    c.set("hours_scored", Json(cell.hours_scored));
    write_scores(cell, c);
    cells.push_back(std::move(c));
  }
  doc.set("cells", std::move(cells));
  return doc.dump();
}

CampaignFrontier run_campaign(const grid::PowerSystem& sys,
                              const grid::DailyLoadTrace& trace,
                              const CampaignOptions& options) {
  CampaignOptions opt = options;
  if (opt.attackers.empty()) opt.attackers = default_attackers();
  if (opt.horizon_hours < 2)
    throw std::invalid_argument("campaign: horizon_hours must be >= 2");
  if (opt.rekey_every.empty())
    throw std::invalid_argument("campaign: need a re-keying schedule");
  for (const std::size_t p : opt.rekey_every)
    if (p == 0)
      throw std::invalid_argument("campaign: rekey_every must be >= 1");
  for (const AttackerSpec& a : opt.attackers) {
    if (a.policy == AttackerPolicy::kProbe && a.probe_budget < 1)
      throw std::invalid_argument("campaign: probe_budget must be >= 1");
    if (a.policy == AttackerPolicy::kRamp && a.ramp_hours < 1)
      throw std::invalid_argument("campaign: ramp_hours must be >= 1");
  }

  CampaignFrontier frontier;
  frontier.case_name = sys.name();
  frontier.seed = opt.seed;
  frontier.target_delta = opt.daily.target_delta;
  frontier.horizon_hours = opt.horizon_hours;

  // The attacker's zero-knowledge matrix: H depends only on topology and
  // reactances, so the public nominal case data pins it exactly.
  const linalg::Matrix h_nominal = grid::measurement_matrix(sys);
  const std::uint64_t probe_root =
      stats::stream_seed(opt.seed, kProbeOracleTag);
  const std::uint64_t campaign_root =
      stats::stream_seed(opt.seed, kCampaignStreamTag);

  std::uint64_t cell_index = 0;
  for (const std::size_t rekey : opt.rekey_every) {
    const std::vector<HourState> trajectory =
        defender_trajectory(sys, trace, opt, rekey);
    std::vector<ScoredHour> hours;
    hours.reserve(trajectory.size());
    for (const HourState& s : trajectory)
      hours.push_back({s.hour,
                       {s.key->adopted_hour, &s.key->h},
                       {s.prev->adopted_hour, &s.prev->h},
                       &s.z_ref});
    for (const AttackerSpec& spec : opt.attackers) {
      CampaignCell cell = score_policy(
          sys, h_nominal, spec, hours,
          stats::stream_seed(campaign_root, cell_index++), probe_root,
          opt.daily, opt.estimation);
      cell.rekey_every = rekey;
      frontier.cells.push_back(std::move(cell));
    }
  }
  return frontier;
}

CampaignFrontier run_campaign(const std::string& case_name,
                              const CampaignOptions& options) {
  const grid::PowerSystem sys = io::load_case(case_name);
  CampaignFrontier frontier =
      run_campaign(sys, serve::default_daemon_trace(sys), options);
  frontier.case_name = case_name;  // report the registry name
  return frontier;
}

}  // namespace mtdgrid::attack
