// Adaptive-adversary campaign runner: sweeps attacker policies (zero-
// knowledge, stale-key replay, probe-based estimation at one or more
// budgets, omniscient, multi-hour ramp) against defender re-keying
// schedules on one case and prints the knowledge frontier as a single
// JSON line (attack::to_json).
//
// The frontier is a pure function of (seed, configuration): stdout is
// byte-identical at any --threads value, which is what the CI campaign
// smoke diffs.
//
// Exit codes: 0 campaign completed, 1 runtime failure (unknown case,
// infeasible configuration), 2 bad argv (usage on stderr).

#include <cstdio>
#include <string>
#include <vector>

#include "attack/campaign.hpp"
#include "cli.hpp"

namespace {

using namespace mtdgrid;

// Comma-separated bounded integers ("1,2,4").
bool parse_u64_list(const char* arg, unsigned long long lo,
                    unsigned long long hi,
                    std::vector<unsigned long long>& out) {
  if (arg == nullptr || *arg == '\0') return false;
  std::string token;
  std::vector<unsigned long long> values;
  for (const char* p = arg;; ++p) {
    if (*p != ',' && *p != '\0') {
      token += *p;
      continue;
    }
    unsigned long long v = 0;
    if (!examples::parse_u64(token.c_str(), lo, hi, v)) return false;
    values.push_back(v);
    token.clear();
    if (*p == '\0') break;
  }
  out = std::move(values);
  return true;
}

// Comma-separated policy names ("zero,probe,omniscient").
bool parse_policies(const char* arg, std::vector<attack::AttackerPolicy>& out) {
  if (arg == nullptr || *arg == '\0') return false;
  std::string token;
  std::vector<attack::AttackerPolicy> policies;
  for (const char* p = arg;; ++p) {
    if (*p != ',' && *p != '\0') {
      token += *p;
      continue;
    }
    attack::AttackerPolicy policy;
    if (!attack::parse_attacker_policy(token, policy)) return false;
    policies.push_back(policy);
    token.clear();
    if (*p == '\0') break;
  }
  out = std::move(policies);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  attack::CampaignOptions options;
  std::string case_name;
  // The full panel; with no panel flags it equals
  // attack::default_attackers().
  std::vector<attack::AttackerPolicy> policies = {
      attack::AttackerPolicy::kZeroKnowledge,
      attack::AttackerPolicy::kStaleKey, attack::AttackerPolicy::kProbe,
      attack::AttackerPolicy::kOmniscient, attack::AttackerPolicy::kRamp};
  std::vector<unsigned long long> probe_budgets = {4, 32};
  std::size_t ramp_hours = 3;

  examples::Cli cli(
      "mtd_campaign",
      {"[--seed S] [--hours H] [--rekey P1,P2,...]",
       "[--policies zero,stale,probe,omniscient,ramp]",
       "[--probes B1,B2,...] [--ramp-hours R] [--delta D]",
       "[--evals N] [--base-evals N] [--starts N] [--attacks N]",
       "[--threads N] <case>"});
  cli.note("  plays every attacker policy against every re-keying");
  cli.note("  schedule and prints the knowledge frontier as one JSON");
  cli.note("  line; stdout is byte-identical at any --threads value.");
  cli.flag_u64("--seed", 0, ~0ULL,
               [&](unsigned long long v) { options.seed = v; });
  cli.flag_u64("--hours", 2, 168,
               [&](unsigned long long v) { options.horizon_hours = v; });
  cli.flag_value("--rekey", [&](const char* raw) {
    std::vector<unsigned long long> values;
    if (!parse_u64_list(raw, 1, 24, values)) return false;
    options.rekey_every.assign(values.begin(), values.end());
    return true;
  });
  cli.flag_value("--policies",
                 [&](const char* raw) { return parse_policies(raw, policies); });
  cli.flag_value("--probes", [&](const char* raw) {
    return parse_u64_list(raw, 1, 10000, probe_budgets);
  });
  cli.flag_u64("--ramp-hours", 1, 24,
               [&](unsigned long long v) { ramp_hours = v; });
  cli.flag_value("--delta", [&](const char* raw) {
    return examples::parse_double(raw, 0.0, 10.0, options.daily.target_delta);
  });
  // Search-budget knobs, named as in mtd_daemon: --evals bounds the
  // per-hour selection search, --base-evals the pass-1 baseline search,
  // --starts the selection multi-starts.
  cli.flag_u64("--evals", 1, 1000000, [&](unsigned long long v) {
    options.daily.selection.search.max_evaluations = static_cast<int>(v);
  });
  cli.flag_u64("--base-evals", 1, 1000000, [&](unsigned long long v) {
    options.daily.base_search_evaluations = static_cast<int>(v);
  });
  cli.flag_u64("--starts", 0, 1000, [&](unsigned long long v) {
    options.daily.selection.extra_starts = static_cast<int>(v);
  });
  cli.flag_u64("--attacks", 1, 1000000, [&](unsigned long long v) {
    options.daily.effectiveness.num_attacks = static_cast<int>(v);
  });
  cli.flag_threads();
  cli.positional([&](const std::string& arg) {
    if (!case_name.empty()) return false;
    case_name = arg;
    return true;
  });
  if (!cli.parse(argc, argv)) return 2;
  if (case_name.empty()) return cli.usage();

  // The panel is built from the flags: one cell per probe budget for
  // "probe", one spec per other policy.
  for (const attack::AttackerPolicy policy : policies) {
    if (policy == attack::AttackerPolicy::kProbe) {
      for (const unsigned long long budget : probe_budgets)
        options.attackers.push_back(
            {policy, static_cast<int>(budget), ramp_hours});
    } else {
      options.attackers.push_back({policy, 0, ramp_hours});
    }
  }

  try {
    const attack::CampaignFrontier frontier =
        attack::run_campaign(case_name, options);
    std::printf("%s\n", attack::to_json(frontier).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mtd_campaign: %s\n", e.what());
    return 1;
  }
}
