// Campaign-engine throughput: one full knowledge-frontier evaluation —
// defender trajectory (hourly OPF + re-keying selection) plus every
// (policy x schedule) cell scored hour by hour. This is the cost a user
// pays per `mtd_campaign` invocation and per daemon `campaign` verb
// window, dominated by the effectiveness Monte-Carlo inside each cell.
//
// BM_CampaignFrontier is a guarded benchmark (bench/baseline.json + the
// CI perf filter): the default six-attacker panel against two re-keying
// schedules on case14, fast search knobs so the selection cost does not
// drown the scoring cost under measurement.

#include <benchmark/benchmark.h>

#include "attack/campaign.hpp"
#include "bench_util.hpp"
#include "grid/load_trace.hpp"
#include "io/case_registry.hpp"

namespace {

using namespace mtdgrid;

attack::CampaignOptions campaign_options(bench::Scale scale) {
  attack::CampaignOptions options;
  options.seed = 7;
  options.horizon_hours = scale == bench::Scale::kFull ? 8 : 4;
  options.rekey_every = {1, 2};
  options.daily.gamma_grid = {0.05, 0.15};
  options.daily.base_search_evaluations = 120;
  options.daily.effectiveness.num_attacks =
      scale == bench::Scale::kFast ? 40 : 100;
  options.daily.selection.extra_starts = 1;
  options.daily.selection.search.max_evaluations = 150;
  return options;
}

void BM_CampaignFrontier(benchmark::State& state) {
  const grid::PowerSystem sys = io::load_case("case14");
  const grid::DailyLoadTrace trace =
      grid::DailyLoadTrace::nyiso_winter_weekday();
  const attack::CampaignOptions options =
      campaign_options(bench::scale_from_env());
  std::size_t cells = 0;
  for (auto _ : state) {
    const attack::CampaignFrontier frontier =
        attack::run_campaign(sys, trace, options);
    benchmark::DoNotOptimize(frontier.cells.data());
    cells += frontier.cells.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cells));
  state.SetLabel("case14 x " + std::to_string(options.horizon_hours) +
                 "h x 2 schedules");
}
BENCHMARK(BM_CampaignFrontier)->Unit(benchmark::kMillisecond);

}  // namespace
