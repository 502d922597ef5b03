#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "grid/load_trace.hpp"
#include "io/case_registry.hpp"
#include "serve/daemon.hpp"
#include "serve/sharded.hpp"

namespace mtdgrid::serve::test {

/// Small-budget daemon options shared by the serve test binaries: the
/// protocol behavior under test does not depend on search quality, and
/// the daemon constructor pays a full pass-1 day plus the hour-0 re-key,
/// so every knob is turned down to keep the suites fast (also under the
/// TSan `concurrency` leg).
inline DaemonOptions fast_daemon_options() {
  DaemonOptions options;
  options.seed = 11;
  options.history_hours = 4;
  options.daily.gamma_grid = {0.05, 0.15};
  options.daily.base_search_evaluations = 120;
  options.daily.effectiveness.num_attacks = 40;
  options.daily.selection.extra_starts = 1;
  options.daily.selection.search.max_evaluations = 150;
  return options;
}

/// A case14 daemon on the NYISO trace with `fast_daemon_options`.
inline std::unique_ptr<MtdDaemon> make_fast_daemon() {
  return std::make_unique<MtdDaemon>(
      io::load_case("case14"), grid::DailyLoadTrace::nyiso_winter_weekday(),
      fast_daemon_options());
}

/// `fast_daemon_options` transplanted onto a `shards`-wide fleet: every
/// shard is case14 on the NYISO trace, re-keying with the same reduced
/// budgets. Root seed 11, so shard k runs seed `stream_seed(11, k)`.
inline ShardedOptions fast_sharded_options(std::size_t shards) {
  const DaemonOptions base = fast_daemon_options();
  ShardedOptions options;
  options.cases.assign(shards, "case14");
  options.seed = base.seed;
  options.history_hours = base.history_hours;
  options.daily = base.daily;
  return options;
}

/// A `shards`-wide fleet with `fast_sharded_options`.
inline std::unique_ptr<ShardedDaemon> make_fast_fleet(std::size_t shards) {
  std::vector<std::pair<grid::PowerSystem, grid::DailyLoadTrace>> systems;
  for (std::size_t k = 0; k < shards; ++k)
    systems.emplace_back(io::load_case("case14"),
                         grid::DailyLoadTrace::nyiso_winter_weekday());
  return std::make_unique<ShardedDaemon>(std::move(systems),
                                         fast_sharded_options(shards));
}

}  // namespace mtdgrid::serve::test
