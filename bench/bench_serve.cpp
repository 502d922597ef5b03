// Serving-layer throughput: how many requests the MTD daemon core
// absorbs per second, through the exact code path the socket transport
// drives (`MtdDaemon::handle_line` — parse, snapshot lookup, estimator
// evaluation, reply serialization). The daemon is built once per binary
// run (pass-1 day + hour-0 re-key) and the request mix is pinned, so the
// numbers isolate the per-request cost.
//
// BM_DaemonDetectThroughput is a guarded benchmark (bench/baseline.json
// + the CI perf filter): a `detect` with a submitted 54-entry measurement
// vector is the daemon's workhorse query — one WLS residual evaluation
// plus the protocol round trip.
//
// BM_ShardedDetectThroughput/S is the fleet-scaling gate: S client
// threads each drive their own shard of a 4-shard ShardedDaemon with
// routed detects (the lock-free read path), splitting a fixed total
// request count. Shards share no mutable state, so 4-shard wall time
// should approach 1/4 of 1-shard — CI asserts >= 2x on its 4-core
// runners (`--min-speedup ...@4`; skipped on smaller machines).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "grid/load_trace.hpp"
#include "io/case_registry.hpp"
#include "serve/daemon.hpp"
#include "serve/json.hpp"
#include "serve/sharded.hpp"

namespace {

using namespace mtdgrid;

serve::MtdDaemon& shared_daemon() {
  static std::unique_ptr<serve::MtdDaemon> daemon = [] {
    serve::DaemonOptions options;
    options.seed = 7;
    options.history_hours = 4;
    options.daily.gamma_grid = {0.05, 0.15};
    options.daily.base_search_evaluations = 120;
    options.daily.effectiveness.num_attacks = 40;
    options.daily.selection.extra_starts = 1;
    options.daily.selection.search.max_evaluations = 150;
    return std::make_unique<serve::MtdDaemon>(
        io::load_case("case14"), grid::DailyLoadTrace::nyiso_winter_weekday(),
        options);
  }();
  return *daemon;
}

/// A realistic detect request: the hour-0 probe sample (attack-free noisy
/// measurements) resubmitted as an explicit 54-entry `z`.
std::string detect_request_line() {
  static const std::string line = [] {
    serve::MtdDaemon& daemon = shared_daemon();
    const serve::Json probe =
        serve::Json::parse(daemon.handle_line(R"({"op":"probe","id":1})"));
    serve::Json req;
    req.set("op", serve::Json("detect"));
    serve::Json z;
    for (const serve::Json& v : probe.find("z")->as_array())
      z.push_back(serve::Json(v.as_number()));
    req.set("z", std::move(z));
    return req.dump();
  }();
  return line;
}

void BM_DaemonDetectThroughput(benchmark::State& state) {
  serve::MtdDaemon& daemon = shared_daemon();
  const std::string request = detect_request_line();
  for (auto _ : state) {
    benchmark::DoNotOptimize(daemon.handle_line(request));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DaemonDetectThroughput);

serve::ShardedDaemon& shared_fleet() {
  static std::unique_ptr<serve::ShardedDaemon> fleet = [] {
    serve::ShardedOptions options;
    options.cases.assign(4, "case14");
    options.seed = 7;
    options.history_hours = 4;
    options.daily.gamma_grid = {0.05, 0.15};
    options.daily.base_search_evaluations = 120;
    options.daily.effectiveness.num_attacks = 40;
    options.daily.selection.extra_starts = 1;
    options.daily.selection.search.max_evaluations = 150;
    std::vector<std::pair<grid::PowerSystem, grid::DailyLoadTrace>> systems;
    for (int k = 0; k < 4; ++k)
      systems.emplace_back(io::load_case("case14"),
                           grid::DailyLoadTrace::nyiso_winter_weekday());
    return std::make_unique<serve::ShardedDaemon>(std::move(systems),
                                                  options);
  }();
  return *fleet;
}

/// Shard k's detect line: its own hour-0 probe sample resubmitted as an
/// explicit `z` with a `"shard"` routing field (each shard has its own
/// key, so z vectors are shard-specific).
std::string sharded_detect_line(std::size_t shard) {
  serve::ShardedDaemon& fleet = shared_fleet();
  const serve::Json probe = serve::Json::parse(fleet.handle_line(
      R"({"op":"probe","id":1,"shard":)" + std::to_string(shard) + "}"));
  serve::Json req;
  req.set("op", serve::Json("detect"));
  req.set("shard", serve::Json(shard));
  serve::Json z;
  for (const serve::Json& v : probe.find("z")->as_array())
    z.push_back(serve::Json(v.as_number()));
  req.set("z", std::move(z));
  return req.dump();
}

/// Fleet scaling: state.range(0) client threads, each pinned to its own
/// shard, split kTotalRequests routed detects per iteration. Real time
/// (not CPU time) is the metric — the point is wall-clock speedup from
/// shards serving concurrently on the lock-free read path.
void BM_ShardedDetectThroughput(benchmark::State& state) {
  const std::size_t clients = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kTotalRequests = 1024;
  serve::ShardedDaemon& fleet = shared_fleet();
  std::vector<std::string> lines;
  for (std::size_t s = 0; s < clients; ++s)
    lines.push_back(sharded_detect_line(s));
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t s = 0; s < clients; ++s) {
      threads.emplace_back([&fleet, &lines, s, clients] {
        const std::size_t n = kTotalRequests / clients;
        for (std::size_t i = 0; i < n; ++i)
          benchmark::DoNotOptimize(fleet.handle_line(lines[s]));
      });
    }
    for (std::thread& t : threads) t.join();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(kTotalRequests / clients * clients));
}
BENCHMARK(BM_ShardedDetectThroughput)->Arg(1)->Arg(4)->UseRealTime();

void BM_DaemonStatusThroughput(benchmark::State& state) {
  serve::MtdDaemon& daemon = shared_daemon();
  const std::string request = R"({"op":"status"})";
  for (auto _ : state) {
    benchmark::DoNotOptimize(daemon.handle_line(request));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DaemonStatusThroughput);

void BM_DaemonProbeThroughput(benchmark::State& state) {
  serve::MtdDaemon& daemon = shared_daemon();
  // Distinct ids exercise the per-request substream derivation.
  std::uint64_t id = 0;
  for (auto _ : state) {
    const std::string request =
        R"({"op":"probe","id":)" + std::to_string(id++) + "}";
    benchmark::DoNotOptimize(daemon.handle_line(request));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DaemonProbeThroughput);

}  // namespace
