// Shard isolation and thread-count invariance of the serving fleet —
// registered in MTDGRID_CONCURRENCY_TESTS (ctest `concurrency` label),
// so the TSan CI leg runs every test here. The contract (DESIGN.md
// "Fleet sharding"): shard k's transcript is bit-identical whether the
// shard runs alone as a bare MtdDaemon, or inside a fleet with busy
// neighbors, at any global thread count.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/thread_pool.hpp"
#include "serve/daemon.hpp"
#include "serve/sharded.hpp"
#include "serve_test_util.hpp"
#include "stats/rng.hpp"

namespace mtdgrid::serve {
namespace {

/// The shard-0 request script. Every verb class is represented: lock-free
/// reads (status, probe, analytic detect), the exec-locked Monte-Carlo
/// detect (which fans out on the shared pool), and a routed tick.
const std::vector<std::string> kScript = {
    R"({"op":"status"})",
    R"({"op":"dispatch","id":1})",
    R"({"op":"probe","id":2})",
    R"({"op":"detect","id":3,"method":"analytic"})",
    R"({"op":"detect","id":4,"method":"mc","trials":100})",
    R"({"op":"tick"})",
    R"({"op":"dispatch","hour":1})",
    R"({"op":"metrics"})",
};

/// Adds `"shard":0` routing to a script line (spliced before the
/// closing brace, so the reply bytes are unaffected — routing fields
/// never echo).
std::string routed(const std::string& line) {
  return line.substr(0, line.size() - 1) + R"(,"shard":0})";
}

/// Runs the script against shard 0 of a 2-shard fleet while a neighbor
/// thread hammers shard 1 with Monte-Carlo detects and ticks, under
/// `threads` global pool threads. Returns shard 0's replies.
std::vector<std::string> fleet_transcript(std::size_t threads) {
  core::ThreadPool::set_global_num_threads(threads);
  const std::unique_ptr<ShardedDaemon> fleet = test::make_fast_fleet(2);
  std::thread neighbor([&] {
    for (int n = 0; n < 24; ++n) {
      fleet->handle_line(
          R"({"op":"detect","id":)" + std::to_string(n) +
          R"(,"method":"mc","trials":100,"shard":1})");
      if (n % 8 == 7) fleet->handle_line(R"({"op":"tick","shard":1})");
    }
  });
  std::vector<std::string> replies;
  for (const std::string& line : kScript)
    replies.push_back(fleet->handle_line(routed(line)));
  neighbor.join();
  core::ThreadPool::set_global_num_threads(0);
  return replies;
}

/// The acceptance-criterion test: shard 0's transcript beside a busy
/// neighbor is byte-identical to a bare MtdDaemon running alone on the
/// same seed substream — at 1 worker thread and at 8.
TEST(ShardedDeterminismTest, ShardTranscriptIsIsolatedFromNeighbors) {
  // Reference: shard 0 "running alone" is a bare daemon seeded with the
  // fleet root's substream stream_seed(seed, 0).
  DaemonOptions solo_options = test::fast_daemon_options();
  solo_options.seed = stats::stream_seed(solo_options.seed, 0);
  const std::unique_ptr<MtdDaemon> solo = std::make_unique<MtdDaemon>(
      io::load_case("case14"), grid::DailyLoadTrace::nyiso_winter_weekday(),
      solo_options);
  std::vector<std::string> alone;
  for (const std::string& line : kScript)
    alone.push_back(solo->handle_line(line));

  const std::vector<std::string> beside1 = fleet_transcript(1);
  const std::vector<std::string> beside8 = fleet_transcript(8);
  ASSERT_EQ(alone.size(), beside1.size());
  ASSERT_EQ(alone.size(), beside8.size());
  for (std::size_t i = 0; i < alone.size(); ++i) {
    EXPECT_EQ(alone[i], beside1[i]) << "request " << kScript[i];
    EXPECT_EQ(alone[i], beside8[i]) << "request " << kScript[i];
  }
}

/// A broadcast tick (all shard locks, one parallel region) must be
/// bit-identical to ticking each shard individually, and the fleet it
/// leaves behind must serve identical replies.
TEST(ShardedDeterminismTest, BroadcastTickMatchesIndividualTicks) {
  core::ThreadPool::set_global_num_threads(8);
  const std::unique_ptr<ShardedDaemon> broadcast = test::make_fast_fleet(2);
  const std::unique_ptr<ShardedDaemon> individual = test::make_fast_fleet(2);

  const std::vector<std::size_t> hours = broadcast->tick_all();
  std::vector<std::size_t> hours_individual;
  for (std::size_t k = 0; k < individual->num_shards(); ++k)
    hours_individual.push_back(individual->shard(k).tick());
  EXPECT_EQ(hours, hours_individual);

  for (std::size_t k = 0; k < broadcast->num_shards(); ++k) {
    for (std::size_t hour = 0; hour <= hours[k]; ++hour) {
      const std::string req = R"({"op":"dispatch","hour":)" +
                              std::to_string(hour) + R"(,"shard":)" +
                              std::to_string(k) + "}";
      EXPECT_EQ(broadcast->handle_line(req), individual->handle_line(req))
          << "shard " << k << " hour " << hour;
    }
  }
  core::ThreadPool::set_global_num_threads(0);
}

/// Concurrent broadcast ticks and cross-shard reads from many transport
/// threads: no tearing, every reply well-formed, hours advance by
/// exactly the number of ticks. (The TSan leg is the real assertion.)
TEST(ShardedDeterminismTest, ConcurrentBroadcastsAndReadsStayCoherent) {
  const std::unique_ptr<ShardedDaemon> fleet = test::make_fast_fleet(2);
  std::thread ticker([&] {
    fleet->handle_line(R"({"op":"tick"})");
    fleet->handle_line(R"({"op":"tick"})");
  });
  std::vector<std::string> replies(32);
  std::thread reader([&] {
    for (std::size_t n = 0; n < replies.size(); ++n)
      replies[n] = fleet->handle_line(
          R"({"op":"status","shard":)" + std::to_string(n % 2) + "}");
  });
  ticker.join();
  reader.join();
  for (const std::string& reply : replies)
    EXPECT_EQ(reply.rfind(R"({"ok":true,"op":"status")", 0), 0u) << reply;
  EXPECT_EQ(fleet->shard(0).current_hour(), 2u);
  EXPECT_EQ(fleet->shard(1).current_hour(), 2u);
}

}  // namespace
}  // namespace mtdgrid::serve
