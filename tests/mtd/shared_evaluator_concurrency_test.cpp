// One `SpaEvaluator` and one `DispatchEvaluator`, shared by 8 threads that
// score the same candidates at once, must return exactly what sequential
// calls return: the selection sweep shares one immutable pair across its
// pool workers. Part of the TSan leg (MTDGRID_CONCURRENCY_TESTS).

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "grid/load_trace.hpp"
#include "grid/measurement.hpp"
#include "io/case_registry.hpp"
#include "mtd/spa.hpp"
#include "opf/dc_opf.hpp"
#include "serve/daemon.hpp"
#include "stats/rng.hpp"

namespace mtdgrid::mtd {
namespace {

struct Scored {
  double gamma = 0.0;
  opf::DispatchResult dispatch;
};

void expect_bit_identical(const Scored& a, const Scored& b) {
  EXPECT_EQ(a.gamma, b.gamma);
  ASSERT_EQ(a.dispatch.feasible, b.dispatch.feasible);
  EXPECT_EQ(a.dispatch.cost, b.dispatch.cost);
  ASSERT_EQ(a.dispatch.generation_mw.size(), b.dispatch.generation_mw.size());
  for (std::size_t g = 0; g < a.dispatch.generation_mw.size(); ++g)
    EXPECT_EQ(a.dispatch.generation_mw[g], b.dispatch.generation_mw[g]);
  ASSERT_EQ(a.dispatch.flows_mw.size(), b.dispatch.flows_mw.size());
  for (std::size_t l = 0; l < a.dispatch.flows_mw.size(); ++l)
    EXPECT_EQ(a.dispatch.flows_mw[l], b.dispatch.flows_mw[l]);
}

TEST(SharedEvaluatorConcurrencyTest, EightThreadsMatchSequentialBitForBit) {
  // case118 at the serving trace's peak hour: the merit-order certificate
  // fails there, so the shared dispatch evaluator runs its LP rounds.
  grid::PowerSystem sys = io::load_case("case118");
  serve::default_daemon_trace(sys).apply(sys, 18, sys.loads_mw());
  const SpaEvaluator spa_eval(sys, grid::measurement_matrix(sys));
  const opf::DispatchEvaluator dispatch_eval(sys);

  const linalg::Vector lo = sys.reactance_lower_limits();
  const linalg::Vector hi = sys.reactance_upper_limits();
  stats::Rng rng(11);
  std::vector<linalg::Vector> candidates;
  for (int c = 0; c < 24; ++c) {
    linalg::Vector x = sys.reactances();
    for (std::size_t l : sys.dfacts_branches())
      x[l] = rng.uniform(lo[l], hi[l]);
    candidates.push_back(std::move(x));
  }
  const auto score = [&](const linalg::Vector& x) {
    return Scored{spa_eval.gamma(x), dispatch_eval.evaluate(x)};
  };
  std::vector<Scored> sequential;
  for (const linalg::Vector& x : candidates) sequential.push_back(score(x));

  constexpr std::size_t kThreads = 8;
  std::vector<std::vector<Scored>> concurrent(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      // Each thread walks the candidates from a different offset, so the
      // same candidate is in flight on several threads at once.
      concurrent[t].resize(candidates.size());
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        const std::size_t c = (i + 3 * t) % candidates.size();
        concurrent[t][c] = score(candidates[c]);
      }
    });
  for (std::thread& th : threads) th.join();

  for (std::size_t t = 0; t < kThreads; ++t)
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      SCOPED_TRACE("thread " + std::to_string(t) + " candidate " +
                   std::to_string(c));
      expect_bit_identical(concurrent[t][c], sequential[c]);
    }
  EXPECT_GT(dispatch_eval.lp_fallbacks(), 0u);
}

}  // namespace
}  // namespace mtdgrid::mtd
