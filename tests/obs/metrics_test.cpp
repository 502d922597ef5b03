#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/parallel.hpp"
#include "core/thread_pool.hpp"
#include "estimation/bdd.hpp"
#include "estimation/detection.hpp"
#include "estimation/state_estimator.hpp"
#include "grid/measurement.hpp"
#include "io/case_registry.hpp"
#include "obs/prometheus.hpp"
#include "obs/scope.hpp"
#include "opf/dc_opf.hpp"

namespace mtdgrid::obs {
namespace {

TEST(MetricsTest, WorkInfoNamesAreUniqueNonEmptySnakeCase) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < kWorkCount; ++i) {
    const WorkInfo& info = work_info(static_cast<Work>(i));
    ASSERT_NE(info.name, nullptr);
    ASSERT_NE(info.help, nullptr);
    const std::string name = info.name;
    EXPECT_FALSE(name.empty());
    for (const char c : name)
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                  c == '_')
          << name;
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
}

TEST(MetricsTest, OnlyPoolCountersAreStructural) {
  for (std::size_t i = 0; i < kWorkCount; ++i) {
    const Work w = static_cast<Work>(i);
    const bool structural = w == Work::kPoolRegions || w == Work::kPoolTasks;
    EXPECT_EQ(work_info(w).deterministic, !structural) << work_info(w).name;
  }
}

TEST(MetricsTest, FixedCountersAddValueResetSnapshot) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.value(Work::kCgIterations), 0u);
  reg.add(Work::kCgIterations);
  reg.add(Work::kCgIterations, 41);
  EXPECT_EQ(reg.value(Work::kCgIterations), 42u);
  const WorkSnapshot snap = reg.work_snapshot();
  EXPECT_EQ(snap[static_cast<std::size_t>(Work::kCgIterations)], 42u);
  EXPECT_EQ(snap[static_cast<std::size_t>(Work::kMcTrials)], 0u);
  reg.reset_work();
  EXPECT_EQ(reg.value(Work::kCgIterations), 0u);
}

TEST(MetricsTest, ScopedRegistryRedirectsAdds) {
  MetricsRegistry reg;
  const std::uint64_t global_before =
      MetricsRegistry::global().value(Work::kMcTrials);
  {
    ScopedRegistry scope(&reg);
    add(Work::kMcTrials, 7);
  }
  add(Work::kMcTrials, 3);  // outside the scope: goes to the global
  EXPECT_EQ(reg.value(Work::kMcTrials), 7u);
  EXPECT_EQ(MetricsRegistry::global().value(Work::kMcTrials),
            global_before + 3);
}

TEST(MetricsTest, ScopedRegistryRestoresOnNesting) {
  MetricsRegistry outer, inner;
  ScopedRegistry outer_scope(&outer);
  {
    ScopedRegistry inner_scope(&inner);
    add(Work::kEngineHours);
  }
  add(Work::kEngineHours);
  EXPECT_EQ(inner.value(Work::kEngineHours), 1u);
  EXPECT_EQ(outer.value(Work::kEngineHours), 1u);
}

TEST(MetricsTest, DynamicSeriesRegisterOnceAndSnapshot) {
  MetricsRegistry reg;
  Counter& c1 = reg.counter("reqs", "requests");
  Counter& c2 = reg.counter("reqs", "ignored duplicate help");
  EXPECT_EQ(&c1, &c2);
  c1.add(5);
  Gauge& g = reg.gauge("hour", "current hour");
  g.set(12.0);
  g.add(1.0);
  Histogram& h = reg.histogram("lat", "latency", {1.0, 10.0});
  h.observe(0.5);
  h.observe(10.0);   // exactly on a bound: that bound's bucket
  h.observe(100.0);  // overflow
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "reqs");
  EXPECT_EQ(snap.counters[0].help, "requests");
  EXPECT_EQ(snap.counters[0].value, 5u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 13.0);
  ASSERT_EQ(snap.histograms.size(), 1u);
  const HistogramSample& hs = snap.histograms[0];
  ASSERT_EQ(hs.buckets.size(), 3u);
  EXPECT_EQ(hs.buckets[0], 1u);
  EXPECT_EQ(hs.buckets[1], 1u);
  EXPECT_EQ(hs.buckets[2], 1u);
  EXPECT_EQ(hs.count, 3u);
  EXPECT_DOUBLE_EQ(hs.sum, 110.5);
}

TEST(MetricsTest, HistogramBoundaryIsInclusive) {
  Histogram h("h", "", {100.0, 1000.0});
  h.observe(100.0);
  h.observe(100.0000001);
  const auto buckets = h.bucket_counts();
  EXPECT_EQ(buckets[0], 1u);  // exactly on the bound
  EXPECT_EQ(buckets[1], 1u);  // just past it
  EXPECT_EQ(buckets[2], 0u);
}

TEST(MetricsTest, PrometheusExpositionGrammarAndCumulativeBuckets) {
  PrometheusBuilder b;
  b.counter("t_total", "a counter", 3);
  b.gauge("g", "a gauge", 1.5);
  b.histogram("h", "a histogram", {1.0, 2.0}, {4, 5, 6}, 15, 7.5);
  const std::string& text = b.text();
  EXPECT_NE(text.find("# HELP t_total a counter\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE t_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("t_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE g gauge\n"), std::string::npos);
  EXPECT_NE(text.find("g 1.5\n"), std::string::npos);
  // Cumulative le buckets: 4, 4+5, then +Inf equal to the total count.
  EXPECT_NE(text.find("h_bucket{le=\"1\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("h_bucket{le=\"2\"} 9\n"), std::string::npos);
  EXPECT_NE(text.find("h_bucket{le=\"+Inf\"} 15\n"), std::string::npos);
  EXPECT_NE(text.find("h_sum 7.5\n"), std::string::npos);
  EXPECT_NE(text.find("h_count 15\n"), std::string::npos);
}

TEST(MetricsTest, PrometheusDoubleFormatting) {
  EXPECT_EQ(format_prometheus_double(100.0), "100");
  EXPECT_EQ(format_prometheus_double(0.0), "0");
  EXPECT_EQ(format_prometheus_double(-3.0), "-3");
  EXPECT_EQ(format_prometheus_double(1.5), "1.5");
}

TEST(MetricsTest, RenderWorkCountersEmitsEveryCounter) {
  MetricsRegistry reg;
  reg.add(Work::kSimplexSolves, 2);
  PrometheusBuilder b;
  render_work_counters(b, reg.work_snapshot());
  const std::string& text = b.text();
  for (std::size_t i = 0; i < kWorkCount; ++i) {
    const std::string series = std::string("mtdgrid_work_") +
                               work_info(static_cast<Work>(i)).name +
                               "_total";
    EXPECT_NE(text.find(series), std::string::npos) << series;
  }
  EXPECT_NE(text.find("mtdgrid_work_simplex_solves_total 2\n"),
            std::string::npos);
}

TEST(MetricsTest, DispatchCountersTrackCertificateAndFlowRows) {
  // The nominal case14 merit-order fill overloads some branches: at least
  // one PTDF row and one LP round, no certificate. With every limit
  // relaxed tenfold the fill is certified at round 0: no LP, no row.
  grid::PowerSystem sys = io::load_case("case14");
  MetricsRegistry reg;
  ScopedRegistry scope(&reg);
  ASSERT_TRUE(opf::solve_dc_opf(sys).feasible);
  EXPECT_EQ(reg.value(Work::kDispatchCertificateHits), 0u);
  EXPECT_GE(reg.value(Work::kDispatchFlowRows), 1u);
  EXPECT_GE(reg.value(Work::kSimplexSolves), 1u);
  EXPECT_LE(reg.value(Work::kSimplexSolves),
            reg.value(Work::kDispatchFlowRows));

  for (std::size_t l = 0; l < sys.num_branches(); ++l)
    sys.branch(l).flow_limit_mw *= 10.0;
  reg.reset_work();
  ASSERT_TRUE(opf::solve_dc_opf(sys).feasible);
  EXPECT_EQ(reg.value(Work::kDispatchCertificateHits), 1u);
  EXPECT_EQ(reg.value(Work::kDispatchFlowRows), 0u);
  EXPECT_EQ(reg.value(Work::kSimplexSolves), 0u);
}

TEST(MetricsTest, ConcurrentAddsFromPoolWorkersSumExactly) {
  MetricsRegistry reg;
  ScopedRegistry scope(&reg);
  constexpr std::size_t kTasks = 1000;
  core::parallel_for(kTasks, [](std::size_t) { add(Work::kCgIterations); });
  EXPECT_EQ(reg.value(Work::kCgIterations), kTasks);
}

// The tentpole invariance claim at the counter level: deterministic work
// counters are pure functions of (seed, inputs) — the thread count only
// moves where the work runs. Monte-Carlo detection exercises the full
// propagation chain (request thread -> ThreadPool::run -> workers).
TEST(MetricsTest, DeterministicCountersAreThreadCountInvariant) {
  const grid::PowerSystem sys = io::load_case("case14");
  const linalg::Matrix h = grid::measurement_matrix(sys);
  const estimation::StateEstimator est(h, 1.0);
  const estimation::BadDataDetector bdd(est, 0.01);
  linalg::Vector a(h.rows());
  a[0] = 3.0;
  const linalg::Vector z_base(h.rows());

  const auto run_with_threads = [&](std::size_t threads) {
    core::ThreadPool::set_global_num_threads(threads);
    MetricsRegistry reg;
    ScopedRegistry scope(&reg);
    estimation::monte_carlo_detection_probability_seeded(est, bdd, z_base, a,
                                                         500, 42);
    return reg.work_snapshot();
  };

  const WorkSnapshot base = run_with_threads(1);
  EXPECT_EQ(base[static_cast<std::size_t>(Work::kMcTrials)], 500u);
  for (const std::size_t threads : {2u, 8u}) {
    const WorkSnapshot snap = run_with_threads(threads);
    for (std::size_t i = 0; i < kWorkCount; ++i) {
      if (!work_info(static_cast<Work>(i)).deterministic) continue;
      EXPECT_EQ(snap[i], base[i])
          << work_info(static_cast<Work>(i)).name << " at " << threads
          << " threads";
    }
  }
  core::ThreadPool::set_global_num_threads(0);
}

}  // namespace
}  // namespace mtdgrid::obs
