#include "serve/daemon.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "grid/cases.hpp"
#include "grid/load_trace.hpp"
#include "obs/metrics.hpp"
#include "serve/json.hpp"
#include "serve_test_util.hpp"

namespace mtdgrid::serve {
namespace {

/// One daemon per test process for the request-behavior tests (ctest
/// runs each discovered test in its own process; within a process the
/// suite shares the instance). These tests never tick, so the current
/// hour stays 0.
class ServeDaemonTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { daemon_ = test::make_fast_daemon(); }
  static void TearDownTestSuite() { daemon_.reset(); }
  static std::unique_ptr<MtdDaemon> daemon_;
};

std::unique_ptr<MtdDaemon> ServeDaemonTest::daemon_;

TEST_F(ServeDaemonTest, ServesStatusAndDispatch) {
  const Json status = Json::parse(daemon_->handle_line(R"({"op":"status"})"));
  EXPECT_TRUE(status.find("ok")->as_bool());
  // The advertised protocol version is part of the wire contract:
  // clients pin it to detect incompatible daemons.
  EXPECT_EQ(status.find("proto")->as_number(), 2.0);
  EXPECT_EQ(status.find("proto")->as_number(), kProtocolVersion);
  EXPECT_EQ(status.find("case")->as_string(), "ieee14");
  EXPECT_EQ(status.find("hour")->as_number(), 0.0);
  EXPECT_EQ(status.find("hours_per_day")->as_number(), 24.0);
  EXPECT_TRUE(status.find("keyed")->as_bool());
  EXPECT_GT(status.find("gamma_th")->as_number(), 0.0);
  EXPECT_GT(status.find("eta")->as_number(), 0.0);

  const Json dispatch =
      Json::parse(daemon_->handle_line(R"({"op":"dispatch","id":9})"));
  EXPECT_TRUE(dispatch.find("ok")->as_bool());
  EXPECT_EQ(dispatch.find("id")->as_number(), 9.0);
  EXPECT_GT(dispatch.find("cost")->as_number(), 0.0);
  // One setpoint per D-FACTS branch, all strictly positive reactances.
  const Json::Array& setpoints = dispatch.find("setpoints")->as_array();
  ASSERT_EQ(setpoints.size(), 6u);  // case14 has 6 D-FACTS branches
  for (const Json& x : setpoints) EXPECT_GT(x.as_number(), 0.0);
}

TEST_F(ServeDaemonTest, MalformedLinesGetPinnedRepliesAndSessionSurvives) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"not json",
       R"x({"ok":false,"error":"parse","message":"invalid JSON: invalid literal at offset 0"})x"},
      {"[1,2]",
       R"x({"ok":false,"error":"bad-request","message":"request must be a JSON object"})x"},
      {"{}",
       R"x({"ok":false,"error":"bad-request","message":"missing \"op\""})x"},
      {R"({"op":7})",
       R"x({"ok":false,"error":"bad-request","message":"\"op\" must be a string"})x"},
      {R"({"op":"zap"})",
       R"x({"ok":false,"error":"unknown-op","message":"unknown op \"zap\""})x"},
      {R"({"op":"status","id":-1})",
       R"x({"ok":false,"error":"bad-request","message":"\"id\" must be a non-negative integer"})x"},
      {R"({"op":"detect","z":"x"})",
       R"x({"ok":false,"error":"bad-request","message":"\"z\" must be an array of numbers"})x"},
      {R"({"op":"detect","z":[1,2]})",
       R"x({"ok":false,"error":"bad-request","message":"\"z\" must have 54 entries (order: L forward flows, L reverse flows, N injections; MW)"})x"},
      {R"({"op":"dispatch","hour":999})",
       R"x({"ok":false,"error":"bad-hour","message":"hour 999 is not retained (retained: 0..0)"})x"},
      {R"({"op":"detect","method":"fast"})",
       R"x({"ok":false,"error":"bad-request","message":"\"method\" must be \"bdd\", \"analytic\" or \"mc\""})x"},
      {R"({"op":"detect","method":"mc","trials":0})",
       R"x({"ok":false,"error":"bad-request","message":"\"trials\" must be an integer in [1, 1000000]"})x"},
      {R"({"op":"metrics","latency":1})",
       R"x({"ok":false,"error":"bad-request","message":"\"latency\" must be a boolean"})x"},
      {R"({"op":"detect","trace":1})",
       R"x({"ok":false,"error":"bad-request","message":"\"trace\" must be a boolean"})x"},
      {R"({"op":"metrics","format":"xml"})",
       R"x({"ok":false,"error":"bad-request","message":"\"format\" must be \"json\" or \"prometheus\""})x"},
      {R"({"op":"campaign","policy":"ramp"})",
       R"x({"ok":false,"error":"bad-request","message":"\"policy\" must be \"zero\", \"stale\", \"probe\" or \"omniscient\""})x"},
      {R"({"op":"campaign","probes":0})",
       R"x({"ok":false,"error":"bad-request","message":"\"probes\" must be an integer in [1, 10000]"})x"},
      {R"({"op":"campaign","hours":0})",
       R"x({"ok":false,"error":"bad-request","message":"\"hours\" must be a positive integer"})x"},
  };
  for (const auto& [line, want] : cases)
    EXPECT_EQ(daemon_->handle_line(line), want) << line;

  // The session survives every error: the next request still works.
  const Json status = Json::parse(daemon_->handle_line(R"({"op":"status"})"));
  EXPECT_TRUE(status.find("ok")->as_bool());

  // Blank lines produce no reply at all.
  EXPECT_EQ(daemon_->handle_line(""), "");
  EXPECT_EQ(daemon_->handle_line("  \r"), "");
}

TEST_F(ServeDaemonTest, ProbeIsAPureFunctionOfSeedHourAndId) {
  const std::string first = daemon_->handle_line(R"({"op":"probe","id":42})");
  const std::string again = daemon_->handle_line(R"({"op":"probe","id":42})");
  EXPECT_EQ(first, again);  // same (seed, hour, id) => same bytes
  const std::string other = daemon_->handle_line(R"({"op":"probe","id":43})");
  EXPECT_NE(first, other);  // sibling substreams differ

  const Json probe = Json::parse(first);
  EXPECT_TRUE(probe.find("ok")->as_bool());
  EXPECT_FALSE(probe.find("alarm")->as_bool());  // attack-free sample
  EXPECT_EQ(probe.find("z")->as_array().size(), 54u);  // M = 2L + N
}

TEST_F(ServeDaemonTest, DetectFlagsInjectedDeviationAndScoresIt) {
  // The hour's noiseless reference never alarms.
  const Json clean = Json::parse(daemon_->handle_line(R"({"op":"detect"})"));
  EXPECT_TRUE(clean.find("ok")->as_bool());
  EXPECT_FALSE(clean.find("alarm")->as_bool());
  EXPECT_LT(clean.find("residual")->as_number(), 1e-6);
  EXPECT_GT(clean.find("tau")->as_number(), 0.0);
  EXPECT_EQ(clean.find("dof")->as_number(), 41.0);  // M - n = 54 - 13

  // A probe sample (realistic attack-free noise) stays quiet, while the
  // same sample with 80 MW injected on one flow measurement trips the
  // chi-square detector with near-certain detection probability.
  const Json probe =
      Json::parse(daemon_->handle_line(R"({"op":"probe","id":7})"));
  const Json::Array& z = probe.find("z")->as_array();
  Json clean_z, attacked_z;
  for (std::size_t i = 0; i < z.size(); ++i) {
    clean_z.push_back(Json(z[i].as_number()));
    attacked_z.push_back(Json(z[i].as_number() + (i == 0 ? 80.0 : 0.0)));
  }
  Json clean_req, attacked_req;
  clean_req.set("op", Json("detect"));
  clean_req.set("z", std::move(clean_z));
  attacked_req.set("op", Json("detect"));
  attacked_req.set("method", Json("analytic"));
  attacked_req.set("z", std::move(attacked_z));

  const Json no_alarm = Json::parse(daemon_->handle_line(clean_req.dump()));
  EXPECT_FALSE(no_alarm.find("alarm")->as_bool());
  const Json alarm = Json::parse(daemon_->handle_line(attacked_req.dump()));
  EXPECT_TRUE(alarm.find("alarm")->as_bool());
  EXPECT_GT(alarm.find("p_detect")->as_number(), 0.99);
}

TEST_F(ServeDaemonTest, MonteCarloDetectUsesPerRequestSubstreams) {
  const std::string req =
      R"({"op":"detect","id":5,"method":"mc","trials":200})";
  const std::string first = daemon_->handle_line(req);
  EXPECT_EQ(daemon_->handle_line(req), first);  // same id => same bytes
  const Json parsed = Json::parse(first);
  EXPECT_EQ(parsed.find("method")->as_string(), "mc");
  EXPECT_EQ(parsed.find("trials")->as_number(), 200.0);
  // Attack-free vector: detection probability is the false-positive rate.
  EXPECT_LT(parsed.find("p_detect")->as_number(), 0.05);
}

TEST_F(ServeDaemonTest, MetricsCountsRequestsDeterministically) {
  const Json before = Json::parse(daemon_->handle_line(R"({"op":"metrics"})"));
  daemon_->handle_line(R"({"op":"dispatch"})");
  daemon_->handle_line(R"({"op":"nope"})");
  const Json after = Json::parse(daemon_->handle_line(R"({"op":"metrics"})"));
  // Counters include the handled line itself: +3 requests since `before`
  // (dispatch, the error, this metrics call), +1 dispatch, +1 error.
  EXPECT_EQ(after.find("requests")->as_number(),
            before.find("requests")->as_number() + 3);
  EXPECT_EQ(after.find("dispatch")->as_number(),
            before.find("dispatch")->as_number() + 1);
  EXPECT_EQ(after.find("errors")->as_number(),
            before.find("errors")->as_number() + 1);
  EXPECT_EQ(after.find("metrics")->as_number(),
            before.find("metrics")->as_number() + 1);
  // The latency histogram is opt-in: it is the one nondeterministic
  // reply section, so the default reply must not carry it.
  EXPECT_EQ(after.find("latency_us"), nullptr);
  const Json with_latency =
      Json::parse(daemon_->handle_line(R"({"op":"metrics","latency":true})"));
  const Json* latency = with_latency.find("latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_GT(latency->find("count")->as_number(), 0.0);
  EXPECT_GT(latency->find("max_us")->as_number(), 0.0);
  EXPECT_NE(latency->find("buckets"), nullptr);
}

TEST_F(ServeDaemonTest, DefaultMetricsCarryDeterministicEngineCounters) {
  // Drive known engine work first so the counters are visibly non-zero.
  daemon_->handle_line(R"({"op":"detect","id":1,"method":"mc","trials":50})");
  const Json reply = Json::parse(daemon_->handle_line(R"({"op":"metrics"})"));
  const Json* engine = reply.find("engine");
  ASSERT_NE(engine, nullptr);
  // Every deterministic work counter appears, by its obs name ...
  for (std::size_t i = 0; i < obs::kWorkCount; ++i) {
    const obs::WorkInfo& info = obs::work_info(static_cast<obs::Work>(i));
    if (info.deterministic)
      ASSERT_NE(engine->find(info.name), nullptr) << info.name;
    else
      EXPECT_EQ(engine->find(info.name), nullptr) << info.name;
  }
  // ... and the instrumented hot paths actually flowed into them: the
  // construction pass keys a day (LP dispatches), and the MC detect
  // above contributes its exact trial count.
  EXPECT_GT(engine->find("simplex_solves")->as_number(), 0.0);
  EXPECT_GT(engine->find("simplex_phase2_iterations")->as_number(), 0.0);
  // The dispatch's constraint generation: the merit-order certificate
  // holds for most case14 candidates, and every LP round above added at
  // least one PTDF flow row.
  EXPECT_GT(engine->find("dispatch_certificate_hits")->as_number(), 0.0);
  EXPECT_GE(engine->find("dispatch_flow_rows")->as_number(),
            engine->find("simplex_solves")->as_number());
  EXPECT_GT(engine->find("engine_hours")->as_number(), 0.0);
  EXPECT_GE(engine->find("mc_trials")->as_number(), 50.0);
}

TEST_F(ServeDaemonTest, PrometheusFormatExposesWorkAndLatencySeries) {
  const Json reply = Json::parse(
      daemon_->handle_line(R"({"op":"metrics","format":"prometheus"})"));
  EXPECT_TRUE(reply.find("ok")->as_bool());
  EXPECT_EQ(reply.find("format")->as_string(), "prometheus");
  const Json* text_field = reply.find("prometheus");
  ASSERT_NE(text_field, nullptr);
  const std::string& text = text_field->as_string();
  EXPECT_NE(text.find("# TYPE mtdgrid_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("mtdgrid_verb_requests_total{verb=\"detect\"}"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE mtdgrid_current_hour gauge"),
            std::string::npos);
  EXPECT_NE(
      text.find("mtdgrid_request_latency_seconds_bucket{le=\"+Inf\"}"),
      std::string::npos);
  // The Prometheus form carries ALL work counters, structural pool
  // counters included (they are fine for dashboards, just not for
  // byte-diffed transcripts).
  for (std::size_t i = 0; i < obs::kWorkCount; ++i) {
    const std::string series =
        std::string("mtdgrid_work_") +
        obs::work_info(static_cast<obs::Work>(i)).name + "_total";
    EXPECT_NE(text.find(series), std::string::npos) << series;
  }
  // An explicit "json" format is the default form, not an error.
  const Json json_form = Json::parse(
      daemon_->handle_line(R"({"op":"metrics","format":"json"})"));
  EXPECT_TRUE(json_form.find("ok")->as_bool());
  EXPECT_EQ(json_form.find("prometheus"), nullptr);
  ASSERT_NE(json_form.find("engine"), nullptr);
}

TEST_F(ServeDaemonTest, TraceOptInSplicesAggregatedSpans) {
  // Default replies carry no trace section (wall-clock data would break
  // transcript byte-diffs).
  const std::string plain = daemon_->handle_line(R"({"op":"dispatch"})");
  EXPECT_EQ(plain.find("trace_us"), std::string::npos);

  const Json traced = Json::parse(
      daemon_->handle_line(R"({"op":"dispatch","id":3,"trace":true})"));
  EXPECT_TRUE(traced.find("ok")->as_bool());
  const Json* spans = traced.find("trace_us");
  ASSERT_NE(spans, nullptr);
  ASSERT_TRUE(spans->is_array());
  // The request-level span is always present and aggregated once.
  ASSERT_FALSE(spans->as_array().empty());
  const Json& top = spans->as_array()[0];
  EXPECT_EQ(top.find("name")->as_string(), "dispatch");
  EXPECT_EQ(top.find("cat")->as_string(), "serve");
  EXPECT_EQ(top.find("count")->as_number(), 1.0);
  EXPECT_GE(top.find("total_us")->as_number(), 0.0);

  // Apart from the spliced trace section, the reply matches the untraced
  // one byte for byte (same snapshot, same deterministic payload).
  const Json untraced =
      Json::parse(daemon_->handle_line(R"({"op":"dispatch","id":3})"));
  EXPECT_EQ(untraced.find("cost")->as_number(),
            traced.find("cost")->as_number());

  // A traced MC detect fans out through the engine: the simplex/MC spans
  // recorded on pool workers land in the same aggregation.
  const Json mc = Json::parse(daemon_->handle_line(
      R"({"op":"detect","id":4,"method":"mc","trials":30,"trace":true})"));
  const Json* mc_spans = mc.find("trace_us");
  ASSERT_NE(mc_spans, nullptr);
  bool saw_mc = false;
  for (const Json& s : mc_spans->as_array())
    if (s.find("name")->as_string() == "estimation.mc_detect") saw_mc = true;
  EXPECT_TRUE(saw_mc);
}

TEST(ServeDaemonLatencyTest, BucketIndexPinsInclusiveBoundaries) {
  // A sample exactly on kLatencyBucketsUs[i] files under bucket i.
  EXPECT_EQ(latency_bucket_index(0.0), 0);
  EXPECT_EQ(latency_bucket_index(100.0), 0);
  EXPECT_EQ(latency_bucket_index(100.0000001), 1);
  EXPECT_EQ(latency_bucket_index(1e3), 1);
  EXPECT_EQ(latency_bucket_index(1e4), 2);
  EXPECT_EQ(latency_bucket_index(1e5), 3);
  EXPECT_EQ(latency_bucket_index(1e6), 4);
  EXPECT_EQ(latency_bucket_index(1e6 + 1.0), 5);
}

TEST(ServeDaemonLatencyTest, InjectedSamplesPinExactBucketCounts) {
  // A fresh daemon records no latency during construction, so injected
  // samples are the whole accumulator; the metrics reply reads the
  // state BEFORE recording its own service time, so the first metrics
  // call sees exactly the injection.
  const std::unique_ptr<MtdDaemon> daemon = test::make_fast_daemon();
  const double samples[] = {50.0, 100.0, 100.5, 1e3, 1e4, 1e5, 1e6, 2e6};
  for (const double s : samples) daemon->record_latency(s);
  const Json reply = Json::parse(
      daemon->handle_line(R"({"op":"metrics","latency":true})"));
  const Json* latency = reply.find("latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->find("count")->as_number(), 8.0);
  EXPECT_EQ(latency->find("max_us")->as_number(), 2e6);
  const Json* buckets = latency->find("buckets");
  ASSERT_NE(buckets, nullptr);
  EXPECT_EQ(buckets->find("le_100us")->as_number(), 2.0);  // 50, 100
  EXPECT_EQ(buckets->find("le_1ms")->as_number(), 2.0);    // 100.5, 1e3
  EXPECT_EQ(buckets->find("le_10ms")->as_number(), 1.0);   // 1e4
  EXPECT_EQ(buckets->find("le_100ms")->as_number(), 1.0);  // 1e5
  EXPECT_EQ(buckets->find("le_1s")->as_number(), 1.0);     // 1e6
  EXPECT_EQ(buckets->find("gt_1s")->as_number(), 1.0);     // 2e6
}

TEST_F(ServeDaemonTest, CampaignNeedsTwoKeyedHours) {
  // The fixture never ticks: only hour 0 is retained, so there is no
  // (prev, cur) re-keying boundary to score. Pinned error, not a crash.
  EXPECT_EQ(
      daemon_->handle_line(R"({"op":"campaign"})"),
      R"x({"ok":false,"error":"not-keyed","message":"campaign needs two consecutive keyed retained hours (tick first)"})x");
}

TEST(ServeDaemonLifecycleTest, CampaignScoresKnowledgeFrontierOverWindow) {
  const std::unique_ptr<MtdDaemon> daemon = test::make_fast_daemon();
  for (int i = 0; i < 2; ++i)
    ASSERT_TRUE(Json::parse(daemon->handle_line(R"({"op":"tick"})"))
                    .find("ok")
                    ->as_bool());

  // Same (seed, window, id) => same bytes, regardless of what ran in
  // between: the campaign substream is keyed by (id, policy, hour).
  const std::string first =
      daemon->handle_line(R"({"op":"campaign","id":1})");
  daemon->handle_line(R"({"op":"probe","id":5})");
  EXPECT_EQ(daemon->handle_line(R"({"op":"campaign","id":1})"), first);

  const Json reply = Json::parse(first);
  ASSERT_TRUE(reply.find("ok")->as_bool());
  EXPECT_EQ(reply.find("op")->as_string(), "campaign");
  EXPECT_EQ(reply.find("hours_scored")->as_number(), 2.0);
  EXPECT_EQ(reply.find("first_hour")->as_number(), 1.0);
  EXPECT_EQ(reply.find("last_hour")->as_number(), 2.0);

  // Default panel: all four wire policies, fixed order, and the
  // knowledge axis is monotone — more knowledge, less detection.
  const Json::Array& policies = reply.find("policies")->as_array();
  ASSERT_EQ(policies.size(), 4u);
  EXPECT_EQ(policies[0].find("policy")->as_string(), "zero");
  EXPECT_EQ(policies[1].find("policy")->as_string(), "stale");
  EXPECT_EQ(policies[2].find("policy")->as_string(), "probe");
  EXPECT_EQ(policies[2].find("probe_budget")->as_number(), 8.0);
  EXPECT_EQ(policies[3].find("policy")->as_string(), "omniscient");
  const double zero = policies[0].find("mean_detection")->as_number();
  const double omni = policies[3].find("mean_detection")->as_number();
  EXPECT_GT(zero, 0.5);
  EXPECT_LT(omni, 0.05);
  EXPECT_LT(omni, zero);
  EXPECT_EQ(policies[3].find("eta")->as_number(), 0.0);  // evasion baseline
  EXPECT_EQ(policies[2].find("probes_used")->as_number(), 16.0);  // 8 x 2
  EXPECT_EQ(policies[1].find("boundary_replays")->as_number(), 2.0);
  for (const Json& cell : policies) {
    EXPECT_EQ(cell.find("hourly_mean_detection")->as_array().size(), 2u);
    EXPECT_EQ(cell.find("hourly_eta")->as_array().size(), 2u);
  }

  // A single-policy request reproduces that policy's section of the
  // all-policies reply exactly (same id, same window, same substream).
  const Json probe_only = Json::parse(daemon->handle_line(
      R"({"op":"campaign","id":1,"policy":"probe","probes":8})"));
  const Json::Array& only = probe_only.find("policies")->as_array();
  ASSERT_EQ(only.size(), 1u);
  EXPECT_EQ(only[0].find("mean_detection")->as_number(),
            policies[2].find("mean_detection")->as_number());
  EXPECT_EQ(only[0].find("eta")->as_number(),
            policies[2].find("eta")->as_number());

  // "hours":1 trims to the most recent boundary.
  const Json last_only = Json::parse(
      daemon->handle_line(R"({"op":"campaign","id":1,"hours":1})"));
  EXPECT_EQ(last_only.find("hours_scored")->as_number(), 1.0);
  EXPECT_EQ(last_only.find("first_hour")->as_number(), 2.0);

  // The verb shows up in the deterministic metrics counters.
  const Json metrics =
      Json::parse(daemon->handle_line(R"({"op":"metrics"})"));
  EXPECT_EQ(metrics.find("campaign")->as_number(), 4.0);
}

TEST(ServeDaemonLifecycleTest, TickFactorsStateEstimationSparsely) {
  // Every dispatch factors B_r once: either a merit-order certificate hit
  // or an evaluation whose LP rounds each count a simplex solve. State
  // estimation factors its Gram matrix H^T W H with the same sparse
  // Cholesky — the keyed hour's snapshot estimator and every
  // effectiveness scoring — so a tick's factorizations exceed what its
  // dispatches alone account for.
  const std::unique_ptr<MtdDaemon> daemon = test::make_fast_daemon();
  const auto metrics = [&] {
    return Json::parse(daemon->handle_line(R"({"op":"metrics"})"));
  };
  const auto delta = [](const Json& before, const Json& after,
                        const char* name) {
    return after.find("engine")->find(name)->as_number() -
           before.find("engine")->find(name)->as_number();
  };
  const Json before = metrics();
  const Json tick = Json::parse(daemon->handle_line(R"({"op":"tick"})"));
  ASSERT_TRUE(tick.find("ok")->as_bool());
  const Json after = metrics();

  const double dispatch_bound =
      delta(before, after, "dispatch_certificate_hits") +
      delta(before, after, "simplex_solves");
  EXPECT_GT(delta(before, after, "cholesky_factorizations"), dispatch_bound);
  EXPECT_GT(delta(before, after, "cholesky_factor_nnz"), 0.0);
}

TEST(ServeDaemonLifecycleTest, TickRetainsHistoryAndPinsHours) {
  const std::unique_ptr<MtdDaemon> daemon = test::make_fast_daemon();
  const std::string hour0_dispatch =
      daemon->handle_line(R"({"op":"dispatch","hour":0})");

  for (int i = 0; i < 2; ++i) {
    const Json tick = Json::parse(daemon->handle_line(R"({"op":"tick"})"));
    EXPECT_TRUE(tick.find("ok")->as_bool());
  }
  EXPECT_EQ(daemon->current_hour(), 2u);

  // Hour 0 is still retained (history covers it) and replies for it are
  // byte-identical to the pre-tick ones: pinned hours read immutable
  // snapshots, unaffected by later re-keying.
  EXPECT_EQ(daemon->handle_line(R"({"op":"dispatch","hour":0})"),
            hour0_dispatch);

  // The current hour moved on.
  const Json status = Json::parse(daemon->handle_line(R"({"op":"status"})"));
  EXPECT_EQ(status.find("hour")->as_number(), 2.0);
  const Json::Array& retained = status.find("retained")->as_array();
  ASSERT_EQ(retained.size(), 2u);
  EXPECT_EQ(retained[0].as_number(), 0.0);
  EXPECT_EQ(retained[1].as_number(), 2.0);

  // Shutdown verb: ok reply, flag set; the daemon itself still answers
  // (the transport layer decides when to stop serving).
  const Json bye = Json::parse(daemon->handle_line(R"({"op":"shutdown"})"));
  EXPECT_TRUE(bye.find("ok")->as_bool());
  EXPECT_TRUE(daemon->shutdown_requested());
  EXPECT_TRUE(
      Json::parse(daemon->handle_line(R"({"op":"status"})"))
          .find("ok")
          ->as_bool());
}

}  // namespace
}  // namespace mtdgrid::serve
