// Benchmark program: runs one named workload against the mtdgrid library and
// prints one JSON line with its metrics, work counts and correctness tally.
//
//   mtd_bench --workload rekey_case57|keying_case118|serve_mix_case14
//                --seed N --seconds S --trace 0|1 [--smoke]
//
// The workloads, their metrics and the layer -> end-to-end map are described
// in README.md next to this file; perfbench/run.py builds this program, adds
// the machine context and prints the benchmark's result line.
//
// End-to-end metrics come from runs with the obs tracer off (--trace 0). A
// traced run (--trace 1) turns the tracer on for alternate repetitions, reads
// the library's own spans and deterministic work counters, and afterwards
// times calls into each layer's public functions on the workload's own
// inputs: its keys, its hourly loads and its request lines.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "attack/adaptive.hpp"
#include "attack/fdi_attack.hpp"
#include "core/parallel.hpp"
#include "core/thread_pool.hpp"
#include "estimation/bdd.hpp"
#include "estimation/detection.hpp"
#include "estimation/state_estimator.hpp"
#include "grid/load_trace.hpp"
#include "grid/measurement.hpp"
#include "grid/power_flow.hpp"
#include "grid/power_system.hpp"
#include "io/case_registry.hpp"
#include "linalg/least_squares.hpp"
#include "mtd/effectiveness.hpp"
#include "mtd/selection.hpp"
#include "mtd/spa.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "obs/trace.hpp"
#include "opf/dc_opf.hpp"
#include "opf/direct_search.hpp"
#include "opf/reactance_opf.hpp"
#include "serve/daemon.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "stats/rng.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace mtdgrid;
using Clock = std::chrono::steady_clock;
using serve::Json;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Wall time of one call, in seconds.
template <typename Fn>
double time_call(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Nearest-rank quantile, q in (0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Peak resident set size of this process (VmHWM), in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

/// Sleeps until shortly before `tp`, then spins, so an open-loop sender
/// wakes on time instead of one scheduler timer slice late.
void wait_until(Clock::time_point tp) {
  std::this_thread::sleep_until(tp - std::chrono::microseconds(100));
  while (Clock::now() < tp) {
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
};

/// Operations attempted and failed: a failed reply and a failed
/// correctness check both count against the operation that produced them.
class Tally {
 public:
  void check(bool ok, const std::string& what) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (failed_ <= 10) std::cerr << "check failed: " << what << "\n";
    }
  }
  /// Counts `n` operations whose failures were already counted by `check`.
  void add_attempted(std::uint64_t n) {
    std::lock_guard<std::mutex> lock(mutex_);
    attempted_ += n;
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::mutex mutex_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Named metrics with units, in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  Json to_json() const {
    Json out{Json::Object{}};
    for (const auto& m : items_) {
      Json entry;
      entry.set("value", Json(m.value));
      entry.set("unit", Json(m.unit));
      out.set(m.name, std::move(entry));
    }
    return out;
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

bool reply_ok(const std::string& reply) {
  return reply.rfind("{\"ok\":true", 0) == 0;
}

double number_field(const Json& doc, const char* key) {
  const Json* v = doc.find(key);
  return v != nullptr && v->is_number() ? v->as_number() : std::nan("");
}

Json vector_json(const linalg::Vector& v) {
  Json out{Json::Array{}};
  for (std::size_t i = 0; i < v.size(); ++i) out.push_back(Json(v[i]));
  return out;
}

std::string request_line(const char* op, std::uint64_t id,
                         std::size_t hour = SIZE_MAX) {
  Json req;
  req.set("op", Json(op));
  req.set("id", Json(id));
  if (hour != SIZE_MAX) req.set("hour", Json(hour));
  return req.dump();
}

/// A `detect` line; a Monte-Carlo one runs the protocol's default number
/// of trials.
std::string detect_line(std::uint64_t id, std::size_t hour,
                        const linalg::Vector& z, bool monte_carlo = false) {
  Json req;
  req.set("op", Json("detect"));
  req.set("id", Json(id));
  req.set("hour", Json(hour));
  req.set("z", vector_json(z));
  if (monte_carlo) req.set("method", Json("mc"));
  return req.dump();
}

// ---------------------------------------------------------------------------
// Keyed hours: what every workload produces, and what the correctness
// checks and the layer replays run on.
// ---------------------------------------------------------------------------

/// One keyed hour of a workload, with the system at that hour's loads.
struct KeyedHour {
  explicit KeyedHour(grid::PowerSystem at_hour) : sys(std::move(at_hour)) {}
  grid::PowerSystem sys;      // this hour's loads, nominal reactances
  std::size_t hour = 0;
  linalg::Vector reactances;  // the key (full length-L vector)
  linalg::Matrix h_attacker;  // the matrix the key was selected against
  double gamma_th = 0.0;
  double cost = 0.0;      // dispatch cost at the key, as reported
  double cost_pct = 0.0;  // 100 * C_MTD against the problem-(1) baseline
  double eta = 0.0;       // achieved eta'(0.9)
  linalg::Vector z_ref;   // noiseless measurements at the key
  linalg::Matrix h;       // H at the key
};

/// The checks every key must pass whatever algorithm chose it: the SPA
/// between the attacker's matrix and H at the key, recomputed here, meets
/// the constraint, and the reported cost is the dispatch LP's optimum at
/// that key.
void check_key(const KeyedHour& k, double constraint_tol, Tally& tally) {
  const std::string where = "hour " + std::to_string(k.hour);
  const double spa = mtd::spa(k.h_attacker, k.h);
  tally.check(spa >= k.gamma_th - constraint_tol,
              where + ": spa " + std::to_string(spa) + " below gamma_th " +
                  std::to_string(k.gamma_th));
  const opf::DispatchResult ref = opf::solve_dc_opf(k.sys, k.reactances);
  tally.check(
      ref.feasible && std::abs(ref.cost - k.cost) <= 1e-7 * std::abs(ref.cost),
      where + ": cost " + std::to_string(k.cost) +
          " differs from solve_dc_opf " + std::to_string(ref.cost));
}

grid::PowerSystem system_at_hour(const grid::PowerSystem& nominal,
                                 const grid::DailyLoadTrace& trace,
                                 std::size_t trace_hour) {
  grid::PowerSystem sys = nominal;
  trace.apply(sys, trace_hour, nominal.loads_mw());
  return sys;
}

/// Problem (1) for one hour, solved as the daily engine's pass 1 solves it:
/// a local Nelder-Mead polish of the D-FACTS reactances from `x0`, each
/// point scored by the dispatch LP. `dfacts_x` is empty when the search
/// found no feasible point.
struct Baseline {
  bool feasible = false;
  linalg::Vector dfacts_x;
  linalg::Matrix h;
  double cost = 0.0;
};

linalg::Vector nominal_dfacts(const grid::PowerSystem& sys) {
  const std::vector<std::size_t> dfacts = sys.dfacts_branches();
  linalg::Vector x(dfacts.size());
  for (std::size_t k = 0; k < dfacts.size(); ++k)
    x[k] = sys.branch(dfacts[k]).reactance;
  return x;
}

Baseline solve_baseline(const grid::PowerSystem& sys, const linalg::Vector& x0,
                        int evaluations) {
  constexpr double kInfeasiblePenalty = 1e12;
  const std::vector<std::size_t> dfacts = sys.dfacts_branches();
  const linalg::Vector lo_full = sys.reactance_lower_limits();
  const linalg::Vector hi_full = sys.reactance_upper_limits();
  linalg::Vector lo(dfacts.size()), hi(dfacts.size());
  for (std::size_t k = 0; k < dfacts.size(); ++k) {
    lo[k] = lo_full[dfacts[k]];
    hi[k] = hi_full[dfacts[k]];
  }
  const opf::DispatchEvaluator evaluator(sys);
  const auto cost_of = [&](const linalg::Vector& dfacts_x) {
    const opf::DispatchResult d =
        evaluator.evaluate(opf::expand_dfacts_reactances(sys, dfacts_x));
    return d.feasible ? d.cost : kInfeasiblePenalty;
  };
  opf::DirectSearchOptions local;
  local.max_evaluations = evaluations;
  local.initial_step = 0.05;
  const opf::DirectSearchResult r =
      opf::nelder_mead_box(cost_of, lo, hi, x0, local);
  Baseline out;
  if (r.value >= kInfeasiblePenalty) return out;
  const linalg::Vector x = opf::expand_dfacts_reactances(sys, r.x);
  const opf::DispatchResult d = opf::solve_dc_opf(sys, x);
  out.feasible = d.feasible;
  out.dfacts_x = r.x;
  out.h = grid::measurement_matrix(sys, x);
  out.cost = d.cost;
  return out;
}

/// The problem-(1) baselines of every trace hour, chained as the daily
/// engine's pass 1 chains them: each hour's search starts where the last
/// successful one ended. A daemon keeps these private, and keys trace hour
/// t against the baseline H of trace hour t - 1 (the one-hour-stale
/// attacker), so the benchmark rebuilds them to check and replay its keys.
std::vector<Baseline> pass1_baselines(const grid::PowerSystem& nominal,
                                      const grid::DailyLoadTrace& trace,
                                      int evaluations) {
  std::vector<Baseline> out;
  linalg::Vector x = nominal_dfacts(nominal);
  for (std::size_t t = 0; t < trace.size(); ++t) {
    out.push_back(
        solve_baseline(system_at_hour(nominal, trace, t), x, evaluations));
    if (!out.back().dfacts_x.empty()) x = out.back().dfacts_x;
  }
  return out;
}

/// Keyed hours a daemon retains, read through its public snapshots, each
/// with the rebuilt baseline H it was selected against. Checks that the
/// rebuilt baseline cost is the one the daemon reports, so the checks and
/// replays run on the daemon's own problem.
std::vector<KeyedHour> daemon_keys(const serve::MtdDaemon& daemon,
                                   const grid::PowerSystem& nominal,
                                   const grid::DailyLoadTrace& trace,
                                   const std::vector<Baseline>& baselines,
                                   Tally& tally) {
  std::vector<KeyedHour> out;
  const std::size_t day = baselines.size();
  for (std::size_t h = 0; h <= daemon.current_hour(); ++h) {
    auto snap = daemon.snapshot_at(h);
    if (!snap || !snap->keyed) continue;
    const std::size_t t = snap->trace_hour;
    const Baseline& base = baselines[t];
    const double reported = snap->record.base_opf_cost;
    tally.check(base.feasible &&
                    std::abs(base.cost - reported) <= 1e-7 * std::abs(reported),
                "hour " + std::to_string(h) + ": baseline cost " +
                    std::to_string(reported) +
                    " differs from the rebuilt pass-1 baseline " +
                    std::to_string(base.cost));
    KeyedHour k(system_at_hour(nominal, trace, t));
    k.hour = h;
    k.reactances = snap->reactances;
    k.h_attacker = baselines[(t + day - 1) % day].h;
    k.gamma_th = snap->record.gamma_threshold;
    k.cost = snap->dispatch.cost;
    k.cost_pct = snap->record.cost_increase_pct;
    k.eta = snap->record.eta_at_target;
    k.z_ref = snap->z_ref;
    k.h = snap->estimator->h();
    out.push_back(std::move(k));
  }
  return out;
}

/// Share of generated measurement vectors that carry a stealthy FDI vector
/// a = H c crafted against the key in force. A chosen value: the detect
/// path does the same work on an attacked vector as on a clean one, so the
/// share sets which replies alarm, not what a request costs.
constexpr double kAttackShare = 0.2;

/// Sensor noise and attack size of the generated vectors, and the
/// problem-(4) options the workload keys with.
struct Knobs {
  double sigma_mw = 0.05;
  double attack_magnitude = 0.08;
  mtd::MtdSelectionOptions selection;
};

/// z = z_ref + sensor noise, plus a = H c on a fixed share of vectors.
linalg::Vector generated_z(const KeyedHour& k, const Knobs& knobs,
                           stats::Rng& rng) {
  linalg::Vector z = k.z_ref;
  for (std::size_t i = 0; i < z.size(); ++i)
    z[i] += rng.gaussian(0.0, knobs.sigma_mw);
  if (rng.uniform() < kAttackShare) {
    const attack::FdiAttack a = attack::random_stealthy_attack(
        k.h, k.z_ref, knobs.attack_magnitude, rng);
    z += a.a;
  }
  return z;
}

// ---------------------------------------------------------------------------
// Traced runs: spans, counters and layer replays.
// ---------------------------------------------------------------------------

/// Spans recorded by the library's own instrumentation.
struct SpanSet {
  std::vector<obs::TraceEvent> events;

  void drain() {
    const auto ev = obs::Tracer::global().drain();
    events.insert(events.end(), ev.begin(), ev.end());
  }
  std::vector<double> durations_s(const char* name) const {
    std::vector<double> d;
    for (const auto& e : named(name)) d.push_back(1e-6 * e.dur_us);
    return d;
  }
  double total_s(const char* name) const {
    double s = 0.0;
    for (double d : durations_s(name)) s += d;
    return s;
  }
  std::vector<obs::TraceEvent> named(const char* name) const {
    std::vector<obs::TraceEvent> out;
    for (const auto& e : events)
      if (std::string(e.name) == name) out.push_back(e);
    return out;
  }
  /// Share of the windows' wall time that their own thread spent inside a
  /// leaf span (the library's innermost instrumented calls).
  double attributed_share(const std::vector<obs::TraceEvent>& windows) const {
    static const char* kLeaves[] = {"opf.simplex", "linalg.cg",
                                    "linalg.sparse_cholesky",
                                    "estimation.mc_detect"};
    std::vector<obs::TraceEvent> leaves;
    for (const char* leaf : kLeaves)
      for (const auto& e : named(leaf)) leaves.push_back(e);
    std::sort(leaves.begin(), leaves.end(),
              [](const auto& a, const auto& b) { return a.ts_us < b.ts_us; });
    double covered = 0.0, total = 0.0;
    for (const auto& w : windows) {
      const double w1 = w.ts_us + w.dur_us;
      total += w.dur_us;
      double reach = w.ts_us;
      for (const auto& e : leaves) {
        if (e.tid != w.tid) continue;
        const double a = std::max(e.ts_us, reach);
        const double b = std::min(e.ts_us + e.dur_us, w1);
        if (b > a) {
          covered += b - a;
          reach = b;
        }
      }
    }
    return total > 0.0 ? covered / total : 0.0;
  }
};

/// The fixed work counters of one repetition.
struct WorkCounts {
  obs::WorkSnapshot work{};
  double at(obs::Work w) const {
    return static_cast<double>(work[static_cast<std::size_t>(w)]);
  }
  /// The deterministic counters, which must repeat exactly.
  std::string fingerprint() const {
    std::string out;
    for (std::size_t i = 0; i < obs::kWorkCount; ++i)
      if (obs::work_info(static_cast<obs::Work>(i)).deterministic)
        out += std::to_string(work[i]) + ",";
    return out;
  }
};

/// What a workload hands to the per-layer report besides its keys.
struct TraceData {
  SpanSet spans;
  /// The re-keying steps as spans: `serve.tick` on the daemons, or the
  /// workload's own selection calls when set.
  std::vector<obs::TraceEvent> windows;
  /// Times of the same unit of work with the tracer on and off, one list
  /// per kind of unit (keying_case118 times each hour as its own kind).
  std::vector<std::vector<double>> traced_s{1}, plain_s{1};
  WorkCounts work;            // one repetition
  double simplex_reps = 1.0;  // traced repetitions the spans cover
  double cpu_s = 0.0, wall_s = 0.0, threads = 1.0;
  double blocked_writes = 0.0;
  double select_s = -1.0;  // measured by the workload; < 0: replay one
  double base_cost = 0.0;  // problem-(1) cost for the selection replay
};

/// Median wall time of `fn`, in seconds per call, over enough calls to fill
/// about `budget_s` (at least 3).
template <typename Fn>
double replay(Fn&& fn, double budget_s) {
  std::vector<double> t;
  const auto t0 = Clock::now();
  while (t.size() < 3 || (seconds_since(t0) < budget_s && t.size() < 20000))
    t.push_back(time_call(fn));
  return median(t);
}

/// Fills the per-layer metrics: counters and spans from `td`, then timed
/// calls into each layer on the workload's keys and request lines.
void report_layers(const TraceData& td, const std::vector<KeyedHour>& keys,
                   const std::vector<std::string>& lines, const Knobs& knobs,
                   std::uint64_t seed, double budget_s, Metrics& layer) {
  using obs::Work;
  const WorkCounts& w = td.work;
  const KeyedHour& k = keys.back();
  const grid::PowerSystem& sys = k.sys;

  // opf
  layer.set("opf.lp_ms",
            1e3 * replay([&] {
              for (const KeyedHour& kh : keys)
                opf::solve_dc_opf(kh.sys, kh.reactances);
            }, budget_s) / static_cast<double>(keys.size()),
            "ms");
  layer.set("opf.simplex_solves", w.at(Work::kSimplexSolves), "count");
  layer.set("opf.phase1_pivots", w.at(Work::kSimplexPhase1Iterations), "count");
  layer.set("opf.phase2_pivots", w.at(Work::kSimplexPhase2Iterations), "count");
  layer.set("opf.simplex_self_s",
            td.spans.total_s("opf.simplex") / td.simplex_reps, "s");
  // Merit-order certificate at each keyed hour's loads: the key itself
  // plus seeded random points of the D-FACTS reactance box.
  std::size_t hits = 0, fallbacks = 0;
  stats::Rng rng(stats::stream_seed(seed, 11));
  for (const KeyedHour& kh : keys) {
    const opf::DispatchEvaluator ev(kh.sys);
    ev.evaluate(kh.reactances);
    const linalg::Vector lo = kh.sys.reactance_lower_limits();
    const linalg::Vector hi = kh.sys.reactance_upper_limits();
    for (int c = 0; c < 4; ++c) {
      linalg::Vector x = kh.sys.reactances();
      for (std::size_t b : kh.sys.dfacts_branches())
        x[b] = rng.uniform(lo[b], hi[b]);
      ev.evaluate(x);
    }
    hits += ev.fast_path_hits();
    fallbacks += ev.lp_fallbacks();
  }
  layer.set("opf.cert_hit_ratio",
            static_cast<double>(hits) / static_cast<double>(hits + fallbacks),
            "ratio");

  // mtd
  double select_s = td.select_s;
  if (select_s < 0.0) {
    mtd::MtdSelectionOptions sel = knobs.selection;
    sel.gamma_threshold = k.gamma_th;
    sel.pin_gamma = true;
    select_s = time_call([&] {
      stats::Rng r(seed);
      mtd::select_mtd_perturbation(sys, k.h_attacker, td.base_cost, sel, r);
    });
  }
  layer.set("mtd.select_s", select_s, "s");
  const mtd::SpaEvaluator spa_eval(sys, k.h_attacker);
  layer.set("mtd.spa_gamma_us",
            1e6 * replay([&] { spa_eval.gamma(k.reactances); }, budget_s),
            "us");
  const double fast = w.at(Work::kSpaFastPathEvals);
  const double full = w.at(Work::kSpaFullEvals);
  layer.set("mtd.spa_fastpath_ratio",
            fast + full > 0.0 ? fast / (fast + full) : 0.0, "ratio");
  mtd::EffectivenessOptions eff;
  eff.num_attacks = 200;
  eff.sigma_mw = knobs.sigma_mw;
  eff.attack_relative_magnitude = knobs.attack_magnitude;
  eff.deltas = {0.9};
  layer.set("mtd.effectiveness_ms",
            1e3 * replay([&] {
              stats::Rng r(seed);
              mtd::evaluate_effectiveness(k.h_attacker, k.h, k.z_ref, eff, r);
            }, budget_s),
            "ms");

  // grid
  const opf::DispatchResult d = opf::solve_dc_opf(sys, k.reactances);
  const linalg::Vector inj = grid::nodal_injections(sys, d.generation_mw);
  layer.set("grid.power_flow_us",
            1e6 * replay([&] {
              grid::solve_dc_power_flow(sys, k.reactances, inj);
            }, budget_s),
            "us");
  layer.set("grid.h_build_us",
            1e6 * replay([&] { grid::measurement_matrix(sys, k.reactances); },
                         budget_s),
            "us");
  layer.set("grid.h_build_sparse_us",
            1e6 * replay([&] {
              grid::sparse_measurement_matrix(sys, k.reactances);
            }, budget_s),
            "us");

  // estimation
  const double fp_rate = 5e-4;
  layer.set("estimation.se_build_ms",
            1e3 * replay([&] {
              const estimation::StateEstimator se(k.h, knobs.sigma_mw);
              const estimation::BadDataDetector bdd(se, fp_rate);
            }, budget_s),
            "ms");
  const estimation::StateEstimator se(k.h, knobs.sigma_mw);
  const estimation::BadDataDetector bdd(se, fp_rate);
  stats::Rng zr(stats::stream_seed(seed, 12));
  const linalg::Vector z = generated_z(k, knobs, zr);
  linalg::Vector a = z;
  a -= k.z_ref;
  layer.set("estimation.estimate_us",
            1e6 * replay([&] { se.estimate(z); }, budget_s), "us");
  layer.set("estimation.bdd_us",
            1e6 * replay([&] { bdd.alarm(se.normalized_residual_norm(z)); },
                         budget_s),
            "us");
  layer.set("estimation.mc_trials", w.at(Work::kMcTrials), "count");
  layer.set("estimation.mc_detect_ms",
            1e3 * replay([&] {
              estimation::monte_carlo_detection_probability_seeded(
                  se, bdd, k.z_ref, a, 400, seed);
            }, budget_s),
            "ms");

  // attack
  layer.set("attack.probe_estimate_ms",
            1e3 * replay([&] {
              attack::probe_and_estimate_key(sys, k.z_ref, knobs.sigma_mw,
                                             seed, k.hour, 8);
            }, budget_s),
            "ms");
  layer.set("attack.attacker_probes", w.at(Work::kAttackerProbes), "count");
  layer.set("attack.campaign_cells", w.at(Work::kCampaignCells), "count");

  // serve
  layer.set("serve.json_parse_us",
            1e6 * replay([&] {
              for (const auto& line : lines) serve::parse_request(line);
            }, budget_s) / static_cast<double>(lines.size()),
            "us");
  std::vector<Json> docs;
  for (const auto& line : lines) docs.push_back(Json::parse(line));
  layer.set("serve.json_dump_us",
            1e6 * replay([&] {
              for (const auto& doc : docs) doc.dump();
            }, budget_s) / static_cast<double>(docs.size()),
            "us");
  layer.set("serve.blocked_writes", td.blocked_writes, "count");

  // core, linalg, obs
  layer.set("core.pool_regions", w.at(Work::kPoolRegions), "count");
  layer.set("core.pool_tasks", w.at(Work::kPoolTasks), "count");
  layer.set("core.busy_ratio", td.cpu_s / (td.wall_s * td.threads), "ratio");
  layer.set("linalg.cg_iterations", w.at(Work::kCgIterations), "count");
  layer.set("linalg.cholesky_factor_nnz", w.at(Work::kCholeskyFactorNnz),
            "count");
  layer.set("obs.attributed_share",
            td.spans.attributed_share(td.windows.empty()
                                          ? td.spans.named("serve.tick")
                                          : td.windows),
            "ratio");
  // The overhead of each kind of unit, averaged over the kinds: pooling
  // units that cost different amounts would make the medians jump.
  double overhead = 0.0;
  for (std::size_t i = 0; i < td.plain_s.size(); ++i)
    overhead += (median(td.traced_s[i]) / median(td.plain_s[i]) - 1.0) /
                static_cast<double>(td.plain_s.size());
  layer.set("obs.trace_overhead_pct", 100.0 * overhead, "%");
}

/// Detect request lines at each keyed hour, for the JSON-layer replays.
std::vector<std::string> replay_lines(const std::vector<KeyedHour>& keys,
                                      const Knobs& knobs, std::uint64_t seed) {
  std::vector<std::string> lines;
  stats::Rng rng(stats::stream_seed(seed, 13));
  for (const KeyedHour& k : keys)
    for (std::uint64_t i = 0; i < 8; ++i)
      lines.push_back(detect_line(i, k.hour, generated_z(k, knobs, rng)));
  return lines;
}

/// Untimed dispatch LP solves on every pool worker for about a second, so
/// that timing starts with the pool's threads running, their allocator
/// arenas populated and the cores clocked up.
void warm_up(const grid::PowerSystem& sys) {
  const auto t0 = Clock::now();
  const std::size_t n = core::ThreadPool::global().num_threads();
  while (seconds_since(t0) < 1.0)
    core::parallel_for(n, [&](std::size_t) { opf::solve_dc_opf(sys); });
}

/// Runs `body(rep, traced)` at least `min_reps` times, then as long as
/// another repetition is expected to end closer to `seconds` after `t0`
/// than stopping now would. In a traced run the tracer is on for even
/// repetitions and off for odd ones, so the two can be compared.
void repeat_until(Clock::time_point t0, double seconds, int min_reps,
                  int max_reps, bool trace_run,
                  const std::function<void(int, bool)>& body) {
  const auto body_start = Clock::now();
  for (int rep = 0; rep < max_reps; ++rep) {
    const double per_rep = rep > 0 ? seconds_since(body_start) / rep : 0.0;
    if (rep >= min_reps && seconds_since(t0) + per_rep / 2 >= seconds) break;
    const bool traced = trace_run && rep % 2 == 0;
    obs::Tracer::global().set_enabled(traced);
    body(rep, traced);
    obs::Tracer::global().set_enabled(false);
  }
}

struct RunResult {
  Metrics e2e;
  Metrics layer;
  Tally tally;
  std::size_t pool_threads = 0;
  std::size_t client_threads = 1;
};

/// Mean C_MTD and lowest eta'(0.9) over keyed hours.
void report_key_quality(const std::vector<KeyedHour>& keys, Metrics& e2e) {
  double cost = 0.0, eta_min = 1.0;
  for (const KeyedHour& k : keys) {
    cost += k.cost_pct;
    eta_min = std::min(eta_min, k.eta);
  }
  e2e.set("mtd_cost_pct", cost / static_cast<double>(keys.size()), "%");
  e2e.set("eta_min", eta_min, "ratio");
}

// ---------------------------------------------------------------------------
// rekey_case57: daemon start-up, a run of ticks, one campaign.
// ---------------------------------------------------------------------------

void run_rekey(const Args& args, RunResult& out) {
  serve::DaemonOptions opt;
  opt.case_name = "case57";
  opt.daily.base_search_evaluations = args.smoke ? 5 : 60;
  opt.daily.selection.search.max_evaluations = args.smoke ? 10 : 150;
  opt.daily.selection.extra_starts = 1;
  opt.daily.effectiveness.num_attacks = args.smoke ? 20 : 200;
  const std::size_t ticks = args.smoke ? 1 : 3;
  const std::uint64_t campaign_id = stats::stream_seed(args.seed, 1) % 1000000;
  const Knobs knobs{opt.daily.effectiveness.sigma_mw,
                    opt.daily.effectiveness.attack_relative_magnitude,
                    opt.daily.selection};

  const grid::PowerSystem nominal = io::load_case(opt.case_name);
  const grid::DailyLoadTrace trace = serve::default_daemon_trace(nominal);
  warm_up(nominal);
  const auto start = Clock::now();
  // Ticks of hour h are pooled across repetitions; key_s averages the
  // hours' medians, as the hours cost different amounts.
  std::vector<double> setup, campaign;
  std::vector<std::vector<double>> tick(ticks);
  std::string first_transcript;
  std::unique_ptr<serve::MtdDaemon> last;
  TraceData td;
  td.threads = static_cast<double>(out.pool_threads);

  repeat_until(start, args.seconds, 2, args.smoke ? 2 : 50, args.trace,
               [&](int rep, bool traced) {
    const auto rep0 = Clock::now();
    const double cpu0 = cpu_seconds();
    std::unique_ptr<serve::MtdDaemon> d;
    setup.push_back(
        time_call([&] { d = std::make_unique<serve::MtdDaemon>(opt); }));
    std::string transcript;
    const auto send = [&](const std::string& line, std::vector<double>* t) {
      std::string reply;
      const double s = time_call([&] { reply = d->handle_line(line); });
      if (t != nullptr) t->push_back(s);
      out.tally.check(reply_ok(reply), "reply: " + reply.substr(0, 200));
      transcript += reply;
    };
    for (std::size_t t = 0; t < ticks; ++t)
      send(request_line("tick", 100 + t), &tick[t]);
    send(request_line("campaign", campaign_id), &campaign);
    for (std::size_t h = 0; h <= d->current_hour(); ++h)
      send(request_line("dispatch", h, h), nullptr);
    const double rep_s = seconds_since(rep0);
    (traced ? td.traced_s : td.plain_s)[0].push_back(rep_s);
    const WorkCounts w{d->registry().work_snapshot()};
    transcript += w.fingerprint();
    if (rep == 0) {
      first_transcript = transcript;
      td.work = w;
      td.cpu_s = cpu_seconds() - cpu0;
      td.wall_s = rep_s;
    } else {
      out.tally.check(transcript == first_transcript,
                      "rekey_case57: repetition " + std::to_string(rep) +
                          " differs from repetition 0 (keys, costs, frontier "
                          "or work counters)");
    }
    if (traced) td.spans.drain();
    last = std::move(d);
  });

  const std::vector<KeyedHour> keys = daemon_keys(
      *last, nominal, trace,
      pass1_baselines(nominal, trace, opt.daily.base_search_evaluations),
      out.tally);
  out.tally.check(!keys.empty(), "rekey_case57: no keyed hour");
  if (keys.empty()) return;
  for (const KeyedHour& k : keys)
    check_key(k, opt.daily.selection.constraint_tol, out.tally);

  out.e2e.set("setup_s", median(setup), "s");
  double key_s = 0.0;
  for (const auto& hour : tick)
    key_s += median(hour) / static_cast<double>(ticks);
  out.e2e.set("tick_s", key_s, "s");
  out.e2e.set("key_s", key_s, "s");
  out.e2e.set("campaign_s", median(campaign), "s");
  report_key_quality(keys, out.e2e);
  if (!args.trace) return;
  td.simplex_reps = static_cast<double>(td.traced_s[0].size());
  td.base_cost = last->current_snapshot()->record.base_opf_cost;
  report_layers(td, keys, replay_lines(keys, knobs, args.seed), knobs,
                args.seed, args.smoke ? 0.02 : 0.3, out.layer);
  out.layer.set("mtd.advance_hour_s",
                median(td.spans.durations_s("mtd.advance_hour")), "s");
  out.layer.set("serve.tick_s", median(td.spans.durations_s("serve.tick")),
                "s");
  out.layer.set("estimation.mc_detect_s",
                td.spans.total_s("estimation.mc_detect") / td.simplex_reps,
                "s");
}

// ---------------------------------------------------------------------------
// keying_case118: one hour's problem-(4) selection at the trace's trough and
// peak, each against its own problem-(1) baseline.
// ---------------------------------------------------------------------------

void run_keying(const Args& args, RunResult& out) {
  const std::vector<std::size_t> hours = {4, 18};
  const int base_evals = args.smoke ? 2 : 6;
  Knobs knobs;
  knobs.selection.gamma_threshold = 0.05;
  knobs.selection.extra_starts = 0;
  knobs.selection.search.max_evaluations = args.smoke ? 4 : 12;
  mtd::EffectivenessOptions eff;
  eff.num_attacks = args.smoke ? 20 : 200;
  eff.deltas = {0.9};

  const grid::PowerSystem nominal = io::load_case("case118");
  const grid::DailyLoadTrace trace = serve::default_daemon_trace(nominal);
  std::vector<grid::PowerSystem> systems;
  for (std::size_t h : hours)
    systems.push_back(system_at_hour(nominal, trace, h));
  warm_up(nominal);
  const auto start = Clock::now();

  // Each repetition keys both hours, each from its freshly solved
  // baseline, so set-up and selection samples come from the same stretch of
  // the run. setup_s adds up and key_s averages the hours' median times:
  // the trough and the peak hour cost different amounts, so pooling their
  // samples would make the median jump between them.
  std::vector<std::vector<double>> setup(hours.size()), key(hours.size());
  std::vector<KeyedHour> keys;
  std::string first_fingerprint;
  TraceData td;
  td.threads = static_cast<double>(out.pool_threads);
  td.traced_s.assign(hours.size(), {});
  td.plain_s.assign(hours.size(), {});
  const linalg::Vector x0 = nominal_dfacts(nominal);
  repeat_until(start, args.seconds, 2, args.smoke ? 2 : 50, args.trace,
               [&](int rep, bool traced) {
    obs::MetricsRegistry registry;
    const obs::ScopedRegistry scope(&registry);
    const double cpu0 = cpu_seconds();
    const auto rep0 = Clock::now();
    std::string fingerprint;
    std::vector<KeyedHour> rep_keys;
    for (std::size_t i = 0; i < hours.size(); ++i) {
      Baseline base;
      setup[i].push_back(time_call(
          [&] { base = solve_baseline(systems[i], x0, base_evals); }));
      out.tally.check(base.feasible, "keying_case118: hour " +
                                         std::to_string(hours[i]) +
                                         " has no feasible baseline");
      fingerprint += Json(base.cost).dump() + vector_json(base.dfacts_x).dump();
      mtd::MtdSelectionOptions sel = knobs.selection;
      sel.warm_start = base.dfacts_x;
      stats::Rng rng(stats::stream_seed(args.seed, hours[i]));
      mtd::MtdSelectionResult res;
      const double w0 = obs::Tracer::now_us();
      const double t = time_call([&] {
        res = mtd::select_mtd_perturbation(systems[i], base.h, base.cost,
                                           sel, rng);
      });
      if (traced)
        td.windows.push_back({"mtd.select", "perfbench",
                              obs::Tracer::current_tid(), w0,
                              obs::Tracer::now_us() - w0});
      key[i].push_back(t);
      (traced ? td.traced_s : td.plain_s)[i].push_back(t);
      out.tally.check(res.feasible, "keying_case118: hour " +
                                        std::to_string(hours[i]) +
                                        " has no feasible key");
      KeyedHour k(systems[i]);
      k.hour = hours[i];
      k.reactances = res.reactances;
      k.h_attacker = base.h;
      k.gamma_th = sel.gamma_threshold;
      k.cost = res.opf_cost;
      k.cost_pct = 100.0 * (res.opf_cost - base.cost) / base.cost;
      k.h = res.h_mtd;
      k.z_ref = grid::noiseless_measurements(systems[i], res.reactances,
                                             res.dispatch.theta_reduced);
      fingerprint += Json(res.opf_cost).dump() + Json(res.spa).dump() +
                     vector_json(res.reactances).dump();
      rep_keys.push_back(std::move(k));
    }
    const WorkCounts w{registry.work_snapshot()};
    fingerprint += w.fingerprint();
    if (rep == 0) {
      first_fingerprint = fingerprint;
      td.work = w;
      td.cpu_s = cpu_seconds() - cpu0;
      td.wall_s = seconds_since(rep0);
      keys = std::move(rep_keys);
    } else {
      out.tally.check(fingerprint == first_fingerprint,
                      "keying_case118: repetition " + std::to_string(rep) +
                          " differs from repetition 0 (baselines, keys, "
                          "costs or work counters)");
    }
    if (traced) td.spans.drain();
  });

  for (KeyedHour& k : keys) {
    stats::Rng rng(stats::stream_seed(args.seed, 100 + k.hour));
    k.eta = mtd::evaluate_effectiveness(k.h_attacker, k.h, k.z_ref, eff, rng)
                .eta[0];
    check_key(k, knobs.selection.constraint_tol, out.tally);
  }
  double setup_s = 0.0, key_s = 0.0;
  for (std::size_t i = 0; i < hours.size(); ++i) {
    setup_s += median(setup[i]);
    key_s += median(key[i]) / static_cast<double>(hours.size());
  }
  out.e2e.set("setup_s", setup_s, "s");
  out.e2e.set("key_s", key_s, "s");
  report_key_quality(keys, out.e2e);
  if (!args.trace) return;
  td.simplex_reps = static_cast<double>(td.traced_s[0].size());
  td.select_s = key_s;
  report_layers(td, keys, replay_lines(keys, knobs, args.seed), knobs,
                args.seed, args.smoke ? 0.02 : 0.3, out.layer);
}

// ---------------------------------------------------------------------------
// serve_mix_case14: lock-free reads beside exec-lock writes and a scheduled
// re-keying tick, on one daemon.
// ---------------------------------------------------------------------------

/// One generated request: its line, whether it takes the exec lock, and
/// for plain detects the index of the z it carries.
struct GenRequest {
  std::string line;
  bool write = false;
  int z_index = -1;
};

/// One open-loop request: when it was due, sent and answered, in seconds
/// since the run's start.
struct Sample {
  double due = 0.0, sent = 0.0, done = 0.0;
};

/// Share of the time the open-loop writes keep the exec lock busy, by the
/// write service time measured before the phases. A quarter: each tick
/// holds the lock for a few tenths of a second, and writes run slower beside
/// reads than alone, so at a higher share the backlog a tick leaves takes
/// most of the phase to drain and sets the write median.
constexpr double kWriteLoad = 0.25;

void run_serve(const Args& args, RunResult& out) {
  serve::DaemonOptions opt;
  if (args.smoke) {
    opt.daily.base_search_evaluations = 20;
    opt.daily.selection.search.max_evaluations = 40;
    opt.daily.effectiveness.num_attacks = 50;
  }
  const Knobs knobs{opt.daily.effectiveness.sigma_mw,
                    opt.daily.effectiveness.attack_relative_magnitude,
                    opt.daily.selection};
  const grid::PowerSystem nominal = io::load_case(opt.case_name);
  const grid::DailyLoadTrace trace = serve::default_daemon_trace(nominal);

  warm_up(nominal);
  std::vector<double> setup;
  std::unique_ptr<serve::MtdDaemon> d;
  for (int rep = 0; rep < (args.smoke ? 1 : 5); ++rep)
    setup.push_back(
        time_call([&] { d = std::make_unique<serve::MtdDaemon>(opt); }));
  const std::vector<Baseline> baselines =
      pass1_baselines(nominal, trace, opt.daily.base_search_evaluations);

  // The seeded request mix, all against hour 0's key (retained for the
  // whole run: there are fewer ticks than the history window holds). Its
  // weights are mtd_loadgen's default detect:dispatch:status of 8:1:1,
  // plus the two verbs mtd_loadgen does not send, `probe` and Monte-Carlo
  // `detect`, at the weight of its rarest verbs: 8:1:1:1:1 in all.
  const KeyedHour k0 =
      std::move(daemon_keys(*d, nominal, trace, baselines, out.tally).front());
  stats::Rng gen(stats::stream_seed(args.seed, 3));
  std::vector<linalg::Vector> zs;
  std::vector<GenRequest> mix;
  for (std::uint64_t id = 0; id < 4096; ++id) {
    const auto slot = static_cast<int>(gen.uniform() * 12.0);
    GenRequest r;
    if (slot < 8) {
      r.z_index = static_cast<int>(zs.size());
      zs.push_back(generated_z(k0, knobs, gen));
      r.line = detect_line(id, 0, zs.back());
    } else if (slot == 8) {
      r.line = request_line("dispatch", id, 0);
      r.write = true;
    } else if (slot == 9) {
      r.line = request_line("status", id);
    } else if (slot == 10) {
      r.line = request_line("probe", id, 0);
    } else {
      r.line = detect_line(id, 0, generated_z(k0, knobs, gen), true);
      r.write = true;
    }
    mix.push_back(std::move(r));
  }
  std::vector<std::size_t> read_idx, write_idx;
  for (std::size_t i = 0; i < mix.size(); ++i)
    (mix[i].write ? write_idx : read_idx).push_back(i);

  // The mean service time of the mix's writes, sent one at a time with
  // nothing else running. The exec lock serialises writes, so it sets the
  // open-loop rates below.
  const std::size_t calibration = std::min<std::size_t>(256, write_idx.size());
  double write_service_s = 0.0;
  for (std::size_t n = 0; n < calibration; ++n) {
    std::string reply;
    write_service_s += time_call([&] {
      reply = d->handle_line(mix[write_idx[n]].line);
    }) / static_cast<double>(calibration);
    out.tally.check(reply_ok(reply), "reply: " + reply.substr(0, 200));
  }

  const double phase_s = std::max(1.0, args.seconds / 2.0);
  const int ticks_per_phase = args.smoke ? 1 : 6;
  TraceData td;
  td.threads = static_cast<double>(out.pool_threads + out.client_threads - 1);
  std::mutex mutex;  // guards the vectors below
  std::vector<double> tick_s;
  std::vector<std::pair<double, double>> tick_spans;  // seconds since t0
  std::vector<std::pair<int, std::string>> sampled;   // (z index, reply)
  const auto t0 = Clock::now();
  const auto at = [&](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  };
  const auto ticker = [&](double start) {
    for (int t = 0; t < ticks_per_phase; ++t) {
      std::this_thread::sleep_until(
          at(start + phase_s * (t + 0.5) / ticks_per_phase));
      const double s0 = seconds_since(t0);
      const std::string reply =
          d->handle_line(request_line("tick", 1000000 + t));
      const double s1 = seconds_since(t0);
      out.tally.check(reply_ok(reply), "tick reply: " + reply.substr(0, 200));
      std::lock_guard<std::mutex> lock(mutex);
      tick_s.push_back(s1 - s0);
      tick_spans.emplace_back(s0, s1);
    }
  };
  const auto check_reply = [&](const GenRequest& r, const std::string& reply,
                               std::size_t n) {
    if (!reply_ok(reply)) {
      out.tally.check(false, "reply: " + reply.substr(0, 200));
    } else if (r.z_index >= 0 && n % 16 == 0) {
      std::lock_guard<std::mutex> lock(mutex);
      sampled.emplace_back(r.z_index, reply);
    }
  };
  obs::Tracer::global().set_enabled(args.trace);
  const double cpu0 = cpu_seconds();

  // Phase 1, closed loop: two clients, each sending its next request when
  // the previous reply arrives.
  std::atomic<std::uint64_t> completed{0};
  {
    std::thread tick_thread(ticker, 0.0);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < 2; ++c)
      clients.emplace_back([&, c] {
        std::uint64_t n = 0;
        const auto end = at(phase_s);
        for (std::size_t i = c * mix.size() / 2; Clock::now() < end;
             ++i, ++n) {
          const GenRequest& r = mix[i % mix.size()];
          check_reply(r, d->handle_line(r.line), n);
        }
        completed += n;
      });
    for (auto& c : clients) c.join();
    tick_thread.join();
  }
  const double rps = static_cast<double>(completed.load()) / phase_s;

  // Phase 2, open loop: seeded Poisson arrivals, reads and writes on their
  // own sender threads, each request timed from when it was due. Writes
  // arrive at kWriteLoad of the exec lock's measured capacity, and reads
  // at the rate the mix's read:write proportion gives.
  const auto schedule = [&](double rate, std::uint64_t tag) {
    std::vector<double> due;
    stats::Rng r(stats::stream_seed(args.seed, tag));
    for (double t = phase_s - std::log(1.0 - r.uniform()) / rate;
         t < 2.0 * phase_s; t -= std::log(1.0 - r.uniform()) / rate)
      due.push_back(t);
    return due;
  };
  const double write_rate = kWriteLoad / write_service_s;
  const double read_rate = write_rate *
                           static_cast<double>(read_idx.size()) /
                           static_cast<double>(write_idx.size());
  const std::vector<double> read_due = schedule(read_rate, 4);
  const std::vector<double> write_due = schedule(write_rate, 5);
  std::vector<Sample> reads, writes;
  const auto sender = [&](const std::vector<double>& due,
                          const std::vector<std::size_t>& idx,
                          std::vector<Sample>& samples) {
    samples.reserve(due.size());
    for (std::size_t n = 0; n < due.size(); ++n) {
      wait_until(at(due[n]));
      const GenRequest& r = mix[idx[n % idx.size()]];
      Sample s;
      s.due = due[n];
      s.sent = seconds_since(t0);
      const std::string reply = d->handle_line(r.line);
      s.done = seconds_since(t0);
      check_reply(r, reply, n);
      samples.push_back(s);
    }
  };
  {
    std::thread tick_thread(ticker, phase_s);
    std::thread read_thread(sender, std::cref(read_due), std::cref(read_idx),
                            std::ref(reads));
    std::thread write_thread(sender, std::cref(write_due),
                             std::cref(write_idx), std::ref(writes));
    read_thread.join();
    write_thread.join();
    tick_thread.join();
  }
  td.wall_s = seconds_since(t0);
  td.cpu_s = cpu_seconds() - cpu0;
  obs::Tracer::global().set_enabled(false);
  out.tally.add_attempted(completed.load() + reads.size() + writes.size());

  const auto latency_us = [](const std::vector<Sample>& v, bool from_due) {
    std::vector<double> us;
    for (const Sample& s : v)
      us.push_back(1e6 * (s.done - (from_due ? s.due : s.sent)));
    return us;
  };
  std::vector<double> lateness_us;
  for (const auto* v : {&reads, &writes})
    for (const Sample& s : *v) lateness_us.push_back(1e6 * (s.sent - s.due));
  for (const Sample& s : writes)
    for (const auto& [a, b] : tick_spans)
      if (s.sent < b && s.done > a) td.blocked_writes += 1.0;

  // Sampled detect replies against an independent WLS residual at the key.
  const double sigma = knobs.sigma_mw;
  const linalg::Vector weights(k0.h.rows(), 1.0 / (sigma * sigma));
  for (const auto& [zi, reply] : sampled) {
    const Json doc = Json::parse(reply);
    const linalg::Vector& z = zs[static_cast<std::size_t>(zi)];
    const linalg::Vector theta =
        linalg::solve_weighted_least_squares(k0.h, weights, z);
    double acc = 0.0;
    for (std::size_t i = 0; i < z.size(); ++i) {
      double hz = 0.0;
      for (std::size_t j = 0; j < theta.size(); ++j)
        hz += k0.h(i, j) * theta[j];
      acc += (z[i] - hz) * (z[i] - hz) / (sigma * sigma);
    }
    const double expected = std::sqrt(acc);
    const double residual = number_field(doc, "residual");
    const Json* alarm = doc.find("alarm");
    out.tally.check(
        std::abs(residual - expected) <= 1e-6 * std::max(1.0, expected) &&
            alarm != nullptr && alarm->is_bool() &&
            alarm->as_bool() == (residual >= number_field(doc, "tau")),
        "detect residual " + std::to_string(residual) +
            " differs from the independent WLS residual " +
            std::to_string(expected));
  }

  const std::vector<KeyedHour> keys =
      daemon_keys(*d, nominal, trace, baselines, out.tally);
  for (const KeyedHour& k : keys)
    check_key(k, opt.daily.selection.constraint_tol, out.tally);

  const std::vector<double> read_us = latency_us(reads, true);
  const std::vector<double> write_us = latency_us(writes, true);
  out.e2e.set("setup_s", median(setup), "s");
  // Each run ticks the same hours once each, and hours differ in cost, so
  // the mean over them is the stable statistic (a median would fall on the
  // boundary between the cheap and the expensive hours).
  out.e2e.set("tick_s", mean(tick_s), "s");
  out.e2e.set("key_s", mean(tick_s), "s");
  out.e2e.set("rps", rps, "1/s");
  out.e2e.set("read_p50_us", quantile(read_us, 0.5), "us");
  out.e2e.set("read_p99_us", quantile(read_us, 0.99), "us");
  out.e2e.set("write_p50_us", quantile(write_us, 0.5), "us");
  out.e2e.set("write_p99_us", quantile(write_us, 0.99), "us");
  report_key_quality(keys, out.e2e);
  std::cerr << "serve_mix_case14: " << completed.load()
            << " closed-loop requests, " << reads.size()
            << " open-loop reads, " << writes.size() << " open-loop writes, "
            << tick_s.size() << " ticks; open loop offered " << read_rate
            << " reads/s and " << write_rate << " writes/s; read service p50 "
            << quantile(latency_us(reads, false), 0.5) << " us\n";
  // How late the open-loop generator ran, which the latencies above
  // include.
  out.layer.set("serve.gen_late_p99_us", quantile(lateness_us, 0.99), "us");
  if (!args.trace) return;

  td.spans.drain();
  td.work = WorkCounts{d->registry().work_snapshot()};
  td.base_cost = d->current_snapshot()->record.base_opf_cost;
  // Tracing overhead on the read path: alternating blocks of the same
  // detect lines with the tracer off and on.
  for (int block = 0; block < 20; ++block) {
    const bool on = block % 2 == 1;
    obs::Tracer::global().set_enabled(on);
    (on ? td.traced_s : td.plain_s)[0].push_back(time_call([&] {
      for (std::size_t i = 0; i < 256; ++i)
        d->handle_line(mix[read_idx[i]].line);
    }));
    obs::Tracer::global().set_enabled(false);
  }
  obs::Tracer::global().drain();
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < 64; ++i) lines.push_back(mix[i].line);
  report_layers(td, keys, lines, knobs, args.seed, args.smoke ? 0.02 : 0.3,
                out.layer);
  out.layer.set("mtd.advance_hour_s",
                median(td.spans.durations_s("mtd.advance_hour")), "s");
  out.layer.set("serve.tick_s", median(td.spans.durations_s("serve.tick")),
                "s");
  out.layer.set("estimation.mc_detect_s",
                td.spans.total_s("estimation.mc_detect"), "s");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc)
          throw std::invalid_argument("missing value for " + a);
        return argv[++i];
      };
      if (a == "--workload") args.workload = value();
      else if (a == "--seed") args.seed = std::stoull(value());
      else if (a == "--seconds") args.seconds = std::stod(value());
      else if (a == "--trace") args.trace = value() == "1";
      else if (a == "--smoke") args.smoke = true;
      else throw std::invalid_argument("unknown argument " + a);
    }
  } catch (const std::exception& e) {
    std::cerr << "mtd_bench: " << e.what() << "\n";
    return 2;
  }

  // Pool workers plus client threads never exceed the machine's cores. The
  // lifecycle workloads have one client, the main thread, which joins the
  // pool's parallel regions. The serving workload has two client threads
  // plus a ticker thread that joins the pool when it ticks.
  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  RunResult out;
  const auto run = [&](std::size_t pool, std::size_t clients,
                       void (*workload)(const Args&, RunResult&)) {
    core::ThreadPool::set_global_num_threads(pool);
    out.pool_threads = core::ThreadPool::global().num_threads();
    out.client_threads = clients;
    workload(args, out);
  };
  const auto t0 = Clock::now();
  try {
    if (args.workload == "rekey_case57") run(nproc, 1, run_rekey);
    else if (args.workload == "keying_case118") run(nproc, 1, run_keying);
    else if (args.workload == "serve_mix_case14") {
      if (nproc < 3)
        throw std::runtime_error(
            "serve_mix_case14 needs 3 cores for its 2 clients and ticker");
      run(nproc - 2, 3, run_serve);
    }
    else throw std::invalid_argument("unknown workload " + args.workload);
  } catch (const std::exception& e) {
    std::cerr << "mtd_bench: " << e.what() << "\n";
    return 1;
  }
  out.e2e.set("peak_rss_mb", peak_rss_mb(), "MB");
  out.e2e.set("ops_failed_ratio",
              static_cast<double>(out.tally.failed()) /
                  static_cast<double>(std::max<std::uint64_t>(
                      1, out.tally.attempted())),
              "ratio");

  Json line;
  line.set("workload", Json(args.workload));
  line.set("seed", Json(args.seed));
  line.set("trace", Json(args.trace));
  line.set("build_type", Json(PERFBENCH_BUILD_TYPE));
#ifdef NDEBUG
  line.set("ndebug", Json(true));
#else
  line.set("ndebug", Json(false));
#endif
  line.set("pool_threads", Json(out.pool_threads));
  line.set("client_threads", Json(out.client_threads));
  line.set("wall_s", Json(seconds_since(t0)));
  line.set("attempted", Json(out.tally.attempted()));
  line.set("failed", Json(out.tally.failed()));
  line.set("end_to_end", out.e2e.to_json());
  line.set("per_layer", out.layer.to_json());
  std::cout << line.dump() << std::endl;
  return 0;
}
