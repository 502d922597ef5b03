// Case-file audit: the CI gate for the data/ directory.
//
// For every bundled MATPOWER file (or any case name / .m path given on the
// command line) this loads the case through io::load_case — which already
// enforces structural validity and a connected network — then checks that:
//  * the base-case DC-OPF is feasible,
//  * power balances at every bus (net branch flow == injection, <= 1e-6),
//  * the dispatch stays feasible across the uniform D-FACTS envelope
//    (all-device factors 0.5, 0.75, 1.25, 1.5 — the perturbations the MTD
//    pipeline applies).
// Exit code 0 means every audited file passed; 1 means a failure (printed
// with its file:line diagnostic when the loader produced one); 2 usage.
//
// --suggest-limits prints a per-branch RATE_A suggestion (1.25x the worst
// envelope flow at the base dispatch, rounded up) — the sizing rule used
// for the bundled case118/case300 limits.
//
// --zones K audits a composed mega-grid (grid::compose_cases /
// "<base>xN" registry names) zone by zone: the whole-grid envelope audit
// runs dense O(N^3) power flows and is intractable past a few hundred
// buses, so each of the K
// copy-zones is audited standalone (base + envelope OPF feasibility)
// and the stitched per-zone dispatch is then balance-checked on the
// FULL network through the sparse power flow — the same
// decompose-then-recheck shape as mtd::select_mtd_zones. This is the CI
// gate for freshly composed artifacts.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "cli.hpp"
#include "grid/compose.hpp"
#include "grid/power_flow.hpp"
#include "io/case_registry.hpp"
#include "opf/dc_opf.hpp"

namespace {

using namespace mtdgrid;

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [--suggest-limits] [--zones K] [case-or-path ...]\n"
               "  with no cases given, audits every .m file in the data "
               "directory\n"
               "  --zones K audits a K-copy composed case per zone (sparse "
               "full-model\n"
               "  balance check; incompatible with --suggest-limits)\n",
               prog);
  return 2;
}

double nice_limit(double mw) {
  const double step = mw < 100.0 ? 10.0 : (mw < 1000.0 ? 50.0 : 100.0);
  return step * std::ceil(mw / step);
}

bool audit(const std::string& spec, bool suggest_limits) {
  grid::PowerSystem sys = io::load_case(spec);

  const opf::DispatchResult base = opf::solve_dc_opf(sys);
  if (!base.feasible) {
    std::fprintf(stderr, "FAIL %s: base DC-OPF infeasible\n", spec.c_str());
    return false;
  }

  // Per-bus DC balance at the optimal dispatch.
  const linalg::Vector inj = grid::nodal_injections(sys, base.generation_mw);
  std::vector<double> net(sys.num_buses(), 0.0);
  for (std::size_t l = 0; l < sys.num_branches(); ++l) {
    net[sys.branch(l).from] += base.flows_mw[l];
    net[sys.branch(l).to] -= base.flows_mw[l];
  }
  for (std::size_t i = 0; i < sys.num_buses(); ++i) {
    if (std::abs(net[i] - inj[i]) > 1e-6) {
      std::fprintf(stderr,
                   "FAIL %s: DC balance violated at bus %zu "
                   "(net flow %.9f MW vs injection %.9f MW)\n",
                   spec.c_str(), i + 1, net[i], inj[i]);
      return false;
    }
  }

  // Worst |flow| per branch across the uniform D-FACTS envelope, at the
  // base dispatch (the MTD re-keying loop perturbs exactly these devices).
  std::vector<double> worst(sys.num_branches(), 0.0);
  double max_utilization = 0.0;
  for (double factor : {0.5, 0.75, 1.0, 1.25, 1.5}) {
    linalg::Vector x = sys.reactances();
    for (std::size_t l : sys.dfacts_branches()) x[l] *= factor;
    const grid::DcPowerFlowResult pf =
        grid::solve_dc_power_flow(sys, x, inj);
    for (std::size_t l = 0; l < sys.num_branches(); ++l)
      worst[l] = std::max(worst[l], std::abs(pf.flows_mw[l]));
    if (factor != 1.0) {
      const opf::DispatchResult r = opf::solve_dc_opf(sys, x);
      if (!r.feasible) {
        std::fprintf(stderr,
                     "FAIL %s: DC-OPF infeasible at D-FACTS factor %.2f\n",
                     spec.c_str(), factor);
        return false;
      }
    }
  }
  for (std::size_t l = 0; l < sys.num_branches(); ++l)
    max_utilization =
        std::max(max_utilization, worst[l] / sys.branch(l).flow_limit_mw);

  if (suggest_limits) {
    std::printf("%% suggested RATE_A for %s (1.25x worst envelope flow)\n",
                sys.name().c_str());
    for (std::size_t l = 0; l < sys.num_branches(); ++l)
      std::printf("%zu %g\n", l + 1,
                  nice_limit(std::max(1.25 * worst[l], 30.0)));
    return true;
  }

  std::printf(
      "ok  %-10s %4zu buses %4zu branches %3zu gens  load %9.1f MW  "
      "cost %11.1f $/h  peak util %.0f%%\n",
      sys.name().c_str(), sys.num_buses(), sys.num_branches(),
      sys.num_generators(), sys.total_load_mw(), base.cost,
      100.0 * max_utilization);
  return true;
}

// Zone-decomposed audit for composed mega-grids: per-zone OPF + envelope
// feasibility (base-case-sized dense solves), then a full-network sparse
// power-flow balance check of the stitched dispatch across the D-FACTS
// envelope.
bool audit_zones(const std::string& spec, std::size_t num_zones) {
  grid::PowerSystem sys = io::load_case(spec);
  const grid::ZonePartition partition =
      grid::partition_into_copies(sys, num_zones);

  linalg::Vector generation(sys.num_generators());
  double total_cost = 0.0;
  for (std::size_t z = 0; z < num_zones; ++z) {
    const grid::ZoneSystem zone = grid::extract_zone(sys, partition, z);
    const opf::DispatchResult base = opf::solve_dc_opf(zone.system);
    if (!base.feasible) {
      std::fprintf(stderr, "FAIL %s: zone %zu base DC-OPF infeasible\n",
                   spec.c_str(), z);
      return false;
    }
    for (double factor : {0.5, 0.75, 1.25, 1.5}) {
      linalg::Vector x = zone.system.reactances();
      for (std::size_t l : zone.system.dfacts_branches()) x[l] *= factor;
      if (!opf::solve_dc_opf(zone.system, x).feasible) {
        std::fprintf(stderr,
                     "FAIL %s: zone %zu DC-OPF infeasible at D-FACTS "
                     "factor %.2f\n",
                     spec.c_str(), z, factor);
        return false;
      }
    }
    for (std::size_t g = 0; g < zone.gen_map.size(); ++g)
      generation[zone.gen_map[g]] = base.generation_mw[g];
    total_cost += base.cost;
  }

  // Full-model recheck: the stitched per-zone dispatch must balance on
  // the coupled network at every envelope factor (tie flows absorb the
  // inter-zone coupling; the sparse solve is the only tractable path at
  // this scale).
  const linalg::Vector inj = grid::nodal_injections(sys, generation);
  double max_utilization = 0.0;
  for (double factor : {0.5, 0.75, 1.0, 1.25, 1.5}) {
    linalg::Vector x = sys.reactances();
    for (std::size_t l : sys.dfacts_branches()) x[l] *= factor;
    const grid::DcPowerFlowResult pf =
        grid::solve_dc_power_flow_sparse(sys, x, inj);
    std::vector<double> net(sys.num_buses(), 0.0);
    for (std::size_t l = 0; l < sys.num_branches(); ++l) {
      net[sys.branch(l).from] += pf.flows_mw[l];
      net[sys.branch(l).to] -= pf.flows_mw[l];
      max_utilization = std::max(
          max_utilization,
          std::abs(pf.flows_mw[l]) / sys.branch(l).flow_limit_mw);
    }
    for (std::size_t i = 0; i < sys.num_buses(); ++i) {
      if (std::abs(net[i] - inj[i]) > 1e-6) {
        std::fprintf(stderr,
                     "FAIL %s: full-model DC balance violated at bus %zu, "
                     "factor %.2f (net flow %.9f MW vs injection %.9f MW)\n",
                     spec.c_str(), i + 1, factor, net[i], inj[i]);
        return false;
      }
    }
  }

  std::printf(
      "ok  %-10s %4zu buses %4zu branches %3zu gens  load %9.1f MW  "
      "cost %11.1f $/h  peak util %.0f%%  (%zu zones)\n",
      sys.name().c_str(), sys.num_buses(), sys.num_branches(),
      sys.num_generators(), sys.total_load_mw(), total_cost,
      100.0 * max_utilization, num_zones);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool suggest_limits = false;
  unsigned long long num_zones = 1;
  std::vector<std::string> specs;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--suggest-limits") == 0) {
      suggest_limits = true;
    } else if (std::strcmp(argv[i], "--zones") == 0) {
      ++i;
      if (i >= argc || !examples::parse_u64(argv[i], 2, 10000, num_zones))
        return usage(argv[0]);
    } else if (argv[i][0] == '-') {
      return usage(argv[0]);
    } else {
      specs.emplace_back(argv[i]);
    }
  }
  if (suggest_limits && num_zones > 1) return usage(argv[0]);
  if (specs.empty()) {
    const std::string dir = io::CaseRegistry::global().data_dir();
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec))
      if (entry.path().extension() == ".m")
        specs.push_back(entry.path().string());
    if (ec || specs.empty()) {
      std::fprintf(stderr, "no .m files found in '%s'\n", dir.c_str());
      return 1;
    }
    std::sort(specs.begin(), specs.end());
  }

  bool all_ok = true;
  for (const std::string& spec : specs) {
    try {
      all_ok = (num_zones > 1 ? audit_zones(spec, num_zones)
                              : audit(spec, suggest_limits)) &&
               all_ok;
    } catch (const io::CaseIoError& e) {
      std::fprintf(stderr, "FAIL %s\n", e.what());
      all_ok = false;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "FAIL %s: %s\n", spec.c_str(), e.what());
      all_ok = false;
    }
  }
  return all_ok ? 0 : 1;
}
