// Prints the benchmark scenario matrix: one row per case with its size,
// measurement-model dimensions, D-FACTS coverage, base-case OPF cost, and
// the SPA achieved by a uniform +30% perturbation of the D-FACTS branches.
// This is the table referenced from the README; re-run after adding a
// case to refresh it.
//
// Usage: scenario_matrix [--threads N] [case-or-path ...]
//   With no arguments, prints every file-backed case in the
//   registry (case4 through case300). Composed mega-grids ("case118x9",
//   or any "<case>xN") are skipped by default — the dense QR this table
//   runs is not sized for 1000+ buses — but may be requested by
//   name. Arguments may be registry names ("case118") or paths to
//   MATPOWER .m files; an unknown case exits 2 with a usage message.
//   --threads N sizes the worker pool used by the parallel hot paths
//   (default: MTDGRID_THREADS env var, then hardware concurrency); results
//   are bit-identical for every N.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cli.hpp"
#include "grid/measurement.hpp"
#include "io/case_registry.hpp"
#include "linalg/subspace.hpp"
#include "opf/dc_opf.hpp"

int main(int argc, char** argv) {
  using namespace mtdgrid;

  std::vector<std::string> specs;
  examples::Cli cli(argv[0], {"[--threads N] [case-or-path ...]"});
  cli.note("  --threads N: worker-pool size (positive integer)");
  cli.flag_threads();
  cli.positional([&](const std::string& arg) {
    if (!io::CaseRegistry::global().knows(arg)) return false;
    specs.push_back(arg);
    return true;
  });
  if (!cli.parse(argc, argv)) return 2;
  if (specs.empty())
    for (const auto& e : io::CaseRegistry::global().entries()) {
      // Composed entries (no backing file) expand to mega-grids the dense
      // pipeline below cannot chew through; keep the no-argument table
      // fast and let callers name them explicitly.
      if (e.file.empty()) continue;
      specs.push_back(e.name);
    }

  std::printf("%-8s %5s %5s %5s %5s %7s %9s %11s %10s\n", "case", "buses",
              "lines", "gens", "M", "dfacts", "load(MW)", "cost($/h)",
              "spa(+30%)");
  for (const std::string& spec : specs) {
    grid::PowerSystem sys = [&] {
      try {
        return io::load_case(spec);
      } catch (const io::CaseIoError& e) {
        std::fprintf(stderr, "%s\n", e.what());
        std::exit(cli.usage());
      }
    }();
    const opf::DispatchResult r = opf::solve_dc_opf(sys);
    const linalg::Matrix h0 = grid::measurement_matrix(sys);
    linalg::Vector x = sys.reactances();
    for (std::size_t l : sys.dfacts_branches()) x[l] *= 1.3;
    // Thin-QR principal angle (matches mtd::spa to ~1e-12 and keeps the
    // 1122 x 299 case300 row cheap).
    const double gamma = linalg::largest_principal_angle_qr(
        h0, grid::measurement_matrix(sys, x));
    std::printf("%-8s %5zu %5zu %5zu %5zu %7zu %9.1f %11.1f %10.4f\n",
                sys.name().c_str(), sys.num_buses(), sys.num_branches(),
                sys.num_generators(), grid::measurement_count(sys),
                sys.dfacts_branches().size(), sys.total_load_mw(),
                r.feasible ? r.cost : -1.0, gamma);
  }
  return 0;
}
