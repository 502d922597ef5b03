// Synthetic mega-grid composer: tiles N copies of a registry case into
// one connected network (grid::compose_cases) and writes the MATPOWER
// text, either to --out or to stdout.
//
// The composition is a pure function of (base case, options): the same
// invocation always produces byte-identical output, which is what lets
// CI compose audit artifacts on the fly instead of checking multi-
// thousand-bus case files into data/. The bundled composed scenarios
// ("case118x9", "case300x17") are exactly the default options at the
// default seed — `case_compose case118 --copies 9` reproduces what
// `io::load_case("case118x9")` builds in process.
//
// Exit codes: 0 composed and written, 1 I/O or composition failure,
// 2 bad argv (usage on stderr).

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "grid/compose.hpp"
#include "io/case_registry.hpp"
#include "io/matpower.hpp"

namespace {

using namespace mtdgrid;

// Comma-separated 1-based bus numbers ("5,12,49") -> 0-based indices.
bool parse_boundary(const char* arg, std::vector<std::size_t>& out) {
  if (arg == nullptr || *arg == '\0') return false;
  std::string token;
  std::vector<std::size_t> buses;
  for (const char* p = arg;; ++p) {
    if (*p != ',' && *p != '\0') {
      token += *p;
      continue;
    }
    unsigned long long bus = 0;
    if (!examples::parse_u64(token.c_str(), 1, 1000000, bus)) return false;
    buses.push_back(static_cast<std::size_t>(bus - 1));
    token.clear();
    if (*p == '\0') break;
  }
  out = std::move(buses);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  grid::ComposeOptions options;
  std::string case_name;
  std::string out_path;

  examples::Cli cli("case_compose",
                    {"[--copies N] [--seed S] [--ties T]",
                     "[--tie-reactance X] [--tie-limit MW] [--ring 0|1]",
                     "[--load-jitter J] [--gen-jitter J] [--cost-jitter J]",
                     "[--boundary B1,B2,...] [--name NAME] [--out FILE]",
                     "<case>"});
  cli.note("  composes N jittered copies of <case> joined by tie lines;");
  cli.note("  MATPOWER text goes to --out (with a summary on stdout) or");
  cli.note("  to stdout. Boundary buses are 1-based base-case numbers.");
  cli.flag_u64("--copies", 1, 1000,
               [&](unsigned long long v) { options.copies = v; });
  cli.flag_u64("--seed", 0, ~0ULL,
               [&](unsigned long long v) { options.seed = v; });
  cli.flag_u64("--ties", 1, 64,
               [&](unsigned long long v) { options.ties_per_interface = v; });
  cli.flag_u64("--ring", 0, 1,
               [&](unsigned long long v) { options.ring = v != 0; });
  cli.flag_value("--tie-reactance", [&](const char* raw) {
    return examples::parse_double(raw, 1e-9, 1e3, options.tie_reactance);
  });
  cli.flag_value("--tie-limit", [&](const char* raw) {
    return examples::parse_double(raw, 0.0, 1e9, options.tie_limit_mw);
  });
  cli.flag_value("--load-jitter", [&](const char* raw) {
    return examples::parse_double(raw, 0.0, 0.999, options.load_jitter);
  });
  cli.flag_value("--gen-jitter", [&](const char* raw) {
    return examples::parse_double(raw, 0.0, 0.999, options.gen_jitter);
  });
  cli.flag_value("--cost-jitter", [&](const char* raw) {
    return examples::parse_double(raw, 0.0, 0.999, options.cost_jitter);
  });
  cli.flag_value("--boundary", [&](const char* raw) {
    return parse_boundary(raw, options.boundary_buses);
  });
  cli.flag_str("--name", [&](const std::string& v) { options.name = v; });
  cli.flag_str("--out", [&](const std::string& v) { out_path = v; });
  cli.positional([&](const std::string& arg) {
    if (!case_name.empty() || !io::CaseRegistry::global().knows(arg))
      return false;
    case_name = arg;
    return true;
  });
  if (!cli.parse(argc, argv)) return 2;
  if (case_name.empty()) return cli.usage();

  try {
    const grid::PowerSystem base = io::load_case(case_name);
    const grid::ComposeResult composed = grid::compose_cases(base, options);
    const std::string text = io::write_matpower(composed.system);

    if (out_path.empty()) {
      std::fputs(text.c_str(), stdout);
      return 0;
    }
    std::ofstream out(out_path, std::ios::binary);
    out << text;
    if (!out.flush()) {
      std::fprintf(stderr, "case_compose: cannot write '%s'\n",
                   out_path.c_str());
      return 1;
    }
    std::printf(
        "%s: %zu x %s -> %zu buses %zu branches %zu gens "
        "(%zu ties, %zu boundary buses, seed %llu) -> %s\n",
        composed.system.name().c_str(), composed.copies, base.name().c_str(),
        composed.system.num_buses(), composed.system.num_branches(),
        composed.system.num_generators(), composed.tie_branches.size(),
        composed.boundary_buses.size(),
        static_cast<unsigned long long>(options.seed), out_path.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "case_compose: %s\n", e.what());
    return 1;
  }
}
