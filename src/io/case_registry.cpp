#include "io/case_registry.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>

#include "grid/compose.hpp"
#include "io/matpower.hpp"

#ifndef MTDGRID_DATA_DIR
#define MTDGRID_DATA_DIR "data"
#endif

namespace mtdgrid::io {

namespace {

bool looks_like_path(const std::string& s) {
  return s.find('/') != std::string::npos ||
         (s.size() > 2 && s.compare(s.size() - 2, 2, ".m") == 0);
}

std::string read_file(const std::string& path) {
  errno = 0;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    // Carry the attempted path *and* the OS reason — "cannot open file"
    // alone made misspelled paths vs. permission problems look alike.
    std::string why = "cannot open file";
    if (errno != 0) why += std::string(" (") + std::strerror(errno) + ")";
    throw CaseIoError(path + ": " + why);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Composed-case grammar "<base>x<N>": base case name (or alias) followed
// by a literal 'x' and a copy count >= 2, e.g. "case118x9". Returns the
// (base, copies) split when the name has that shape; whether `base` names
// a registered case is the caller's check. The split is anchored at the
// LAST 'x' so base names containing 'x' would still parse; composed bases
// ("case14x2x2") are rejected by the caller's non-composed-base rule.
struct ComposedName {
  std::string base;
  std::size_t copies;
};

std::optional<ComposedName> parse_composed(const std::string& name) {
  const std::size_t x = name.rfind('x');
  if (x == std::string::npos || x == 0 || x + 1 >= name.size())
    return std::nullopt;
  std::size_t copies = 0;
  for (std::size_t i = x + 1; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    copies = copies * 10 + static_cast<std::size_t>(name[i] - '0');
    if (copies > 1000) return std::nullopt;  // reject absurd tilings
  }
  if (copies < 2) return std::nullopt;
  return ComposedName{name.substr(0, x), copies};
}

}  // namespace

const CaseRegistry& CaseRegistry::global() {
  static const CaseRegistry registry = [] {
    CaseRegistry r;
    r.entries_ = {
        {"case4", {"case4gs"}, "case4.m",
         "paper Section IV-B worked example (Grainger & Stevenson)"},
        {"wscc9", {"case9"}, "wscc9.m", "WSCC 9-bus system"},
        {"case14", {"ieee14"}, "case14.m",
         "IEEE 14-bus, paper Section VII-A settings"},
        {"ieee30", {"case30"}, "ieee30.m", "IEEE 30-bus system"},
        {"case57", {"ieee57"}, "case57.m",
         "IEEE 57-bus (MATPOWER case57 topology)"},
        {"case118", {"ieee118"}, "case118.m",
         "IEEE 118-bus system, linearized merit-order costs"},
        {"case300", {"ieee300"}, "case300.m",
         "300-bus large-scale scenario (slow; see data/case300.m header)"},
        // Composed mega-grids (no file): synthesized on load by
        // grid::compose_cases from the base entry under the default
        // composition options — any "<base>xN" name works; these two are
        // the bundled scenarios the slow tests and benches pin.
        {"case118x9", {}, "",
         "9 tiled IEEE 118-bus copies, 1062 buses (composed; slow)"},
        {"case300x17", {}, "",
         "17 tiled 300-bus copies, 5100 buses (composed; slow)"},
    };
    return r;
  }();
  return registry;
}

std::vector<std::string> CaseRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const CaseEntry& e : entries_) out.push_back(e.name);
  return out;
}

std::string CaseRegistry::joined_names(const std::string& sep) const {
  std::string out;
  for (const CaseEntry& e : entries_)
    out += (out.empty() ? "" : sep) + e.name;
  return out;
}

std::string CaseRegistry::joined_names_with_aliases(
    const std::string& sep) const {
  std::string out;
  for (const CaseEntry& e : entries_) {
    out += (out.empty() ? "" : sep) + e.name;
    if (e.aliases.empty()) continue;
    out += " (";
    for (std::size_t i = 0; i < e.aliases.size(); ++i)
      out += (i == 0 ? "" : ", ") + e.aliases[i];
    out += ")";
  }
  return out;
}

std::string CaseRegistry::data_dir() const {
  if (const char* env = std::getenv("MTDGRID_DATA_DIR"))
    if (*env != '\0') return env;
  return MTDGRID_DATA_DIR;
}

bool CaseRegistry::knows(const std::string& name_or_path) const {
  if (looks_like_path(name_or_path)) return true;
  for (const CaseEntry& e : entries_) {
    if (e.name == name_or_path) return true;
    for (const std::string& alias : e.aliases)
      if (alias == name_or_path) return true;
  }
  // Composed grammar: "<base>xN" for any registered non-composed base.
  if (const auto composed = parse_composed(name_or_path)) {
    for (const CaseEntry& e : entries_) {
      if (!e.file.empty()) {
        if (e.name == composed->base) return true;
        for (const std::string& alias : e.aliases)
          if (alias == composed->base) return true;
      }
    }
  }
  return false;
}

grid::PowerSystem CaseRegistry::load_file(const std::string& path) const {
  const std::string text = read_file(path);
  ParseError error;
  std::optional<MatpowerCase> mpc = parse_matpower(text, &error);
  if (!mpc) throw CaseIoError(path + ": " + error.to_string());
  std::optional<grid::PowerSystem> sys = to_power_system(*mpc, &error);
  if (!sys) throw CaseIoError(path + ": " + error.to_string());
  return std::move(*sys);
}

grid::PowerSystem CaseRegistry::load(const std::string& name_or_path) const {
  if (looks_like_path(name_or_path)) return load_file(name_or_path);
  for (const CaseEntry& e : entries_) {
    bool match = e.name == name_or_path;
    for (const std::string& alias : e.aliases)
      match = match || alias == name_or_path;
    if (!match) continue;
    if (!e.file.empty()) return load_file(data_dir() + "/" + e.file);
    break;  // a composed entry: fall through to the grammar below
  }
  // Composed grammar "<base>xN": synthesize from the base case under the
  // default composition options. Deterministic — the name alone pins the
  // network (grid::kDefaultComposeSeed), so "case118x9" means the same
  // 1062-bus system in every test, bench, and daemon.
  if (const auto composed = parse_composed(name_or_path)) {
    for (const CaseEntry& e : entries_) {
      if (e.file.empty()) continue;
      bool match = e.name == composed->base;
      for (const std::string& alias : e.aliases)
        match = match || alias == composed->base;
      if (!match) continue;
      grid::ComposeOptions options;
      options.copies = composed->copies;
      // Canonical composed name even when the base file's internal name
      // differs (case14.m says "ieee14") or an alias was used.
      options.name = e.name + "x" + std::to_string(composed->copies);
      return grid::compose_cases(load(e.name), options).system;
    }
  }
  throw CaseIoError("unknown case '" + name_or_path + "' (known: " +
                    joined_names_with_aliases(", ") +
                    ", a composed '<case>xN' name, or a path to a .m file)");
}

grid::PowerSystem load_case(const std::string& name_or_path) {
  return CaseRegistry::global().load(name_or_path);
}

}  // namespace mtdgrid::io
