#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "grid/power_system.hpp"

namespace mtdgrid::io {

/// Thrown by the registry-level loaders. `what()` carries the file path
/// and (when known) the 1-based source line of the diagnostic, e.g.
/// "data/case118.m: line 42: mpc.branch: from bus 999 is not in mpc.bus".
class CaseIoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One registered scenario. Every bundled case is a MATPOWER file that
/// resolves against the data directory; an entry without a file is a
/// composed "<base>xN" scenario synthesized on load.
struct CaseEntry {
  std::string name;                  ///< canonical name ("case118")
  std::vector<std::string> aliases;  ///< accepted synonyms ("ieee118")
  std::string file;                  ///< "<file>.m", or "" when composed
  std::string description;           ///< one-liner for usage messages
};

/// Name-based access to every bundled scenario: the single entry point for
/// tests, benches, and examples. Cases are parsed from `data/` through the
/// MATPOWER loader on every call — a PowerSystem is mutable (loads,
/// reactances), so callers get a fresh one.
class CaseRegistry {
 public:
  /// The process-wide registry with every bundled case registered.
  static const CaseRegistry& global();

  /// Registered entries, in display order (small to large).
  const std::vector<CaseEntry>& entries() const { return entries_; }

  /// Canonical names, for usage/help output.
  std::vector<std::string> names() const;

  /// Canonical names joined with `sep` ("case4|wscc9|..."), for usage
  /// strings and error messages.
  std::string joined_names(const std::string& sep) const;

  /// Canonical names with their aliases in parentheses, joined with `sep`:
  /// "case4 (case4gs), wscc9 (case9), ...". Used by the unknown-case
  /// diagnostic so a near-miss (e.g. "ieee-118") shows every accepted
  /// spelling.
  std::string joined_names_with_aliases(const std::string& sep) const;

  /// True when `name_or_path` resolves to an entry or names a `.m` file.
  bool knows(const std::string& name_or_path) const;

  /// Loads a case by canonical name, alias, or — when the argument looks
  /// like a path (contains '/' or ends in ".m") — directly from a MATPOWER
  /// file. Throws CaseIoError with a file:line diagnostic on failure.
  grid::PowerSystem load(const std::string& name_or_path) const;

  /// Loads a MATPOWER `.m` file, bypassing name lookup.
  grid::PowerSystem load_file(const std::string& path) const;

  /// The directory bundled case files resolve against: the
  /// MTDGRID_DATA_DIR environment variable when set, otherwise the
  /// compile-time default (the repo's `data/` directory).
  std::string data_dir() const;

 private:
  std::vector<CaseEntry> entries_;
};

/// Convenience wrapper around `CaseRegistry::global().load(...)`.
grid::PowerSystem load_case(const std::string& name_or_path);

}  // namespace mtdgrid::io
