#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "grid/power_system.hpp"

namespace mtdgrid::io {

/// MATPOWER `.m` caseformat I/O.
///
/// The parser understands the subset of the caseformat that the DC model
/// needs — `function mpc = <name>`, `mpc.baseMVA`, and the `mpc.bus`,
/// `mpc.branch`, `mpc.gen`, `mpc.gencost` matrices — plus one repo
/// extension, `mpc.dfacts`, that records which branches carry D-FACTS
/// devices (the stock format has no column for that). `%` comments,
/// `;`-separated rows, multi-line matrices, and unknown `mpc.*` scalar
/// fields are all accepted; every diagnostic carries the 1-based source
/// line it points at. See DESIGN.md "Case file formats" for the column
/// conventions and the per-unit rules.

/// One `mpc.<name> = [ ... ];` matrix, with per-row source lines so the
/// PowerSystem builder can report validation errors at the offending row.
struct MatpowerMatrix {
  std::string name;                      ///< field name after `mpc.`
  int open_line = 0;                     ///< line of `mpc.<name> = [`
  std::vector<std::vector<double>> rows;  ///< numeric rows, file order
  std::vector<int> row_lines;            ///< source line of each row
};

/// In-memory form of a parsed case file.
struct MatpowerCase {
  std::string name;        ///< from `function mpc = <name>` ("" if absent)
  double base_mva = 0.0;   ///< MVA base; valid only when `has_base_mva`
  bool has_base_mva = false;              ///< `mpc.baseMVA` was present
  int base_mva_line = 0;                  ///< source line of `mpc.baseMVA`
  std::vector<MatpowerMatrix> matrices;   ///< every `mpc.<name> = [...]`

  /// The matrix named `field`, or nullptr when the file does not have it.
  const MatpowerMatrix* find(std::string_view field) const;
};

/// A parse/validation diagnostic: 1-based source line plus message. Line 0
/// means the problem is not tied to a specific line (e.g. a missing field).
struct ParseError {
  int line = 0;          ///< 1-based source line (0: not line-specific)
  std::string message;   ///< human-readable description

  /// "line N: message" (or just the message when line == 0).
  std::string to_string() const;
};

/// Parses MATPOWER caseformat text. Returns the structured case, or
/// std::nullopt with `*error` filled in (never throws on malformed input).
std::optional<MatpowerCase> parse_matpower(std::string_view text,
                                           ParseError* error);

/// Converts a parsed case into a validated PowerSystem:
///  * bus ids are mapped to 0-based indices in file order; the REF-type
///    bus must be the first row (the PowerSystem slack convention);
///  * out-of-service branches/generators (status column 0) are dropped;
///  * parallel circuits are kept as distinct branches — the DC model sums
///    their susceptances (case57's 4-18 and 24-25 pairs rely on this);
///  * branch reactance is per-unit on `baseMVA`; an off-nominal tap a > 0
///    is folded into the DC reactance as x_eff = a * x;
///  * RATE_A == 0 ("unlimited" in MATPOWER) becomes `kUnlimitedFlowMw`;
///  * generator cost is the linear coefficient of a polynomial gencost
///    row (quadratic terms are linearized at the dispatch midpoint).
/// Returns std::nullopt with `*error` pointing at the offending row when
/// the case is malformed (unknown bus id, zero reactance, ragged gencost,
/// piecewise-linear costs, ...).
std::optional<grid::PowerSystem> to_power_system(const MatpowerCase& mpc,
                                                 ParseError* error);

/// Flow limit used for RATE_A == 0 branches; large enough to never bind.
inline constexpr double kUnlimitedFlowMw = 1e6;

/// Serializes a PowerSystem as MATPOWER caseformat text (including the
/// `mpc.dfacts` extension). Numbers are printed with shortest-round-trip
/// precision, so parse(write(sys)) reproduces `sys` to machine precision;
/// that property is what the round-trip tests pin down.
std::string write_matpower(const grid::PowerSystem& sys);

}  // namespace mtdgrid::io
