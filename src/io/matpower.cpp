#include "io/matpower.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace mtdgrid::io {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())))
    s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())))
    s.remove_suffix(1);
  return s;
}

bool fail(ParseError* error, int line, std::string message) {
  if (error) {
    error->line = line;
    error->message = std::move(message);
  }
  return false;
}

/// Parses one whitespace/comma-delimited numeric token; the whole token
/// must be consumed (so "1.2.3" and "4x" are malformed, not truncated).
bool parse_double(std::string_view token, double* out) {
  const std::string owned(token);
  const char* begin = owned.c_str();
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(begin, &end);
  if (end == begin || *end != '\0' || errno == ERANGE) return false;
  *out = value;
  return true;
}

/// Appends the rows contained in `segment` (data text with no '[' / ']')
/// to `matrix`. Rows are separated by ';' (or the end of the line — the
/// caseformat terminates every row with one or the other); tokens by
/// spaces or commas.
bool append_rows(MatpowerMatrix& matrix, std::string_view segment, int line,
                 ParseError* error) {
  std::size_t start = 0;
  std::vector<std::string_view> row_texts;
  while (start <= segment.size()) {
    const std::size_t semi = segment.find(';', start);
    if (semi == std::string_view::npos) {
      row_texts.push_back(segment.substr(start));
      break;
    }
    row_texts.push_back(segment.substr(start, semi - start));
    start = semi + 1;
  }
  for (std::size_t r = 0; r < row_texts.size(); ++r) {
    std::string_view row_text = trim(row_texts[r]);
    if (row_text.empty()) continue;
    std::vector<double> row;
    std::size_t pos = 0;
    while (pos < row_text.size()) {
      while (pos < row_text.size() &&
             (std::isspace(static_cast<unsigned char>(row_text[pos])) ||
              row_text[pos] == ','))
        ++pos;
      if (pos >= row_text.size()) break;
      std::size_t end = pos;
      while (end < row_text.size() &&
             !std::isspace(static_cast<unsigned char>(row_text[end])) &&
             row_text[end] != ',')
        ++end;
      const std::string_view token = row_text.substr(pos, end - pos);
      double value = 0.0;
      if (!parse_double(token, &value))
        return fail(error, line,
                    "mpc." + matrix.name + ": malformed numeric token '" +
                        std::string(token) + "'");
      row.push_back(value);
      pos = end;
    }
    if (row.empty()) continue;
    matrix.rows.push_back(std::move(row));
    matrix.row_lines.push_back(line);
  }
  return true;
}

/// Rectangularity check, run when a matrix closes. Empty matrices are
/// legal at parse level (`mpc.dfacts = [];`); the builder decides which
/// matrices must be non-empty.
bool check_rectangular(const MatpowerMatrix& matrix, ParseError* error) {
  if (matrix.rows.empty()) return true;
  const std::size_t width = matrix.rows.front().size();
  for (std::size_t r = 1; r < matrix.rows.size(); ++r) {
    if (matrix.rows[r].size() != width)
      return fail(error, matrix.row_lines[r],
                  "mpc." + matrix.name + ": row has " +
                      std::to_string(matrix.rows[r].size()) +
                      " columns, expected " + std::to_string(width));
  }
  return true;
}

bool near_integer(double v, long long* out) {
  // The range guard matters: casting a double outside long long's range
  // is undefined behavior (aborts under -fsanitize=undefined), and bus
  // ids come straight from untrusted files.
  if (!(std::abs(v) < 9.0e18)) return false;
  const double rounded = std::round(v);
  if (std::abs(v - rounded) > 1e-9) return false;
  *out = static_cast<long long>(rounded);
  return true;
}

/// Shortest decimal representation that parses back to exactly `v`.
std::string format_double(double v) {
  char buf[40];
  for (int precision : {15, 16, 17}) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    double back = 0.0;
    if (parse_double(buf, &back) && back == v) return buf;
  }
  return buf;
}

// MATPOWER column indices (0-based) used by the DC builder.
constexpr std::size_t kBusId = 0, kBusType = 1, kBusPd = 2;
constexpr std::size_t kBrFrom = 0, kBrTo = 1, kBrX = 3, kBrRateA = 5,
                      kBrTap = 8, kBrStatus = 10;
constexpr std::size_t kGenBus = 0, kGenStatus = 7, kGenPmax = 8,
                      kGenPmin = 9;
constexpr std::size_t kCostModel = 0, kCostN = 3, kCostCoeff = 4;

}  // namespace

const MatpowerMatrix* MatpowerCase::find(std::string_view field) const {
  for (const MatpowerMatrix& m : matrices)
    if (m.name == field) return &m;
  return nullptr;
}

std::string ParseError::to_string() const {
  if (line <= 0) return message;
  return "line " + std::to_string(line) + ": " + message;
}

std::optional<MatpowerCase> parse_matpower(std::string_view text,
                                           ParseError* error) {
  MatpowerCase mpc;
  MatpowerMatrix* open = nullptr;  // matrix currently being filled

  int line_no = 0;
  std::size_t cursor = 0;
  while (cursor <= text.size()) {
    const std::size_t newline = text.find('\n', cursor);
    std::string_view line = text.substr(
        cursor, newline == std::string_view::npos ? std::string_view::npos
                                                  : newline - cursor);
    cursor = newline == std::string_view::npos ? text.size() + 1 : newline + 1;
    ++line_no;

    // Strip % comments (the caseformat has no '%' inside data).
    const std::size_t comment = line.find('%');
    if (comment != std::string_view::npos) line = line.substr(0, comment);
    line = trim(line);
    if (line.empty()) continue;

    if (open != nullptr) {
      const std::size_t close = line.find(']');
      const std::string_view data =
          close == std::string_view::npos ? line : line.substr(0, close);
      if (!append_rows(*open, data, line_no, error)) return std::nullopt;
      if (close != std::string_view::npos) {
        const std::string_view rest = trim(line.substr(close + 1));
        if (!rest.empty() && rest != ";") {
          fail(error, line_no,
               "mpc." + open->name + ": unexpected text after ']'");
          return std::nullopt;
        }
        if (!check_rectangular(*open, error)) return std::nullopt;
        open = nullptr;
      }
      continue;
    }

    if (line.substr(0, 8) == "function") {
      const std::size_t eq = line.find('=');
      if (eq != std::string_view::npos) mpc.name = trim(line.substr(eq + 1));
      continue;
    }
    if (line.substr(0, 4) != "mpc.") continue;  // arbitrary MATLAB code

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      fail(error, line_no, "malformed statement (no '='): '" +
                               std::string(line) + "'");
      return std::nullopt;
    }
    const std::string field(trim(line.substr(4, eq - 4)));
    std::string_view rhs = trim(line.substr(eq + 1));

    if (!rhs.empty() && rhs.front() == '[') {
      if (mpc.find(field) != nullptr) {
        fail(error, line_no, "duplicate matrix mpc." + field);
        return std::nullopt;
      }
      mpc.matrices.push_back(MatpowerMatrix{field, line_no, {}, {}});
      open = &mpc.matrices.back();
      // Data (and possibly the closing bracket) on the same line.
      std::string_view remainder = trim(rhs.substr(1));
      if (!remainder.empty()) {
        const std::size_t close = remainder.find(']');
        const std::string_view data = close == std::string_view::npos
                                          ? remainder
                                          : remainder.substr(0, close);
        if (!append_rows(*open, data, line_no, error)) return std::nullopt;
        if (close != std::string_view::npos) {
          const std::string_view rest = trim(remainder.substr(close + 1));
          if (!rest.empty() && rest != ";") {
            fail(error, line_no,
                 "mpc." + open->name + ": unexpected text after ']'");
            return std::nullopt;
          }
          if (!check_rectangular(*open, error)) return std::nullopt;
          open = nullptr;
        }
      }
      continue;
    }

    if (field == "baseMVA") {
      if (mpc.has_base_mva) {
        fail(error, line_no, "duplicate mpc.baseMVA (first at line " +
                                 std::to_string(mpc.base_mva_line) + ")");
        return std::nullopt;
      }
      if (!rhs.empty() && rhs.back() == ';') rhs = trim(rhs.substr(0, rhs.size() - 1));
      double value = 0.0;
      if (!parse_double(rhs, &value)) {
        fail(error, line_no, "mpc.baseMVA: expected a number, got '" +
                                 std::string(rhs) + "'");
        return std::nullopt;
      }
      mpc.base_mva = value;
      mpc.has_base_mva = true;
      mpc.base_mva_line = line_no;
      continue;
    }
    // Other scalar/string fields (version, names, areas...) are ignored.
  }

  if (open != nullptr) {
    fail(error, open->open_line,
         "mpc." + open->name + ": matrix opened here is never closed with ']'");
    return std::nullopt;
  }
  return mpc;
}

std::optional<grid::PowerSystem> to_power_system(const MatpowerCase& mpc,
                                                 ParseError* error) {
  const auto missing = [&](const char* what) {
    fail(error, 0, std::string("missing ") + what);
    return std::nullopt;
  };
  if (!mpc.has_base_mva) return missing("mpc.baseMVA");
  if (!(mpc.base_mva > 0.0)) {
    fail(error, mpc.base_mva_line, "mpc.baseMVA must be positive");
    return std::nullopt;
  }
  const MatpowerMatrix* bus = mpc.find("bus");
  if (bus == nullptr) return missing("mpc.bus");
  const MatpowerMatrix* branch = mpc.find("branch");
  if (branch == nullptr) return missing("mpc.branch");
  const MatpowerMatrix* gen = mpc.find("gen");
  if (gen == nullptr) return missing("mpc.gen");
  const MatpowerMatrix* gencost = mpc.find("gencost");
  if (gencost == nullptr) return missing("mpc.gencost");
  if (bus->rows.empty()) {
    fail(error, bus->open_line, "mpc.bus is empty");
    return std::nullopt;
  }
  if (branch->rows.empty()) {
    fail(error, branch->open_line, "mpc.branch is empty");
    return std::nullopt;
  }

  // --- buses -------------------------------------------------------------
  std::vector<grid::Bus> buses;
  std::map<long long, std::size_t> bus_index;
  buses.reserve(bus->rows.size());
  for (std::size_t r = 0; r < bus->rows.size(); ++r) {
    const std::vector<double>& row = bus->rows[r];
    const int line = bus->row_lines[r];
    if (row.size() < 3) {
      fail(error, line, "mpc.bus: row needs at least 3 columns "
                        "(bus_i, type, Pd)");
      return std::nullopt;
    }
    long long id = 0;
    if (!near_integer(row[kBusId], &id) || id <= 0) {
      fail(error, line, "mpc.bus: bus id must be a positive integer");
      return std::nullopt;
    }
    if (!bus_index.emplace(id, r).second) {
      fail(error, line, "mpc.bus: duplicate bus id " + std::to_string(id));
      return std::nullopt;
    }
    const long long type = std::llround(row[kBusType]);
    if (type == 3 && r != 0) {
      fail(error, line,
           "mpc.bus: the reference (type 3) bus must be the first bus row "
           "(PowerSystem slack convention)");
      return std::nullopt;
    }
    if (r == 0 && type != 3) {
      fail(error, line, "mpc.bus: the first bus row must be the reference "
                        "(type 3) bus");
      return std::nullopt;
    }
    grid::Bus b;
    b.load_mw = row[kBusPd];
    buses.push_back(b);
  }

  // --- branches ----------------------------------------------------------
  const auto lookup_bus = [&](double raw, int line, const char* which,
                              std::size_t* out) {
    long long id = 0;
    if (!near_integer(raw, &id))
      return fail(error, line, std::string("mpc.branch: ") + which +
                                   " bus id must be an integer");
    const auto it = bus_index.find(id);
    if (it == bus_index.end())
      return fail(error, line, std::string("mpc.branch: ") + which +
                                   " bus " + std::to_string(id) +
                                   " is not in mpc.bus");
    *out = it->second;
    return true;
  };

  std::vector<grid::Branch> branches;
  // mpc.dfacts refers to 1-based mpc.branch rows; map file row -> built
  // branch index (out-of-service rows collapse to "absent").
  std::vector<std::ptrdiff_t> branch_of_row(branch->rows.size(), -1);
  branches.reserve(branch->rows.size());
  for (std::size_t r = 0; r < branch->rows.size(); ++r) {
    const std::vector<double>& row = branch->rows[r];
    const int line = branch->row_lines[r];
    if (row.size() < 4) {
      fail(error, line, "mpc.branch: row needs at least 4 columns "
                        "(fbus, tbus, r, x)");
      return std::nullopt;
    }
    const double status = row.size() > kBrStatus ? row[kBrStatus] : 1.0;
    if (status == 0.0) continue;
    grid::Branch br;
    if (!lookup_bus(row[kBrFrom], line, "from", &br.from)) return std::nullopt;
    if (!lookup_bus(row[kBrTo], line, "to", &br.to)) return std::nullopt;
    if (br.from == br.to) {
      fail(error, line, "mpc.branch: branch connects a bus to itself");
      return std::nullopt;
    }
    const double tap = row.size() > kBrTap ? row[kBrTap] : 0.0;
    br.reactance = row[kBrX] * (tap > 0.0 ? tap : 1.0);
    if (!(br.reactance > 0.0)) {
      fail(error, line,
           "mpc.branch: branch " + std::to_string(r + 1) +
               " has non-positive reactance (the DC model needs x > 0)");
      return std::nullopt;
    }
    const double rate_a = row.size() > kBrRateA ? row[kBrRateA] : 0.0;
    br.flow_limit_mw = rate_a > 0.0 ? rate_a : kUnlimitedFlowMw;
    branch_of_row[r] = static_cast<std::ptrdiff_t>(branches.size());
    branches.push_back(br);
  }

  // --- generators + costs ------------------------------------------------
  if (gencost->rows.size() != gen->rows.size()) {
    fail(error, gencost->open_line,
         "mpc.gencost has " + std::to_string(gencost->rows.size()) +
             " rows but mpc.gen has " + std::to_string(gen->rows.size()));
    return std::nullopt;
  }
  std::vector<grid::Generator> generators;
  generators.reserve(gen->rows.size());
  for (std::size_t r = 0; r < gen->rows.size(); ++r) {
    const std::vector<double>& row = gen->rows[r];
    const int line = gen->row_lines[r];
    if (row.size() < 9) {
      fail(error, line, "mpc.gen: row needs at least 9 columns "
                        "(through Pmax)");
      return std::nullopt;
    }
    const double status = row.size() > kGenStatus ? row[kGenStatus] : 1.0;
    const double pmax = row[kGenPmax];
    if (status <= 0.0 || pmax <= 0.0) continue;  // offline or condenser

    grid::Generator g;
    long long id = 0;
    if (!near_integer(row[kGenBus], &id) ||
        bus_index.find(id) == bus_index.end()) {
      fail(error, line, "mpc.gen: generator bus " +
                            std::to_string(static_cast<long long>(
                                row[kGenBus])) +
                            " is not in mpc.bus");
      return std::nullopt;
    }
    g.bus = bus_index.at(id);
    g.max_mw = pmax;
    // Negative Pmin (pumped storage) is clamped: the paper's dispatch model
    // has no negative generation.
    g.min_mw = std::max(0.0, row.size() > kGenPmin ? row[kGenPmin] : 0.0);
    if (g.min_mw > g.max_mw) {
      fail(error, line, "mpc.gen: Pmin exceeds Pmax");
      return std::nullopt;
    }

    const std::vector<double>& cost = gencost->rows[r];
    const int cost_line = gencost->row_lines[r];
    if (cost.size() < 4) {
      fail(error, cost_line, "mpc.gencost: row needs at least 4 columns");
      return std::nullopt;
    }
    const long long model = std::llround(cost[kCostModel]);
    if (model != 2) {
      fail(error, cost_line,
           "mpc.gencost: only polynomial cost rows (model 2) are supported; "
           "linearize piecewise-linear costs first");
      return std::nullopt;
    }
    long long n = 0;
    if (!near_integer(cost[kCostN], &n) || n < 1) {
      fail(error, cost_line, "mpc.gencost: invalid coefficient count");
      return std::nullopt;
    }
    if (cost.size() < kCostCoeff + static_cast<std::size_t>(n)) {
      fail(error, cost_line,
           "mpc.gencost: row declares " + std::to_string(n) +
               " coefficients but has only " +
               std::to_string(cost.size() - kCostCoeff));
      return std::nullopt;
    }
    if (n > 3) {
      fail(error, cost_line,
           "mpc.gencost: polynomial degree > 2 is not supported by the "
           "linear-cost dispatch model");
      return std::nullopt;
    }
    // Coefficients are highest-degree first. Degree-2 costs are linearized
    // at the dispatch midpoint: d/dP (c2 P^2 + c1 P) at (Pmin+Pmax)/2.
    double linear = 0.0;
    if (n == 2) {
      linear = cost[kCostCoeff];
    } else if (n == 3) {
      linear = cost[kCostCoeff + 1] +
               cost[kCostCoeff] * (g.min_mw + g.max_mw);
    }
    g.cost_per_mwh = linear;
    generators.push_back(g);
  }

  // --- D-FACTS extension -------------------------------------------------
  if (const MatpowerMatrix* dfacts = mpc.find("dfacts")) {
    for (std::size_t r = 0; r < dfacts->rows.size(); ++r) {
      const std::vector<double>& row = dfacts->rows[r];
      const int line = dfacts->row_lines[r];
      if (row.size() != 2 && row.size() != 3) {
        fail(error, line,
             "mpc.dfacts: row must be [branch eta_max] or "
             "[branch min_factor max_factor]");
        return std::nullopt;
      }
      long long idx = 0;
      if (!near_integer(row[0], &idx) || idx < 1 ||
          static_cast<std::size_t>(idx) > branch_of_row.size()) {
        fail(error, line, "mpc.dfacts: branch index out of range");
        return std::nullopt;
      }
      const std::ptrdiff_t built = branch_of_row[idx - 1];
      if (built < 0) {
        fail(error, line,
             "mpc.dfacts: branch " + std::to_string(idx) +
                 " is out of service");
        return std::nullopt;
      }
      grid::Branch& br = branches[static_cast<std::size_t>(built)];
      double lo = 0.0, hi = 0.0;
      if (row.size() == 2) {
        const double eta = row[1];
        if (!(eta > 0.0 && eta < 1.0)) {
          fail(error, line, "mpc.dfacts: eta_max must be in (0, 1)");
          return std::nullopt;
        }
        lo = 1.0 - eta;
        hi = 1.0 + eta;
      } else {
        lo = row[1];
        hi = row[2];
        if (!(lo > 0.0 && lo <= hi)) {
          fail(error, line,
               "mpc.dfacts: need 0 < min_factor <= max_factor");
          return std::nullopt;
        }
      }
      br.has_dfacts = true;
      br.dfacts_min_factor = lo;
      br.dfacts_max_factor = hi;
    }
  }

  try {
    return grid::PowerSystem(mpc.name.empty() ? "case" : mpc.name,
                             std::move(buses), std::move(branches),
                             std::move(generators), mpc.base_mva);
  } catch (const std::invalid_argument& e) {
    // Structural validation failures (e.g. a disconnected network) are not
    // tied to one row; point at the branch matrix.
    fail(error, branch->open_line, std::string("invalid case: ") + e.what());
    return std::nullopt;
  }
}

std::string write_matpower(const grid::PowerSystem& sys) {
  std::ostringstream out;
  const auto f = [](double v) { return format_double(v); };

  std::vector<bool> has_gen(sys.num_buses(), false);
  for (const grid::Generator& g : sys.generators()) has_gen[g.bus] = true;

  out << "function mpc = " << sys.name() << "\n";
  out << "% MATPOWER caseformat written by mtdgrid io::write_matpower.\n";
  out << "% Round-trips the PowerSystem exactly (shortest-round-trip "
         "number format).\n";
  out << "mpc.version = '2';\n\n";
  out << "mpc.baseMVA = " << f(sys.base_mva()) << ";\n\n";

  out << "%% bus data: bus_i type Pd Qd Gs Bs area Vm Va baseKV zone "
         "Vmax Vmin\n";
  out << "mpc.bus = [\n";
  for (std::size_t i = 0; i < sys.num_buses(); ++i) {
    const int type = i == sys.slack_bus() ? 3 : (has_gen[i] ? 2 : 1);
    out << "\t" << i + 1 << "\t" << type << "\t" << f(sys.bus(i).load_mw)
        << "\t0\t0\t0\t1\t1\t0\t0\t1\t1.06\t0.94;\n";
  }
  out << "];\n\n";

  out << "%% generator data: bus Pg Qg Qmax Qmin Vg mBase status Pmax "
         "Pmin\n";
  out << "mpc.gen = [\n";
  for (const grid::Generator& g : sys.generators()) {
    out << "\t" << g.bus + 1 << "\t0\t0\t0\t0\t1\t" << f(sys.base_mva())
        << "\t1\t" << f(g.max_mw) << "\t" << f(g.min_mw) << ";\n";
  }
  out << "];\n\n";

  out << "%% generator cost data: model startup shutdown n c1 c0\n";
  out << "mpc.gencost = [\n";
  for (const grid::Generator& g : sys.generators())
    out << "\t2\t0\t0\t2\t" << f(g.cost_per_mwh) << "\t0;\n";
  out << "];\n\n";

  out << "%% branch data: fbus tbus r x b rateA rateB rateC ratio angle "
         "status\n";
  out << "mpc.branch = [\n";
  for (const grid::Branch& br : sys.branches()) {
    // Only the exact sentinel maps back to RATE_A = 0; any other limit —
    // even one above the sentinel — is written literally so the
    // round-trip stays value-preserving.
    const double rate_a =
        br.flow_limit_mw == kUnlimitedFlowMw ? 0.0 : br.flow_limit_mw;
    out << "\t" << br.from + 1 << "\t" << br.to + 1 << "\t0\t"
        << f(br.reactance) << "\t0\t" << f(rate_a) << "\t0\t0\t0\t0\t1;\n";
  }
  out << "];\n\n";

  out << "%% mtdgrid extension: D-FACTS devices as\n";
  out << "%% [branch_row min_factor max_factor] (1-based mpc.branch "
         "rows)\n";
  out << "mpc.dfacts = [\n";
  for (std::size_t l = 0; l < sys.num_branches(); ++l) {
    const grid::Branch& br = sys.branch(l);
    if (!br.has_dfacts) continue;
    out << "\t" << l + 1 << "\t" << f(br.dfacts_min_factor) << "\t"
        << f(br.dfacts_max_factor) << ";\n";
  }
  out << "];\n";
  return out.str();
}

}  // namespace mtdgrid::io
