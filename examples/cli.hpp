#pragma once

// Shared command-line front end for the example binaries.
//
// Every example speaks the same argv dialect — `--flag VALUE` options in
// any position, bare positionals, `usage` on stderr, exit code 2 for any
// bad invocation (the contract the CI negative-argv checks assert) — but
// each binary used to hand-roll its own parse loop, usage printf, and
// integer validator. This header centralizes the dialect:
//
//  * `Cli` — a small declarative parser: register flags (with bounds),
//    the standard `--threads` option, and a positional handler, then
//    `parse()`. Any violation prints one uniformly formatted usage block
//    (synopsis, alternative invocations, the case-registry footer, notes)
//    and the caller returns 2.
//  * `parse_u64` / `parse_double` — the strict bounded integer and
//    finite-double validators formerly duplicated across binaries.
//
// The usage text is stderr-only, so the CI transcript diffs (stdout
// byte-identical across --threads values) are unaffected.

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "example_util.hpp"
#include "io/case_registry.hpp"

namespace mtdgrid::examples {

/// Strict bounded base-10 parse: accepts exactly one non-empty run of
/// decimal digits whose value lies in [lo, hi]; returns false (out
/// untouched) otherwise. Signs and whitespace are rejected: `strtoull`
/// alone would skip leading blanks and read "-1" as 2^64 - 1.
inline bool parse_u64(const char* arg, unsigned long long lo,
                      unsigned long long hi, unsigned long long& out) {
  if (arg == nullptr || *arg == '\0') return false;
  for (const char* c = arg; *c != '\0'; ++c)
    if (*c < '0' || *c > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(arg, &end, 10);
  if (errno != 0 || end == arg || *end != '\0' || v < lo || v > hi)
    return false;
  out = v;
  return true;
}

/// Strict bounded double parse: accepts exactly one finite decimal number
/// in [lo, hi] with no trailing characters; returns false (out untouched)
/// otherwise. NaN and infinities are rejected whatever the bounds.
inline bool parse_double(const char* arg, double lo, double hi,
                         double& out) {
  if (arg == nullptr || *arg == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(arg, &end);
  if (errno != 0 || end == arg || *end != '\0' || !std::isfinite(v) ||
      v < lo || v > hi)
    return false;
  out = v;
  return true;
}

/// Declarative argv parser with the example binaries' shared conventions.
///
/// Flags may appear anywhere in argv and always take one value argument;
/// anything else starting with '-' is rejected; everything else goes to
/// the positional handler (rejected if none is registered or it returns
/// false). `parse()` prints the usage block on the first violation.
class Cli {
 public:
  /// `synopsis` lines describe one invocation: the first is printed as
  /// "usage: <prog> <line>", the rest as aligned continuations.
  Cli(const char* prog, std::vector<std::string> synopsis)
      : prog_(prog), synopsis_(std::move(synopsis)) {}

  /// Adds an alternative invocation, printed as "       <prog> <line>".
  void alternative(std::string line) {
    alternatives_.push_back(std::move(line));
  }

  /// Appends a free-form line under the cases footer (indent it yourself).
  void note(std::string line) { notes_.push_back(std::move(line)); }

  /// Registers `--name` taking an integer in [lo, hi]; `apply` receives
  /// the validated value.
  void flag_u64(std::string name, unsigned long long lo,
                unsigned long long hi,
                std::function<void(unsigned long long)> apply) {
    flags_.emplace_back(
        std::move(name),
        [lo, hi, apply = std::move(apply)](const char* raw) {
          unsigned long long value = 0;
          if (!parse_u64(raw, lo, hi, value)) return false;
          apply(value);
          return true;
        });
  }

  /// Registers `--name` with a raw-value handler (return false to reject
  /// the invocation).
  void flag_value(std::string name, std::function<bool(const char*)> apply) {
    flags_.emplace_back(std::move(name), std::move(apply));
  }

  /// Registers `--name` taking a non-empty string value (an empty value
  /// rejects the invocation like any other flag violation).
  void flag_str(std::string name,
                std::function<void(const std::string&)> apply) {
    flags_.emplace_back(std::move(name),
                        [apply = std::move(apply)](const char* raw) {
                          if (raw == nullptr || *raw == '\0') return false;
                          apply(raw);
                          return true;
                        });
  }

  /// The standard `--threads N` option: sizes the global worker pool
  /// (identical bounds and semantics in every binary; see
  /// example_util.hpp).
  void flag_threads() {
    flag_value("--threads",
               [](const char* raw) { return apply_threads_arg(raw); });
  }

  /// Handler for bare (non-flag) arguments, called in argv order.
  void positional(std::function<bool(const std::string&)> apply) {
    positional_ = std::move(apply);
  }

  /// Prints the uniform usage block to stderr and returns 2, the shared
  /// bad-argv exit code.
  int usage() const {
    std::string text = "usage: " + std::string(prog_);
    const std::string continuation(text.size(), ' ');
    for (std::size_t i = 0; i < synopsis_.size(); ++i)
      text += (i == 0 ? " " + synopsis_[i] : "\n" + continuation + " " +
                                                 synopsis_[i]);
    for (const std::string& alt : alternatives_)
      text += "\n       " + std::string(prog_) + " " + alt;
    text += "\ncases: " +
            io::CaseRegistry::global().joined_names("|") +
            " (or a path to a MATPOWER .m file)";
    for (const std::string& line : notes_) text += "\n" + line;
    std::fprintf(stderr, "%s\n", text.c_str());
    return 2;
  }

  /// Parses argv. Returns true on success; on any violation prints the
  /// usage block and returns false (the caller then exits 2).
  bool parse(int argc, char** argv) const {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto flag = std::find_if(
          flags_.begin(), flags_.end(),
          [&](const auto& f) { return f.first == arg; });
      if (flag != flags_.end()) {
        if (++i >= argc || !flag->second(argv[i])) return fail();
        continue;
      }
      if (!arg.empty() && arg[0] == '-') return fail();
      if (!positional_ || !positional_(arg)) return fail();
    }
    return true;
  }

 private:
  bool fail() const {
    usage();
    return false;
  }

  const char* prog_;
  std::vector<std::string> synopsis_;
  std::vector<std::string> alternatives_;
  std::vector<std::string> notes_;
  std::vector<std::pair<std::string, std::function<bool(const char*)>>>
      flags_;
  std::function<bool(const std::string&)> positional_;
};

}  // namespace mtdgrid::examples
