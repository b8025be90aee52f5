// Shared flag parsing for every CLI tool and bench.
//
// Every flag is one `Flag` row: its name, its argument, its help text and
// a setter. `parse_flags` walks argv against a tool's rows and `usage`
// prints them, so a flag is defined in exactly one place and --help can
// never disagree with what the parser accepts.
//
// Scenario rows — the flags that name a point of the paper's scenario grid
// (`--protocol`, `--n`, `--dist`, `--faults`, ...) — are defined once in
// `scenario_flags` and picked by name by each tool that takes them; they
// also carry a formatter back to text, which is how `sim_command` prints a
// config as a turquois_sim invocation that replays it.
//
// Durations: one grammar for `--tick`, `--timeout`, `--mux-window`, soak
// durations and friends — an optional-fraction decimal number plus an
// optional unit suffix (ns / us / ms / s / m / h). A bare number takes the
// flag's historical unit via `default_unit`, so "--timeout 120" still
// means seconds and "--tick 10" still means milliseconds, while
// "--timeout 1.5m" and "--tick 250us" work everywhere. `format_duration`
// is its inverse.
//
// Numbers are parsed strictly: the whole string must be the number, so
// "4x", "-1" (for a count) and "" are errors rather than 4, 2^32-1 and 0.
// The *_flag wrappers print "<flag>: bad ..." and exit 2 on any error.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace turq::harness {

struct ScenarioConfig;

/// Parses `text` into simulated-time nanoseconds. Returns std::nullopt on
/// an empty string, trailing garbage, an unknown suffix, a negative or
/// non-finite value, or overflow past SimDuration.
[[nodiscard]] std::optional<SimDuration> parse_duration(
    std::string_view text, SimDuration default_unit);

/// Inverse of parse_duration: a whole number of `default_unit` prints bare
/// ("120"), anything else in the largest suffix unit that divides it
/// exactly ("900ms", "1500ms"), so parse_duration gives `d` back.
[[nodiscard]] std::string format_duration(SimDuration d,
                                          SimDuration default_unit);

/// Parses all of `text` as a decimal unsigned integer no greater than
/// `max`: digits only, no sign, whitespace or suffix.
[[nodiscard]] std::optional<std::uint64_t> parse_unsigned(
    std::string_view text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// Parses all of `text` as a finite decimal number ("0.05", "2e6").
[[nodiscard]] std::optional<double> parse_double(std::string_view text);

SimDuration duration_flag(const char* flag, std::string_view text,
                          SimDuration default_unit);
std::uint64_t unsigned_flag(
    const char* flag, std::string_view text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());
std::uint32_t u32_flag(const char* flag, std::string_view text);
double double_flag(const char* flag, std::string_view text);

/// Prints "<flag>: bad value '<text>' (expected <expected>)" and exits 2.
[[noreturn]] void bad_value(std::string_view flag, std::string_view text,
                            std::string_view expected);

/// Splits on top-level commas only: commas inside parentheses belong to a
/// parameterized spec ("waypoint(vmin=1,vmax=3)" is one element).
[[nodiscard]] std::vector<std::string> split_list(std::string_view s);

/// File-name-safe slug of a label: alnum preserved and lowercased,
/// everything else collapsed to single dashes ("sigma;adaptive(frac=1.0)"
/// -> "sigma-adaptive-frac-1-0").
[[nodiscard]] std::string slug(std::string_view label);

/// One command-line flag.
struct Flag {
  std::string name;  ///< "--n"
  /// Argument placeholder ("<N>"); empty for a switch, whose setter gets "".
  std::string arg;
  /// Help text; the usage printer wraps it and breaks lines at '\n'.
  std::string help;
  /// Parses the argument into the bound target; exits 2 on a bad value.
  std::function<void(std::string_view)> set;
  /// The bound target's current value as text `set` parses back ("" for a
  /// switch that is on), or nullopt when replaying the target needs no
  /// flag (a switch that is off, an unset optional).
  std::function<std::optional<std::string>()> format;
  /// Takes every later argument, one `set` call each, instead of one.
  bool rest = false;
};
using Flags = std::vector<Flag>;

/// A switch that stores `value` into `target`.
[[nodiscard]] Flag flag(std::string name, std::string help, bool& target,
                        bool value = true);
/// A row that parses its argument strictly into `target` and formats
/// `target` back. T is std::uint32_t, std::uint64_t, double, std::string
/// or std::vector<std::uint32_t> (a comma list; each use replaces it).
template <class T>
[[nodiscard]] Flag flag(std::string name, std::string arg, std::string help,
                        T& target);
/// A duration row; a bare number is in `default_unit`.
[[nodiscard]] Flag flag(std::string name, std::string arg, std::string help,
                        SimDuration& target, SimDuration default_unit);

/// A comma list of the spellings `parse` (std::string_view ->
/// std::optional<T>) reads; `choices` names them. Each use replaces the
/// list.
template <class T, class Parse>
[[nodiscard]] Flag list_flag(std::string name, std::string choices,
                             std::string help, std::vector<T>& target,
                             Parse parse) {
  return {name, choices, std::move(help),
          [&target, name, choices, parse](std::string_view v) {
            target.clear();
            for (const std::string& s : split_list(v)) {
              const std::optional<T> x = parse(s);
              if (!x.has_value()) bad_value(name, s, choices);
              target.push_back(*x);
            }
          },
          {}};
}

/// Runs every argument of argv[1..argc) through its row. An unknown flag
/// (--help included) or a missing argument prints usage and exits 2.
void parse_flags(int argc, const char* const* argv, const Flags& flags,
                 std::string_view synopsis = "[options]");

/// Prints "usage: <argv0> <synopsis>" and every row to stderr, exits 2.
[[noreturn]] void usage(const char* argv0, const Flags& flags,
                        std::string_view synopsis = "[options]");

/// Every scenario row, bound to `cfg`. A row whose formatter has a value
/// at binding time shows it as its default in the help text, so each
/// tool's help names its own defaults.
[[nodiscard]] Flags scenario_flags(ScenarioConfig& cfg);
/// The scenario rows named in `names`, in that order, bound to `cfg`.
[[nodiscard]] Flags scenario_flags(ScenarioConfig& cfg,
                                   std::initializer_list<std::string_view> names);

/// `program` plus every row's formatted value, single-quoted where the
/// shell would split or expand it.
[[nodiscard]] std::string format_command(std::string_view program,
                                         const Flags& flags);

/// The scenario rows turquois_fuzz varies, bound to `cfg`.
[[nodiscard]] Flags reproducer_flags(ScenarioConfig& cfg);

/// The turquois_sim invocation that replays `cfg`: its reproducer_flags,
/// formatted.
[[nodiscard]] std::string sim_command(const ScenarioConfig& cfg);

}  // namespace turq::harness
