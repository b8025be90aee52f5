// Shared flag parsing for every CLI tool and bench.
//
// Durations: one grammar for `--tick`, `--timeout`, `--mux-window`, soak
// durations and friends — an optional-fraction decimal number plus an
// optional unit suffix (ns / us / ms / s / m / h). A bare number takes the
// flag's historical unit via `default_unit`, so "--timeout 120" still
// means seconds and "--tick 10" still means milliseconds, while
// "--timeout 1.5m" and "--tick 250us" work everywhere.
//
// Numbers are parsed strictly: the whole string must be the number, so
// "4x", "-1" (for a count) and "" are errors rather than 4, 2^32-1 and 0.
// The *_flag wrappers print "<flag>: bad ..." and exit 2 on any error.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace turq::harness {

/// Parses `text` into simulated-time nanoseconds. Returns std::nullopt on
/// an empty string, trailing garbage, an unknown suffix, a negative or
/// non-finite value, or overflow past SimDuration.
[[nodiscard]] std::optional<SimDuration> parse_duration(
    std::string_view text, SimDuration default_unit);

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

/// Splits on top-level commas only: commas inside parentheses belong to a
/// parameterized spec ("waypoint(vmin=1,vmax=3)" is one element).
[[nodiscard]] std::vector<std::string> split_list(std::string_view s);

/// File-name-safe slug of a label: alnum preserved and lowercased,
/// everything else collapsed to single dashes ("sigma;adaptive(frac=1.0)"
/// -> "sigma-adaptive-frac-1-0").
[[nodiscard]] std::string slug(std::string_view label);

}  // namespace turq::harness
