#include "harness/parse_duration.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

namespace turq::harness {

std::optional<SimDuration> parse_duration(std::string_view text,
                                          SimDuration default_unit) {
  if (text.empty() || default_unit <= 0) return std::nullopt;

  // Split the numeric prefix from the suffix. strtod needs a terminated
  // buffer; flag values are short, so a copy is fine.
  const std::string buf(text);
  const char* begin = buf.c_str();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  if (end == begin) return std::nullopt;  // no digits at all
  if (!std::isfinite(value) || value < 0.0) return std::nullopt;

  const std::string_view suffix = text.substr(
      static_cast<std::size_t>(end - begin));
  double unit = static_cast<double>(default_unit);
  if (suffix == "ns") unit = 1.0;
  else if (suffix == "us") unit = static_cast<double>(kMicrosecond);
  else if (suffix == "ms") unit = static_cast<double>(kMillisecond);
  else if (suffix == "s") unit = static_cast<double>(kSecond);
  else if (suffix == "m") unit = 60.0 * static_cast<double>(kSecond);
  else if (suffix == "h") unit = 3600.0 * static_cast<double>(kSecond);
  else if (!suffix.empty()) return std::nullopt;

  const double ns = value * unit;
  if (ns > static_cast<double>(std::numeric_limits<SimDuration>::max())) {
    return std::nullopt;
  }
  return static_cast<SimDuration>(ns);
}

std::optional<std::uint64_t> parse_unsigned(std::string_view text,
                                            std::uint64_t max) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end || value > max) {
    return std::nullopt;
  }
  return value;
}

std::optional<double> parse_double(std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end ||
      !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

namespace {

[[noreturn]] void bad_flag(const char* flag, std::string_view text,
                           const std::string& expected) {
  std::fprintf(stderr, "%s: bad value '%.*s' (expected %s)\n", flag,
               static_cast<int>(text.size()), text.data(), expected.c_str());
  std::exit(2);
}

}  // namespace

SimDuration duration_flag(const char* flag, std::string_view text,
                          SimDuration default_unit) {
  const auto d = parse_duration(text, default_unit);
  if (!d.has_value()) {
    std::fprintf(stderr,
                 "%s: bad duration '%.*s' (expected e.g. 250ms, 1.5s, 2m)\n",
                 flag, static_cast<int>(text.size()), text.data());
    std::exit(2);
  }
  return *d;
}

std::uint64_t unsigned_flag(const char* flag, std::string_view text,
                            std::uint64_t max) {
  const auto v = parse_unsigned(text, max);
  if (!v.has_value()) {
    bad_flag(flag, text, "an unsigned integer <= " + std::to_string(max));
  }
  return *v;
}

std::uint32_t u32_flag(const char* flag, std::string_view text) {
  return static_cast<std::uint32_t>(
      unsigned_flag(flag, text, std::numeric_limits<std::uint32_t>::max()));
}

double double_flag(const char* flag, std::string_view text) {
  const auto v = parse_double(text);
  if (!v.has_value()) bad_flag(flag, text, "a finite number");
  return *v;
}

std::vector<std::string> split_list(std::string_view s) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  int depth = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i < s.size() && s[i] == '(') ++depth;
    if (i < s.size() && s[i] == ')' && depth > 0) --depth;
    if (i == s.size() || (s[i] == ',' && depth == 0)) {
      parts.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

std::string slug(std::string_view label) {
  std::string out;
  for (const char c : label) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!out.empty() && out.back() != '-') {
      out += '-';
    }
  }
  while (!out.empty() && out.back() == '-') out.pop_back();
  return out.empty() ? "plan" : out;
}

}  // namespace turq::harness
