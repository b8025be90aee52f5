#include "harness/flags.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "faultplan/spec.hpp"
#include "harness/experiment.hpp"
#include "spatial/topology.hpp"

namespace turq::harness {

namespace {

/// Duration suffixes, largest unit first.
constexpr std::pair<SimDuration, std::string_view> kUnits[] = {
    {3600 * kSecond, "h"}, {60 * kSecond, "m"},  {kSecond, "s"},
    {kMillisecond, "ms"},  {kMicrosecond, "us"}, {1, "ns"}};

using Text = std::optional<std::string>;

Text when(bool present, std::string text = "") {
  return present ? Text(std::move(text)) : std::nullopt;
}

/// Shortest text that parse_double reads back as `v` ("0.01", "2e+06").
std::string format_double(double v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

}  // namespace

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
  if (!suffix.empty()) {
    const auto* named =
        std::find_if(std::begin(kUnits), std::end(kUnits),
                     [&](const auto& u) { return u.second == suffix; });
    if (named == std::end(kUnits)) return std::nullopt;
    unit = static_cast<double>(named->first);
  }

  const double ns = value * unit;
  if (ns > static_cast<double>(std::numeric_limits<SimDuration>::max())) {
    return std::nullopt;
  }
  return static_cast<SimDuration>(ns);
}

std::string format_duration(SimDuration d, SimDuration default_unit) {
  if (d % default_unit == 0) return std::to_string(d / default_unit);
  // The largest unit dividing d; 1 ns divides everything.
  const auto& [unit, suffix] =
      *std::find_if(std::begin(kUnits), std::end(kUnits),
                    [d](const auto& u) { return d % u.first == 0; });
  return std::to_string(d / unit) + std::string(suffix);
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

void bad_value(std::string_view flag, std::string_view text,
               std::string_view expected) {
  std::fprintf(stderr, "%.*s: bad value '%.*s' (expected %.*s)\n",
               static_cast<int>(flag.size()), flag.data(),
               static_cast<int>(text.size()), text.data(),
               static_cast<int>(expected.size()), expected.data());
  std::exit(2);
}

SimDuration duration_flag(const char* flag, std::string_view text,
                          SimDuration default_unit) {
  const auto d = parse_duration(text, default_unit);
  if (!d.has_value()) bad_value(flag, text, "a duration: 250ms, 1.5s, 2m");
  return *d;
}

std::uint64_t unsigned_flag(const char* flag, std::string_view text,
                            std::uint64_t max) {
  const auto v = parse_unsigned(text, max);
  if (!v.has_value()) {
    bad_value(flag, text, "an unsigned integer <= " + std::to_string(max));
  }
  return *v;
}

std::uint32_t u32_flag(const char* flag, std::string_view text) {
  return static_cast<std::uint32_t>(
      unsigned_flag(flag, text, std::numeric_limits<std::uint32_t>::max()));
}

double double_flag(const char* flag, std::string_view text) {
  const auto v = parse_double(text);
  if (!v.has_value()) bad_value(flag, text, "a finite number");
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

// ------------------------------------------------------------- rows ---

Flag flag(std::string name, std::string help, bool& target, bool value) {
  return {std::move(name), "", std::move(help),
          [&target, value](std::string_view) { target = value; },
          [&target, value] { return when(target == value); }};
}

template <class T>
Flag flag(std::string name, std::string arg, std::string help, T& target) {
  const auto set = [&target, name](std::string_view v) {
    if constexpr (std::is_same_v<T, std::uint32_t>) {
      target = u32_flag(name.c_str(), v);
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      target = unsigned_flag(name.c_str(), v);
    } else if constexpr (std::is_same_v<T, std::uint16_t>) {
      target = static_cast<std::uint16_t>(
          unsigned_flag(name.c_str(), v, std::numeric_limits<T>::max()));
    } else if constexpr (std::is_same_v<T, double>) {
      target = double_flag(name.c_str(), v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      target = v;
    } else {  // a comma list of counts
      target.clear();
      for (const std::string& s : split_list(v)) {
        target.push_back(u32_flag(name.c_str(), s));
      }
    }
  };
  const auto format = [&target]() -> Text {
    if constexpr (std::is_same_v<T, double>) {
      return format_double(target);
    } else if constexpr (std::is_same_v<T, std::string>) {
      return target;
    } else if constexpr (std::is_integral_v<T>) {
      return std::to_string(target);
    } else {
      std::string list;
      for (const std::uint32_t x : target) {
        if (!list.empty()) list += ',';
        list += std::to_string(x);
      }
      return list;
    }
  };
  return {std::move(name), std::move(arg), std::move(help), set, format};
}

template Flag flag(std::string, std::string, std::string, std::uint32_t&);
template Flag flag(std::string, std::string, std::string, std::uint64_t&);
template Flag flag(std::string, std::string, std::string, std::uint16_t&);
template Flag flag(std::string, std::string, std::string, double&);
template Flag flag(std::string, std::string, std::string, std::string&);
template Flag flag(std::string, std::string, std::string,
                   std::vector<std::uint32_t>&);

Flag flag(std::string name, std::string arg, std::string help,
          SimDuration& target, SimDuration default_unit) {
  return {name, std::move(arg), std::move(help),
          [&target, name, default_unit](std::string_view v) {
            target = duration_flag(name.c_str(), v, default_unit);
          },
          [&target, default_unit] {
            return Text(format_duration(target, default_unit));
          }};
}

void parse_flags(int argc, const char* const* argv, const Flags& flags,
                 std::string_view synopsis) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto row = std::find_if(flags.begin(), flags.end(),
                                  [&](const Flag& f) { return f.name == arg; });
    if (row == flags.end()) usage(argv[0], flags, synopsis);
    if (row->arg.empty()) {
      row->set("");
      continue;
    }
    if (i + 1 >= argc) usage(argv[0], flags, synopsis);
    if (row->rest) {
      while (i + 1 < argc) row->set(argv[++i]);
    } else {
      row->set(argv[++i]);
    }
  }
}

void usage(const char* argv0, const Flags& flags, std::string_view synopsis) {
  constexpr std::size_t kHelpColumn = 30;
  constexpr std::size_t kWidth = 79;
  std::string out = "usage: " + std::string(argv0) + " " +
                    std::string(synopsis) + "\n";
  for (const Flag& f : flags) {
    std::string line = "  " + f.name + (f.arg.empty() ? "" : " " + f.arg);
    if (line.size() + 1 >= kHelpColumn) {
      out += line + "\n";
      line.clear();
    }
    std::istringstream paragraphs(f.help);
    for (std::string paragraph; std::getline(paragraphs, paragraph);) {
      std::istringstream words(paragraph);
      for (std::string word; words >> word;) {
        if (line.size() > kHelpColumn &&
            line.size() + 1 + word.size() > kWidth) {
          out += line + "\n";
          line.clear();
        }
        // Pad to the help column, or one space after the previous word.
        line.resize(std::max(line.size() + 1, kHelpColumn), ' ');
        line += word;
      }
      out += line + "\n";
      line.clear();
    }
    if (!line.empty()) out += line + "\n";
  }
  std::fputs(out.c_str(), stderr);
  std::exit(2);
}

// --------------------------------------------------------- scenario rows ---

namespace {

/// A row choosing one of `parse`'s spellings; `expected` lists them.
template <class T, class Parse, class Format>
Flag choice(std::string name, std::string expected, std::string help,
            T& target, Parse parse, Format format) {
  return {name, expected, std::move(help),
          [&target, name, expected, parse](std::string_view v) {
            const std::optional<T> value = parse(v);
            if (!value.has_value()) bad_value(name, v, expected);
            target = *value;
          },
          [&target, format] { return Text(format(target)); }};
}

/// A spec row: `parse` fills `target` or explains why it cannot.
template <class Parse>
Flag spec(std::string name, std::string arg, std::string help,
          std::string expected, Parse parse, std::function<Text()> format) {
  return {name, std::move(arg), std::move(help),
          [name, expected, parse](std::string_view v) {
            std::string error;
            if (!parse(v, &error)) bad_value(name, v, expected + ": " + error);
          },
          std::move(format)};
}

/// --faults consults the named-plan registry before the spec grammar, so a
/// spec that happens to spell a registry name ("byzantine" after the
/// ambient clause was shrunk away) would resolve to a different plan. A
/// trailing ';' (an empty clause, skipped by the parser) forces the
/// grammar path without changing the parse.
std::string faults_text(const faultplan::FaultPlan& plan) {
  std::string spec = faultplan::to_spec(plan);
  if (const auto named = faultplan::plan_from_name(spec, nullptr);
      named.has_value() && faultplan::to_spec(*named) != spec) {
    spec += ";";
  }
  return spec;
}

/// Every scenario row, bound to `c`.
Flags all_scenario_rows(ScenarioConfig& c) {
  std::string plan_names;
  for (const auto& [name, description] : faultplan::named_plans()) {
    if (!plan_names.empty()) plan_names += ", ";
    plan_names += name;
  }
  spatial::SpatialConfig& sp = c.spatial;
  service::ServiceConfig& svc = c.service;
  return {
      choice("--protocol", protocol_flags("|"), "consensus protocol",
             c.protocol, protocol_from_flag,
             [](Protocol p) { return protocol_info(p).flag; }),
      flag("--n", "<4..128>", "group size", c.n),
      choice("--dist", "unanimous|divergent", "proposal distribution",
             c.distribution, parse_dist,
             [](ProposalDist d) { return to_string(d); }),
      spec("--faults", "<plan>",
           "fault plan: a named plan (" + plan_names +
               ") or a clause spec such as 'ambient;jam@250-400' (default "
               "none)",
           "a plan name or spec",
           [&c](std::string_view v, std::string* error) {
             c.plan = faultplan::plan_from_name(v, error);
             return c.plan.has_value();
           },
           [&c] { return c.plan ? Text(faults_text(*c.plan)) : std::nullopt; }),
      choice("--attack", "value-inversion|decided-coin",
             "Byzantine strategy for Turquois faulty processes (default "
             "value-inversion, the paper's §7.2 attack; decided-coin forges "
             "the unsigned status/from_coin header bits)",
             c.attack, parse_attack,
             [&c](TurquoisAttack a) {
               return when(protocol_info(c.protocol).byzantine_attacks &&
                               a != TurquoisAttack::kValueInversion,
                           to_string(a));
             }),
      spec("--topology", "<spec>",
           "node placement: single (default), grid, ring or random, "
           "optionally with parameters, e.g. 'grid(r=150,area=400,cs=2.2)'; "
           "r=inf keeps the single-hop medium",
           "a topology spec",
           [&sp](std::string_view v, std::string* error) {
             return spatial::parse_topology(v, &sp, error);
           },
           [&sp] {
             return when(sp.topology_set(), spatial::to_spec_topology(sp));
           }),
      {"--radius", "<m>", "radio range shorthand (overrides the spec's r=)",
       [&sp](std::string_view v) {
         sp.radius_m =
             v == "inf" ? spatial::kInfiniteRadius : double_flag("--radius", v);
       },
       [&sp] {
         return Text(std::isfinite(sp.radius_m) ? format_double(sp.radius_m)
                                                : "inf");
       }},
      flag("--area", "<m>", "deployment area side in meters", sp.area_m),
      spec("--mobility", "<spec>",
           "static (default) or waypoint, e.g. "
           "'waypoint(vmin=1,vmax=3,pause=500)'",
           "a mobility spec",
           [&sp](std::string_view v, std::string* error) {
             return spatial::parse_mobility(v, &sp, error);
           },
           [&sp] {
             return when(sp.topology_set() &&
                             sp.mobility != spatial::Mobility::kStatic,
                         spatial::to_spec_mobility(sp));
           }),
      {"--no-relay", "",
       "multi-hop without the gossip relay (Turquois only; frames reach "
       "radio neighbours, nothing is forwarded)",
       [&c](std::string_view) { c.relay_enabled = false; },
       [&c] { return when(c.spatial.topology_set() && !c.relay_enabled); }},
      flag("--reps", "<N>", "repetitions", c.repetitions),
      flag("--loss", "<p>", "extra iid frame loss", c.loss_rate),
      flag("--no-bursts", "disable Gilbert-Elliott bursts", c.bursty_loss,
           false),
      flag("--tick", "<dur>", "Turquois tick interval, bare numbers in ms",
           c.tick_interval, kMillisecond),
      flag("--broadcast-rate", "<bps>",
           "broadcast bit rate, e.g. 2e6 or 11e6",
           c.medium.broadcast_rate_bps),
      flag("--timeout", "<dur>", "per-run deadline, bare numbers in seconds",
           c.run_timeout, kSecond),
      flag("--seed", "<S>", "root seed", c.seed),
      flag("--jobs", "<N>",
           "worker threads for repetitions, 0 = auto-detect; results are "
           "bit-identical for any N",
           c.jobs),
      flag("--service",
           "run the multi-instance consensus service: a replicated queue "
           "of pipelined Turquois instances under an open-loop client "
           "workload (Turquois, failure-free only)",
           svc.enabled),
      flag("--pipeline-depth", "<W>", "service: instances in flight at once",
           svc.pipeline_depth),
      flag("--batch", "<B>",
           "service: client requests committed per instance slot",
           svc.batch),
      choice("--arrival", "poisson|bursty", "service: client arrival process",
             svc.arrival,
             [](std::string_view v) -> std::optional<service::Arrival> {
               if (v == "poisson") return service::Arrival::kPoisson;
               if (v == "bursty") return service::Arrival::kBursty;
               return std::nullopt;
             },
             [](service::Arrival a) {
               return a == service::Arrival::kPoisson ? "poisson" : "bursty";
             }),
      flag("--offered-load", "<R>",
           "service: mean client requests per simulated second",
           svc.offered_load),
      flag("--requests", "<N>", "service: requests per repetition",
           svc.total_requests),
      flag("--mux-window", "<dur>",
           "service: frame-mux coalescing window, bare numbers in ms",
           svc.mux_window, kMillisecond),
      flag("--no-audit",
           "skip the consensus-property auditor (validity, agreement, "
           "unanimity, phase monotonicity, quorum sanity, sigma liveness); "
           "on by default, its results land in the report's \"audit\" "
           "object and its violations fail the run",
           c.audit, false),
      {"--audit-phase-bound", "<P>",
       "flag liveness-eligible reps whose decisions land above phase P "
       "(default 0 = deadline-only)",
       [&c](std::string_view v) {
         c.audit_phase_bound = unsigned_flag("--audit-phase-bound", v);
       },
       [&c] {
         return when(c.audit_phase_bound > 0,
                     std::to_string(c.audit_phase_bound));
       }},
      flag("--trace-sim-events", "also trace scheduler dispatches",
           c.trace_sim_events),
  };
}

/// Single-quotes `word` unless every character is one the shell takes
/// literally.
std::string shell_word(std::string_view word) {
  const bool plain =
      !word.empty() && std::all_of(word.begin(), word.end(), [](char ch) {
        return std::isalnum(static_cast<unsigned char>(ch)) != 0 ||
               std::strchr("_-.,:/+=@%", ch) != nullptr;
      });
  if (plain) return std::string(word);
  std::string out = "'";
  for (const char ch : word) {
    if (ch == '\'') out += "'\\'";  // close, escaped quote, reopen
    out += ch;
  }
  return out + "'";
}

}  // namespace

Flags scenario_flags(ScenarioConfig& cfg) {
  Flags rows = all_scenario_rows(cfg);
  for (Flag& row : rows) {
    if (row.arg.empty()) continue;
    if (const Text shown = row.format()) {
      row.help += " (default " + *shown + ")";
    }
  }
  return rows;
}

Flags scenario_flags(ScenarioConfig& cfg,
                     std::initializer_list<std::string_view> names) {
  Flags all = scenario_flags(cfg);
  Flags picked;
  for (const std::string_view name : names) {
    const auto row = std::find_if(all.begin(), all.end(),
                                  [&](const Flag& f) { return f.name == name; });
    if (row == all.end()) {
      throw std::logic_error("no scenario flag " + std::string(name));
    }
    picked.push_back(std::move(*row));
  }
  return picked;
}

std::string format_command(std::string_view program, const Flags& flags) {
  std::string cmd(program);
  for (const Flag& f : flags) {
    const Text value = f.format();
    if (!value.has_value()) continue;
    cmd += " " + f.name;
    if (!f.arg.empty()) cmd += " " + shell_word(*value);
  }
  return cmd;
}

Flags reproducer_flags(ScenarioConfig& cfg) {
  return scenario_flags(cfg, {"--protocol", "--n", "--dist", "--faults",
                              "--attack", "--topology", "--mobility",
                              "--no-relay", "--seed", "--reps", "--timeout",
                              "--audit-phase-bound"});
}

std::string sim_command(const ScenarioConfig& cfg) {
  ScenarioConfig copy = cfg;
  return format_command("turquois_sim", reproducer_flags(copy));
}

}  // namespace turq::harness
