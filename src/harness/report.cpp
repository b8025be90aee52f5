#include "harness/report.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace turq::harness {

namespace {

/// Shortest representation that round-trips a double (%.17g is exact for
/// IEEE 754 binary64). Same double in, same bytes out — the property the
/// determinism contract leans on.
std::string json_double(double x) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

std::string json_u64(std::uint64_t x) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(x));
  return buf;
}

/// Shortest fixed-notation text that round-trips `x` ("24968733.2", "0.3",
/// "2000000"): equal doubles give equal bytes, and no exponent. JSON has no
/// infinity or NaN, so those become null.
std::string json_number(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[512];
  const auto result =
      std::to_chars(buf, buf + sizeof(buf), x, std::chars_format::fixed);
  if (result.ec != std::errc()) return json_double(x);
  return std::string(buf, result.ptr);
}

void append_stats(std::string& out, const std::vector<double>& samples) {
  SampleStats stats;
  stats.add_all(samples);
  out += "\"count\":" + json_u64(stats.count());
  if (!stats.empty()) {
    out += ",\"mean_ms\":" + json_double(stats.mean());
    out += ",\"ci95_ms\":" + json_double(stats.ci95_half_width());
    out += ",\"min_ms\":" + json_double(stats.min());
    out += ",\"p50_ms\":" + json_double(stats.percentile(0.5));
    out += ",\"p95_ms\":" + json_double(stats.percentile(0.95));
    out += ",\"max_ms\":" + json_double(stats.max());
  }
}

void append_cell(std::string& out, const ReportCell& cell) {
  out += "{\"protocol\":\"" + cell.protocol + "\"";
  out += ",\"n\":" + json_u64(cell.n);
  out += ",\"distribution\":\"" + cell.distribution + "\"";
  out += ",\"fault_load\":\"" + cell.fault_load + "\"";
  out += ",\"repetitions\":" + json_u64(cell.repetitions);
  out += ",\"failed_runs\":" + json_u64(cell.failed_runs);
  out += ",\"safety_violations\":" + json_u64(cell.safety_violations);
  out += ",";
  append_stats(out, cell.latencies_ms);
  out += ",\"latencies_ms\":[";
  for (std::size_t i = 0; i < cell.latencies_ms.size(); ++i) {
    if (i != 0) out += ",";
    out += json_double(cell.latencies_ms[i]);
  }
  out += "]";
  out += ",\"medium\":{";
  out += "\"broadcast_frames\":" + json_u64(cell.medium.broadcast_frames);
  out += ",\"unicast_frames\":" + json_u64(cell.medium.unicast_frames);
  out += ",\"mac_retries\":" + json_u64(cell.medium.mac_retries);
  out += ",\"collisions\":" + json_u64(cell.medium.collisions);
  out += ",\"frames_collided\":" + json_u64(cell.medium.frames_collided);
  out += ",\"unicast_drops\":" + json_u64(cell.medium.unicast_drops);
  out += ",\"deliveries\":" + json_u64(cell.medium.deliveries);
  out += ",\"omissions\":" + json_u64(cell.medium.omissions);
  out += ",\"bytes_on_air\":" + json_u64(cell.medium.bytes_on_air);
  out += ",\"airtime_ms\":" +
         json_double(to_milliseconds(cell.medium.airtime));
  if (cell.spatial.has_value()) {
    // Geometry-induced loss classes only exist under a topology; gating them
    // keeps single-hop reports byte-identical to pre-spatial baselines.
    out += ",\"unreachable\":" + json_u64(cell.medium.unreachable);
    out += ",\"hidden_terminal\":" + json_u64(cell.medium.hidden_terminal);
  }
  out += "}";
  if (cell.spatial.has_value()) {
    const spatial::SpatialStats& sp = *cell.spatial;
    out += ",\"spatial\":{";
    out += "\"samples\":" + json_u64(sp.samples);
    out += ",\"partition_events\":" + json_u64(sp.partition_events);
    out += ",\"partitioned_samples\":" + json_u64(sp.partitioned_samples);
    out += ",\"path_hops_sum\":" + json_u64(sp.path_hops_sum);
    out += ",\"path_pairs\":" + json_u64(sp.path_pairs);
    out += ",\"cs_domains_sum\":" + json_u64(sp.cs_domains_sum);
    out += ",\"relay_origin_frames\":" + json_u64(sp.relay_origin_frames);
    out += ",\"relay_forwards\":" + json_u64(sp.relay_forwards);
    out += ",\"relay_suppressed\":" + json_u64(sp.relay_suppressed);
    out += ",\"relay_duplicates\":" + json_u64(sp.relay_duplicates);
    out += ",\"relay_deliveries\":" + json_u64(sp.relay_deliveries);
    out += "}";
  }
  if (cell.sigma.has_value()) {
    const SigmaAggregate& s = *cell.sigma;
    out += ",\"sigma\":{";
    out += "\"bound\":" + json_u64(static_cast<std::uint64_t>(
                              std::max<std::int64_t>(s.bound, 0)));
    out += ",\"rounds\":" + json_u64(s.rounds);
    out += ",\"violating_rounds\":" + json_u64(s.violating_rounds);
    out += ",\"omissions\":" + json_u64(s.omissions);
    out += ",\"max_round_omissions\":" + json_u64(s.max_round_omissions);
    out += ",\"tracked_reps\":" + json_u64(s.tracked_reps);
    out += ",\"eligible_reps\":" + json_u64(s.eligible_reps);
    out += ",\"liveness_eligible\":";
    out += s.liveness_eligible() ? "true" : "false";
    out += "}";
  }
  if (cell.audit.has_value()) {
    const audit::AuditAggregate& a = *cell.audit;
    out += ",\"audit\":{";
    out += "\"checked_reps\":" + json_u64(a.checked_reps);
    out += ",\"violating_reps\":" + json_u64(a.violating_reps);
    out += ",\"violations\":" + json_u64(a.violations);
    for (std::size_t i = 0; i < audit::kPropertyCount; ++i) {
      out += ",\"" +
             std::string(audit::to_string(static_cast<audit::Property>(i))) +
             "\":" + json_u64(a.by_property[i]);
    }
    out += ",\"passed\":";
    out += a.passed() ? "true" : "false";
    out += "}";
  }
  if (!cell.extra.empty()) {
    out += ",\"extra\":{";
    bool first = true;
    for (const auto& [key, value] : cell.extra) {
      if (!first) out += ",";
      first = false;
      out += "\"" + key + "\":" + json_double(value);
    }
    out += "}";
  }
  out += "}";
}

bool write_file(const std::string& text, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  out << text << std::flush;
  if (!out) std::fprintf(stderr, "cannot write %s\n", path.c_str());
  return static_cast<bool>(out);
}

std::string join(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    out += (i == 0 ? "" : sep) + parts[i];
  }
  return out;
}

/// One row per line, indented under its top-level key.
std::string json_rows(const std::vector<std::string>& rows) {
  return rows.empty() ? "[]" : "[\n    " + join(rows, ",\n    ") + "\n  ]";
}

std::string metric_json(const PerfMetric& m) {
  const bool higher = m.better == Better::kHigher;
  std::vector<std::string> bound;
  if (m.max_drop) bound.push_back("\"max_drop\": " + json_number(*m.max_drop));
  if (m.limit) {
    bound.push_back((higher ? "\"floor\": " : "\"ceiling\": ") +
                    json_number(*m.limit));
  }
  return "{\"name\": \"" + m.name + "\", \"value\": " + json_number(m.value) +
         ", \"unit\": \"" + m.unit + "\", \"domain\": \"" +
         (m.domain == Domain::kSim ? "sim" : "host") + "\", \"better\": \"" +
         (higher ? "higher" : "lower") + "\"" +
         (bound.empty() ? "" : ", \"bound\": {" + join(bound, ", ") + "}") +
         "}";
}

std::string cell_json(const PerfCell& c) {
  const double per_decision =
      c.decisions > 0 ? static_cast<double>(c.messages) / c.decisions : 0.0;
  char figures[256];
  std::snprintf(figures, sizeof(figures),
                "\"decisions\": %llu, \"mean_ms\": %.4f, \"p99_ms\": %.4f, "
                "\"messages\": %llu, \"msgs_per_decision\": %.4f, "
                "\"failed_runs\": %u}",
                static_cast<unsigned long long>(c.decisions), c.mean_ms,
                c.p99_ms, static_cast<unsigned long long>(c.messages),
                per_decision, c.failed_runs);
  return "{\"protocol\": \"" + c.protocol + "\", \"plan\": \"" + c.plan +
         "\", \"topology\": \"" + c.topology + "\", \"n\": " + json_u64(c.n) +
         ", \"reps\": " + json_u64(c.reps) + ", " + figures;
}

}  // namespace

ReportCell make_cell(const ScenarioResult& result) {
  ReportCell cell;
  cell.protocol = to_string(result.config.protocol);
  cell.n = result.config.n;
  cell.distribution = to_string(result.config.distribution);
  cell.fault_load = result.config.fault_label();
  cell.repetitions = result.config.repetitions;
  cell.failed_runs = result.failed_runs;
  cell.safety_violations = result.safety_violations;
  cell.latencies_ms = result.latency_ms.samples();
  cell.medium = result.medium_total;
  cell.sigma = result.sigma;
  cell.audit = result.audit;
  cell.spatial = result.spatial_total;
  return cell;
}

std::string to_json(const ReportCell& cell) {
  std::string out;
  append_cell(out, cell);
  return out;
}

std::string to_json(const BenchReport& report) {
  std::string out;
  out += "{\n";
  out += "\"schema\":\"" + std::string(kBenchSchema) + "\",\n";
  out += "\"name\":\"" + report.name + "\",\n";
  out += "\"seed\":" + json_u64(report.seed) + ",\n";
  out += "\"cells\":[\n";
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    append_cell(out, report.cells[i]);
    out += (i + 1 < report.cells.size()) ? ",\n" : "\n";
  }
  out += "],\n";
  // Kept to one line so report-diffing tools can drop it; everything above
  // is seed-deterministic.
  out += "\"environment\":{\"jobs\":" + json_u64(report.jobs) +
         ",\"wall_clock_seconds\":" + json_double(report.wall_seconds) +
         "}\n";
  out += "}\n";
  return out;
}

bool write_json_report(const BenchReport& report, const std::string& path) {
  return write_file(to_json(report), path);
}

PerfMetric& PerfReport::add(std::string metric, double value, std::string unit,
                            Domain domain, Better better) {
  metrics.push_back({std::move(metric), value, std::move(unit), domain, better,
                     std::nullopt, std::nullopt});
  return metrics.back();
}

std::string to_json(const PerfReport& report) {
  std::vector<std::string> metrics;
  std::vector<std::string> grid;
  std::vector<std::string> env;
  for (const PerfMetric& m : report.metrics) metrics.push_back(metric_json(m));
  for (const PerfCell& c : report.grid) grid.push_back(cell_json(c));
  if (report.jobs) env.push_back("\"jobs\": " + json_u64(*report.jobs));
  if (!report.sha256_impl.empty()) {
    env.push_back("\"sha256_impl\": \"" + report.sha256_impl + "\"");
  }
  if (report.wall_seconds) {
    env.push_back("\"wall_clock_seconds\": " +
                  json_number(*report.wall_seconds));
  }
  std::vector<std::string> fields = {
      "\"schema\": \"" + std::string(kPerfSchema) + "\"",
      "\"name\": \"" + report.name + "\"",
      std::string("\"quick\": ") + (report.quick ? "true" : "false")};
  if (report.seed) fields.push_back("\"seed\": " + json_u64(*report.seed));
  fields.push_back("\"metrics\": " + json_rows(metrics));
  if (!grid.empty()) fields.push_back("\"grid\": " + json_rows(grid));
  if (!env.empty()) {
    fields.push_back("\"environment\": {" + join(env, ", ") + "}");
  }
  return "{\n  " + join(fields, ",\n  ") + "\n}\n";
}

bool write_perf_json(const PerfReport& report, const std::string& path) {
  return write_file(to_json(report), path);
}

void print_metrics(const PerfReport& report) {
  std::printf("%s (%s)\n", report.name.c_str(),
              report.quick ? "quick" : "full");
  for (const PerfMetric& m : report.metrics) {
    const int decimals = m.value == std::floor(m.value) ? 0 : 3;
    std::printf("  %-24s %16.*f %s\n", m.name.c_str(), decimals, m.value,
                m.unit.c_str());
  }
}

int finish_perf_report(const PerfReport& report, const std::string& path) {
  if (!path.empty()) {
    if (!write_perf_json(report, path)) return 1;
    std::fprintf(stderr, "perf report: %s\n", path.c_str());
  }
  int status = 0;
  for (const PerfMetric& m : report.metrics) {
    const bool higher = m.better == Better::kHigher;
    if (!m.limit || (higher ? m.value >= *m.limit : m.value <= *m.limit)) {
      continue;
    }
    std::fprintf(stderr, "%s: FAIL — %s = %s %s, %s %s\n",
                 report.name.c_str(), m.name.c_str(),
                 json_number(m.value).c_str(), m.unit.c_str(),
                 higher ? "below its floor" : "above its ceiling",
                 json_number(*m.limit).c_str());
    status = 1;
  }
  return status;
}

}  // namespace turq::harness
