#include "harness/report.hpp"

#include <algorithm>
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
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  out << to_json(report);
  out.flush();
  if (!out) {
    std::fprintf(stderr, "short write to %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace turq::harness
