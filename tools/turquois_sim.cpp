// turquois_sim — command-line experiment runner.
//
// Runs any (protocol × group size × distribution × fault load) scenario on
// the simulated 802.11b testbed and prints latency statistics and medium
// counters. The quickest way to explore the design space without writing
// code.
//
//   $ turquois_sim --protocol turquois --n 10 --dist divergent
//                  --faults byzantine --reps 20 --loss 0.05 --seed 7
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <chrono>

#include "harness/experiment.hpp"
#include "harness/flags.hpp"
#include "harness/report.hpp"
#include "harness/scheduler.hpp"
#include "service/service.hpp"
#include "trace/sink.hpp"

using namespace turq;
using namespace turq::harness;

namespace {

/// One line per repetition: its outcome, decision and latencies.
void print_reps(const std::vector<RepResult>& reps) {
  for (const RepResult& rep : reps) {
    const RunResult& r = rep.run;
    std::printf("  rep %2llu: %s decision=%s latencies(ms):",
                static_cast<unsigned long long>(rep.rep_index),
                r.all_correct_decided ? "ok    " : "FAILED",
                r.decision.has_value() ? to_string(*r.decision).c_str() : "-");
    for (const double l : r.latencies_ms) std::printf(" %.1f", l);
    std::printf("\n");
  }
}

void print_medium(const net::MediumStats& m) {
  std::printf("medium (totals): %llu bcast frames, %llu unicast frames, "
              "%llu collisions, %llu MAC retries, %.1f ms airtime, %llu bytes\n",
              static_cast<unsigned long long>(m.broadcast_frames),
              static_cast<unsigned long long>(m.unicast_frames),
              static_cast<unsigned long long>(m.collisions),
              static_cast<unsigned long long>(m.mac_retries),
              to_milliseconds(m.airtime),
              static_cast<unsigned long long>(m.bytes_on_air));
}

void print_sigma(const std::optional<SigmaAggregate>& sigma) {
  if (!sigma.has_value()) return;
  const SigmaAggregate& s = *sigma;
  std::printf("sigma: bound %lld/round, %llu rounds (%llu violating), "
              "%llu omissions, max %llu in one round -> %u/%u reps "
              "liveness-eligible (%s)\n",
              static_cast<long long>(s.bound),
              static_cast<unsigned long long>(s.rounds),
              static_cast<unsigned long long>(s.violating_rounds),
              static_cast<unsigned long long>(s.omissions),
              static_cast<unsigned long long>(s.max_round_omissions),
              s.eligible_reps, s.tracked_reps,
              s.liveness_eligible() ? "liveness-eligible" : "sigma-violating");
}

/// The service totals, simulated throughput and frame-mux lines.
void print_service(const service::RepSummary& t, std::uint32_t reps,
                   double wall) {
  std::printf("service totals: %llu arrivals, %llu committed, %llu "
              "rejected; %llu instances launched, %llu decided, %llu "
              "failed; %llu key batches\n",
              static_cast<unsigned long long>(t.arrivals),
              static_cast<unsigned long long>(t.committed),
              static_cast<unsigned long long>(t.rejected),
              static_cast<unsigned long long>(t.instances_launched),
              static_cast<unsigned long long>(t.instances_decided),
              static_cast<unsigned long long>(t.instances_failed),
              static_cast<unsigned long long>(t.key_batches));
  std::printf("throughput: %.1f committed req/s, %.2f instances/s "
              "(simulated; %.2f s sim over %u reps, %.2f s wall)\n",
              t.committed_per_sim_sec(), t.instances_per_sim_sec(),
              static_cast<double>(t.finished_at) / kSecond, reps, wall);
  std::printf("mux: %llu frames carried %llu payloads (%.2f/frame), "
              "%llu splits, %llu superseded, %llu late drops\n",
              static_cast<unsigned long long>(t.mux_frames),
              static_cast<unsigned long long>(t.mux_payloads),
              t.mux_frames > 0 ? static_cast<double>(t.mux_payloads) /
                                     static_cast<double>(t.mux_frames)
                               : 0.0,
              static_cast<unsigned long long>(t.mux_splits),
              static_cast<unsigned long long>(t.mux_superseded),
              static_cast<unsigned long long>(t.mux_late_drops));
}

/// Prints the pooled audit line (counted in `unit`) and, when it failed,
/// the violations per property. Returns whether the audit passed.
bool print_audit(const std::optional<audit::AuditAggregate>& audit,
                 const char* unit) {
  if (!audit.has_value()) return true;
  const audit::AuditAggregate& a = *audit;
  std::printf("audit: %llu %s checked, %llu violating, %llu violations (%s)\n",
              static_cast<unsigned long long>(a.checked_reps), unit,
              static_cast<unsigned long long>(a.violating_reps),
              static_cast<unsigned long long>(a.violations),
              a.passed() ? "pass" : "FAIL");
  if (!a.passed()) {
    for (std::size_t i = 0; i < audit::kPropertyCount; ++i) {
      if (a.by_property[i] == 0) continue;
      std::printf("  %s: %llu\n",
                  audit::to_string(static_cast<audit::Property>(i)),
                  static_cast<unsigned long long>(a.by_property[i]));
    }
  }
  return a.passed();
}

}  // namespace

int main(int argc, char** argv) {
  ScenarioConfig cfg;
  cfg.n = 7;
  cfg.repetitions = 20;
  bool verbose = false;
  std::string trace_path;
  std::string trace_format = "jsonl";
  std::string json_path;

  Flags flags = scenario_flags(cfg);
  flags.insert(
      flags.end(),
      {flag("--json", "<path>",
            "write the pooled result as a machine-readable report", json_path),
       flag("--verbose", "per-repetition output", verbose),
       flag("--trace", "<path>", "write a structured event trace", trace_path),
       {"--trace-format", "jsonl|chrome",
        "jsonl: one event per line, for trace_inspect (default); chrome: "
        "load in chrome://tracing/Perfetto",
        [&](std::string_view v) {
          if (v != "jsonl" && v != "chrome") {
            bad_value("--trace-format", v, "jsonl|chrome");
          }
          trace_format = v;
        },
        {}}});
  parse_flags(argc, argv, flags);

  if (const auto reason = validate(cfg)) {
    // validate() covers the whole surface, including the n <= 128 sender-
    // bitmask ceiling the CLI used to special-case.
    std::fprintf(stderr, "invalid scenario: %s\n", reason->c_str());
    return 2;
  }

  std::ofstream trace_out;
  std::unique_ptr<trace::Sink> trace_sink;
  if (!trace_path.empty()) {
    trace_out.open(trace_path, std::ios::binary);
    if (!trace_out) {
      std::fprintf(stderr, "cannot open trace file %s\n", trace_path.c_str());
      return 2;
    }
    if (trace_format == "chrome") {
      trace_sink = std::make_unique<trace::ChromeTraceSink>(trace_out);
    } else {
      trace_sink = std::make_unique<trace::JsonlSink>(trace_out);
    }
    cfg.trace_sink = trace_sink.get();
  }

  std::printf("scenario: %s, n=%u (f=%u, k=%u), %s proposals, %s faults, "
              "%u reps, seed %llu\n",
              to_string(cfg.protocol).c_str(), cfg.n, cfg.f(), cfg.k(),
              to_string(cfg.distribution).c_str(),
              cfg.fault_label().c_str(), cfg.repetitions,
              static_cast<unsigned long long>(cfg.seed));
  if (cfg.spatial.topology_set()) {
    std::printf("topology: %s%s\n", spatial::describe(cfg.spatial).c_str(),
                cfg.spatial.active() && !cfg.relay_enabled ? ", relay off"
                                                           : "");
  }

  if (cfg.service.enabled) {
    if (!json_path.empty()) {
      std::fprintf(stderr,
                   "--json is not supported with --service; "
                   "bench/service_throughput writes service reports\n");
      return 2;
    }
    std::printf("service: W=%u, B=%u, %s arrivals @ %.0f req/s, %llu "
                "requests/rep, mux window %.0f ms\n",
                cfg.service.pipeline_depth, cfg.service.batch,
                service::to_string(cfg.service.arrival),
                cfg.service.offered_load,
                static_cast<unsigned long long>(cfg.service.total_requests),
                to_milliseconds(cfg.service.mux_window));
  }

  const auto started = std::chrono::steady_clock::now();
  ScenarioResult r;
  try {
    if (cfg.service.enabled) {
      r = service::run_service(cfg);
    } else {
      const std::vector<RepResult> reps = run_repetitions(cfg);
      if (verbose) print_reps(reps);
      r = pool_repetitions(cfg, reps);
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "invalid scenario: %s\n", e.what());
    return 2;
  }
  const double wall = seconds_since(started);
  if (!json_path.empty()) {
    BenchReport report;
    report.name = "turquois_sim";
    report.seed = cfg.seed;
    report.jobs = effective_jobs(cfg.jobs);
    report.wall_seconds = wall;
    report.cells.push_back(make_cell(r));
    if (!write_json_report(report, json_path)) return 2;
    std::printf("json report: %s\n", json_path.c_str());
  }
  if (trace_sink) {
    trace_sink->close();
    std::printf("trace: wrote %s (%s); inspect with: trace_inspect %s\n",
                trace_path.c_str(), trace_format.c_str(),
                trace_format == "jsonl" ? trace_path.c_str()
                                        : "<jsonl traces only>");
  }
  // A service run counts its audit in instances and its samples in
  // requests; a plain scenario counts repetitions and processes.
  const bool svc = r.service_total.has_value();
  const char* audit_unit = svc ? "instances" : "reps";
  if (svc) print_service(*r.service_total, cfg.repetitions, wall);
  if (r.latency_ms.empty()) {
    print_sigma(r.sigma);
    print_audit(r.audit, audit_unit);
    std::printf("result: no successful repetitions (%u failed)\n",
                r.failed_runs);
    return 1;
  }
  if (svc) {
    std::printf("latency (arrival->commit): mean %.2f ms, p50 %.2f, "
                "p95 %.2f, p99 %.2f, max %.2f over %zu requests\n",
                r.mean(), r.latency_ms.percentile(0.5),
                r.latency_ms.percentile(0.95), r.latency_ms.percentile(0.99),
                r.latency_ms.max(), r.latency_ms.count());
  } else {
    std::printf("latency: mean %.2f ms ± %.2f (95%% CI), min %.2f, p50 %.2f, "
                "p95 %.2f, max %.2f over %zu samples\n",
                r.mean(), r.ci95(), r.latency_ms.min(),
                r.latency_ms.percentile(0.5), r.latency_ms.percentile(0.95),
                r.latency_ms.max(), r.latency_ms.count());
  }
  print_medium(r.medium_total);
  if (r.spatial_total.has_value()) {
    const spatial::SpatialStats& sp = *r.spatial_total;
    const unsigned long long losses = r.medium_total.omissions +
                                      r.medium_total.unreachable +
                                      r.medium_total.frames_collided;
    const unsigned long long attempts = r.medium_total.deliveries + losses;
    std::printf(
        "spatial (totals): per-hop delivery %.1f%% (%llu unreachable, "
        "%llu hidden-terminal), mean path %.2f hops, %llu partition events\n",
        attempts > 0 ? 100.0 * static_cast<double>(r.medium_total.deliveries) /
                           static_cast<double>(attempts)
                     : 0.0,
        static_cast<unsigned long long>(r.medium_total.unreachable),
        static_cast<unsigned long long>(r.medium_total.hidden_terminal),
        sp.path_pairs > 0 ? static_cast<double>(sp.path_hops_sum) /
                                static_cast<double>(sp.path_pairs)
                          : 0.0,
        static_cast<unsigned long long>(sp.partition_events));
    if (sp.relay_origin_frames > 0) {
      std::printf(
          "relay (totals): %llu origin frames, %llu forwards, %llu "
          "suppressed, %.2f unique deliveries per origin frame\n",
          static_cast<unsigned long long>(sp.relay_origin_frames),
          static_cast<unsigned long long>(sp.relay_forwards),
          static_cast<unsigned long long>(sp.relay_suppressed),
          static_cast<double>(sp.relay_deliveries) /
              static_cast<double>(sp.relay_origin_frames));
    }
  }
  print_sigma(r.sigma);
  const bool audit_passed = print_audit(r.audit, audit_unit);
  if (r.failed_runs > 0) {
    std::printf(svc ? "warning: %u repetitions did not commit every request\n"
                    : "warning: %u repetitions missed the deadline\n",
                r.failed_runs);
  }
  if (r.safety_violations > 0) {
    std::printf("SAFETY VIOLATIONS: %u\n", r.safety_violations);
    return 1;
  }
  if (!audit_passed) {
    std::printf("AUDIT VIOLATIONS: see the audit lines above\n");
    return 1;
  }
  return 0;
}
