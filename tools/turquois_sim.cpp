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

#include <chrono>

#include "faultplan/spec.hpp"
#include "harness/experiment.hpp"
#include "harness/parse_duration.hpp"
#include "harness/report.hpp"
#include "harness/scheduler.hpp"
#include "service/service.hpp"
#include "trace/sink.hpp"

using namespace turq;
using namespace turq::harness;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --protocol %s\n"
      "                                    (default turquois)\n"
      "  --n <4..128>                      group size (default 7)\n"
      "  --dist unanimous|divergent        proposal distribution\n"
      "  --faults <plan>                   fault plan: a named plan (none|\n"
      "                                    failstop|byzantine|jamming|churn|\n"
      "                                    adaptive|adaptive-half|\n"
      "                                    sigma-violating) or a clause spec\n"
      "                                    such as 'ambient;jam@250-400'\n"
      "                                    (default none)\n"
      "  --attack value-inversion|decided-coin\n"
      "                                    Byzantine strategy for Turquois\n"
      "                                    faulty processes (default\n"
      "                                    value-inversion, the paper's §7.2\n"
      "                                    attack; decided-coin forges the\n"
      "                                    unsigned status/from_coin header\n"
      "                                    bits)\n"
      "  --topology <spec>                 node placement: single (default),\n"
      "                                    grid, ring or random, optionally\n"
      "                                    with parameters, e.g.\n"
      "                                    'grid(r=150,area=400,cs=2.2)';\n"
      "                                    r=inf keeps the single-hop medium\n"
      "  --radius <m>                      radio range shorthand (overrides\n"
      "                                    the spec's r=)\n"
      "  --area <m>                        deployment area side in meters\n"
      "  --mobility <spec>                 static (default) or waypoint, e.g.\n"
      "                                    'waypoint(vmin=1,vmax=3,pause=500)'\n"
      "  --no-relay                        multi-hop without the gossip relay\n"
      "                                    (Turquois only; frames reach radio\n"
      "                                    neighbours, nothing is forwarded)\n"
      "  --reps <N>                        repetitions (default 20)\n"
      "  --loss <p>                        extra iid frame loss (default 0.01)\n"
      "  --no-bursts                       disable Gilbert-Elliott bursts\n"
      "  --tick <ms>                       Turquois tick interval (default 10)\n"
      "  --broadcast-rate <bps>            e.g. 2e6 or 11e6 (default 2e6)\n"
      "  --timeout <s>                     per-run deadline (default 120)\n"
      "  --seed <S>                        root seed (default 1)\n"
      "  --jobs <N>                        worker threads for repetitions\n"
      "                                    (default 1, 0 = auto-detect);\n"
      "                                    results are bit-identical for\n"
      "                                    any N\n"
      "  --no-exchange-pool                decode + verify each delivery\n"
      "                                    privately per receiver instead of\n"
      "                                    once per unique payload\n"
      "                                    (bit-identical, slower)\n"
      "  --service                         run the multi-instance consensus\n"
      "                                    service: a replicated queue of\n"
      "                                    pipelined Turquois instances under\n"
      "                                    an open-loop client workload\n"
      "                                    (Turquois, failure-free only)\n"
      "  --pipeline-depth <W>              service: instances in flight at\n"
      "                                    once (default 8)\n"
      "  --batch <B>                       service: client requests committed\n"
      "                                    per instance slot (default 8)\n"
      "  --arrival poisson|bursty          service: client arrival process\n"
      "                                    (default poisson)\n"
      "  --offered-load <R>                service: mean client requests per\n"
      "                                    simulated second (default 2000)\n"
      "  --requests <N>                    service: requests per repetition\n"
      "                                    (default 512)\n"
      "  --mux-window <ms>                 service: frame-mux coalescing\n"
      "                                    window (default 2)\n"
      "  --json <path>                     write the pooled result as a\n"
      "                                    machine-readable report\n"
      "  --no-audit                        skip the consensus-property\n"
      "                                    auditor (validity, agreement,\n"
      "                                    unanimity, phase monotonicity,\n"
      "                                    quorum sanity, sigma liveness);\n"
      "                                    on by default, results land in\n"
      "                                    the report's \"audit\" object\n"
      "  --audit-phase-bound <P>           flag liveness-eligible reps whose\n"
      "                                    decisions land above phase P\n"
      "                                    (default 0 = deadline-only)\n"
      "  --verbose                         per-repetition output\n"
      "  --trace <path>                    write a structured event trace\n"
      "  --trace-format jsonl|chrome       jsonl: one event per line, for\n"
      "                                    trace_inspect (default); chrome:\n"
      "                                    load in chrome://tracing/Perfetto\n"
      "  --trace-sim-events                also trace scheduler dispatches\n",
      argv0, protocol_flags("|").c_str());
  std::exit(2);
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

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--protocol") {
      const auto p = protocol_from_flag(next());
      if (!p.has_value()) usage(argv[0]);
      cfg.protocol = *p;
    } else if (arg == "--n") {
      cfg.n = u32_flag("--n", next());
    } else if (arg == "--dist") {
      const auto d = parse_dist(next());
      if (!d.has_value()) usage(argv[0]);
      cfg.distribution = *d;
    } else if (arg == "--faults") {
      const std::string_view f = next();
      // Everything goes through the plan registry; the legacy names
      // ("none", "failstop", "byzantine") resolve to the canned plans with
      // the legacy labels and Rng streams.
      std::string error;
      const auto plan = faultplan::plan_from_name(f, &error);
      if (!plan.has_value()) {
        std::fprintf(stderr, "bad --faults plan: %s\n", error.c_str());
        return 2;
      }
      cfg.plan = *plan;
    } else if (arg == "--attack") {
      const auto a = parse_attack(next());
      if (!a.has_value()) usage(argv[0]);
      cfg.attack = *a;
    } else if (arg == "--no-audit") {
      cfg.audit = false;
    } else if (arg == "--audit-phase-bound") {
      cfg.audit_phase_bound = unsigned_flag("--audit-phase-bound", next());
    } else if (arg == "--topology") {
      std::string error;
      if (!spatial::parse_topology(next(), &cfg.spatial, &error)) {
        std::fprintf(stderr, "bad --topology spec: %s\n", error.c_str());
        return 2;
      }
    } else if (arg == "--radius") {
      const std::string_view r = next();
      cfg.spatial.radius_m =
          (r == "inf") ? spatial::kInfiniteRadius : double_flag("--radius", r);
    } else if (arg == "--area") {
      cfg.spatial.area_m = double_flag("--area", next());
    } else if (arg == "--mobility") {
      std::string error;
      if (!spatial::parse_mobility(next(), &cfg.spatial, &error)) {
        std::fprintf(stderr, "bad --mobility spec: %s\n", error.c_str());
        return 2;
      }
    } else if (arg == "--no-relay") {
      cfg.relay_enabled = false;
    } else if (arg == "--reps") {
      cfg.repetitions = u32_flag("--reps", next());
    } else if (arg == "--loss") {
      cfg.loss_rate = double_flag("--loss", next());
    } else if (arg == "--no-bursts") {
      cfg.bursty_loss = false;
    } else if (arg == "--tick") {
      cfg.tick_interval = duration_flag("--tick", next(), kMillisecond);
    } else if (arg == "--broadcast-rate") {
      cfg.medium.broadcast_rate_bps = double_flag("--broadcast-rate", next());
    } else if (arg == "--timeout") {
      cfg.run_timeout = duration_flag("--timeout", next(), kSecond);
    } else if (arg == "--seed") {
      cfg.seed = unsigned_flag("--seed", next());
    } else if (arg == "--jobs") {
      cfg.jobs = u32_flag("--jobs", next());
    } else if (arg == "--no-exchange-pool") {
      cfg.exchange_pool = false;
    } else if (arg == "--service") {
      cfg.service.enabled = true;
    } else if (arg == "--pipeline-depth") {
      cfg.service.pipeline_depth = u32_flag("--pipeline-depth", next());
    } else if (arg == "--batch") {
      cfg.service.batch = u32_flag("--batch", next());
    } else if (arg == "--arrival") {
      const std::string_view a = next();
      if (a == "poisson") cfg.service.arrival = service::Arrival::kPoisson;
      else if (a == "bursty") cfg.service.arrival = service::Arrival::kBursty;
      else usage(argv[0]);
    } else if (arg == "--offered-load") {
      cfg.service.offered_load = double_flag("--offered-load", next());
    } else if (arg == "--requests") {
      cfg.service.total_requests = unsigned_flag("--requests", next());
    } else if (arg == "--mux-window") {
      cfg.service.mux_window =
          duration_flag("--mux-window", next(), kMillisecond);
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--trace-format") {
      trace_format = next();
      if (trace_format != "jsonl" && trace_format != "chrome") usage(argv[0]);
    } else if (arg == "--trace-sim-events") {
      cfg.trace_sim_events = true;
    } else {
      usage(argv[0]);
    }
  }

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
  } else if (verbose) {
    // The preview pass re-runs the same repetitions run_scenario runs;
    // leave tracing to the scenario pass so each rep appears once.
    ScenarioConfig preview = cfg;
    preview.trace_sink = nullptr;
    for (std::uint32_t rep = 0; rep < cfg.repetitions; ++rep) {
      const RunResult r = run_once(preview, rep);
      std::printf("  rep %2u: %s decision=%s latencies(ms):", rep,
                  r.all_correct_decided ? "ok    " : "FAILED",
                  r.decision.has_value() ? to_string(*r.decision).c_str() : "-");
      for (const double l : r.latencies_ms) std::printf(" %.1f", l);
      std::printf("\n");
    }
  }

  const auto started = std::chrono::steady_clock::now();
  ScenarioResult r;
  try {
    r = cfg.service.enabled ? service::run_service(cfg) : run_scenario(cfg);
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
