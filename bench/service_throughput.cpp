// Service throughput benchmark: the pipelined multi-instance consensus
// service (src/service) against its own sequential leg.
//
// Each group size n runs three legs over the *same seed and arrival
// stream*:
//   seq     W=1, B=1 — one instance in flight, one request per slot: the
//           "a consensus per request" baseline a naive replicated queue
//           would run
//   pipe8   W=8, B=8 — the service defaults
//   pipe64  W=64, B=8 — deep pipeline; frame muxing and batched trusted
//           setup amortize hardest here
//
// The headline metric is committed requests per *simulated* second, so the
// speedup column is machine-independent: it measures how much of the
// channel/crypto cost the pipeline actually amortizes, not host noise.
// The n=16 pipe64/seq ratio is exported as `speedup_vs_sequential` with a
// declared floor of 5x, which this bench enforces on its exit status and
// tools/check_perf.py on the committed BENCH_service_throughput.json.
// `ots_keys_per_instance` counts the one-time keys the n=16 pipe8 leg's
// key batches and rollovers draw per instance they key: a work count, the
// same on every host and under --quick, whose ceiling is its committed
// value, so a longer key epoch fails the gate.
//
// Output:
//   --json PATH       turquois-bench/1 report, one cell per (n, leg), with
//                     service scalars in each cell's `extra` map
//   --perf-json PATH  metrics (schema turquois-perf/1): the committed
//                     BENCH_service_throughput.json

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/flags.hpp"
#include "harness/report.hpp"
#include "harness/scheduler.hpp"
#include "service/service.hpp"

using namespace turq;
using namespace turq::harness;
using enum Better;
using enum Domain;

namespace {

struct Leg {
  const char* name;
  std::uint32_t pipeline_depth;  // W
  std::uint32_t batch;           // B
};

constexpr Leg kLegs[] = {
    {"seq", 1, 1},
    {"pipe8", 8, 8},
    {"pipe64", 64, 8},
};

// ots_keys_per_instance: 16 processes × 14 keys of one 6-phase epoch, no
// rollovers. A change that lowers it re-baselines this ceiling and
// BENCH_service_throughput.json together.
constexpr double kOtsKeysPerInstanceCeiling = 224.0;

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path;
  std::string perf_path;
  // --reps, --requests, --seed and --jobs; every leg copies it.
  ScenarioConfig base;
  base.repetitions = 3;
  base.seed = 8;
  base.service.total_requests = 512;
  Flags flags =
      scenario_flags(base, {"--reps", "--requests", "--seed", "--jobs"});
  // --quick keeps both group sizes (the gated speedup comes from n = 16)
  // but trims the request stream and repetition count.
  flags.insert(
      flags.end(),
      {flag("--json", "<path>", "write the turquois-bench/1 report",
            json_path),
       flag("--perf-json", "<path>", "write the turquois-perf/1 metrics",
            perf_path),
       {"--quick", "", "2 reps x 192 requests (CI smoke run)",
        [&](std::string_view) {
          quick = true;
          base.repetitions = 2;
          base.service.total_requests = 192;
        },
        {}}});
  parse_flags(argc, argv, flags);
  if (base.repetitions == 0 || base.service.total_requests == 0) {
    std::fprintf(stderr, "%s: need --reps >= 1 and --requests >= 1\n",
                 argv[0]);
    return 2;
  }

  const std::vector<std::uint32_t> sizes = {4, 16};

  BenchReport report;
  report.name = "service_throughput";
  report.seed = base.seed;
  report.jobs = effective_jobs(base.jobs);
  PerfReport perf;
  perf.name = "service_throughput";
  perf.quick = quick;
  perf.jobs = report.jobs;
  const auto started = std::chrono::steady_clock::now();

  std::printf(
      "Service throughput — pipelined Turquois instances, 11 Mbps "
      "broadcast\n(%u repetitions x %llu requests per leg, seed %llu; "
      "offered load saturates\n the pipeline, so committed req/s measures "
      "capacity)\n\n",
      base.repetitions,
      static_cast<unsigned long long>(base.service.total_requests),
      static_cast<unsigned long long>(base.seed));
  std::printf("%5s | %7s | %12s | %12s | %9s | %9s\n", "n", "leg", "req/s sim",
              "inst/s sim", "p95 ms", "speedup");
  std::printf("%s\n", std::string(68, '-').c_str());

  double speedup_n16 = 0.0;
  std::uint64_t total_deliveries = 0;
  for (const std::uint32_t n : sizes) {
    double seq_rate = 0.0;
    for (const Leg& leg : kLegs) {
      ScenarioConfig cfg = base;
      cfg.protocol = Protocol::kTurquois;
      cfg.n = n;
      cfg.distribution = ProposalDist::kUnanimous;
      cfg.medium.broadcast_rate_bps = 11e6;
      cfg.service.enabled = true;
      cfg.service.pipeline_depth = leg.pipeline_depth;
      cfg.service.batch = leg.batch;
      // Offered load far above service capacity: the queue fills early and
      // the run drains at the pipeline's own rate, so committed req/s is
      // the capacity figure, not an echo of the arrival rate.
      cfg.service.offered_load = 50000.0;

      const auto leg_start = std::chrono::steady_clock::now();
      ScenarioResult r;
      try {
        r = service::run_service(cfg);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "service_throughput: invalid config: %s\n",
                     e.what());
        return 2;
      }
      const double wall = seconds_since(leg_start);
      total_deliveries += r.medium_total.deliveries;

      if (r.failed_runs != 0 || r.safety_violations != 0 ||
          (r.audit.has_value() && !r.audit->passed())) {
        std::fprintf(stderr,
                     "service_throughput: FAIL — n=%u leg '%s': %u failed "
                     "runs, %u safety violations, audit %s\n",
                     n, leg.name, r.failed_runs, r.safety_violations,
                     r.audit.has_value() && !r.audit->passed() ? "FAIL"
                                                               : "pass");
        return 1;
      }

      const service::RepSummary& totals = *r.service_total;
      const double rate = totals.committed_per_sim_sec();
      if (leg.pipeline_depth == 1) seq_rate = rate;
      const double speedup = seq_rate > 0.0 ? rate / seq_rate : 0.0;
      if (n == 16 && leg.pipeline_depth == 64) speedup_n16 = speedup;

      ReportCell cell = make_cell(r);
      cell.extra["pipeline_depth"] = static_cast<double>(leg.pipeline_depth);
      cell.extra["batch"] = static_cast<double>(leg.batch);
      cell.extra["committed"] = static_cast<double>(totals.committed);
      cell.extra["committed_per_sim_sec"] = rate;
      cell.extra["instances_per_sim_sec"] = totals.instances_per_sim_sec();
      cell.extra["instances_decided"] =
          static_cast<double>(totals.instances_decided);
      cell.extra["key_batches"] = static_cast<double>(totals.key_batches);
      cell.extra["mux_frames"] = static_cast<double>(totals.mux_frames);
      cell.extra["mux_payloads"] = static_cast<double>(totals.mux_payloads);
      report.cells.push_back(std::move(cell));

      const std::string tag = std::string(leg.name) + "_n" + std::to_string(n);
      perf.add("committed_per_sim_s_" + tag, rate, "1/s", kSim, kHigher);
      perf.add("instances_per_sim_s_" + tag, totals.instances_per_sim_sec(),
               "1/s", kSim, kHigher);
      perf.add("wall_" + tag, wall, "s", kHost, kLower);
      if (n == 16 && leg.pipeline_depth == 8) {
        const double keyed = static_cast<double>(totals.key_batches) *
                             cfg.service.effective_key_batch();
        perf.add("ots_keys_per_instance",
                 static_cast<double>(totals.ots_keys) / keyed, "count", kSim,
                 kLower)
            .limit = kOtsKeysPerInstanceCeiling;
      }
      if (n == 16 && leg.pipeline_depth == 64) {
        const SampleStats& latency = r.latency_ms;
        perf.add("latency_p50_ms", latency.percentile(0.5), "ms", kSim, kLower);
        perf.add("latency_p95_ms", latency.percentile(0.95), "ms", kSim, kLower);
        perf.add("latency_p99_ms", latency.percentile(0.99), "ms", kSim, kLower);
      }

      std::printf("%5u | %7s | %12.1f | %12.2f | %9.2f | %8.2fx\n", n,
                  leg.name, rate, totals.instances_per_sim_sec(),
                  r.latency_ms.percentile(0.95), speedup);
    }
  }

  const double total_wall = seconds_since(started);
  report.wall_seconds = total_wall;
  perf.wall_seconds = total_wall;
  perf.add("deliveries_per_wall_s", total_deliveries / total_wall, "1/s",
           kHost, kHigher)
      .max_drop = kThroughputMaxDrop;
  // Both legs in simulated time: machine-independent, so a hard floor.
  PerfMetric& speedup =
      perf.add("speedup_vs_sequential", speedup_n16, "x", kSim, kHigher);
  speedup.limit = 5.0;

  std::printf(
      "\nspeedup = committed req/s vs the same n's seq leg (W=1, B=1), in "
      "simulated\ntime — machine-independent. n=16 pipe64 floor: %.1fx "
      "(checked here and by\ntools/check_perf.py).\n",
      *speedup.limit);
  std::fprintf(stderr, "wall-clock: %.2f s\n", total_wall);

  if (!json_path.empty()) {
    if (!write_json_report(report, json_path)) return 1;
    std::fprintf(stderr, "json report: %s\n", json_path.c_str());
  }
  return finish_perf_report(perf, perf_path);
}
