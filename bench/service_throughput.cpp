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
// The n=16 pipe64/seq ratio is exported as `speedup_vs_sequential` and
// gated (>= 5x) both here and by tools/check_perf.sh on the committed
// BENCH_service_throughput.json.
//
// Output:
//   --json PATH       turquois-bench/1 report, one cell per (n, leg), with
//                     service scalars in each cell's `extra` map
//   --perf-json PATH  flat metrics (schema turquois-service/1): the
//                     committed BENCH_service_throughput.json
//
// Usage: service_throughput [--quick] [--reps R] [--requests N] [--seed S]
//                           [--jobs N] [--json PATH] [--perf-json PATH]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/parse_duration.hpp"
#include "harness/report.hpp"
#include "harness/scheduler.hpp"
#include "service/service.hpp"

using namespace turq;
using namespace turq::harness;

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

/// The n=16 pipe64 vs seq floor asserted here and by check_perf.sh.
constexpr double kMinSpeedup = 5.0;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::uint32_t reps = 3;
  std::uint64_t requests = 512;
  std::uint64_t seed = 8;
  std::uint32_t jobs = 1;
  std::string json_path;
  std::string perf_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--quick") {
      // Keeps both group sizes (the gated speedup comes from n = 16) but
      // trims the request stream and repetition count.
      quick = true;
      reps = 2;
      requests = 192;
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = u32_flag("--reps", argv[++i]);
    } else if (arg == "--requests" && i + 1 < argc) {
      requests = unsigned_flag("--requests", argv[++i]);
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = unsigned_flag("--seed", argv[++i]);
    } else if (arg == "--jobs" && i + 1 < argc) {
      jobs = u32_flag("--jobs", argv[++i]);
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--perf-json" && i + 1 < argc) {
      perf_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--reps R] [--requests N] [--seed S] "
                   "[--jobs N] [--json PATH] [--perf-json PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (reps == 0 || requests == 0) {
    std::fprintf(stderr, "%s: need --reps >= 1 and --requests >= 1\n",
                 argv[0]);
    return 2;
  }

  const std::vector<std::uint32_t> sizes = {4, 16};

  BenchReport report;
  report.name = "service_throughput";
  report.seed = seed;
  report.jobs = effective_jobs(jobs);
  std::map<std::string, double> perf;  // ordered => deterministic key order
  const auto started = std::chrono::steady_clock::now();

  std::printf(
      "Service throughput — pipelined Turquois instances, 11 Mbps "
      "broadcast\n(%u repetitions x %llu requests per leg, seed %llu; "
      "offered load saturates\n the pipeline, so committed req/s measures "
      "capacity)\n\n",
      reps, static_cast<unsigned long long>(requests),
      static_cast<unsigned long long>(seed));
  std::printf("%5s | %7s | %12s | %12s | %9s | %9s\n", "n", "leg", "req/s sim",
              "inst/s sim", "p95 ms", "speedup");
  std::printf("%s\n", std::string(68, '-').c_str());

  double speedup_n16 = 0.0;
  std::uint64_t total_deliveries = 0;
  for (const std::uint32_t n : sizes) {
    double seq_rate = 0.0;
    for (const Leg& leg : kLegs) {
      ScenarioConfig cfg;
      cfg.protocol = Protocol::kTurquois;
      cfg.n = n;
      cfg.distribution = ProposalDist::kUnanimous;
      cfg.repetitions = reps;
      cfg.seed = seed;
      cfg.jobs = jobs;
      cfg.medium.broadcast_rate_bps = 11e6;
      cfg.service.enabled = true;
      cfg.service.pipeline_depth = leg.pipeline_depth;
      cfg.service.batch = leg.batch;
      // Offered load far above service capacity: the queue fills early and
      // the run drains at the pipeline's own rate, so committed req/s is
      // the capacity figure, not an echo of the arrival rate.
      cfg.service.offered_load = 50000.0;
      cfg.service.total_requests = requests;

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

      ReportCell cell;
      cell.protocol = "Turquois";
      cell.n = n;
      cell.distribution = "unanimous";
      cell.fault_load = "failure-free";
      cell.repetitions = reps;
      cell.failed_runs = r.failed_runs;
      cell.safety_violations = r.safety_violations;
      cell.latencies_ms = r.latency_ms.samples();
      cell.medium = r.medium_total;
      cell.audit = r.audit;
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
      perf["committed_per_sec_" + tag] = rate;
      perf["instances_per_sec_" + tag] = totals.instances_per_sim_sec();
      perf["wall_" + tag] = wall;
      if (n == 16 && leg.pipeline_depth == 64) {
        perf["latency_p50_ms"] = r.latency_ms.percentile(0.5);
        perf["latency_p95_ms"] = r.latency_ms.percentile(0.95);
        perf["latency_p99_ms"] = r.latency_ms.percentile(0.99);
      }

      std::printf("%5u | %7s | %12.1f | %12.2f | %9.2f | %8.2fx\n", n,
                  leg.name, rate, totals.instances_per_sim_sec(),
                  r.latency_ms.percentile(0.95), speedup);
    }
  }

  const double total_wall = seconds_since(started);
  report.wall_seconds = total_wall;
  perf["speedup_vs_sequential"] = speedup_n16;
  perf["events_per_sec"] =
      total_wall > 0.0 ? static_cast<double>(total_deliveries) / total_wall
                       : 0.0;

  std::printf(
      "\nspeedup = committed req/s vs the same n's seq leg (W=1, B=1), in "
      "simulated\ntime — machine-independent. n=16 pipe64 floor: %.1fx "
      "(checked here and by\ntools/check_perf.sh).\n",
      kMinSpeedup);
  std::fprintf(stderr, "wall-clock: %.2f s\n", total_wall);

  if (speedup_n16 < kMinSpeedup) {
    std::fprintf(stderr,
                 "service_throughput: FAIL — n=16 pipe64 speedup %.2fx "
                 "below the %.2fx floor\n",
                 speedup_n16, kMinSpeedup);
    return 1;
  }

  if (!json_path.empty()) {
    if (!write_json_report(report, json_path)) return 1;
    std::fprintf(stderr, "json report: %s\n", json_path.c_str());
  }
  if (!perf_path.empty()) {
    std::FILE* f = std::fopen(perf_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "service_throughput: cannot write %s\n",
                   perf_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"schema\": \"turquois-service/1\",\n"
                 "  \"name\": \"service_throughput\",\n"
                 "  \"quick\": %s,\n"
                 "  \"metrics\": {\n",
                 quick ? "true" : "false");
    std::size_t emitted = 0;
    for (const auto& [key, value] : perf) {
      std::fprintf(f, "    \"%s\": %.3f%s\n", key.c_str(), value,
                   ++emitted == perf.size() ? "" : ",");
    }
    std::fprintf(f,
                 "  },\n"
                 "  \"environment\": {\"jobs\": %u, "
                 "\"wall_clock_seconds\": %.3f}\n"
                 "}\n",
                 report.jobs, total_wall);
    std::fclose(f);
    std::fprintf(stderr, "perf report: %s\n", perf_path.c_str());
  }
  return 0;
}
