// Large-n scaling benchmark: failure-free Turquois at n ∈ {16, 32, 64, 128}
// on an 11 Mbps collision domain with a 40 ms tick (the 2 Mbps / 10 ms
// default saturates the channel well before n = 128 — see EXPERIMENTS.md,
// "Large-n scaling"). Each group size runs the scenario once over
// `--reps` repetitions and records its wall clock.
//
// Output:
//   --json PATH       turquois-bench/1 report, one cell per n; the
//                     deterministic artifact (byte-identical at any --jobs,
//                     modulo the environment line)
//   --perf-json PATH  turquois-perf/1 metrics — the committed
//                     BENCH_large_n.json, gated by tools/check_perf.py.
//                     Both gated metrics are taken from the largest n ≤ 64
//                     in the sweep so quick CI runs stay comparable to the
//                     full baseline: `deliveries_per_wall_s` (wall-clock,
//                     machine-dependent by nature) and
//                     `sim_events_per_decision` (simulator dispatches per
//                     correct-process decision, the same on every host and
//                     at any --jobs; its ceiling is the committed value)
//                     and `datagram_decodes_per_decision` (exchange-pool
//                     Datagram::decode calls per decision, just as
//                     deterministic; senders publish what they encode, so
//                     receivers decode only what no pool entry holds).
//
// That the receivers share one decode + verify per unique payload is
// checked without host timing by tests/exchange_pool_test.cpp.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "crypto/sha256_batch.hpp"
#include "harness/experiment.hpp"
#include "harness/flags.hpp"
#include "harness/report.hpp"
#include "harness/scheduler.hpp"

using namespace turq;
using namespace turq::harness;
using enum Better;
using enum Domain;

// sim_events_per_decision at n = 64, seed 3, 5 repetitions. A change that
// lowers it re-baselines this ceiling and BENCH_large_n.json together.
constexpr double kSimEventsPerDecisionCeiling = 552.871875;
// datagram_decodes_per_decision on the same run, under the same rule: 0,
// since every payload is published by its correct sender (17.296875 when
// the receivers decoded each new payload).
constexpr double kDatagramDecodesPerDecisionCeiling = 0;

int main(int argc, char** argv) {
  bool quick = false;
  std::vector<std::uint32_t> sizes = {16, 32, 64, 128};
  std::string json_path;
  std::string perf_path;
  // --reps, --seed and --jobs; every group size copies it.
  ScenarioConfig base;
  base.repetitions = 5;
  base.seed = 3;
  Flags flags = scenario_flags(base, {"--reps", "--seed", "--jobs"});
  // --quick trims the sweep to n <= 64 but keeps the repetition count:
  // the gated deliveries_per_wall_s comes from the n = 64 run, and
  // cutting reps would shift its setup-cost fraction away from the
  // committed full-run baseline.
  flags.insert(
      flags.end(),
      {flag("--sizes", "16,32,...",
            "comma-separated group sizes (default 16,32,64,128)", sizes),
       flag("--json", "<path>", "write the turquois-bench/1 report",
            json_path),
       flag("--perf-json", "<path>",
            "write the turquois-perf/1 wall-clock metrics", perf_path),
       {"--quick", "", "sizes 16,64 only (CI smoke run)",
        [&](std::string_view) {
          quick = true;
          sizes = {16, 64};
        },
        {}}});
  parse_flags(argc, argv, flags);
  if (base.repetitions == 0 || sizes.empty()) {
    std::fprintf(stderr, "%s: need --reps >= 1 and a non-empty --sizes\n",
                 argv[0]);
    return 2;
  }

  BenchReport report;
  report.name = "large_n";
  report.seed = base.seed;
  report.jobs = effective_jobs(base.jobs);
  PerfReport perf;
  perf.name = "large_n";
  perf.quick = quick;
  perf.jobs = report.jobs;
  // What kAuto resolved to on this machine, not the compile-time default.
  perf.sha256_impl = crypto::to_string(crypto::sha256_batch_resolved_impl());
  const auto started = std::chrono::steady_clock::now();

  std::printf(
      "Large-n scaling — failure-free Turquois, 11 Mbps broadcast, 40 ms "
      "tick\n(%u repetitions per n, seed %llu)\n\n",
      base.repetitions, static_cast<unsigned long long>(base.seed));
  std::printf("%5s | %10s | %14s\n", "n", "wall", "deliveries/s");
  std::printf("%s\n", std::string(35, '-').c_str());

  std::uint32_t gate_n = 0;  // largest n <= 64: the CI-comparable anchor
  for (const std::uint32_t n : sizes) {
    if (n <= 64 && n > gate_n) gate_n = n;
  }

  for (const std::uint32_t n : sizes) {
    ScenarioConfig cfg = base;
    cfg.protocol = Protocol::kTurquois;
    cfg.n = n;
    cfg.distribution = ProposalDist::kDivergent;
    cfg.tick_interval = 40 * kMillisecond;
    cfg.medium.broadcast_rate_bps = 11e6;

    const auto run_start = std::chrono::steady_clock::now();
    const ScenarioResult r = run_scenario(cfg);
    const double wall = seconds_since(run_start);
    if (r.failed_runs != 0 || r.safety_violations != 0) {
      std::fprintf(stderr,
                   "large_n: FAIL — n=%u: %u failed runs, %u safety "
                   "violations (expected a clean failure-free sweep)\n",
                   n, r.failed_runs, r.safety_violations);
      return 1;
    }
    report.cells.push_back(make_cell(r));

    const double deliveries_per_s =
        static_cast<double>(r.medium_total.deliveries) / wall;
    perf.add("wall_pooled_n" + std::to_string(n), wall, "s", kHost, kLower);
    if (n == gate_n) {
      perf.add("deliveries_per_wall_s", deliveries_per_s, "1/s", kHost,
               kHigher)
          .max_drop = kThroughputMaxDrop;
      perf.add("sim_events_per_decision",
               static_cast<double>(r.sim_events) /
                   static_cast<double>(r.latency_ms.count()),
               "count", kSim, kLower)
          .limit = kSimEventsPerDecisionCeiling;
      perf.add("datagram_decodes_per_decision",
               static_cast<double>(r.datagram_decodes) /
                   static_cast<double>(r.latency_ms.count()),
               "count", kSim, kLower)
          .limit = kDatagramDecodesPerDecisionCeiling;
    }
    std::printf("%5u | %9.3fs | %14.0f\n", n, wall, deliveries_per_s);
  }

  const double total_wall = seconds_since(started);
  report.wall_seconds = total_wall;
  perf.wall_seconds = total_wall;
  std::fprintf(stderr, "wall-clock: %.2f s\n", total_wall);

  if (!json_path.empty()) {
    if (!write_json_report(report, json_path)) return 1;
    std::fprintf(stderr, "json report: %s\n", json_path.c_str());
  }
  return finish_perf_report(perf, perf_path);
}
