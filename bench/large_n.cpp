// Large-n scaling benchmark: failure-free Turquois at n ∈ {16, 32, 64, 128}
// on an 11 Mbps collision domain with a 40 ms tick (the 2 Mbps / 10 ms
// default saturates the channel well before n = 128 — see EXPERIMENTS.md,
// "Large-n scaling").
//
// Each group size runs two legs over the *same seeds*:
//   legacy    --no-exchange-pool: every receiver decodes and verifies each
//             delivery privately — the pre-pool hot path (and a
//             conservative stand-in for the pre-PR binary, which rejects
//             n > 64 outright)
//   pooled    the default path: one decode + batched-SHA-256 verify per
//             unique payload, shared across all receivers
//
// The legs must be *bit-identical* in everything simulated — the bench
// asserts it by serializing each leg's report cell and comparing bytes
// (environment excluded), so every run doubles as a determinism test.
//
// Output:
//   --json PATH       turquois-bench/1 report, one cell per (n, leg); the
//                     deterministic artifact (byte-identical at any --jobs,
//                     modulo the environment line)
//   --perf-json PATH  wall-clock metrics (schema turquois-perf/1,
//                     machine-dependent by nature) — the committed
//                     BENCH_large_n.json, gated by tools/check_perf.py on
//                     `deliveries_per_wall_s` and `speedup_vs_legacy`. Both
//                     gated numbers come from the largest n ≤ 64 in the
//                     sweep so quick CI runs stay comparable to the full
//                     baseline.

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

namespace {

struct Leg {
  const char* name;
  bool pool;
};

constexpr Leg kLegs[] = {
    {"legacy", false},
    {"pooled", true},
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::vector<std::uint32_t> sizes = {16, 32, 64, 128};
  std::string json_path;
  std::string perf_path;
  // --reps, --seed and --jobs; every leg copies it.
  ScenarioConfig base;
  base.repetitions = 5;
  base.seed = 3;
  Flags flags = scenario_flags(base, {"--reps", "--seed", "--jobs"});
  // --quick trims the sweep to n <= 64 but keeps the repetition count:
  // the gated deliveries_per_wall_s comes from the n = 64 pooled leg, and
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
      "tick\n(%u repetitions per leg, seed %llu; all legs bit-identical by "
      "construction,\n verified per cell)\n\n",
      base.repetitions, static_cast<unsigned long long>(base.seed));
  std::printf("%5s | %10s | %10s | %9s\n", "n", "legacy", "pooled",
              "pool gain");
  std::printf("%s\n", std::string(44, '-').c_str());

  std::uint32_t gate_n = 0;  // largest n <= 64: the CI-comparable anchor
  for (const std::uint32_t n : sizes) {
    if (n <= 64 && n > gate_n) gate_n = n;
  }

  for (const std::uint32_t n : sizes) {
    double wall[std::size(kLegs)] = {};
    std::string fingerprint;
    std::uint64_t deliveries = 0;
    for (std::size_t li = 0; li < std::size(kLegs); ++li) {
      const Leg& leg = kLegs[li];
      ScenarioConfig cfg = base;
      cfg.protocol = Protocol::kTurquois;
      cfg.n = n;
      cfg.distribution = ProposalDist::kDivergent;
      cfg.exchange_pool = leg.pool;
      cfg.tick_interval = 40 * kMillisecond;
      cfg.medium.broadcast_rate_bps = 11e6;

      const auto leg_start = std::chrono::steady_clock::now();
      const ScenarioResult r = run_scenario(cfg);
      wall[li] = seconds_since(leg_start);

      ReportCell cell = make_cell(r);
      // The cell's deterministic bytes: legs of the same n must agree.
      const std::string fp = to_json(cell);
      if (fingerprint.empty()) {
        fingerprint = fp;
        deliveries = r.medium_total.deliveries;
      } else if (fp != fingerprint) {
        std::fprintf(stderr,
                     "large_n: FAIL — leg '%s' diverged from leg '%s' at "
                     "n=%u (simulated output must be bit-identical)\n",
                     leg.name, kLegs[0].name, n);
        return 1;
      }
      if (r.failed_runs != 0 || r.safety_violations != 0) {
        std::fprintf(stderr,
                     "large_n: FAIL — n=%u leg '%s': %u failed runs, %u "
                     "safety violations (expected a clean failure-free "
                     "sweep)\n",
                     n, leg.name, r.failed_runs, r.safety_violations);
        return 1;
      }
      cell.extra["exchange_pool"] = leg.pool ? 1.0 : 0.0;
      report.cells.push_back(std::move(cell));
    }

    const std::string tag = std::to_string(n);
    perf.add("wall_legacy_n" + tag, wall[0], "s", kHost, kLower);
    perf.add("wall_pooled_n" + tag, wall[1], "s", kHost, kLower);
    perf.add("speedup_pooled_n" + tag, wall[0] / wall[1], "x", kHost, kHigher);
    if (n == gate_n) {
      perf.add("deliveries_per_wall_s", deliveries / wall[1], "1/s", kHost,
               kHigher)
          .max_drop = kThroughputMaxDrop;
      // A ratio of two legs of the same run, so a hard floor rather than a
      // comparison with the committed baseline.
      perf.add("speedup_vs_legacy", wall[0] / wall[1], "x", kHost, kHigher)
          .limit = 1.20;
    }
    std::printf("%5u | %9.3fs | %9.3fs | %8.2fx\n", n, wall[0], wall[1],
                wall[0] / wall[1]);
  }

  const double total_wall = seconds_since(started);
  report.wall_seconds = total_wall;
  perf.wall_seconds = total_wall;
  std::printf(
      "\npool gain = legacy / pooled wall clock.\nThe legacy leg already "
      "shares this build's broadcast-path caches, so the\ngains above "
      "understate the speedup over the pre-pool binary (which caps\nat "
      "n = 64; see EXPERIMENTS.md for the "
      "cross-binary comparison).\n");
  std::fprintf(stderr, "wall-clock: %.2f s\n", total_wall);

  if (!json_path.empty()) {
    if (!write_json_report(report, json_path)) return 1;
    std::fprintf(stderr, "json report: %s\n", json_path.c_str());
  }
  return finish_perf_report(perf, perf_path);
}
