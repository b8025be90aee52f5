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
//   --perf-json PATH  flat wall-clock metrics (schema turquois-large-n/1,
//                     machine-dependent by nature) — the committed
//                     BENCH_large_n.json, gated by tools/check_perf.sh on
//                     `events_per_sec` and `speedup_vs_legacy`. Both gated
//                     numbers come from the largest n ≤ 64 in the sweep so
//                     quick CI runs stay comparable to the full baseline.
//
// Usage: large_n [--quick] [--reps R] [--sizes 16,32,...] [--seed S]
//                [--jobs N] [--json PATH] [--perf-json PATH]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "crypto/sha256_batch.hpp"
#include "harness/experiment.hpp"
#include "harness/parse_duration.hpp"
#include "harness/report.hpp"
#include "harness/scheduler.hpp"

using namespace turq;
using namespace turq::harness;

namespace {

struct Leg {
  const char* name;
  bool pool;
};

constexpr Leg kLegs[] = {
    {"legacy", false},
    {"pooled", true},
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// The deterministic bytes of one cell: a single-cell report with the
/// environment line stripped. Legs of the same n must agree on this.
std::string cell_fingerprint(const ReportCell& cell) {
  BenchReport probe;
  probe.name = "large_n";
  probe.seed = 0;
  probe.cells.push_back(cell);
  std::istringstream in(to_json(probe));
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"environment\"") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::uint32_t reps = 5;
  std::vector<std::uint32_t> sizes = {16, 32, 64, 128};
  std::uint64_t seed = 3;
  std::uint32_t jobs = 1;
  std::string json_path;
  std::string perf_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--quick") {
      // Trims the sweep to n <= 64 but keeps the repetition count: the
      // gated events_per_sec comes from the n = 64 pooled leg, and cutting
      // reps would shift its setup-cost fraction away from the committed
      // full-run baseline.
      quick = true;
      sizes = {16, 64};
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = u32_flag("--reps", argv[++i]);
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = unsigned_flag("--seed", argv[++i]);
    } else if (arg == "--jobs" && i + 1 < argc) {
      jobs = u32_flag("--jobs", argv[++i]);
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--perf-json" && i + 1 < argc) {
      perf_path = argv[++i];
    } else if (arg == "--sizes" && i + 1 < argc) {
      sizes.clear();
      for (const std::string& n : split_list(argv[++i])) {
        sizes.push_back(u32_flag("--sizes", n));
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--reps R] [--sizes 16,32,...] "
                   "[--seed S] [--jobs N] [--json PATH] [--perf-json PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (reps == 0 || sizes.empty()) {
    std::fprintf(stderr, "%s: need --reps >= 1 and a non-empty --sizes\n",
                 argv[0]);
    return 2;
  }

  BenchReport report;
  report.name = "large_n";
  report.seed = seed;
  report.jobs = effective_jobs(jobs);
  std::map<std::string, double> perf;  // ordered => deterministic key order
  const auto started = std::chrono::steady_clock::now();

  std::printf(
      "Large-n scaling — failure-free Turquois, 11 Mbps broadcast, 40 ms "
      "tick\n(%u repetitions per leg, seed %llu; all legs bit-identical by "
      "construction,\n verified per cell)\n\n",
      reps, static_cast<unsigned long long>(seed));
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
      ScenarioConfig cfg;
      cfg.protocol = Protocol::kTurquois;
      cfg.n = n;
      cfg.distribution = ProposalDist::kDivergent;
      cfg.repetitions = reps;
      cfg.seed = seed;
      cfg.jobs = jobs;
      cfg.exchange_pool = leg.pool;
      cfg.tick_interval = 40 * kMillisecond;
      cfg.medium.broadcast_rate_bps = 11e6;

      const auto leg_start = std::chrono::steady_clock::now();
      const ScenarioResult r = run_scenario(cfg);
      wall[li] = seconds_since(leg_start);

      ReportCell cell = make_cell(r);
      const std::string fp = cell_fingerprint(cell);
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
    perf["wall_legacy_n" + tag] = wall[0];
    perf["wall_pooled_n" + tag] = wall[1];
    perf["speedup_pooled_n" + tag] = wall[0] / wall[1];
    if (n == gate_n) {
      perf["events_per_sec"] = static_cast<double>(deliveries) / wall[1];
      perf["speedup_vs_legacy"] = wall[0] / wall[1];
    }
    std::printf("%5u | %9.3fs | %9.3fs | %8.2fx\n", n, wall[0], wall[1],
                wall[0] / wall[1]);
  }

  const double total_wall = seconds_since(started);
  report.wall_seconds = total_wall;
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
  if (!perf_path.empty()) {
    std::FILE* f = std::fopen(perf_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "large_n: cannot write %s\n", perf_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"schema\": \"turquois-large-n/1\",\n"
                 "  \"name\": \"large_n\",\n"
                 "  \"quick\": %s,\n"
                 "  \"metrics\": {\n",
                 quick ? "true" : "false");
    std::size_t emitted = 0;
    for (const auto& [key, value] : perf) {
      std::fprintf(f, "    \"%s\": %.3f%s\n", key.c_str(), value,
                   ++emitted == perf.size() ? "" : ",");
    }
    // The environment line records what this run *actually* executed with —
    // the worker count, the SHA-256 implementation kAuto resolved to on this
    // machine, and the legs the sweep ran — not the compile-time defaults.
    // It is excluded from the determinism contract (see report.hpp).
    std::fprintf(f,
                 "  },\n"
                 "  \"environment\": {\"jobs\": %u, "
                 "\"sha256_impl\": \"%s\", \"legs\": "
                 "[\"legacy\", \"pooled\"], "
                 "\"wall_clock_seconds\": %.3f}\n"
                 "}\n",
                 report.jobs,
                 crypto::to_string(crypto::sha256_batch_resolved_impl()),
                 total_wall);
    std::fclose(f);
    std::fprintf(stderr, "perf report: %s\n", perf_path.c_str());
  }
  return 0;
}
