// Ablation A — the σ liveness bound.
//
// The paper guarantees progress in rounds whose omission-fault count is
// σ ≤ ceil((n-t)/2)·(n-k-t) + k - 2, and safety always. This experiment
// sweeps the injected omission rate and reports Turquois decision latency,
// the fraction of runs that complete within a deadline, and — via a
// σ-tracking fault plan — the *measured* per-round omission accounting:
// how many rounds actually exceeded the bound and whether each cell stays
// liveness-eligible per the paper's predicate. Expected shape: graceful
// latency growth while the per-round fault mass stays under the bound,
// sharp degradation beyond — but never a safety violation (verified on
// every run).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "faultplan/spec.hpp"
#include "harness/experiment.hpp"
#include "harness/parse_duration.hpp"
#include "harness/report.hpp"
#include "harness/scheduler.hpp"
#include "turquois/config.hpp"

using namespace turq;
using namespace turq::harness;

int main(int argc, char** argv) {
  std::uint32_t reps = 20;
  std::uint32_t jobs = 1;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--quick") {
      reps = 5;
    } else if (arg == "--jobs" && i + 1 < argc) {
      jobs = u32_flag("--jobs", argv[++i]);
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--jobs N] [--json PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  BenchReport report;
  report.name = "ablation_sigma";
  report.jobs = effective_jobs(jobs);
  const auto started = std::chrono::steady_clock::now();

  std::printf(
      "Ablation A — Turquois progress vs. injected omission rate\n"
      "(latency ms over completed runs; 20 s per-run deadline;\n"
      " viol-rounds = measured rounds exceeding the sigma bound)\n\n");
  std::printf("%4s %6s | %9s | %-12s | %-10s | %-8s | %-12s\n", "n", "k",
              "sigma-bnd", "loss-rate", "latency", "ok-runs", "viol-rounds");
  std::printf("%s\n", std::string(78, '-').c_str());

  for (const std::uint32_t n : {4u, 7u, 10u, 16u}) {
    const std::uint32_t f = (n - 1) / 3;
    const std::uint32_t k = n - f;
    const auto bound = turquois::sigma_bound(n, k, 0);
    for (const double loss : {0.0, 0.1, 0.25, 0.4, 0.6}) {
      ScenarioConfig cfg;
      cfg.protocol = Protocol::kTurquois;
      cfg.n = n;
      cfg.distribution = ProposalDist::kDivergent;
      cfg.repetitions = reps;
      cfg.seed = 0x51617 + n;
      cfg.loss_rate = loss;
      cfg.bursty_loss = false;
      cfg.run_timeout = 20 * kSecond;
      cfg.jobs = jobs;
      // Same ambient channel as before (the plan's ambient clause draws
      // the identical ("loss", 0) stream), plus per-round σ metering.
      cfg.plan = *faultplan::parse_spec("sigma;ambient", nullptr);
      const ScenarioResult r = run_scenario(cfg);
      ReportCell cell = make_cell(r);
      cell.extra["loss_rate"] = loss;
      cell.extra["sigma_bound"] = static_cast<double>(bound);
      report.cells.push_back(std::move(cell));
      char latency[32];
      if (r.latency_ms.empty()) {
        std::snprintf(latency, sizeof(latency), "%10s", "n/a");
      } else {
        std::snprintf(latency, sizeof(latency), "%10.2f", r.mean());
      }
      char sigma[32];
      if (r.sigma.has_value() && r.sigma->rounds > 0) {
        std::snprintf(sigma, sizeof(sigma), "%5.1f%% (%s)",
                      100.0 * static_cast<double>(r.sigma->violating_rounds) /
                          static_cast<double>(r.sigma->rounds),
                      r.sigma->liveness_eligible() ? "elig" : "viol");
      } else {
        std::snprintf(sigma, sizeof(sigma), "%12s", "n/a");
      }
      std::printf("%4u %6u | %9lld | %10.0f%% | %s | %u/%u | %s%s\n", n, k,
                  static_cast<long long>(bound), loss * 100, latency,
                  cfg.repetitions - r.failed_runs, cfg.repetitions, sigma,
                  r.safety_violations > 0 ? "  SAFETY-VIOLATION" : "");
    }
  }
  std::printf(
      "\nSafety holds at every loss rate (no violations expected above);\n"
      "liveness degrades gracefully and only stalls under extreme loss,\n"
      "matching the paper's fairness assumption.\n");

  if (!json_path.empty()) {
    report.seed = 0x51617;  // per-cell seed is 0x51617 + n
    report.wall_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - started)
                              .count();
    if (!write_json_report(report, json_path)) return 1;
    std::fprintf(stderr, "json report: %s\n", json_path.c_str());
  }
  return 0;
}
