// Ablation D — sensitivity to the local clock-tick (retransmission) period.
//
// The paper's §7.3 attributes part of Turquois's fail-stop penalty to its
// "crude" fixed 10 ms timeout, "not adaptable to network conditions nor to
// the number of processes". This sweep varies the tick interval under the
// fail-stop load (where every quorum needs every survivor, so each lost
// broadcast stalls until a retransmission) and under the failure-free load
// (where an aggressive tick mostly adds contention).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "harness/experiment.hpp"
#include "harness/parse_duration.hpp"
#include "harness/report.hpp"
#include "harness/scheduler.hpp"

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
  report.name = "ablation_timeout";
  report.jobs = effective_jobs(jobs);
  const auto started = std::chrono::steady_clock::now();

  std::printf(
      "Ablation D — Turquois latency vs. clock-tick interval (ms)\n"
      "(divergent proposals; fail-stop = f crashed, quorum needs every "
      "survivor)\n\n");
  std::printf("%6s %6s | %-24s | %-24s\n", "n", "tick", "failure-free",
              "fail-stop");
  std::printf("%s\n", std::string(70, '-').c_str());

  for (const std::uint32_t n : {7u, 16u}) {
    for (const SimDuration tick :
         {2 * kMillisecond, 5 * kMillisecond, 10 * kMillisecond,
          20 * kMillisecond, 40 * kMillisecond}) {
      char cells[2][32];
      int cell = 0;
      for (const faultplan::Role role :
           {faultplan::Role::kNone, faultplan::Role::kFailStop}) {
        ScenarioConfig cfg;
        cfg.protocol = Protocol::kTurquois;
        cfg.n = n;
        cfg.distribution = ProposalDist::kDivergent;
        cfg.plan = faultplan::canned_plan(
            role, role == faultplan::Role::kNone ? "failure-free"
                                                 : "fail-stop");
        cfg.repetitions = reps;
        cfg.seed = 0xD0 + n;
        cfg.tick_interval = tick;
        cfg.tick_jitter = tick / 5;
        cfg.jobs = jobs;
        const ScenarioResult r = run_scenario(cfg);
        ReportCell jcell = make_cell(r);
        jcell.extra["tick_ms"] =
            static_cast<double>(tick) / static_cast<double>(kMillisecond);
        report.cells.push_back(std::move(jcell));
        if (r.latency_ms.empty()) {
          std::snprintf(cells[cell], sizeof(cells[cell]), "n/a (%u failed)",
                        r.failed_runs);
        } else {
          std::snprintf(cells[cell], sizeof(cells[cell]), "%8.2f ± %-8.2f",
                        r.mean(), r.ci95());
        }
        ++cell;
      }
      std::printf("%6u %6lld | %-24s | %-24s\n", n,
                  static_cast<long long>(tick / kMillisecond), cells[0],
                  cells[1]);
    }
  }
  std::printf(
      "\nShorter ticks recover from losses faster but add contention at\n"
      "larger n; longer ticks stretch every stall — the 10 ms choice of the\n"
      "paper sits near the sweet spot.\n");

  if (!json_path.empty()) {
    report.seed = 0xD0;  // per-cell seed is 0xD0 + n
    report.wall_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - started)
                              .count();
    if (!write_json_report(report, json_path)) return 1;
    std::fprintf(stderr, "json report: %s\n", json_path.c_str());
  }
  return 0;
}
