// Shared command-line driver for the paper-table benchmark binaries.
//
// Flags: --reps, --sizes, --seed, --jobs, --json PATH (the grid as a
// harness/report.hpp report, e.g. BENCH_table1.json) and --quick (10
// repetitions, sizes {4, 7, 10}); `table<N> --help` lists them. The default
// matches the paper: 50 repetitions, sizes {4, 7, 10, 13, 16}.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/flags.hpp"
#include "harness/report.hpp"
#include "harness/scheduler.hpp"
#include "harness/table.hpp"

namespace turq::bench {

/// Runs one paper table end to end: parse args, run the grid, print the
/// table next to the paper's reference numbers, optionally emit the JSON
/// report. `name` labels the report ("table1_failure_free", ...).
inline int run_paper_table(int argc, char** argv,
                           const faultplan::FaultPlan& plan, const char* name,
                           const char* title, const char* paper_reference) {
  harness::TableSpec spec;
  spec.title = title;
  spec.plan = plan;
  spec.group_sizes = {4, 7, 10, 13, 16};
  std::string json_path;  // empty = no JSON report
  // --reps, --seed and --jobs; every cell of the table copies it.
  harness::ScenarioConfig base;
  base.seed = 2010;  // DSN 2010
  harness::Flags flags =
      harness::scenario_flags(base, {"--reps", "--seed", "--jobs"});
  flags.insert(
      flags.end(),
      {harness::flag("--sizes", "4,7,...",
                     "comma-separated group sizes (default 4,7,10,13,16)",
                     spec.group_sizes),
       harness::flag("--json", "<path>",
                     "write a machine-readable benchmark report", json_path),
       {"--quick", "", "10 repetitions and sizes 4,7,10 (fast smoke run)",
        [&](std::string_view) {
          base.repetitions = 10;
          spec.group_sizes = {4, 7, 10};
        },
        {}}});
  harness::parse_flags(argc, argv, flags);
  if (base.repetitions == 0) {
    std::fprintf(stderr, "%s: --reps must be >= 1\n", argv[0]);
    return 2;
  }
  for (const std::uint32_t n : spec.group_sizes) {
    if (n < 4) {
      std::fprintf(stderr, "%s: --sizes entries must be >= 4 (got %u)\n",
                   argv[0], n);
      return 2;
    }
  }

  std::fprintf(stderr, "%s (%u repetitions, seed %llu, %u jobs)\n", title,
               base.repetitions, static_cast<unsigned long long>(base.seed),
               harness::effective_jobs(base.jobs));
  const auto started = std::chrono::steady_clock::now();
  const auto results = harness::run_table(spec, base);
  const double wall = harness::seconds_since(started);
  std::printf("%s\n", harness::render_table(spec, results).c_str());
  std::printf("Paper reference (Emulab 802.11b testbed):\n%s\n",
              paper_reference);
  std::fprintf(stderr, "wall-clock: %.2f s\n", wall);

  if (!json_path.empty()) {
    harness::BenchReport report;
    report.name = name;
    report.seed = base.seed;
    report.jobs = harness::effective_jobs(base.jobs);
    report.wall_seconds = wall;
    for (const harness::ScenarioResult& r : results) {
      report.cells.push_back(harness::make_cell(r));
    }
    if (!harness::write_json_report(report, json_path)) return 1;
    std::fprintf(stderr, "json report: %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace turq::bench
