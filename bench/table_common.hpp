// Shared command-line driver for the paper-table benchmark binaries.
//
// Usage: table<N> [--reps R] [--sizes 4,7,10] [--seed S] [--jobs N]
//                 [--json PATH] [--quick]
//   --quick  = 10 repetitions and sizes {4, 7, 10} (fast smoke run)
//   --jobs   = worker threads per scenario (0 = auto); results are
//              bit-identical for any value
//   --json   = also write the grid as a machine-readable report
//              (harness/report.hpp schema), e.g. BENCH_table1.json
// Default matches the paper: 50 repetitions, sizes {4, 7, 10, 13, 16}.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/parse_duration.hpp"
#include "harness/report.hpp"
#include "harness/scheduler.hpp"
#include "harness/table.hpp"

namespace turq::bench {

struct TableArgs {
  std::uint32_t reps = 50;
  std::vector<std::uint32_t> sizes = {4, 7, 10, 13, 16};
  std::uint64_t seed = 2010;  // DSN 2010
  std::uint32_t jobs = 1;     // 0 = auto-detect
  std::string json_path;      // empty = no JSON report
};

inline TableArgs parse_table_args(int argc, char** argv) {
  TableArgs args;
  const auto usage = [&]() {
    std::fprintf(stderr,
                 "usage: %s [--reps R] [--sizes 4,7,...] [--seed S] "
                 "[--jobs N] [--json PATH] [--quick]\n"
                 "  --jobs N     worker threads per scenario (0 = auto, "
                 "default 1);\n"
                 "               results are bit-identical for any N\n"
                 "  --json PATH  write a machine-readable benchmark report\n",
                 argv[0]);
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      args.reps = harness::u32_flag("--reps", argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      args.seed = harness::unsigned_flag("--seed", argv[++i]);
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      args.jobs = harness::u32_flag("--jobs", argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      args.json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--sizes") == 0 && i + 1 < argc) {
      args.sizes.clear();
      for (const std::string& n : harness::split_list(argv[++i])) {
        args.sizes.push_back(harness::u32_flag("--sizes", n));
      }
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      args.reps = 10;
      args.sizes = {4, 7, 10};
    } else {
      usage();
    }
  }
  if (args.reps == 0) {
    std::fprintf(stderr, "%s: --reps must be >= 1\n", argv[0]);
    std::exit(2);
  }
  for (const std::uint32_t n : args.sizes) {
    if (n < 4) {
      std::fprintf(stderr, "%s: --sizes entries must be >= 4 (got %u)\n",
                   argv[0], n);
      std::exit(2);
    }
  }
  return args;
}

/// Runs one paper table end to end: parse args, run the grid, print the
/// table next to the paper's reference numbers, optionally emit the JSON
/// report. `name` labels the report ("table1_failure_free", ...).
inline int run_paper_table(int argc, char** argv,
                           const faultplan::FaultPlan& plan, const char* name,
                           const char* title, const char* paper_reference) {
  const TableArgs args = parse_table_args(argc, argv);

  harness::TableSpec spec;
  spec.title = title;
  spec.plan = plan;
  spec.group_sizes = args.sizes;

  harness::ScenarioConfig base;
  base.repetitions = args.reps;
  base.seed = args.seed;
  base.jobs = args.jobs;

  std::fprintf(stderr, "%s (%u repetitions, seed %llu, %u jobs)\n", title,
               args.reps, static_cast<unsigned long long>(args.seed),
               harness::effective_jobs(args.jobs));
  const auto started = std::chrono::steady_clock::now();
  const auto results = harness::run_table(spec, base);
  const double wall = harness::seconds_since(started);
  std::printf("%s\n", harness::render_table(spec, results).c_str());
  std::printf("Paper reference (Emulab 802.11b testbed):\n%s\n",
              paper_reference);
  std::fprintf(stderr, "wall-clock: %.2f s\n", wall);

  if (!args.json_path.empty()) {
    harness::BenchReport report;
    report.name = name;
    report.seed = args.seed;
    report.jobs = harness::effective_jobs(args.jobs);
    report.wall_seconds = wall;
    for (const harness::ScenarioResult& r : results) {
      report.cells.push_back(harness::make_cell(r));
    }
    if (!harness::write_json_report(report, args.json_path)) return 1;
    std::fprintf(stderr, "json report: %s\n", args.json_path.c_str());
  }
  return 0;
}

}  // namespace turq::bench
