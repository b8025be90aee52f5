// turquois_campaign — fault-campaign grid runner.
//
// Sweeps a (protocol × fault plan × group size) grid, one scenario per
// cell, and writes one machine-readable turquois-bench/1 report per cell
// (BENCH_campaign_<protocol>_<plan>_n<N>.json). A cell that fails —
// degenerate config, plan/group mismatch, or a crash inside the harness —
// is isolated: the campaign records the error, keeps sweeping, and exits
// non-zero at the end.
//
// The per-cell reports inherit the harness determinism contract: every
// byte except the one-line "environment" object is a pure function of
// (seed, cell coordinates), bit-identical at any --jobs value.
//
//   $ turquois_campaign --protocols turquois,bracha --sizes 4,7
//                       --plan adaptive --plan "ambient;jam@250-400"
//                       --reps 20 --seed 7 --out out/
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "faultplan/spec.hpp"
#include "harness/experiment.hpp"
#include "harness/flags.hpp"
#include "harness/report.hpp"
#include "harness/scheduler.hpp"

using namespace turq;
using namespace turq::harness;
using enum Better;
using enum Domain;

namespace {

struct CellOutcome {
  std::string label;        // "<protocol> n=<N> <plan> [<topology>]"
  bool failed = false;      // config rejected or harness crashed
  std::string error;
  std::string json_path;
  /// Grid coordinates and pooled figures (messages: protocol sends by
  /// correct processes), as the summary report lists them.
  PerfCell row;
  std::uint32_t safety_violations = 0;
  /// Per-hop (frame,receiver) delivery ratio; only meaningful (and only
  /// printed) for multi-hop cells.
  std::optional<double> delivery_ratio;
  std::optional<SigmaAggregate> sigma;
  std::optional<audit::AuditAggregate> audit;
};

/// One point on the topology × density × mobility axis of the sweep.
struct SpatialAxis {
  spatial::SpatialConfig config;
  std::string suffix;  // file-name suffix ("" for the legacy single-hop)
  std::string label;   // human label appended to the cell line
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<Protocol> protocols{Protocol::kTurquois};
  std::vector<std::uint32_t> sizes{4, 7};
  std::vector<faultplan::FaultPlan> plans;
  std::vector<std::string> topology_specs;
  std::vector<std::string> mobility_specs;
  std::vector<double> radii;
  // Every cell is a copy of `base` with its grid coordinates filled in.
  ScenarioConfig base;
  base.repetitions = 20;
  std::string out_dir = ".";
  std::string summary_path;
  bool quick = false;

  std::string named;
  for (const auto& [name, description] : faultplan::named_plans()) {
    named += "\n" + name + " — " + description;
  }
  Flags flags = {
      list_flag("--protocols", protocol_flags(","),
                "comma-separated protocol list (default turquois)", protocols,
                protocol_from_flag),
      flag("--sizes", "4,7,...", "comma-separated group sizes (default 4,7)",
           sizes),
      {"--plan", "<name-or-spec>",
       "repeatable; a named plan or a clause spec (see DESIGN.md Sec. 11). "
       "Default grid: none, failstop, byzantine, adaptive. Named plans:" +
           named,
       [&](std::string_view v) {
         std::string error;
         const auto plan = faultplan::plan_from_name(v, &error);
         if (!plan.has_value()) {
           bad_value("--plan", v, "a plan name or spec: " + error);
         }
         plans.push_back(*plan);
       },
       {}},
      {"--topology", "<spec>",
       "repeatable; adds a topology to the sweep: single, grid, ring or "
       "random with optional parameters ('grid(r=150,area=400)'). Default: "
       "single (the legacy everyone-hears-everyone medium; cell file names "
       "are unchanged)",
       [&](std::string_view v) { topology_specs.emplace_back(v); },
       {}},
      {"--radii", "100,150,...",
       "radio-range axis in meters, applied to every multi-hop topology "
       "(density sweep); default: the spec's radius",
       [&](std::string_view v) {
         for (const std::string& r : split_list(v)) {
           radii.push_back(r == "inf" ? spatial::kInfiniteRadius
                                      : double_flag("--radii", r));
         }
       },
       {}},
      {"--mobilities", "static,waypoint",
       "mobility axis for multi-hop topologies (default static); "
       "parameterized specs accepted",
       [&](std::string_view v) {
         for (std::string& m : split_list(v)) {
           mobility_specs.push_back(std::move(m));
         }
       },
       {}},
  };
  const Flags scenario =
      scenario_flags(base, {"--dist", "--reps", "--loss", "--timeout",
                            "--seed", "--jobs", "--no-audit"});
  flags.insert(flags.end(), scenario.begin(), scenario.end());
  flags.insert(
      flags.end(),
      {flag("--out", "<dir>",
            "directory for the per-cell BENCH_*.json files (default .)",
            out_dir),
       flag("--summary-json", "<path>",
            "also write one aggregate turquois-perf/1 report for the whole "
            "grid (no wall-clock, so byte-identical at any --jobs and "
            "gateable by tools/check_perf.py)",
            summary_path),
       flag("--quick",
            "smoke preset: 2 reps, 30 s deadline (overrides --reps and "
            "--timeout)",
            quick)});
  parse_flags(argc, argv, flags);
  if (quick) {
    base.repetitions = 2;
    base.run_timeout = 30 * kSecond;
  }
  if (plans.empty()) {
    for (const char* name : {"none", "failstop", "byzantine", "adaptive"}) {
      plans.push_back(*faultplan::plan_from_name(name, nullptr));
    }
  }

  // Expand the topology × density × mobility axes into concrete spatial
  // configs. The bare default — one single-hop point — produces suffix-free
  // file names, so existing campaign outputs keep their exact paths.
  if (topology_specs.empty()) topology_specs.emplace_back("single");
  if (mobility_specs.empty()) mobility_specs.emplace_back("static");
  std::vector<SpatialAxis> spatial_axes;
  for (const std::string& tspec : topology_specs) {
    spatial::SpatialConfig placed;
    std::string error;
    if (!spatial::parse_topology(tspec, &placed, &error)) {
      std::fprintf(stderr, "bad --topology spec '%s': %s\n", tspec.c_str(),
                   error.c_str());
      return 2;
    }
    if (!placed.topology_set()) {
      // Single-hop: the radius and mobility axes are meaningless, emit
      // exactly one legacy cell per grid coordinate.
      spatial_axes.push_back({placed, "", ""});
      continue;
    }
    const std::vector<double> radius_axis =
        radii.empty() ? std::vector<double>{placed.radius_m} : radii;
    for (const double radius : radius_axis) {
      for (const std::string& mspec : mobility_specs) {
        SpatialAxis axis;
        axis.config = placed;
        axis.config.radius_m = radius;
        if (!spatial::parse_mobility(mspec, &axis.config, &error)) {
          std::fprintf(stderr, "bad --mobilities spec '%s': %s\n",
                       mspec.c_str(), error.c_str());
          return 2;
        }
        std::string radius_tag =
            std::isfinite(radius)
                ? "r" + std::to_string(static_cast<long long>(radius))
                : "rinf";
        axis.suffix = "_" + slug(tspec.substr(0, tspec.find('('))) + "-" +
                      radius_tag + "-" + slug(mspec.substr(0, mspec.find('(')));
        axis.label = " [" + spatial::describe(axis.config) + "]";
        spatial_axes.push_back(std::move(axis));
      }
    }
  }
  if (!out_dir.empty() && out_dir.back() == '/') out_dir.pop_back();
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create output directory %s: %s\n",
                 out_dir.c_str(), ec.message().c_str());
    return 2;
  }

  std::vector<CellOutcome> outcomes;
  for (const Protocol protocol : protocols) {
    for (const faultplan::FaultPlan& plan : plans) {
      for (const std::uint32_t n : sizes) {
        for (const SpatialAxis& axis : spatial_axes) {
        CellOutcome cell;
        cell.row.protocol = to_string(protocol);
        cell.row.plan = plan.name;
        cell.row.topology = spatial::describe(axis.config);
        cell.row.n = n;
        cell.row.reps = base.repetitions;
        cell.label = to_string(protocol) + " n=" + std::to_string(n) + " " +
                     plan.name + axis.label;
        std::printf("[cell] %s ...\n", cell.label.c_str());
        std::fflush(stdout);
        const auto started = std::chrono::steady_clock::now();
        try {
          // run_scenario validates the cell and throws on a degenerate one.
          ScenarioConfig cfg = base;
          cfg.protocol = protocol;
          cfg.n = n;
          cfg.plan = plan;
          cfg.spatial = axis.config;
          const ScenarioResult r = run_scenario(cfg);
          const double wall = seconds_since(started);
          const std::string name = "campaign_" + to_string(protocol) + "_" +
                                   slug(plan.name) + "_n" + std::to_string(n) +
                                   axis.suffix;
          BenchReport report;
          report.name = name;
          report.seed = base.seed;
          report.jobs = effective_jobs(base.jobs);
          report.wall_seconds = wall;
          report.cells.push_back(make_cell(r));
          cell.json_path = out_dir + "/BENCH_" + name + ".json";
          if (!write_json_report(report, cell.json_path)) {
            cell.failed = true;
            cell.error = "cannot write " + cell.json_path;
          }
          cell.row.mean_ms = r.latency_ms.empty() ? 0.0 : r.mean();
          cell.row.p99_ms =
              r.latency_ms.empty() ? 0.0 : r.latency_ms.percentile(0.99);
          cell.row.messages = r.app_messages;
          cell.row.decisions = r.latency_ms.count();
          cell.row.failed_runs = r.failed_runs;
          cell.safety_violations = r.safety_violations;
          if (r.spatial_total.has_value()) {
            const unsigned long long attempts =
                r.medium_total.deliveries + r.medium_total.omissions +
                r.medium_total.unreachable + r.medium_total.frames_collided;
            cell.delivery_ratio =
                attempts > 0
                    ? static_cast<double>(r.medium_total.deliveries) /
                          static_cast<double>(attempts)
                    : 0.0;
          }
          cell.sigma = r.sigma;
          cell.audit = r.audit;
        } catch (const std::exception& e) {
          // Isolate the cell: record the failure and keep sweeping.
          cell.failed = true;
          cell.error = e.what();
        }
        outcomes.push_back(std::move(cell));
        }
      }
    }
  }

  std::printf("\n%-34s %12s %8s %8s %9s %8s %s\n", "cell", "mean_ms",
              "samples", "failed", "delivery", "audit", "sigma");
  bool any_failed = false;
  for (const CellOutcome& cell : outcomes) {
    if (cell.failed) {
      any_failed = true;
      std::printf("%-34s ERROR: %s\n", cell.label.c_str(), cell.error.c_str());
      continue;
    }
    std::string sigma = "-";
    if (cell.sigma.has_value()) {
      sigma = std::to_string(cell.sigma->eligible_reps) + "/" +
              std::to_string(cell.sigma->tracked_reps) + " eligible (" +
              (cell.sigma->liveness_eligible() ? "liveness-eligible"
                                               : "sigma-violating") +
              ", bound " + std::to_string(cell.sigma->bound) + ")";
    }
    std::string audit_col = "-";
    if (cell.audit.has_value()) {
      audit_col = cell.audit->passed() ? "pass" : "FAIL";
    }
    char delivery_col[16] = "-";
    if (cell.delivery_ratio.has_value()) {
      std::snprintf(delivery_col, sizeof(delivery_col), "%.1f%%",
                    100.0 * *cell.delivery_ratio);
    }
    std::printf("%-34s %12.2f %8llu %8u %9s %8s %s\n", cell.label.c_str(),
                cell.row.mean_ms,
                static_cast<unsigned long long>(cell.row.decisions),
                cell.row.failed_runs, delivery_col,
                audit_col.c_str(), sigma.c_str());
    if (cell.safety_violations > 0) {
      any_failed = true;
      std::printf("%-34s SAFETY VIOLATIONS: %u\n", cell.label.c_str(),
                  cell.safety_violations);
    }
    if (cell.audit.has_value() && !cell.audit->passed()) {
      any_failed = true;
      std::printf("%-34s AUDIT VIOLATIONS: %llu over %llu reps\n",
                  cell.label.c_str(),
                  static_cast<unsigned long long>(cell.audit->violations),
                  static_cast<unsigned long long>(cell.audit->violating_reps));
    }
  }
  std::printf("\n%zu cells, reports in %s/\n", outcomes.size(),
              out_dir.c_str());

  if (!summary_path.empty()) {
    // One aggregate report for the whole grid. Every field is a pure
    // function of (seed, grid coordinates) — no wall-clock anywhere — so
    // the file is byte-identical at any --jobs value.
    PerfReport summary;
    summary.name = "campaign_summary";
    summary.quick = quick;
    summary.seed = base.seed;
    std::uint64_t decisions = 0;
    std::uint64_t messages = 0;
    std::uint32_t failed_cells = 0;
    std::uint32_t failed_runs = 0;
    std::uint32_t violations = 0;
    double latency_ms_sum = 0.0;
    for (const CellOutcome& cell : outcomes) {
      if (cell.failed) {
        ++failed_cells;
        continue;
      }
      decisions += cell.row.decisions;
      messages += cell.row.messages;
      failed_runs += cell.row.failed_runs;
      violations += cell.safety_violations;
      latency_ms_sum +=
          cell.row.mean_ms * static_cast<double>(cell.row.decisions);
      summary.grid.push_back(cell.row);
    }
    summary.add("failed_cells", failed_cells, "count", kSim, kLower);
    summary.add("failed_runs", failed_runs, "count", kSim, kLower);
    summary.add("safety_violations", violations, "count", kSim, kLower);
    summary.add("decisions", decisions, "count", kSim, kHigher);
    summary.add("messages", messages, "count", kSim, kLower);
    // Pooled decisions per second of simulated decision latency (total
    // decisions over total latency): machine-independent.
    const double rate =
        latency_ms_sum > 0.0 ? 1000.0 * decisions / latency_ms_sum : 0.0;
    summary.add("decisions_per_latency_s", rate, "1/s", kSim, kHigher)
        .max_drop = kThroughputMaxDrop;
    if (!write_perf_json(summary, summary_path)) return 2;
    std::printf("summary: wrote %s\n", summary_path.c_str());
  }
  return any_failed ? 1 : 0;
}
