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
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "faultplan/spec.hpp"
#include "harness/experiment.hpp"
#include "harness/parse_duration.hpp"
#include "harness/report.hpp"
#include "harness/scheduler.hpp"

using namespace turq;
using namespace turq::harness;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::string plans;
  for (const auto& [name, description] : faultplan::named_plans()) {
    plans += "                                      " + name + " — " +
             description + "\n";
  }
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --protocols %s\n"
      "                                      comma-separated protocol list\n"
      "                                      (default turquois)\n"
      "  --sizes 4,7,...                     comma-separated group sizes\n"
      "                                      (default 4,7)\n"
      "  --plan <name-or-spec>               repeatable; a named plan or a\n"
      "                                      clause spec (see DESIGN.md\n"
      "                                      Sec. 11). Default grid: none,\n"
      "                                      failstop, byzantine, adaptive.\n"
      "                                      Named plans:\n"
      "%s"
      "  --topology <spec>                   repeatable; adds a topology to\n"
      "                                      the sweep: single, grid, ring or\n"
      "                                      random with optional parameters\n"
      "                                      ('grid(r=150,area=400)').\n"
      "                                      Default: single (the legacy\n"
      "                                      everyone-hears-everyone medium;\n"
      "                                      cell file names are unchanged)\n"
      "  --radii 100,150,...                 radio-range axis in meters,\n"
      "                                      applied to every multi-hop\n"
      "                                      topology (density sweep);\n"
      "                                      default: the spec's radius\n"
      "  --mobilities static,waypoint        mobility axis for multi-hop\n"
      "                                      topologies (default static);\n"
      "                                      parameterized specs accepted\n"
      "  --dist unanimous|divergent          proposal distribution\n"
      "  --reps <N>                          repetitions per cell (default 20)\n"
      "  --loss <p>                          ambient iid frame loss\n"
      "                                      (default 0.01)\n"
      "  --timeout <s>                       per-run deadline (default 120)\n"
      "  --seed <S>                          root seed (default 1)\n"
      "  --jobs <N>                          worker threads per cell\n"
      "                                      (default 1, 0 = auto); cell\n"
      "                                      reports are bit-identical for\n"
      "                                      any N\n"
      "  --out <dir>                         directory for the per-cell\n"
      "                                      BENCH_*.json files (default .)\n"
      "  --summary-json <path>               also write one aggregate\n"
      "                                      turquois-bench/1 report for the\n"
      "                                      whole grid: per-cell decision\n"
      "                                      latency and message complexity,\n"
      "                                      plus pooled decisions per\n"
      "                                      simulated second as\n"
      "                                      events_per_sec (deterministic —\n"
      "                                      no wall-clock fields — so the\n"
      "                                      file is byte-identical at any\n"
      "                                      --jobs and gateable by\n"
      "                                      tools/check_perf.sh)\n"
      "  --quick                             smoke preset: 2 reps, 30 s\n"
      "                                      deadline (overrides --reps and\n"
      "                                      --timeout)\n"
      "  --no-audit                          skip the consensus-property\n"
      "                                      auditor (on by default; audit\n"
      "                                      violations fail the campaign)\n",
      argv0, protocol_flags(",").c_str(), plans.c_str());
  std::exit(2);
}

struct CellOutcome {
  std::string label;        // "<protocol> n=<N> <plan> [<topology>]"
  std::string protocol;     // grid coordinates, for the summary report
  std::string plan;
  std::uint32_t n = 0;
  bool failed = false;      // config rejected or harness crashed
  std::string error;
  std::string json_path;
  double mean_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t messages = 0;  // protocol messages pooled over repetitions
  std::size_t samples = 0;
  std::uint32_t failed_runs = 0;
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
  ProposalDist dist = ProposalDist::kUnanimous;
  std::uint32_t reps = 20;
  double loss_rate = 0.01;
  SimDuration timeout = 120 * kSecond;
  std::uint64_t seed = 1;
  std::uint32_t jobs = 1;
  std::string out_dir = ".";
  std::string summary_path;
  bool quick = false;
  bool audit = true;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--protocols") {
      protocols.clear();
      for (const std::string& p : split_list(next())) {
        const auto protocol = protocol_from_flag(p);
        if (!protocol.has_value()) usage(argv[0]);
        protocols.push_back(*protocol);
      }
    } else if (arg == "--sizes") {
      sizes.clear();
      for (const std::string& s : split_list(next())) {
        sizes.push_back(u32_flag("--sizes", s));
      }
    } else if (arg == "--plan") {
      std::string error;
      const auto plan = faultplan::plan_from_name(next(), &error);
      if (!plan.has_value()) {
        std::fprintf(stderr, "bad --plan: %s\n", error.c_str());
        return 2;
      }
      plans.push_back(*plan);
    } else if (arg == "--topology") {
      topology_specs.emplace_back(next());
    } else if (arg == "--radii") {
      for (const std::string& r : split_list(next())) {
        radii.push_back(r == "inf" ? spatial::kInfiniteRadius
                                   : double_flag("--radii", r));
      }
    } else if (arg == "--mobilities") {
      for (const std::string& m : split_list(next())) {
        mobility_specs.push_back(m);
      }
    } else if (arg == "--dist") {
      const auto d = parse_dist(next());
      if (!d.has_value()) usage(argv[0]);
      dist = *d;
    } else if (arg == "--reps") {
      reps = u32_flag("--reps", next());
    } else if (arg == "--loss") {
      loss_rate = double_flag("--loss", next());
    } else if (arg == "--timeout") {
      timeout = duration_flag("--timeout", next(), kSecond);
    } else if (arg == "--seed") {
      seed = unsigned_flag("--seed", next());
    } else if (arg == "--jobs") {
      jobs = u32_flag("--jobs", next());
    } else if (arg == "--out") {
      out_dir = next();
    } else if (arg == "--summary-json") {
      summary_path = next();
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--no-audit") {
      audit = false;
    } else {
      usage(argv[0]);
    }
  }
  if (quick) {
    reps = 2;
    timeout = 30 * kSecond;
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
    spatial::SpatialConfig base;
    std::string error;
    if (!spatial::parse_topology(tspec, &base, &error)) {
      std::fprintf(stderr, "bad --topology spec '%s': %s\n", tspec.c_str(),
                   error.c_str());
      return 2;
    }
    if (!base.topology_set()) {
      // Single-hop: the radius and mobility axes are meaningless, emit
      // exactly one legacy cell per grid coordinate.
      spatial_axes.push_back({base, "", ""});
      continue;
    }
    const std::vector<double> radius_axis =
        radii.empty() ? std::vector<double>{base.radius_m} : radii;
    for (const double radius : radius_axis) {
      for (const std::string& mspec : mobility_specs) {
        SpatialAxis axis;
        axis.config = base;
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
        cell.protocol = to_string(protocol);
        cell.plan = plan.name;
        cell.n = n;
        cell.label = to_string(protocol) + " n=" + std::to_string(n) + " " +
                     plan.name + axis.label;
        std::printf("[cell] %s ...\n", cell.label.c_str());
        std::fflush(stdout);
        const auto started = std::chrono::steady_clock::now();
        try {
          // run_scenario validates the cell and throws on a degenerate one.
          ScenarioConfig cfg;
          cfg.protocol = protocol;
          cfg.n = n;
          cfg.distribution = dist;
          cfg.plan = plan;
          cfg.spatial = axis.config;
          cfg.seed = seed;
          cfg.repetitions = reps;
          cfg.jobs = jobs;
          cfg.loss_rate = loss_rate;
          cfg.run_timeout = timeout;
          cfg.audit = audit;
          const ScenarioResult r = run_scenario(cfg);
          const double wall = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - started)
                                  .count();
          const std::string name = "campaign_" + to_string(protocol) + "_" +
                                   slug(plan.name) + "_n" + std::to_string(n) +
                                   axis.suffix;
          BenchReport report;
          report.name = name;
          report.seed = seed;
          report.jobs = effective_jobs(jobs);
          report.wall_seconds = wall;
          report.cells.push_back(make_cell(r));
          cell.json_path = out_dir + "/BENCH_" + name + ".json";
          if (!write_json_report(report, cell.json_path)) {
            cell.failed = true;
            cell.error = "cannot write " + cell.json_path;
          }
          cell.mean_ms = r.latency_ms.empty() ? 0.0 : r.mean();
          cell.p99_ms =
              r.latency_ms.empty() ? 0.0 : r.latency_ms.percentile(0.99);
          cell.messages = r.app_messages;
          cell.samples = r.latency_ms.count();
          cell.failed_runs = r.failed_runs;
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
    std::printf("%-34s %12.2f %8zu %8u %9s %8s %s\n", cell.label.c_str(),
                cell.mean_ms, cell.samples, cell.failed_runs, delivery_col,
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
    // the file is byte-identical at any --jobs value. events_per_sec is
    // pooled decisions per *simulated* second (total decisions over total
    // decision-latency), the machine-independent throughput figure
    // tools/check_perf.sh gates.
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
      decisions += cell.samples;
      messages += cell.messages;
      failed_runs += cell.failed_runs;
      violations += cell.safety_violations;
      latency_ms_sum += cell.mean_ms * static_cast<double>(cell.samples);
    }
    const double events_per_sec =
        latency_ms_sum > 0.0
            ? 1000.0 * static_cast<double>(decisions) / latency_ms_sum
            : 0.0;
    FILE* out = std::fopen(summary_path.c_str(), "wb");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", summary_path.c_str());
      return 2;
    }
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"schema\": \"turquois-bench/1\",\n");
    std::fprintf(out, "  \"name\": \"campaign_summary\",\n");
    std::fprintf(out, "  \"seed\": %llu,\n",
                 static_cast<unsigned long long>(seed));
    std::fprintf(out, "  \"cells\": %zu,\n", outcomes.size());
    std::fprintf(out, "  \"failed_cells\": %u,\n", failed_cells);
    std::fprintf(out, "  \"failed_runs\": %u,\n", failed_runs);
    std::fprintf(out, "  \"safety_violations\": %u,\n", violations);
    std::fprintf(out, "  \"decisions\": %llu,\n",
                 static_cast<unsigned long long>(decisions));
    std::fprintf(out, "  \"messages\": %llu,\n",
                 static_cast<unsigned long long>(messages));
    std::fprintf(out, "  \"events_per_sec\": %.4f,\n", events_per_sec);
    std::fprintf(out, "  \"grid\": [\n");
    bool first = true;
    for (const CellOutcome& cell : outcomes) {
      if (cell.failed) continue;
      const double msgs_per_decision =
          cell.samples > 0
              ? static_cast<double>(cell.messages) /
                    static_cast<double>(cell.samples)
              : 0.0;
      std::fprintf(
          out,
          "%s    {\"protocol\": \"%s\", \"plan\": \"%s\", \"n\": %u, "
          "\"decisions\": %zu, \"mean_ms\": %.4f, \"p99_ms\": %.4f, "
          "\"messages\": %llu, \"msgs_per_decision\": %.4f, "
          "\"failed_runs\": %u}",
          first ? "" : ",\n", cell.protocol.c_str(), cell.plan.c_str(), cell.n,
          cell.samples, cell.mean_ms, cell.p99_ms,
          static_cast<unsigned long long>(cell.messages), msgs_per_decision,
          cell.failed_runs);
      first = false;
    }
    std::fprintf(out, "\n  ]\n}\n");
    std::fclose(out);
    std::printf("summary: wrote %s\n", summary_path.c_str());
  }
  return any_failed ? 1 : 0;
}
