// Machine-readable benchmark reports (the BENCH_<name>.json files).
//
// Every bench binary can emit its result grid as one versioned JSON
// document (--json <path>), so CI and future PRs can track the perf
// trajectory without scraping table text. The document layout:
//
//   {
//     "schema": "turquois-bench/1",
//     "name": "table1_failure_free",
//     "seed": 2010,
//     "cells": [ { one object per scenario / grid cell }, ... ],
//     "environment": {"jobs": 4, "wall_clock_seconds": 1.234}
//   }
//
// Each cell carries the scenario coordinates (protocol, n, distribution,
// fault load, repetitions), the pooled latency statistics (mean, 95% CI
// half-width, min/p50/p95/max, sample count), the raw per-repetition
// latency samples, failure counters, summed medium counters, and an
// `extra` map for experiment-specific scalars (ablation sweep knobs).
//
// Determinism contract: every byte of the document EXCEPT the one-line
// "environment" object is a pure function of the bench's seed and grid —
// the same seed yields byte-identical cells at any --jobs value. The
// environment line records how the run was executed (worker count,
// wall-clock) and is explicitly excluded; tooling that diffs reports should
// drop that line (tests/scheduler_test.cpp does exactly this).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.hpp"

namespace turq::harness {

/// Schema identifier written into every report; bump the suffix on any
/// backwards-incompatible layout change.
inline constexpr const char* kBenchSchema = "turquois-bench/1";

/// One scenario's worth of report data (one table/grid cell).
struct ReportCell {
  std::string protocol;
  std::uint32_t n = 0;
  std::string distribution;
  std::string fault_load;
  std::uint32_t repetitions = 0;
  std::uint32_t failed_runs = 0;
  std::uint32_t safety_violations = 0;
  /// Pooled per-process latencies in repetition order (may be empty).
  std::vector<double> latencies_ms;
  net::MediumStats medium;
  /// σ-bound accounting, present only when the scenario's fault plan tracks
  /// σ (never for the canned loads, keeping their reports byte-identical).
  std::optional<SigmaAggregate> sigma;
  /// Consensus-property audit, present when the scenario ran the auditor
  /// (the default; --no-audit / ScenarioConfig::audit = false drops it).
  std::optional<audit::AuditAggregate> audit;
  /// Multi-hop topology/relay counters, present only when the scenario ran
  /// under a spatial topology. Single-hop reports omit this object — and the
  /// medium's `unreachable`/`hidden_terminal` fields — so pre-spatial
  /// baselines stay byte-identical.
  std::optional<spatial::SpatialStats> spatial;
  /// Experiment-specific scalars (e.g. ablation sweep knobs such as
  /// "loss_rate" or "tick_ms"). std::map so emission order — and therefore
  /// the report bytes — is deterministic.
  std::map<std::string, double> extra;
};

/// Builds a cell from a pooled scenario result.
[[nodiscard]] ReportCell make_cell(const ScenarioResult& result);

/// A full report: name + seed + cells + (non-deterministic) environment.
struct BenchReport {
  /// Bench binary name, e.g. "table1_failure_free"; names the output file
  /// BENCH_<name>.json by convention.
  std::string name;
  std::uint64_t seed = 0;
  std::vector<ReportCell> cells;

  // --- environment (excluded from the determinism contract) ---
  /// Worker threads the run actually used (after auto-detection).
  unsigned jobs = 1;
  /// Real elapsed seconds for the whole grid.
  double wall_seconds = 0.0;
};

/// Renders the report as a JSON document (see the file header for layout
/// and the determinism contract). Never throws.
[[nodiscard]] std::string to_json(const BenchReport& report);

/// Writes to_json(report) to `path`. Returns false (after printing a note
/// to stderr) when the file cannot be written.
bool write_json_report(const BenchReport& report, const std::string& path);

}  // namespace turq::harness
