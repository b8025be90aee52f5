// Parallel repetition scheduler.
//
// The paper's methodology pools 50 independent repetitions per scenario
// (§7.2); each repetition builds its own deployment from a seed stream
// derived as Rng::stream(cfg.seed, "rep", rep), so repetitions share no
// state and can run on any thread in any order. This scheduler fans them
// out across a pool of std::jthread workers and hands the results back in
// repetition order, which makes the pooled statistics — and any trace or
// JSON report built from them — bit-identical to the sequential path for
// the same seed, regardless of thread count or completion order.
//
// Tracing composes with parallelism through per-repetition buffering: when
// the config names a trace sink, every repetition flushes into its own
// trace::BufferSink (on whichever worker ran it) and the buffers are
// replayed into the real sink in repetition order after the pool drains.
//
// A repetition that throws does not poison the pool: the exception is
// caught on the worker, recorded in the RepResult, and the remaining
// repetitions keep running.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/experiment.hpp"

namespace turq::harness {

/// Resolves a jobs request to a concrete worker count: 0 means auto-detect
/// (std::thread::hardware_concurrency, at least 1), anything else is taken
/// literally. Never returns 0.
[[nodiscard]] unsigned effective_jobs(unsigned requested);

/// One repetition's outcome, tagged with its index so that out-of-order
/// completion can be merged back deterministically.
struct RepResult {
  std::uint64_t rep_index = 0;
  /// The repetition threw instead of returning; `run` is default-initialized
  /// and the scenario counts the repetition as failed.
  bool crashed = false;
  /// what() of the caught exception, empty when crashed is false.
  std::string error;
  RunResult run;
};

/// The per-repetition body: (config, repetition index) -> RunResult.
/// Production code uses run_once; tests substitute hostile runners.
using RepRunner = std::function<RunResult(const ScenarioConfig&,
                                          std::uint64_t)>;

/// Runs repetitions [0, cfg.repetitions) of `cfg` across
/// effective_jobs(cfg.jobs) workers and returns them ordered by
/// rep_index. With cfg.jobs == 1 the repetitions run inline on the calling
/// thread — the literal sequential path, no pool. cfg.trace_sink, when
/// set, receives one begin/end-marked block per repetition in repetition
/// order (buffered and replayed under parallelism).
[[nodiscard]] std::vector<RepResult> run_repetitions(const ScenarioConfig& cfg);

/// As above with an injectable repetition body (exposed for tests —
/// e.g. proving that a throwing repetition doesn't poison the pool).
[[nodiscard]] std::vector<RepResult> run_repetitions(const ScenarioConfig& cfg,
                                                     const RepRunner& runner);

/// Pools `reps`, ordered by index, into one scenario result: run_scenario's
/// merge, shared by service::run_service.
[[nodiscard]] ScenarioResult pool_repetitions(
    const ScenarioConfig& cfg, const std::vector<RepResult>& reps);

}  // namespace turq::harness
