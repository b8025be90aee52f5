// Multi-instance consensus service: a replicated queue (SMR-lite) over
// pipelined Turquois instances, under an open-loop client workload.
//
// The paper's shape is one binary consensus per run; a service's shape is a
// stream of client requests, each committed by one slot of a replicated
// queue. This driver runs W instances in flight (ScenarioConfig::service),
// each deciding the admission of a batch of B requests, over the existing
// simulated medium/fault stack. Three amortizations make the pipeline pay
// (DESIGN.md §15):
//   * frame multiplexing — per node, one FrameMux packs the pending
//     payloads of all in-flight instances into shared broadcast frames
//     (net/frame_mux.hpp), so airtime/DIFS/backoff and datagram overhead
//     are paid once per window, not once per instance;
//   * batched trusted setup — KeyInfrastructure::setup_batch keys a whole
//     instance batch with one RNG stream and one RSA pair per process, and
//     one 8-way SHA-256 sweep each to sign and to verify every instance's
//     VK array;
//   * proposal batching — B requests per instance slot, so one decision
//     commits B requests.
// Each repetition runs on the deployment builder (harness/deployment.hpp):
// a harness::Repetition supplies the medium, fault plan, σ meter, CPUs and
// run loop, and every in-flight instance is a harness::ConsensusInstance
// judged by its own ConsensusAuditor (Validity / Agreement / Unanimity /
// quorum sanity per instance): throughput never buys silent incorrectness.
// A request's end-to-end latency is stamped arrival -> commit (the k-th
// process decide of its instance).
//
// Repetitions run through harness::run_repetitions and pool through
// harness::pool_repetitions — the same scheduler, per-repetition trace
// capture, crash isolation and ScenarioResult as run_scenario — so pooled
// output is bit-identical at any --jobs × --intra-jobs.
#pragma once

#include <optional>
#include <string>

#include "harness/experiment.hpp"
#include "service/config.hpp"

namespace turq::service {

/// Arrival->commit latency in ms under half-open interval semantics: the
/// request occupies [arrival, commit), and a commit landing in the same
/// simulator instant as the arrival still charges one simulator quantum
/// (1 ns) instead of a literal zero. Zero samples would poison the min/p50
/// columns and make per-request rate math divide by zero; `commit` must
/// not precede `arrival` (asserted).
[[nodiscard]] double commit_latency_ms(SimTime arrival, SimTime commit);

/// Service-specific validation on top of harness::validate (which
/// run_service also applies). std::nullopt = runnable.
[[nodiscard]] std::optional<std::string> validate_service(
    const harness::ScenarioConfig& cfg);

/// One service repetition; pure in (cfg, rep_index), tracer-wrapped like
/// harness::run_once. RunResult::service is set; latencies_ms holds
/// per-request latencies.
[[nodiscard]] harness::RunResult run_service_once(
    const harness::ScenarioConfig& cfg, std::uint64_t rep_index);

/// Runs cfg.repetitions service repetitions (cfg.service.enabled must be
/// set) and pools them in repetition order with run_scenario's merge:
/// latency_ms holds per-request latencies, service_total the summed
/// counters, and the audit aggregate counts audited instances. Throws
/// std::invalid_argument when validate()/validate_service() reports a
/// problem.
[[nodiscard]] harness::ScenarioResult run_service(
    const harness::ScenarioConfig& cfg);

}  // namespace turq::service
