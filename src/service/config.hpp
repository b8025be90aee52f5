// Configuration and per-repetition summary of the consensus service layer.
//
// Plain structs only: harness/experiment.hpp embeds ServiceConfig in
// ScenarioConfig and RepSummary in RunResult and ScenarioResult, while the
// service *driver* (service.hpp) links against the harness — keeping this
// header free of heavy includes breaks the would-be dependency cycle.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "turquois/config.hpp"

namespace turq::service {

/// Client arrival process of the open-loop workload generator.
enum class Arrival : std::uint8_t {
  kPoisson,  ///< exponential inter-arrival gaps at `offered_load`
  /// Markov-modulated Poisson: exponential dwell in a base state and a
  /// `burst_factor`-times-hotter burst state, normalized so the long-run
  /// mean rate is still `offered_load`.
  kBursty,
};

const char* to_string(Arrival a);

struct ServiceConfig {
  /// Off by default: every existing scenario runs the single-instance
  /// harness byte-identically with the service layer compiled in.
  bool enabled = false;

  /// W — consensus instances in flight at once (the pipeline window).
  std::uint32_t pipeline_depth = 8;
  /// B — client requests admitted per instance slot (proposal batching).
  std::uint32_t batch = 8;

  Arrival arrival = Arrival::kPoisson;
  /// Mean offered load, client requests per *simulated* second.
  double offered_load = 2000.0;
  /// Requests generated per repetition; the run ends when all of them
  /// committed (or cfg.run_timeout expires).
  std::uint64_t total_requests = 512;
  /// Admission bound of the replicated queue: arrivals beyond it are
  /// rejected (counted, not queued) — open-loop backpressure.
  std::uint64_t queue_capacity = 1 << 20;

  /// Coalescing window of the per-node frame mux (net/frame_mux.hpp).
  SimDuration mux_window = 2 * kMillisecond;

  /// OTS epoch length per instance (turquois::Config::phases_per_epoch);
  /// an instance that runs past it rolls over to a freshly keyed epoch.
  /// Must be a multiple of 3 so every epoch ends on a DECIDE phase.
  std::uint32_t phases_per_instance = turquois::kPhasesPerEpoch;
  /// Instances keyed per trusted-setup pass (KeyInfrastructure::
  /// setup_batch); 0 = pipeline_depth.
  std::uint32_t key_batch = 0;

  // Bursty arrivals (Arrival::kBursty).
  double burst_factor = 8.0;              ///< burst-state rate multiplier
  double burst_fraction = 0.125;          ///< long-run fraction of time bursting
  SimDuration burst_dwell = 250 * kMillisecond;  ///< mean burst episode length

  [[nodiscard]] std::uint32_t effective_key_batch() const {
    return key_batch != 0 ? key_batch : pipeline_depth;
  }
};

/// Per-repetition service outcome (RunResult::service), summed over a
/// scenario's repetitions in ScenarioResult::service_total. Request
/// latencies ride in RunResult::latencies_ms (arrival -> commit, one per
/// committed request) so the existing pooling/percentile machinery applies
/// untouched.
struct RepSummary {
  std::uint64_t arrivals = 0;            // requests the generator produced
  std::uint64_t committed = 0;           // requests decided by >= k processes
  std::uint64_t rejected = 0;            // backpressure drops (queue full)
  std::uint64_t instances_launched = 0;
  std::uint64_t instances_decided = 0;   // all n processes decided
  std::uint64_t instances_failed = 0;    // still undecided at the deadline
  std::uint64_t key_batches = 0;         // trusted-setup passes
  /// One-time keys drawn: every key batch's epoch-0 chains plus each
  /// later epoch an instance's processes rolled over to.
  std::uint64_t ots_keys = 0;
  /// Messages a process of an instance rejected as not authentic.
  std::uint64_t auth_failures = 0;
  /// Decided instances destroyed before the repetition ended, and decided
  /// instances that finalized while a node's CPU still had work queued, so
  /// their reclaim waited for it to drain (DESIGN.md §15).
  std::uint64_t instances_reclaimed = 0;
  std::uint64_t instances_drained = 0;
  /// Instance-grained audit tallies (the per-violation detail rides in
  /// RunResult::audit, whose report merges every instance's).
  std::uint64_t audit_checked_instances = 0;
  std::uint64_t audit_violating_instances = 0;
  SimTime finished_at = 0;               // sim time when the rep wound down
  // Mux totals summed over the n per-node fabrics.
  std::uint64_t mux_frames = 0;
  std::uint64_t mux_payloads = 0;
  std::uint64_t mux_splits = 0;
  std::uint64_t mux_late_drops = 0;
  std::uint64_t mux_superseded = 0;

  /// Sums every counter; finished_at sums to the total simulated time, the
  /// denominator of the throughput figures.
  RepSummary& operator+=(const RepSummary& o) {
    arrivals += o.arrivals;
    committed += o.committed;
    rejected += o.rejected;
    instances_launched += o.instances_launched;
    instances_decided += o.instances_decided;
    instances_failed += o.instances_failed;
    key_batches += o.key_batches;
    ots_keys += o.ots_keys;
    auth_failures += o.auth_failures;
    instances_reclaimed += o.instances_reclaimed;
    instances_drained += o.instances_drained;
    audit_checked_instances += o.audit_checked_instances;
    audit_violating_instances += o.audit_violating_instances;
    finished_at += o.finished_at;
    mux_frames += o.mux_frames;
    mux_payloads += o.mux_payloads;
    mux_splits += o.mux_splits;
    mux_late_drops += o.mux_late_drops;
    mux_superseded += o.mux_superseded;
    return *this;
  }

  /// Committed requests per simulated second — a machine-independent
  /// throughput figure.
  [[nodiscard]] double committed_per_sim_sec() const {
    return per_sim_sec(committed);
  }
  /// Fully decided instances per simulated second.
  [[nodiscard]] double instances_per_sim_sec() const {
    return per_sim_sec(instances_decided);
  }

 private:
  [[nodiscard]] double per_sim_sec(std::uint64_t count) const {
    const double secs =
        static_cast<double>(finished_at) / static_cast<double>(kSecond);
    return secs > 0.0 ? static_cast<double>(count) / secs : 0.0;
  }
};

}  // namespace turq::service
