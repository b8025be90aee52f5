// A benchmark-owned copy of the harness's single-instance Turquois and
// Bracha deployments (harness/experiment.cpp run_turquois / run_bracha /
// collect), assembled from the same public constructors in the same order
// and with the same Rng streams, so a repetition replays exactly what
// harness::run_once(cfg, rep, setup) runs. The copy exists to reach seams
// the harness keeps private: it puts timing decorators between the protocol
// and its runtime, transport and hooks. Tracing stays with the harness
// itself; main.cpp checks every repetition of this copy against the
// harness run at the same seed, so any drift here fails the benchmark.
#pragma once

#include <cstdint>
#include <vector>

#include "harness/experiment.hpp"
#include "probes.hpp"

namespace perfbench {

struct ReplicaProbes {
  /// Host-time spans; null runs the undecorated deployment.
  Spans* spans = nullptr;
  /// When set (Turquois only), a sample of the broadcast frames is kept
  /// here (see TimedBroadcastService).
  std::vector<turq::net::BroadcastService::FramePayload>* frames = nullptr;
};

/// Facts the copy sees that RunResult does not carry.
struct ReplicaStats {
  std::uint64_t sim_events = 0;     // simulator events executed
  std::uint64_t modelled_cpu_ns = 0;  // summed VirtualCpu busy time
};

/// Runs repetition `rep` of `cfg` (Turquois or Bracha) with `setup`.
turq::harness::RunResult run_replica(const turq::harness::ScenarioConfig& cfg,
                                     std::uint64_t rep,
                                     const turq::harness::ScenarioSetup& setup,
                                     const ReplicaProbes& probes,
                                     ReplicaStats& stats);

}  // namespace perfbench
