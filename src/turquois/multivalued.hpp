// Multi-valued consensus on top of binary Turquois.
//
// The paper's introduction motivates agreement tasks richer than one bit —
// electing a leader, agreeing on a configuration id. This layer provides
// them through the classic bit-by-bit reduction: for an L-bit domain, run L
// sequential binary instances. In round b every process proposes bit b of
// its *candidate*; the decided bit extends the agreed prefix, and any
// process whose candidate no longer matches the prefix adopts the smallest
// candidate consistent with it (so later bits remain proposable by
// everyone). Agreement/termination are inherited per bit from Turquois.
// Validity is prefix-validity: the agreed value matches a correct
// process's candidate on every prefix where one still existed — for
// closed candidate domains (e.g. leader ids 0..n-1) the result is always a
// usable domain value.
//
// Each binary instance gets a fresh process set and key infrastructure
// over the same simulated medium; instances are separated in time by the
// sequential runner (the paper's key-exchange epochs support exactly this
// reuse pattern).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "crypto/cost_model.hpp"
#include "net/broadcast_endpoint.hpp"
#include "net/medium.hpp"
#include "runtime/sim_runtime.hpp"
#include "sim/cpu.hpp"
#include "sim/simulator.hpp"
#include "turquois/config.hpp"
#include "turquois/key_infra.hpp"
#include "turquois/process.hpp"

namespace turq::turquois {

struct MultiValuedResult {
  bool completed = false;          // every bit round terminated
  std::uint64_t value = 0;         // the agreed L-bit value
  std::uint32_t rounds = 0;        // binary instances executed
  SimTime finished_at = 0;
};

/// Runs L-bit multi-valued consensus among n processes on the given medium.
/// `candidates[i]` is process i's proposal; `byzantine[i]` (optional) marks
/// attackers, which run the §7.2 value-inversion strategy in every round.
class MultiValuedConsensus {
 public:
  MultiValuedConsensus(sim::Simulator& simulator, net::Medium& medium,
                       Config config, std::uint32_t bits, Rng rng,
                       const crypto::CostModel& costs);

  /// Synchronously drives the simulator until all rounds finish or
  /// `deadline` passes. Candidates must fit in `bits` bits.
  MultiValuedResult run(const std::vector<std::uint64_t>& candidates,
                        const std::vector<bool>& byzantine = {},
                        SimDuration deadline = 120 * kSecond);

 private:
  /// Runs one binary instance; returns the decided bit, or nullopt on
  /// timeout. Processes in `proposals` propose the given bit values.
  std::optional<bool> run_binary_round(std::uint32_t round_index,
                                       const std::vector<Value>& proposals,
                                       const std::vector<bool>& byzantine,
                                       SimTime deadline);

  sim::Simulator& sim_;
  net::Medium& medium_;
  Config cfg_;
  std::uint32_t bits_;
  Rng rng_;
  const crypto::CostModel& costs_;
};

/// Convenience: leader election among n processes. Every process nominates
/// a leader id (commonly itself); the returned id is the agreed leader.
MultiValuedResult elect_leader(sim::Simulator& simulator, net::Medium& medium,
                               const Config& config,
                               const std::vector<ProcessId>& nominations,
                               Rng rng, const crypto::CostModel& costs,
                               const std::vector<bool>& byzantine = {});

}  // namespace turq::turquois
