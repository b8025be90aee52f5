// Turquois protocol configuration and quorum arithmetic.
#pragma once

#include <cstdint>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace turq::turquois {

/// Phases one key-exchange epoch covers (the paper's m), for a single run
/// and for each service instance alike: two CONVERGE/LOCK/DECIDE cycles,
/// so an epoch ends where a consensus cycle does. Almost every instance
/// decides inside it, so the trusted setup keys only what instances reach;
/// a run that goes further rolls over to a freshly keyed epoch
/// (KeyInfrastructure) at no simulated cost.
inline constexpr std::uint32_t kPhasesPerEpoch = 6;

struct Config {
  std::uint32_t n = 4;  // total processes
  std::uint32_t f = 1;  // tolerated Byzantine processes, f < n/3
  std::uint32_t k = 3;  // processes required to decide, (n+f)/2 < k <= n-f

  /// T1 fires when this much time passes since the last broadcast
  /// (the paper's implementation used 10 ms), or when the phase changes.
  SimDuration tick_interval = 10 * kMillisecond;

  /// Uniform per-tick jitter [0, tick_jitter) added to the interval —
  /// real timers are not phase-locked across hosts, and desynchronized
  /// ticks avoid systematic broadcast collisions.
  SimDuration tick_jitter = 2 * kMillisecond;

  /// Number of phases covered by one key-exchange epoch (the paper's m).
  std::uint32_t phases_per_epoch = kPhasesPerEpoch;

  /// Attach explicit justification when re-broadcasting an unchanged state
  /// (paper §6.2: implicit first, explicit on the following tick).
  bool explicit_justification = true;

  /// Extension (documented in DESIGN.md): also accept a message's phase φ
  /// when f+1 distinct senders claim phase >= φ — sound because at least
  /// one of them is correct and correct processes only reach justified
  /// phases. Required for deep catch-up: without it a process that fell
  /// several phases behind the deciders can never validate their messages.
  bool transitive_phase_rule = true;

  /// Extension (DESIGN.md): an undecided message is accepted when f+1
  /// distinct authentic senders carry the same (phase, value) — at least
  /// one of them is correct and only broadcasts states it validly holds.
  /// Unlocks catch-up through coin-derived values, whose justification
  /// chains cannot be attached non-recursively.
  bool corroboration_rule = true;

  /// Extension (DESIGN.md): a quorum of authentic messages carrying the
  /// same (DECIDE phase, binary value) is accepted collectively — a
  /// "decision certificate" — since quorum intersection puts a correct,
  /// validly-transitioned process inside any such set. This is the
  /// mechanism that lets a lagging process import the evidence behind a
  /// decision without replaying every intermediate phase.
  bool decision_certificates = true;

  /// Hard cap on a run, enforced by the harness, not the protocol.
  std::uint32_t max_phase = 100000;

  void validate() const {
    TURQ_ASSERT_MSG(3 * f < n, "requires f < n/3");
    TURQ_ASSERT_MSG(2 * k > n + f && k <= n - f, "requires (n+f)/2 < k <= n-f");
    TURQ_ASSERT_MSG(n <= 128, "sender bitsets assume n <= 128");
  }

  /// "more than (n+f)/2 messages" as an integer predicate.
  [[nodiscard]] bool exceeds_quorum(std::size_t count) const {
    return 2 * count > n + f;
  }

  /// "more than ((n+f)/2)/2 messages".
  [[nodiscard]] bool exceeds_half_quorum(std::size_t count) const {
    return 4 * count > n + f;
  }

  /// Smallest count satisfying exceeds_quorum.
  [[nodiscard]] std::size_t quorum_size() const { return (n + f) / 2 + 1; }

  /// Smallest count satisfying exceeds_half_quorum.
  [[nodiscard]] std::size_t half_quorum_size() const { return (n + f) / 4 + 1; }

  /// Default fault-tolerance setup used throughout the paper's evaluation:
  /// f = floor((n-1)/3), k = n - f.
  static Config for_group(std::uint32_t n) {
    Config cfg;
    cfg.n = n;
    cfg.f = (n - 1) / 3;
    cfg.k = n - cfg.f;
    cfg.validate();
    return cfg;
  }
};

/// The paper's liveness bound: progress is guaranteed in rounds where the
/// number of omission faults affecting correct processes is at most
/// σ = ceil((n-t)/2) * (n-k-t) + k - 2, with t <= f actually-faulty processes.
constexpr std::int64_t sigma_bound(std::uint32_t n, std::uint32_t k,
                                   std::uint32_t t) {
  const std::int64_t half = (static_cast<std::int64_t>(n) - t + 1) / 2;  // ceil
  return half * (static_cast<std::int64_t>(n) - k - t) +
         static_cast<std::int64_t>(k) - 2;
}

}  // namespace turq::turquois
