// Message validation (paper §6): authenticity + semantic congruence.
//
// Authenticity: the revealed one-time secret key must hash to the sender's
// published verification key for (phase, value).
//
// Semantic validation checks each state variable against the receiver's
// set V of already-validated messages (implicit validation). Explicit
// justification is handled upstream: attached messages flow through the
// same pipeline and, once valid, land in V, after which the main message's
// implicit check succeeds. Because every rule is monotone in V, a message
// that fails now may pass later; the process keeps it pending and retries
// when V grows.
#pragma once

#include <map>
#include <unordered_map>
#include <vector>

#include "common/sender_set.hpp"
#include "turquois/config.hpp"
#include "turquois/key_infra.hpp"
#include "turquois/message.hpp"
#include "turquois/view.hpp"

namespace turq::turquois {

/// Stateless authenticity check against the key infrastructure.
bool authentic(const KeyInfrastructure& keys, const Config& cfg,
               const Message& m);

/// Per-process memo over authentic(): ots_verify is a pure function of
/// (sender, phase, value, revealed key) for a fixed key infrastructure, so
/// the n-fold re-hash of an identical broadcast — and every retransmission
/// tick repeating it — collapses to one hash. Results are cached for
/// rejections too (a wrong key stays wrong), so auth_failure counters are
/// unchanged. This is a wall-clock optimization only: the *virtual* cost
/// model keeps charging every verification (see Process::on_datagram),
/// matching a real deployment where each receiver hashes independently.
class VerifyMemo {
 public:
  /// Same result as authentic(keys, cfg, m), memoized.
  bool check(const KeyInfrastructure& keys, const Config& cfg,
             const Message& m);

  /// Per-exchange batch queue: verdicts, memo mutations, and hit/miss
  /// counters all identical to calling check() once per message of the
  /// datagram in order (justification entries first, main last, matching
  /// Prepared::auth layout) — but the cache misses are hashed 8 per
  /// compression sweep via ots_verify_batch instead of one at a time.
  void check_batch(const KeyInfrastructure& keys, const Config& cfg,
                   const Datagram& d, std::vector<std::uint8_t>& out);

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

 private:
  /// Distinct revealed keys per (sender, phase, value) are capped; beyond
  /// that (a Byzantine key-grinding flood) we verify without memoizing.
  static constexpr std::size_t kMaxEntriesPerKey = 8;

  struct Entry {
    AuthKey sk;
    bool ok;
  };

  std::unordered_map<std::uint64_t, std::vector<Entry>> cache_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Distinct authentic senders seen per (phase, value), as a sender bitset
/// (deployments here have n <= SenderSet::kCapacity = 128). Maintained by
/// the process across both the validated view and the pending pool.
using CorroborationIndex =
    std::map<std::pair<Phase, std::uint8_t>, SenderSet>;

class SemanticValidator {
 public:
  /// `claimed_phases` (optional): per-sender maximum phase seen in any
  /// *authentic* message (validated or still pending). Used by the
  /// transitive phase rule: f+1 distinct senders claiming phase >= φ imply
  /// at least one correct process validly reached φ.
  /// `corroboration` (optional): enables the corroboration rule (see
  /// corroborated()).
  SemanticValidator(const Config& cfg, const View& view,
                    const std::vector<Phase>* claimed_phases = nullptr,
                    const CorroborationIndex* corroboration = nullptr)
      : cfg_(cfg), view_(view), claimed_(claimed_phases),
        corroboration_(corroboration) {}

  /// Full semantic check: all three state variables must pass, or the
  /// message is corroborated (f+1 authentic same-state senders).
  [[nodiscard]] bool valid(const Message& m) const {
    if (m.status == Status::kUndecided && corroborated(m)) return true;
    return phase_valid(m) && value_valid(m) && status_valid(m);
  }

  // Individual rules, exposed for unit testing.
  [[nodiscard]] bool phase_valid(const Message& m) const;
  [[nodiscard]] bool value_valid(const Message& m) const;
  [[nodiscard]] bool status_valid(const Message& m) const;

  /// The highest LOCK phase (φ' ≡ 2 mod 3) strictly below `phase`
  /// (0 if none exists, i.e. phase <= 2).
  static Phase highest_lock_phase_below(Phase phase);

  /// The highest DECIDE phase (φ' ≡ 0 mod 3, φ' >= 3) strictly below
  /// `phase` (0 if none exists, i.e. phase <= 3).
  static Phase highest_decide_phase_below(Phase phase);

  /// True if some DECIDE phase <= `phase` shows a quorum for `v` in V —
  /// the evidence behind a decided status, and (extension) sufficient to
  /// accept the value of a decided message during catch-up.
  [[nodiscard]] bool has_decide_quorum(Phase phase, Value v) const;

  /// Corroboration rule (catch-up extension, DESIGN.md §5.1): f+1 distinct
  /// authentic senders carrying the same (φ, v) include at least one
  /// correct process, which only broadcasts states it validly holds — so v
  /// is a legitimate phase-φ value. An undecided message so corroborated is
  /// accepted outright; f Byzantine processes can never corroborate alone.
  [[nodiscard]] bool corroborated(const Message& m) const;

 private:
  const Config& cfg_;
  const View& view_;
  const std::vector<Phase>* claimed_;
  const CorroborationIndex* corroboration_;
};

}  // namespace turq::turquois
