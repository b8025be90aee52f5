// Message validation (paper §6): authenticity + semantic congruence.
//
// Authenticity: the revealed one-time secret key must hash to the sender's
// published verification key for (phase, value).
//
// Semantic validation checks each state variable against the receiver's
// set V of already-validated messages (implicit validation). Explicit
// justification attaches the messages that the same rule's rows name
// (Evidence); they flow through the same pipeline and, once valid, land in
// V, after which the main message's implicit check succeeds. Because every
// rule is monotone in V, a message that fails now may pass later; the
// process keeps it pending and retries when V grows.
#pragma once

#include <array>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/sender_set.hpp"
#include "turquois/config.hpp"
#include "turquois/key_infra.hpp"
#include "turquois/message.hpp"
#include "turquois/view.hpp"

namespace turq::turquois {

/// Stateless authenticity check against the key infrastructure.
bool authentic(const KeyInfrastructure& keys, const Config& cfg,
               const Message& m);

/// Memo over authentic(): ots_verify is a pure function of (sender, phase,
/// value, revealed key) for a fixed key infrastructure, so the n-fold
/// re-hash of an identical broadcast — and every retransmission tick
/// repeating it — collapses to one hash. Results are cached for rejections
/// too (a wrong key stays wrong), so auth_failure counters are unchanged.
/// This is a wall-clock optimization only: the *virtual* cost model keeps
/// charging every verification (see Process::on_datagram), matching a real
/// deployment where each receiver hashes independently. Each ExchangePool
/// holds one, shared by all of its fills. The memo is one open-addressing
/// table of (sender, phase, value) buckets over one entry array, so a new
/// key costs no allocation of its own.
class VerifyMemo {
 public:
  /// Verdicts for one datagram, in Prepared::auth layout (justification
  /// entries first, main last): out[i] == authentic(keys, cfg, message i).
  /// A message whose (sender, phase, value, key) the memo or an earlier
  /// message of the batch already holds is a hit; every other in-range
  /// message is a miss, and the misses are hashed 8 per compression sweep
  /// via ots_verify_batch. Senders >= n are rejected without counting.
  void check_batch(const KeyInfrastructure& keys, const Config& cfg,
                   const Datagram& d, std::vector<std::uint8_t>& out);

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

  /// Distinct revealed keys per (sender, phase, value) are capped; beyond
  /// that (a Byzantine key-grinding flood) we verify without memoizing.
  static constexpr std::size_t kMaxEntriesPerKey = 8;

 private:
  /// One memoized verdict. The entries of one (sender, phase, value) form
  /// a chain through `next`, newest first, ended by the bucket's count.
  struct Entry {
    AuthKey sk;
    bool ok;
    std::uint32_t next;
  };
  /// An open-addressing slot: the packed (sender, phase, value), the index
  /// of its newest entry and its entry count; count 0 marks an empty slot.
  struct Bucket {
    std::uint64_t key = 0;
    std::uint32_t head = 0;
    std::uint32_t count = 0;
  };
  /// The occupied bucket of `key`, or nullptr.
  [[nodiscard]] const Bucket* find(std::uint64_t key) const;
  /// Memoizes one verdict unless `key` already holds kMaxEntriesPerKey.
  void insert(std::uint64_t key, const AuthKey& sk, bool ok);
  /// The bucket of `key` or the empty one it would take; table_ non-empty.
  [[nodiscard]] std::size_t probe(std::uint64_t key) const;
  void grow();

  std::vector<Bucket> table_;  // power-of-two size, at most half occupied
  std::vector<Entry> entries_;
  std::size_t occupied_ = 0;
  int shift_ = 0;  // 64 - log2(table_.size()) once the table exists
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Distinct authentic senders seen per (phase, value), as a sender bitset
/// (deployments here have n <= SenderSet::kCapacity = 128). Maintained by
/// the process across both the validated view and the pending pool.
using CorroborationIndex =
    std::map<std::pair<Phase, std::uint8_t>, SenderSet>;

/// One row of §6.2 evidence: V holds at least `need` messages at `phase`
/// (only those carrying `value`, if given). `need` is the smallest count the
/// rule's threshold admits: Config::quorum_size(), half_quorum_size() or 1.
/// No member initializers: an Evidence leaves its unused rows unset, which
/// keeps building one, on every validation, as cheap as the check itself.
struct EvidenceRow {
  Phase phase;
  std::optional<Value> value;
  std::size_t need;
  [[nodiscard]] bool holds(const View& view) const {
    return (value ? view.count_phase_value(phase, *value)
                  : view.count_phase(phase)) >= need;
  }
  bool operator==(const EvidenceRow&) const = default;
};

/// What one §6.2 rule asks of a state variable: alternatives of rows. The
/// variable is valid when every row of some alternative holds in V, and a
/// stalled sender attaches the messages of every row, in order. With no
/// alternative nothing justifies it; one empty alternative needs nothing.
class Evidence {
 public:
  /// Opens an alternative; the rows added after it belong to it.
  Evidence& alternative() {
    TURQ_ASSERT(alternatives_ < starts_.size());
    starts_[alternatives_++] = size_;
    return *this;
  }
  Evidence& row(Phase phase, std::optional<Value> value, std::size_t need) {
    TURQ_ASSERT(alternatives_ > 0 && size_ < rows_.size());
    rows_[size_++] = {.phase = phase, .value = value, .need = need};
    return *this;
  }
  [[nodiscard]] bool holds(const View& view) const;
  [[nodiscard]] std::span<const EvidenceRow> rows() const {
    return {rows_.data(), size_};
  }

 private:
  std::array<EvidenceRow, 5> rows_;
  std::array<std::size_t, 3> starts_;  // each alternative's first row
  std::size_t size_ = 0;
  std::size_t alternatives_ = 0;
};

// The §6.2 rules. Phase φ: a quorum at φ-1 (nothing at phase 1).
Evidence phase_evidence(const Config& cfg, Phase phase);
// The value `v` at `phase`, per the transition that produced it.
Evidence value_evidence(const Config& cfg, Phase phase, Value v,
                        bool from_coin);
// A decision on `v` reached at the DECIDE phase `decide`.
Evidence decided_status_evidence(const Config& cfg, Phase decide, Value v);
// An undecided status at `phase` (nothing up to phase 3).
Evidence undecided_status_evidence(const Config& cfg, Phase phase);

/// True if some DECIDE phase <= `phase` shows a quorum for `v` in `view`:
/// the decided-status rule, its catch-up extension and the auditor's check.
[[nodiscard]] bool has_decide_quorum(const View& view, const Config& cfg,
                                     Phase phase, Value v);

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
