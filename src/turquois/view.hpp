// The set V_i of valid messages accumulated by a process, with the
// counting queries the algorithm and the semantic validator need.
//
// V keeps at most one message per (sender, phase): a correct process's
// state within a phase is constant, so a second, different message from the
// same sender at the same phase is Byzantine equivocation and is ignored.
// This also keeps all quorum counts bounded by n, which the intersection
// arguments behind the (n+f)/2 thresholds rely on.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/sender_set.hpp"
#include "common/types.hpp"
#include "turquois/message.hpp"

namespace turq::turquois {

struct Config;

class View {
 public:
  View() = default;

  // `highest_` points into a map node of `phases_`. Node-based map storage
  // makes it stable across every mutation the class performs (insert never
  // invalidates map iterators/references, and nothing here erases), and a
  // move transfers the nodes themselves, so the defaulted moves keep the
  // pointer valid. A memberwise *copy*, however, would leave the new view's
  // `highest_` aimed at the source's nodes — so copies rebind it explicitly.
  View(const View& other);
  View& operator=(const View& other);
  View(View&&) noexcept = default;
  View& operator=(View&&) noexcept = default;

  /// Inserts a validated message. Returns false on duplicate (sender, phase).
  bool insert(const Message& m);

  /// Drops every message and resets the highest-phase cursor.
  void clear();

  /// True if a message from `sender` at `phase` is already present.
  [[nodiscard]] bool has(ProcessId sender, Phase phase) const;

  /// Number of messages with exactly this phase.
  [[nodiscard]] std::size_t count_phase(Phase phase) const;

  /// Number of messages with this phase carrying value v.
  [[nodiscard]] std::size_t count_phase_value(Phase phase, Value v) const;

  /// Number of distinct senders with any message at phase >= `phase`.
  [[nodiscard]] std::size_t count_phase_at_least(Phase phase) const;

  /// The majority binary value among messages at `phase`; ties break to
  /// kOne. The paper (§5, CONVERGE rule) only requires *some* deterministic
  /// choice among the binary values when neither holds a strict majority —
  /// the quorum-intersection safety argument never depends on which value a
  /// tied CONVERGE picks, because a tie implies no (n+f)/2 majority existed.
  /// kOne is kept (rather than, say, lowest-value or sender-seeded rules)
  /// because it is the repo's historical behaviour and changing it would
  /// shift every benchmark byte; the rule is pinned by ViewMajorityTieRule
  /// in tests/validation_test.cpp.
  [[nodiscard]] Value majority_value(Phase phase) const;

  /// A binary value v with count(phase, v) satisfying `pred`, if any.
  template <typename Pred>
  [[nodiscard]] std::optional<Value> binary_value_where(Phase phase,
                                                        Pred pred) const {
    for (const Value v : {Value::kZero, Value::kOne}) {
      if (pred(count_phase_value(phase, v))) return v;
    }
    return std::nullopt;
  }

  /// The message with the highest phase (ties -> lowest sender), if any.
  [[nodiscard]] const Message* highest_phase_message() const;

  /// All messages at `phase` (for justification assembly).
  [[nodiscard]] std::vector<const Message*> messages_at(Phase phase) const;

  /// Up to `limit` messages at `phase` carrying value v.
  [[nodiscard]] std::vector<const Message*> messages_at_with_value(
      Phase phase, Value v, std::size_t limit) const;

  [[nodiscard]] std::size_t size() const { return total_; }

 private:
  struct PhaseBook {
    std::map<ProcessId, Message> by_sender;
    /// Mirrors by_sender's keys below SenderSet::kCapacity — has() is the
    /// hottest query (every ingest gate at every receiver) and the bitset
    /// answers it without walking the tree. Larger ids (possible only in
    /// hand-built unit-test views; deployments cap n at 128) stay on the
    /// map path.
    SenderSet senders;
    std::size_t value_count[3] = {0, 0, 0};
  };

  std::map<Phase, PhaseBook> phases_;
  std::size_t total_ = 0;
  const Message* highest_ = nullptr;
};

/// Quorum sanity for a decision on `v`: true when some DECIDE phase (every
/// third phase, up to the highest phase in `view`) holds more than (n+f)/2
/// messages carrying `v`. Every correct decision passes — an own quorum
/// transition counts its own view, an adopted kDecided message passed
/// status_valid only once the receiver's view held the decide quorum, and
/// views never shrink — so the consensus auditor flags any decision that
/// fails it.
[[nodiscard]] bool has_decide_quorum(const View& view, const Config& cfg,
                                     Value v);

}  // namespace turq::turquois
