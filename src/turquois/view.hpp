// The set V_i of valid messages accumulated by a process, with the
// counting queries the algorithm and the semantic validator need.
//
// V keeps at most one message per (sender, phase): a correct process's
// state within a phase is constant, so a second, different message from the
// same sender at the same phase is Byzantine equivocation and is ignored.
// This also keeps all quorum counts bounded by n, which the intersection
// arguments behind the (n+f)/2 thresholds rely on.
//
// Layout: one PhaseBook per phase that holds a message, in a vector sorted
// by phase. A book stores its messages in a slot array indexed by sender,
// the SenderSet of occupied slots, and per-value counts, so membership and
// every count are O(1) once the book is found (a binary search over the few
// live phases). New books start as wide as the widest book so far, so once
// any message from the highest sender id is in, an insert into an existing
// book never allocates.
// Messages are trivially copyable (message.hpp) and the highest-phase
// message is derived from the last book, so the defaulted copies and moves
// are correct. Senders must be below SenderSet::kCapacity (128), the same
// ceiling Config::validate puts on n; insert() aborts otherwise.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/sender_set.hpp"
#include "common/types.hpp"
#include "turquois/message.hpp"

namespace turq::turquois {

class View {
 public:
  /// Inserts a validated message. Returns false on duplicate (sender, phase).
  /// Aborts if m.sender >= SenderSet::kCapacity.
  bool insert(const Message& m);

  /// Drops every message.
  void clear();

  /// True if a message from `sender` at `phase` is already present.
  [[nodiscard]] bool has(ProcessId sender, Phase phase) const;

  /// The senders with a message at exactly this phase (empty if none).
  [[nodiscard]] SenderSet senders_at(Phase phase) const;

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
  /// The pointer is valid until the view is next mutated.
  [[nodiscard]] const Message* highest_phase_message() const;

  /// Appends to `out` up to `limit` messages at `phase` (only those carrying
  /// `value`, if given), in ascending sender order — for justification
  /// assembly. The pointers are valid until the view is next mutated.
  void append_at(std::vector<const Message*>& out, Phase phase,
                 std::optional<Value> value, std::size_t limit) const;

  [[nodiscard]] std::size_t size() const { return total_; }

 private:
  struct PhaseBook {
    Phase phase = 0;
    /// Indexed by sender; only the slots in `senders` hold messages.
    std::vector<Message> slots;
    SenderSet senders;
    std::size_t value_count[3] = {0, 0, 0};
  };

  /// The book for `phase`, or null when the view holds no message there.
  [[nodiscard]] const PhaseBook* find(Phase phase) const;

  std::vector<PhaseBook> books_;  // ascending phase, none empty
  std::size_t total_ = 0;
  /// Slot count new books start with: the widest book so far.
  std::size_t slot_width_ = 0;
};

}  // namespace turq::turquois
