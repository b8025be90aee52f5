#include "turquois/validation.hpp"

#include <bit>
#include <cstdint>

#include "common/assert.hpp"

namespace turq::turquois {

bool authentic(const KeyInfrastructure& keys, const Config& cfg,
               const Message& m) {
  if (m.sender >= cfg.n) return false;
  return crypto::ots_verify(keys.verification_keys(m.sender, m.phase), m.phase,
                            m.value, m.auth_sk);
}

const VerifyMemo::Bucket* VerifyMemo::find(std::uint64_t key) const {
  if (table_.empty()) return nullptr;
  const Bucket& b = table_[probe(key)];
  return b.count != 0 ? &b : nullptr;
}

std::size_t VerifyMemo::probe(std::uint64_t key) const {
  const std::size_t mask = table_.size() - 1;
  std::size_t i =
      static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  while (table_[i].count != 0 && table_[i].key != key) i = (i + 1) & mask;
  return i;
}

void VerifyMemo::grow() {
  constexpr std::size_t kInitialBuckets = 64;
  std::vector<Bucket> old = std::move(table_);
  const std::size_t size = old.empty() ? kInitialBuckets : 2 * old.size();
  table_.assign(size, Bucket{});
  shift_ = 64 - std::countr_zero(size);
  for (const Bucket& b : old) {
    if (b.count != 0) table_[probe(b.key)] = b;
  }
}

void VerifyMemo::insert(std::uint64_t key, const AuthKey& sk, bool ok) {
  if (2 * (occupied_ + 1) > table_.size()) grow();
  Bucket& b = table_[probe(key)];
  if (b.count == kMaxEntriesPerKey) return;
  if (b.count == 0) {
    b.key = key;
    ++occupied_;
  }
  TURQ_ASSERT(entries_.size() < UINT32_MAX);
  entries_.push_back({sk, ok, b.head});
  b.head = static_cast<std::uint32_t>(entries_.size() - 1);
  ++b.count;
}

void VerifyMemo::check_batch(const KeyInfrastructure& keys, const Config& cfg,
                             const Datagram& d,
                             std::vector<std::uint8_t>& out) {
  const std::size_t contained = d.justification.size() + 1;
  const auto msg_at = [&](std::size_t i) -> const Message& {
    return i < d.justification.size() ? d.justification[i] : d.main;
  };
  out.assign(contained, 0);

  struct Miss {
    std::size_t index;
    std::uint64_t key;
  };
  std::vector<Miss> misses;
  // Aliases: (message index, index into `misses`) for messages identical to
  // an earlier miss of this same batch; they score as hits, as if that first
  // miss had been memoized before they were looked up.
  std::vector<std::pair<std::size_t, std::size_t>> aliases;

  for (std::size_t i = 0; i < contained; ++i) {
    const Message& m = msg_at(i);
    if (m.sender >= cfg.n) continue;  // out[i] stays false, no counters
    // sender < n <= 2^8 here and value is a byte, so the packed key is
    // collision-free for any 32-bit phase.
    const std::uint64_t key = (static_cast<std::uint64_t>(m.phase) << 16) |
                              (static_cast<std::uint64_t>(m.sender) << 8) |
                              static_cast<std::uint64_t>(m.value);
    bool found = false;
    if (const Bucket* b = find(key)) {
      std::uint32_t e = b->head;
      for (std::uint32_t left = b->count; left > 0; --left) {
        const Entry& entry = entries_[e];
        if (entry.sk == m.auth_sk) {
          ++hits_;
          out[i] = entry.ok ? 1 : 0;
          found = true;
          break;
        }
        e = entry.next;
      }
    }
    if (found) continue;
    bool aliased = false;
    for (std::size_t j = 0; j < misses.size(); ++j) {
      const Message& prior = msg_at(misses[j].index);
      if (misses[j].key == key && prior.auth_sk == m.auth_sk) {
        ++hits_;
        aliases.emplace_back(i, j);
        aliased = true;
        break;
      }
    }
    if (!aliased) {
      ++misses_;
      misses.push_back({i, key});
    }
  }

  if (misses.empty()) return;
  std::vector<crypto::OtsCheck> checks(misses.size());
  for (std::size_t j = 0; j < misses.size(); ++j) {
    const Message& m = msg_at(misses[j].index);
    checks[j] = {.vk_array = &keys.verification_keys(m.sender, m.phase),
                 .phase = m.phase,
                 .v = m.value,
                 .revealed_sk = m.auth_sk};
  }
  std::vector<std::uint8_t> ok(misses.size(), 0);
  crypto::ots_verify_batch(checks.data(), checks.size(),
                           reinterpret_cast<bool*>(ok.data()));
  for (std::size_t j = 0; j < misses.size(); ++j) {
    out[misses[j].index] = ok[j];
    insert(misses[j].key, msg_at(misses[j].index).auth_sk, ok[j] != 0);
  }
  for (const auto& [i, j] : aliases) out[i] = ok[j];
}

Phase SemanticValidator::highest_lock_phase_below(Phase phase) {
  if (phase <= 2) return 0;
  switch (phase % 3) {
    case 0: return phase - 1;
    case 1: return phase - 2;
    default: return phase - 3;  // phase % 3 == 2
  }
}

bool SemanticValidator::phase_valid(const Message& m) const {
  if (m.phase == 1) return true;
  if (cfg_.exceeds_quorum(view_.count_phase(m.phase - 1))) return true;
  if (cfg_.transitive_phase_rule) {
    if (view_.count_phase_at_least(m.phase) >= cfg_.f + 1) return true;
    if (claimed_ != nullptr) {
      // Authentic claims are enough for phase existence: at least one of
      // f+1 distinct claimants is correct, and a correct process only
      // broadcasts a phase it validly reached.
      std::size_t claimants = 0;
      for (const Phase c : *claimed_) {
        if (c >= m.phase) ++claimants;
      }
      if (claimants >= cfg_.f + 1) return true;
    }
  }
  return false;
}

bool SemanticValidator::corroborated(const Message& m) const {
  if (!cfg_.corroboration_rule || corroboration_ == nullptr) return false;
  const auto it = corroboration_->find(
      {m.phase, static_cast<std::uint8_t>(m.value)});
  if (it == corroboration_->end()) return false;
  return it->second.count() >= cfg_.f + 1;
}

bool SemanticValidator::has_decide_quorum(Phase phase, Value v) const {
  if (phase < 3) return false;
  for (Phase d = (phase / 3) * 3; d >= 3; d -= 3) {
    if (cfg_.exceeds_quorum(view_.count_phase_value(d, v))) return true;
    if (d == 3) break;
  }
  return false;
}

bool SemanticValidator::value_valid(const Message& m) const {
  const Phase phi = m.phase;
  if (phi == 1) return is_binary(m.value);  // phase-1 values accepted as is

  // Catch-up extension (DESIGN.md §5): the value of a decided message is
  // already pinned by its decide-phase quorum; per-phase evidence chains
  // are unnecessary (and unavailable to a process that fell behind).
  if (m.status == Status::kDecided && is_binary(m.value) &&
      has_decide_quorum(phi, m.value)) {
    return true;
  }

  switch (phi % 3) {
    case 2: {  // message produced by a CONVERGE transition
      // v must be a plausible majority: more than ((n+f)/2)/2 messages at
      // φ-1 with value v.
      if (!is_binary(m.value)) return false;
      return cfg_.exceeds_half_quorum(view_.count_phase_value(phi - 1, m.value));
    }
    case 0: {  // message produced by a LOCK transition
      if (is_binary(m.value)) {
        // A locked value needs a full quorum behind it at φ-1.
        return cfg_.exceeds_quorum(view_.count_phase_value(phi - 1, m.value));
      }
      // ⊥ means no value reached a quorum: both values must have had
      // meaningful support two phases back.
      return cfg_.exceeds_half_quorum(
                 view_.count_phase_value(phi - 2, Value::kZero)) &&
             cfg_.exceeds_half_quorum(
                 view_.count_phase_value(phi - 2, Value::kOne));
    }
    default: {  // phi % 3 == 1: message produced by a DECIDE transition
      if (!is_binary(m.value)) return false;
      if (m.from_coin) {
        // A random value is only legitimate when the previous phase was all
        // ⊥ (no value survived the lock).
        return cfg_.exceeds_quorum(
            view_.count_phase_value(phi - 1, Value::kBottom));
      }
      // Deterministically adopted values trace back to the lock quorum.
      return cfg_.exceeds_quorum(view_.count_phase_value(phi - 2, m.value));
    }
  }
}

bool SemanticValidator::status_valid(const Message& m) const {
  if (m.phase <= 3) {
    // No process can decide before completing phase 3.
    return m.status == Status::kUndecided;
  }
  if (m.status == Status::kDecided) {
    // Some DECIDE phase at or below the message's phase must show a quorum
    // for the decided value.
    return is_binary(m.value) && has_decide_quorum(m.phase, m.value);
  }
  // Undecided past phase 3. The paper's rule: both values had more than
  // ((n+f)/2)/2 support at the most recent LOCK phase. As printed this can
  // reject *truthful* undecided states (the required evidence may not exist
  // system-wide even though a correct process legitimately failed to
  // decide), deadlocking the run — see DESIGN.md §5. We therefore also
  // accept direct evidence that the last DECIDE phase was non-uniform:
  // a correct process that passed DECIDE undecided must have had a ⊥ or a
  // value split in its quorum there. Accepting more undecided messages
  // cannot break safety: agreement rests on value quorums, not status.
  const Phase lock = highest_lock_phase_below(m.phase);
  if (cfg_.exceeds_half_quorum(view_.count_phase_value(lock, Value::kZero)) &&
      cfg_.exceeds_half_quorum(view_.count_phase_value(lock, Value::kOne))) {
    return true;
  }
  const Phase decide = highest_decide_phase_below(m.phase);
  if (decide == 0) return false;
  if (view_.count_phase_value(decide, Value::kBottom) >= 1) return true;
  return view_.count_phase_value(decide, Value::kZero) >= 1 &&
         view_.count_phase_value(decide, Value::kOne) >= 1;
}

Phase SemanticValidator::highest_decide_phase_below(Phase phase) {
  if (phase <= 3) return 0;
  const Phase d = ((phase - 1) / 3) * 3;
  return d >= 3 ? d : 0;
}

}  // namespace turq::turquois
