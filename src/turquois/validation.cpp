#include "turquois/validation.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

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

bool Evidence::holds(const View& view) const {
  for (std::size_t a = 0; a < alternatives_; ++a) {
    const std::size_t end = a + 1 < alternatives_ ? starts_[a + 1] : size_;
    bool all = true;
    for (std::size_t i = starts_[a]; i < end && all; ++i) {
      all = rows_[i].holds(view);
    }
    if (all) return true;
  }
  return false;
}

Evidence phase_evidence(const Config& cfg, Phase phase) {
  Evidence e;
  e.alternative();
  if (phase > 1) e.row(phase - 1, std::nullopt, cfg.quorum_size());
  return e;
}

Evidence value_evidence(const Config& cfg, Phase phase, Value v,
                        bool from_coin) {
  Evidence e;
  if (phase % 3 != 0 && !is_binary(v)) return e;  // only LOCK produces ⊥
  e.alternative();
  const std::size_t quorum = cfg.quorum_size();
  const std::size_t half = cfg.half_quorum_size();
  if (phase % 3 == 0 && v == Value::kBottom) {
    // LOCK found no quorum: both values had support two phases back.
    e.row(phase - 2, Value::kZero, half).row(phase - 2, Value::kOne, half);
  } else if (phase % 3 == 0) {  // LOCK: a full quorum behind v at φ-1
    e.row(phase - 1, v, quorum);
  } else if (phase % 3 == 2) {  // CONVERGE: a plausible majority at φ-1
    e.row(phase - 1, v, half);
  } else if (phase > 1) {  // DECIDE: a coin needs all ⊥ at φ-1, v the lock
    e.row(phase - (from_coin ? 1 : 2), from_coin ? Value::kBottom : v, quorum);
  }  // phase-1 proposals are accepted as is
  return e;
}

Evidence decided_status_evidence(const Config& cfg, Phase decide, Value v) {
  Evidence e;
  e.alternative().row(decide, v, cfg.quorum_size());
  return e;
}

Evidence undecided_status_evidence(const Config& cfg, Phase phase) {
  Evidence e;
  e.alternative();
  if (phase <= 3) return e;
  // The paper's rule: both values had more than ((n+f)/2)/2 support at the
  // last LOCK phase. As printed it can reject *truthful* undecided states
  // and deadlock the run (DESIGN.md §5), so a ⊥ or a value split at the last
  // DECIDE phase also shows that a correct process passed it undecided.
  // Accepting more undecided messages cannot break safety: agreement rests
  // on value quorums, not status.
  const Phase lock = SemanticValidator::highest_lock_phase_below(phase);
  const Phase decide = SemanticValidator::highest_decide_phase_below(phase);
  const std::size_t half = cfg.half_quorum_size();
  e.row(lock, Value::kZero, half).row(lock, Value::kOne, half)
      .alternative().row(decide, Value::kBottom, 1)
      .alternative().row(decide, Value::kZero, 1).row(decide, Value::kOne, 1);
  return e;
}

bool has_decide_quorum(const View& view, const Config& cfg, Phase phase,
                       Value v) {
  for (Phase d = phase / 3 * 3; d >= 3; d -= 3) {
    if (decided_status_evidence(cfg, d, v).holds(view)) return true;
  }
  return false;
}

Phase SemanticValidator::highest_lock_phase_below(Phase phase) {
  return phase <= 2 ? 0 : phase - 1 - phase % 3;
}

Phase SemanticValidator::highest_decide_phase_below(Phase phase) {
  return phase <= 3 ? 0 : (phase - 1) / 3 * 3;
}

bool SemanticValidator::phase_valid(const Message& m) const {
  if (phase_evidence(cfg_, m.phase).holds(view_)) return true;
  if (cfg_.transitive_phase_rule) {
    if (view_.count_phase_at_least(m.phase) >= cfg_.f + 1) return true;
    // Authentic claims are enough for phase existence: at least one of f+1
    // distinct claimants is correct, and a correct process only broadcasts
    // a phase it validly reached.
    return claimed_ != nullptr &&
           std::ranges::count_if(*claimed_, [&](Phase c) {
             return c >= m.phase;
           }) >= static_cast<std::ptrdiff_t>(cfg_.f + 1);
  }
  return false;
}

bool SemanticValidator::corroborated(const Message& m) const {
  if (!cfg_.corroboration_rule || corroboration_ == nullptr) return false;
  const auto it = corroboration_->find(
      {m.phase, static_cast<std::uint8_t>(m.value)});
  return it != corroboration_->end() && it->second.count() >= cfg_.f + 1;
}

bool SemanticValidator::value_valid(const Message& m) const {
  // Catch-up extension (DESIGN.md §5): the value of a decided message is
  // already pinned by its decide-phase quorum; per-phase evidence chains
  // are unnecessary (and unavailable to a process that fell behind).
  if (m.status == Status::kDecided && is_binary(m.value) &&
      has_decide_quorum(view_, cfg_, m.phase, m.value)) {
    return true;
  }
  return value_evidence(cfg_, m.phase, m.value, m.from_coin).holds(view_);
}

bool SemanticValidator::status_valid(const Message& m) const {
  if (m.status == Status::kUndecided) {
    return undecided_status_evidence(cfg_, m.phase).holds(view_);
  }
  // No process can decide before completing phase 3.
  return m.phase > 3 && is_binary(m.value) &&
         has_decide_quorum(view_, cfg_, m.phase, m.value);
}

}  // namespace turq::turquois
