#include "turquois/exchange_pool.hpp"

#include <cstring>

namespace turq::turquois {

namespace {

/// Content hash for the cache key: FNV-1a folded a word at a time (the
/// byte-wise variant was the pool's hottest instruction stream at n=128 —
/// every delivery hashes the whole payload). Collisions are harmless, the
/// bucket scan compares full bytes.
std::uint64_t content_hash(BytesView bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, bytes.data() + i, sizeof(w));
    h ^= w;
    h *= 1099511628211ULL;
    h ^= h >> 29;  // extra diffusion: eight new bytes per round, not one
  }
  for (; i < bytes.size(); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

bool same_bytes(BytesView a, const Bytes& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size()) == 0;
}

}  // namespace

const ExchangePool::Prepared& ExchangePool::acquire(ProcessId src,
                                                   BytesView payload) {
  ++stats_.acquires;
  // Every delivery of a sender's broadcast, and each of its unchanged
  // re-sends, repeats that sender's previous payload: one memcmp against
  // its memo short-circuits hash + bucket scan. Senders outside the group
  // (none in a deployment) take the hashed path every time.
  const bool memoized = src < last_by_sender_.size();
  Prepared* const memo = memoized ? last_by_sender_[src] : nullptr;
  if (memo != nullptr && same_bytes(payload, memo->payload)) {
    ++stats_.shared_hits;
    return *memo;
  }
  const auto remember = [&](Prepared& entry) -> Prepared& {
    if (memoized) last_by_sender_[src] = &entry;
    return entry;
  };
  auto& bucket = map_[content_hash(payload)];
  for (const auto& entry : bucket) {
    if (same_bytes(payload, entry->payload)) {
      ++stats_.shared_hits;
      return remember(*entry);
    }
  }
  bucket.push_back(std::make_unique<Prepared>());
  Prepared& entry = *bucket.back();
  entry.payload.assign(payload.begin(), payload.end());
  fill(entry);
  return remember(entry);
}

ExchangeSummary ExchangeSummary::of(const Datagram& d, const Config& cfg) {
  ExchangeSummary s;
  const auto add = [&](const Message& m) {
    if (m.sender >= cfg.n || m.phase == 0 || m.phase > cfg.max_phase) return;
    for (std::size_t i = 0; i < s.count; ++i) {
      if (s.phases[i] == m.phase) {
        s.senders[i].insert(m.sender);
        return;
      }
    }
    if (s.count == kMaxPhases) {
      s.overflow = true;
      return;
    }
    s.phases[s.count] = m.phase;
    s.senders[s.count].insert(m.sender);
    ++s.count;
  };
  for (const Message& m : d.justification) add(m);
  add(d.main);
  return s;
}

void ExchangePool::fill(Prepared& entry) {
  entry.datagram = Datagram::decode(entry.payload);
  if (!entry.datagram.has_value()) return;
  entry.summary = ExchangeSummary::of(*entry.datagram, cfg_);
  // Fills share a pool-wide memo: the same justification attachment (e.g.
  // the phase-1 quorum) recurs across many senders' payloads, and
  // VerifyMemo::check_batch collapses those repeats while still
  // 8-way-hashing the genuinely new keys.
  memo_.check_batch(keys_, cfg_, *entry.datagram, entry.auth);
}

}  // namespace turq::turquois
