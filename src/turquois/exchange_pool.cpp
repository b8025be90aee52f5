#include "turquois/exchange_pool.hpp"

#include <bit>
#include <cstring>
#include <utility>

namespace turq::turquois {

namespace {

/// Content hash for the cache key: FNV-1a folded a word at a time (the
/// byte-wise variant was the pool's hottest instruction stream at n=128 —
/// every delivery hashes the whole payload). Collisions are harmless, the
/// index probe compares full bytes.
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

bool same_bytes(BytesView a, BytesView b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size()) == 0;
}

/// The address rule: a view with an entry's address and size is the
/// entry's bytes, since the entry keeps that buffer alive and unchanged.
bool same_view(BytesView a, BytesView b) {
  return a.data() == b.data() && a.size() == b.size();
}

}  // namespace

void ExchangePool::publish(ProcessId src, const net::FramedPayload& buffer,
                           const Datagram& datagram) {
  const BytesView payload = buffer.payload();
#ifndef NDEBUG
  TURQ_ASSERT_MSG(Datagram::decode(payload) == datagram,
                  "a published datagram must be what its payload decodes to");
#endif
  const std::uint64_t hash = content_hash(payload);
  Prepared* entry = find(hash, payload);
  if (entry == nullptr) {
    entry = &add(hash, buffer.frame(), payload);
    entry->datagram = datagram;
    prepare(*entry);
  }
#ifndef NDEBUG
  // A correct sender's datagram spans at most kMaxPhases phases (DESIGN.md
  // §14); a justification rule that reaches further must keep it so.
  TURQ_ASSERT_MSG(!entry->summary.overflow,
                  "a correct sender's datagram must fit its summary");
#endif
  if (src < last_by_sender_.size()) last_by_sender_[src] = entry;
}

const ExchangePool::Prepared& ExchangePool::acquire(ProcessId src,
                                                   BytesView payload) {
  ++stats_.acquires;
  // Every delivery of a sender's broadcast, and each of its unchanged
  // re-sends, repeats that sender's previous payload: its memo short-cuts
  // hash + index probe, by address when the view is into the memo entry's
  // own buffer and by one memcmp otherwise. Senders outside the group
  // (none in a deployment) take the hashed path every time.
  Prepared* const memo =
      src < last_by_sender_.size() ? last_by_sender_[src] : nullptr;
  if (memo != nullptr && (same_view(payload, memo->payload) ||
                          same_bytes(payload, memo->payload))) {
    return consume(src, *memo);
  }
  const std::uint64_t hash = content_hash(payload);
  if (Prepared* entry = find(hash, payload)) return consume(src, *entry);
  auto copy = std::make_shared<const Bytes>(payload.begin(), payload.end());
  const BytesView owned(*copy);
  Prepared& entry = add(hash, std::move(copy), owned);
  ++stats_.decodes;
  entry.datagram = Datagram::decode(entry.payload);
  if (entry.datagram.has_value()) prepare(entry);
  return consume(src, entry);
}

ExchangePool::Prepared* ExchangePool::find(std::uint64_t hash,
                                           BytesView payload) const {
  if (index_.empty()) return nullptr;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = home(hash); index_[i].entry != nullptr;
       i = (i + 1) & mask) {
    const Slot& slot = index_[i];
    if (slot.hash == hash && same_bytes(payload, slot.entry->payload)) {
      return slot.entry;
    }
  }
  return nullptr;
}

ExchangePool::Prepared& ExchangePool::add(std::uint64_t hash,
                                          SharedBytes buffer,
                                          BytesView payload) {
  Prepared& entry = entries_.emplace_back();
  entry.buffer = std::move(buffer);
  entry.payload = payload;
  if (2 * entries_.size() > index_.size()) grow_index();
  const std::size_t mask = index_.size() - 1;
  std::size_t i = home(hash);
  while (index_[i].entry != nullptr) i = (i + 1) & mask;
  index_[i] = {hash, &entry};
  return entry;
}

void ExchangePool::grow_index() {
  constexpr std::size_t kInitialSlots = 256;
  const std::size_t size =
      index_.empty() ? kInitialSlots : 2 * index_.size();
  std::vector<Slot> old = std::exchange(index_, std::vector<Slot>(size));
  index_shift_ = 64 - std::countr_zero(size);
  const std::size_t mask = size - 1;
  for (const Slot& slot : old) {
    if (slot.entry == nullptr) continue;
    std::size_t i = home(slot.hash);
    while (index_[i].entry != nullptr) i = (i + 1) & mask;
    index_[i] = slot;
  }
}

const ExchangePool::Prepared& ExchangePool::consume(ProcessId src,
                                                    Prepared& entry) {
  if (entry.acquired) {
    ++stats_.shared_hits;
  } else {
    entry.acquired = true;
  }
  if (src < last_by_sender_.size()) last_by_sender_[src] = &entry;
  return entry;
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

void ExchangePool::prepare(Prepared& entry) {
  entry.summary = ExchangeSummary::of(*entry.datagram, cfg_);
  // Preparations share a pool-wide memo: the same justification attachment
  // (e.g. the phase-1 quorum) recurs across many senders' payloads, and
  // VerifyMemo::check_batch collapses those repeats while still
  // 8-way-hashing the genuinely new keys.
  memo_.check_batch(keys_, cfg_, *entry.datagram, entry.auth);
}

}  // namespace turq::turquois
