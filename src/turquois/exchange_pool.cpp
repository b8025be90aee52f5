#include "turquois/exchange_pool.hpp"

#include <cstring>

#include "crypto/onetime_sig.hpp"

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

ExchangePool::Prepared& ExchangePool::lookup(ProcessId src, BytesView payload,
                                             bool& existed) {
  // Every delivery of a sender's broadcast, and each of its unchanged
  // re-sends, repeats that sender's previous payload: one memcmp against
  // its memo short-circuits hash + bucket scan. Senders outside the group
  // (none in a deployment) take the hashed path every time.
  const bool memoized = src < last_by_sender_.size();
  Prepared* const memo = memoized ? last_by_sender_[src] : nullptr;
  if (memo != nullptr && same_bytes(payload, memo->payload)) {
    existed = true;
    return *memo;
  }
  const auto remember = [&](Prepared& entry) -> Prepared& {
    if (memoized) last_by_sender_[src] = &entry;
    return entry;
  };
  auto& bucket = map_[content_hash(payload)];
  for (const auto& entry : bucket) {
    if (same_bytes(payload, entry->payload)) {
      existed = true;
      return remember(*entry);
    }
  }
  existed = false;
  bucket.push_back(std::make_unique<Prepared>());
  bucket.back()->payload.assign(payload.begin(), payload.end());
  ++stats_.entries;
  return remember(*bucket.back());
}

void ExchangePool::prefetch(ProcessId src, BytesView payload) {
  if (workers_ == nullptr) return;
  bool existed = false;
  Prepared& entry = lookup(src, payload, existed);
  if (existed) return;
  workers_->submit([&entry, this] {
    std::uint8_t expected = kEmpty;
    if (!entry.state.compare_exchange_strong(expected, kFilling,
                                             std::memory_order_acquire)) {
      return;  // the simulator thread got there first
    }
    fill(entry);
    entry.state.store(kReady, std::memory_order_release);
    entry.state.notify_all();
  });
}

const ExchangePool::Prepared& ExchangePool::acquire(ProcessId src,
                                                   BytesView payload) {
  bool existed = false;
  Prepared& entry = lookup(src, payload, existed);
  if (existed) ++stats_.hits;
  ++stats_.acquires;
  if (entry.acquired) {
    ++stats_.shared_hits;
  } else {
    entry.acquired = true;
  }
  std::uint8_t expected = kEmpty;
  if (entry.state.compare_exchange_strong(expected, kFilling,
                                          std::memory_order_acquire)) {
    // Unclaimed — either never prefetched (no workers, or bytes replayed
    // from a pre-start buffer) or the prefetch task is still queued. Fill
    // here and now rather than stalling behind the worker queue.
    ++stats_.inline_fills;
    fill(entry);
    entry.state.store(kReady, std::memory_order_release);
    return entry;
  }
  if (expected != kReady) {
    // A worker owns the fill; ride out the remainder of its head start.
    ++stats_.wait_races;
    entry.state.wait(kFilling, std::memory_order_acquire);
  }
  return entry;
}

void ExchangePool::fill(Prepared& entry) {
  entry.datagram = Datagram::decode(entry.payload);
  if (!entry.datagram.has_value()) return;
  const Datagram& d = *entry.datagram;
  if (workers_ == nullptr) {
    // Serial fills share a pool-wide memo: the same justification
    // attachment (e.g. the phase-1 quorum) recurs across many senders'
    // payloads, and VerifyMemo::check_batch collapses those repeats while
    // still 8-way-hashing the genuinely new keys. Workers cannot use it
    // (the memo is not thread-safe), so parallel fills verify statelessly.
    memo_.check_batch(keys_, cfg_, d, entry.auth);
    return;
  }
  const std::size_t contained = d.justification.size() + 1;
  std::vector<crypto::OtsCheck> checks(contained);
  for (std::size_t i = 0; i < contained; ++i) {
    const Message& m =
        i < d.justification.size() ? d.justification[i] : d.main;
    // authentic(): sender out of range fails outright (null VK array).
    checks[i] = {.vk_array = m.sender < cfg_.n
                                 ? &keys_.verification_keys(m.sender)
                                 : nullptr,
                 .phase = m.phase,
                 .v = m.value,
                 .revealed_sk = m.auth_sk};
  }
  std::vector<std::uint8_t> ok(contained, 0);
  static_assert(sizeof(bool) == sizeof(std::uint8_t));
  crypto::ots_verify_batch(checks.data(), contained,
                           reinterpret_cast<bool*>(ok.data()));
  entry.auth = std::move(ok);
}

}  // namespace turq::turquois
