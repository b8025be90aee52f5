// Content-keyed cache of prepared broadcast exchanges.
//
// A Turquois broadcast is one immutable frame delivered to every attached
// node; decoding it and verifying its one-time signatures per receiver
// would be n-fold duplicated host work for byte-identical input (and the
// gossip relay multiplies it further). This pool prepares each *unique
// payload* exactly once: decode plus a batched authenticity verdict per
// contained message (8-way SHA-256, sha256_batch.hpp), shared by every
// receiver. Authenticity is receiver-independent — a pure function of
// (payload bytes, key infrastructure) — so sharing verdicts changes nothing
// observable.
//
// Most entries are prepared at the sender. A correct process publishes
// each payload it encodes (publish()): the entry keeps the process's own
// buffer and a copy of the datagram it encoded, so nothing is decoded; its
// verdicts and summary come from the same VerifyMemo::check_batch and
// ExchangeSummary::of a receive-side preparation uses. Broadcasts that went
// through a Byzantine mutator are never published. Payloads first seen on
// receive (another pool's publisher, a mux frame's sub-payload, a relay
// copy, Byzantine bytes) are copied into a buffer of their own and decoded.
//
// Every Process receives through a pool: the one its deployment shares
// (ProcessHooks::exchange_pool), or else a private one it owns. A private
// pool still collapses a sender's unchanged re-sends and repeated
// justification attachments; only the sharing across receivers is lost.
//
// Lookups go through a per-sender memo first: each sender's broadcasts
// reach every receiver (and its own loopback) as the same bytes, and a
// stalled sender re-sends an unchanged payload every tick, so the entry its
// previous payload mapped to is the likely match. The address rule makes
// most memo hits free: every entry holds the buffer its payload view
// points into for as long as the pool lives, so no other buffer can take
// that address meanwhile, and a delivered view with the same data() and
// size() is the same bytes. A view into another buffer (a mux frame, a
// relay copy, an entry first seen on receive) is compared byte by byte
// with the memo's entry and then found by content hash. The memo and the
// address rule only decide how fast an entry is found, never which entry,
// so every counter and verdict is the same without them.
//
// Each entry also carries an ExchangeSummary, the per-phase sender sets a
// receiver compares with its view to skip the messages it already holds.
//
// Virtual time is untouched: every receiver still charges
// udp_recv + contained × ots_verify() to its own CPU (crypto::CostModel) —
// in the simulated world each node hashes independently.
//
// The pool is single-threaded: publish() and acquire() run on the
// simulator thread, in send and delivery order.
#pragma once

#include <array>
#include <cstddef>
#include <deque>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/sender_set.hpp"
#include "turquois/config.hpp"
#include "turquois/key_infra.hpp"
#include "turquois/message.hpp"
#include "turquois/validation.hpp"

namespace turq::turquois {

/// What a datagram can add to a receiver's view, computed once per unique
/// payload: its distinct phases and, per phase, the senders of the
/// contained messages that pass Process::ingest()'s range gate
/// (sender < n, 1 <= phase <= max_phase). A receiver subtracts the senders
/// its view already holds at each phase; only the pairs left can change its
/// state (Process::process_exchange). An honest datagram spans one to five
/// phases (DESIGN.md §14). One that spans more sets `overflow`: the listed
/// phases keep complete sender sets, and every message at an unlisted phase
/// is a candidate.
struct ExchangeSummary {
  static constexpr std::size_t kMaxPhases = 5;

  std::array<Phase, kMaxPhases> phases{};
  std::array<SenderSet, kMaxPhases> senders{};
  std::uint8_t count = 0;  // phases in use
  bool overflow = false;

  static ExchangeSummary of(const Datagram& d, const Config& cfg);
};

class ExchangePool {
 public:
  struct Prepared {
    /// The buffer `payload` points into, held as long as the pool lives:
    /// the publisher's own frame, or a copy made on first receipt.
    SharedBytes buffer;
    BytesView payload;
    std::optional<Datagram> datagram;  // nullopt = malformed
    /// Authenticity verdict per contained message: justification entries
    /// in order, then the main message last (== authentic() per message).
    std::vector<std::uint8_t> auth;
    ExchangeSummary summary;  // of *datagram; empty when malformed
    /// Set by the first acquire that resolves here. A published entry's
    /// first acquire is its miss, exactly as if that acquire had prepared
    /// it, so the counters do not depend on who prepared an entry.
    bool acquired = false;
  };

  /// Measured in delivery order, so bit-identical run to run; exported as
  /// `exchange_pool.*` trace metrics (the harness Turquois descriptor, the
  /// service driver).
  struct Stats {
    std::uint64_t acquires = 0;  // total acquire() calls (deliveries)
    /// Acquires of a payload some earlier acquire already consumed — the
    /// deliveries that shared another receiver's decode + verify.
    std::uint64_t shared_hits = 0;
    /// Datagram::decode calls: entries first seen on receive. Published
    /// entries are never decoded.
    std::uint64_t decodes = 0;
    /// First-consumption acquires of each entry, however it was prepared.
    [[nodiscard]] std::uint64_t misses() const {
      return acquires - shared_hits;
    }

    Stats& operator+=(const Stats& o) {
      acquires += o.acquires;
      shared_hits += o.shared_hits;
      decodes += o.decodes;
      return *this;
    }
  };

  /// The third parameter is unused and always null. It remains only so
  /// that perfbench/, which is frozen and passes `nullptr` there, still
  /// compiles.
  ExchangePool(const KeyInfrastructure& keys, const Config& cfg,
               std::nullptr_t /*unused*/ = nullptr)
      : keys_(keys), cfg_(cfg), last_by_sender_(cfg.n) {}

  /// Sender-side preparation: `buffer` is what correct process `src` just
  /// encoded from `datagram` (Datagram::encode). Adds an entry that holds
  /// the buffer and a copy of the datagram, unless equal bytes already
  /// have one; either way the entry becomes `src`'s memo, so the loopback
  /// and every delivery of the buffer itself hit by address. Counts no
  /// acquire.
  void publish(ProcessId src, const net::FramedPayload& buffer,
               const Datagram& datagram);

  /// Delivery-time lookup of `payload` received from `src`; decodes and
  /// verifies it on first sight. The reference lives as long as the pool.
  const Prepared& acquire(ProcessId src, BytesView payload);

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  /// The entry holding exactly `payload`'s bytes, whose content hash is
  /// `hash`, or nullptr.
  [[nodiscard]] Prepared* find(std::uint64_t hash, BytesView payload) const;
  /// A new entry, indexed under `hash`, that holds `buffer` and views
  /// `payload` in it.
  Prepared& add(std::uint64_t hash, SharedBytes buffer, BytesView payload);
  void grow_index();
  /// The first slot `hash` probes: its top bits after a multiplicative mix.
  [[nodiscard]] std::size_t home(std::uint64_t hash) const {
    return static_cast<std::size_t>((hash * 0x9E3779B97F4A7C15ULL) >>
                                    index_shift_);
  }
  /// Verdicts and summary of the entry's datagram.
  void prepare(Prepared& entry);
  /// `entry` as the result of an acquire from `src`: counts the hit or
  /// the miss and makes it `src`'s memo.
  const Prepared& consume(ProcessId src, Prepared& entry);

  const KeyInfrastructure& keys_;
  const Config& cfg_;
  /// Cross-payload verdict memo shared by every preparation.
  VerifyMemo memo_;
  /// Every entry, never freed before the pool; a deque keeps addresses
  /// stable as it grows, so Process callbacks can hold them.
  std::deque<Prepared> entries_;
  /// Open-addressing index of entries_ by content hash (linear probing,
  /// at most half full; a null entry marks an empty slot). Equal hashes
  /// are told apart by the full-byte compare.
  struct Slot {
    std::uint64_t hash = 0;
    Prepared* entry = nullptr;
  };
  std::vector<Slot> index_;
  int index_shift_ = 64;  // 64 - log2(index_.size())
  /// Per sender (ids below cfg.n), the entry its latest publish or lookup
  /// resolved to; entries are never freed.
  std::vector<Prepared*> last_by_sender_;
  Stats stats_;
};

}  // namespace turq::turquois
