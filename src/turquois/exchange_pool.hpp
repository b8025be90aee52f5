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
// Every Process receives through a pool: the one its deployment shares
// (ProcessHooks::exchange_pool), or else a private one it owns. A private
// pool still collapses a sender's unchanged re-sends and repeated
// justification attachments; only the sharing across receivers is lost.
//
// Lookups go through a per-sender memo first: each sender's broadcasts
// reach every receiver (and its own loopback) as the same bytes, and a
// stalled sender re-sends an unchanged payload every tick, so the entry its
// previous payload mapped to is the likely match. A memo hit is confirmed by
// the full-byte compare the bucket scan uses; a miss falls through to the
// content hash. The memo only decides how fast an entry is found, never
// which entry, so every counter and verdict is the same without it.
//
// Each entry also carries an ExchangeSummary, the per-phase sender sets a
// receiver compares with its view to skip the messages it already holds.
//
// Virtual time is untouched: every receiver still charges
// udp_recv + contained × ots_verify() to its own CPU (crypto::CostModel) —
// in the simulated world each node hashes independently.
//
// The pool is single-threaded: acquire() runs on the simulator thread, in
// delivery order.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <optional>
#include <unordered_map>
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
    Bytes payload;                     // owned copy; hash-collision guard
    std::optional<Datagram> datagram;  // nullopt = malformed
    /// Authenticity verdict per contained message: justification entries
    /// in order, then the main message last (== authentic() per message).
    std::vector<std::uint8_t> auth;
    ExchangeSummary summary;  // of *datagram; empty when malformed
  };

  /// Measured in delivery order, so bit-identical run to run; exported as
  /// `exchange_pool.*` trace metrics (the harness Turquois descriptor, the
  /// service driver).
  struct Stats {
    std::uint64_t acquires = 0;  // total acquire() calls (deliveries)
    /// Acquires of a payload some earlier acquire already prepared — the
    /// deliveries that shared another receiver's decode + verify.
    std::uint64_t shared_hits = 0;
    /// First-consumption acquires, each of which paid one prepare.
    [[nodiscard]] std::uint64_t misses() const {
      return acquires - shared_hits;
    }

    Stats& operator+=(const Stats& o) {
      acquires += o.acquires;
      shared_hits += o.shared_hits;
      return *this;
    }
  };

  /// The third parameter is unused and always null. It remains only so
  /// that perfbench/, which is frozen and passes `nullptr` there, still
  /// compiles.
  ExchangePool(const KeyInfrastructure& keys, const Config& cfg,
               std::nullptr_t /*unused*/ = nullptr)
      : keys_(keys), cfg_(cfg), last_by_sender_(cfg.n) {}

  /// Delivery-time lookup of `payload` received from `src`; decodes and
  /// verifies it on first sight. The reference lives as long as the pool.
  const Prepared& acquire(ProcessId src, BytesView payload);

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  void fill(Prepared& entry);

  const KeyInfrastructure& keys_;
  const Config& cfg_;
  /// Cross-payload verdict memo shared by every fill.
  VerifyMemo memo_;
  // Buckets of owned entries; pointers stay stable across rehashes so
  // Process callbacks can hold them.
  std::unordered_map<std::uint64_t, std::vector<std::unique_ptr<Prepared>>>
      map_;
  /// Per sender (ids below cfg.n), the entry its latest lookup resolved
  /// to; entries are never freed.
  std::vector<Prepared*> last_by_sender_;
  Stats stats_;
};

}  // namespace turq::turquois
