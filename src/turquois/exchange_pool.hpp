// Content-keyed cache of prepared broadcast exchanges.
//
// A Turquois broadcast is one immutable frame delivered to every attached
// node, yet each receiver used to re-decode the datagram and re-verify its
// contained one-time signatures independently — n-fold duplicated host work
// for byte-identical input (and the gossip relay multiplies it further).
// This pool prepares each *unique payload* exactly once: decode plus a
// batched authenticity verdict per contained message (8-way SHA-256,
// sha256_batch.hpp), shared by every receiver. Authenticity is receiver-
// independent — a pure function of (payload bytes, key infrastructure) —
// so sharing verdicts changes nothing observable.
//
// Parallel prepare (the lookahead-horizon rule, DESIGN.md §14): payload
// bytes are frozen when the frame is handed to the medium, and no receiver
// consumes them before DIFS + backoff + airtime of simulated time has
// elapsed. That window is a safe host-side lookahead: prefetch() (called at
// send time) hands the fill to a TaskPool worker, and acquire() (called at
// delivery time, on the simulator thread) races it for the claim — whoever
// wins the compare-exchange runs the fill, so a queued-but-unstarted worker
// task never stalls the simulator (the loopback delivery fires at the same
// instant as the send). Entry contents are a pure function of the payload,
// so the simulation is bit-identical whether the fill ran inline, on a
// worker, early, or late.
//
// Lookups go through a per-sender memo first: each sender's broadcasts
// reach every receiver (and its own loopback) as the same bytes, and a
// stalled sender re-sends an unchanged payload every tick, so the entry its
// previous payload mapped to is the likely match. A memo hit is confirmed by
// the full-byte compare the bucket scan uses; a miss falls through to the
// content hash. The memo only decides how fast an entry is found, never
// which entry, so every counter and verdict is the same without it.
//
// Virtual time is untouched: every receiver still charges
// udp_recv + contained × ots_verify() to its own CPU (crypto::CostModel) —
// in the simulated world each node hashes independently.
//
// Threading contract: prefetch() and acquire() run on the simulator thread
// only; the map is single-threaded. Workers touch only the entry they were
// handed, publishing it via the atomic ready flag.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "sim/task_pool.hpp"
#include "turquois/config.hpp"
#include "turquois/key_infra.hpp"
#include "turquois/message.hpp"
#include "turquois/validation.hpp"

namespace turq::turquois {

class ExchangePool {
 public:
  /// Fill lifecycle: kEmpty -> kFilling (claimed via compare-exchange by a
  /// worker or the simulator thread) -> kReady (contents published).
  enum State : std::uint8_t { kEmpty = 0, kFilling = 1, kReady = 2 };

  struct Prepared {
    Bytes payload;                     // owned copy; hash-collision guard
    std::optional<Datagram> datagram;  // nullopt = malformed
    /// Authenticity verdict per contained message: justification entries
    /// in order, then the main message last (== authentic() per message).
    std::vector<std::uint8_t> auth;
    std::atomic<std::uint8_t> state{kEmpty};
    /// An acquire() already consumed this entry (simulator thread only).
    /// Drives the deterministic hit/miss accounting: unlike `existed` in
    /// lookup(), it cannot be flipped early by a prefetch.
    bool acquired = false;
  };

  /// Two families of counters, split by their determinism guarantee.
  ///
  /// The acquire-side counters (acquires / hits / misses()) are measured on
  /// the simulator thread in delivery order, so they are bit-identical for
  /// any --intra-jobs value and are exported as `exchange_pool.*` trace
  /// metrics (the harness Turquois descriptor, the service driver).
  ///
  /// The fill-attribution counters (entries / legacy hits / inline_fills /
  /// wait_races) depend on whether a prefetch worker won the claim race and
  /// are execution-timing-dependent with workers attached; they stay
  /// host-side observables and must NOT enter traces or reports (the
  /// bit-identity contract, DESIGN.md §14).
  struct Stats {
    std::uint64_t entries = 0;         // unique payloads prepared
    std::uint64_t hits = 0;            // acquires finding an existing entry
    /// Fills claimed by the simulator thread (acquire before any worker
    /// started); worker fills = entries - inline_fills. Mutated on the
    /// simulator thread only, so reads need no synchronization.
    std::uint64_t inline_fills = 0;
    /// Acquires that found a worker mid-fill and waited it out — the other
    /// outcome of the claim race (simulator thread only).
    std::uint64_t wait_races = 0;
    std::uint64_t acquires = 0;        // total acquire() calls (deliveries)
    /// Acquires of a payload some earlier acquire already consumed — the
    /// deliveries that shared another receiver's decode + verify.
    std::uint64_t shared_hits = 0;
    /// First-consumption acquires (each paid one prepare, inline or by
    /// riding out / reusing a worker fill).
    [[nodiscard]] std::uint64_t misses() const {
      return acquires - shared_hits;
    }

    Stats& operator+=(const Stats& o) {
      entries += o.entries;
      hits += o.hits;
      inline_fills += o.inline_fills;
      wait_races += o.wait_races;
      acquires += o.acquires;
      shared_hits += o.shared_hits;
      return *this;
    }
  };

  /// `workers` may be null: every fill then runs inline in acquire().
  ExchangePool(const KeyInfrastructure& keys, const Config& cfg,
               sim::TaskPool* workers)
      : keys_(keys), cfg_(cfg), workers_(workers), last_by_sender_(cfg.n) {}

  /// Send-time hook: start preparing `payload`, broadcast by `src`, on a
  /// worker. No-op without workers or when the payload is already known.
  /// Simulator thread only.
  void prefetch(ProcessId src, BytesView payload);

  /// Delivery-time lookup of `payload` received from `src`; fills inline on
  /// miss, waits out an in-flight worker fill on a prefetched entry. The
  /// reference lives as long as the pool. Simulator thread only.
  const Prepared& acquire(ProcessId src, BytesView payload);

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  Prepared& lookup(ProcessId src, BytesView payload, bool& existed);
  void fill(Prepared& entry);

  const KeyInfrastructure& keys_;
  const Config& cfg_;
  sim::TaskPool* workers_;
  /// Cross-payload verdict memo, used by *serial* fills only (workers
  /// verify statelessly; the memo is not thread-safe). Verdicts are pure,
  /// so the two fill flavours always agree.
  VerifyMemo memo_;
  // Buckets of owned entries; pointers stay stable across rehashes so
  // worker fills and Process callbacks can hold them.
  std::unordered_map<std::uint64_t, std::vector<std::unique_ptr<Prepared>>>
      map_;
  /// Per sender (ids below cfg.n), the entry its latest lookup resolved
  /// to; entries are never freed.
  std::vector<Prepared*> last_by_sender_;
  Stats stats_;
};

}  // namespace turq::turquois
