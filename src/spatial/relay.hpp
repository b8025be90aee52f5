// Counter-based gossip relay over the spatial Medium.
//
// RelayFabric implements net::BroadcastService: protocols attach to it
// exactly as they would to the Medium, and their broadcasts reach nodes
// beyond direct radio range by rebroadcast. The scheme is classic
// counter-based flooding (a well-studied fix for the broadcast storm
// problem): on first reception of a frame a node schedules a rebroadcast
// after a short random assessment delay; hearing the same frame again
// during the delay bumps a duplicate counter, and reaching the counter
// threshold cancels the rebroadcast — nodes surrounded by chatty
// neighbours stay quiet, sparse bridges forward.
//
// Framing: each relayed payload is prefixed by a 6-byte header
// [origin u8][hops u8][seq u32 LE]; receivers are handed the payload
// portion with src = origin, so the protocol above never sees relaying.
// Duplicate detection is per (receiver, origin, seq).
//
// Determinism: each node's assessment delays come from a stream derived
// from the fabric's root (itself derived from the repetition root), so
// relay jitter never perturbs medium or protocol draws and runs stay
// bit-identical at any --jobs value.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/broadcast_service.hpp"
#include "net/medium.hpp"
#include "sim/simulator.hpp"
#include "spatial/topology.hpp"

namespace turq::spatial {

struct RelayConfig {
  /// Duplicates heard during assessment that cancel the rebroadcast.
  std::uint32_t counter_threshold = 2;
  /// Uniform assessment delay before forwarding, [min, max].
  SimDuration assess_min = 2 * kMillisecond;
  SimDuration assess_max = 10 * kMillisecond;
  /// TTL: a frame is not forwarded past this many hops.
  std::uint32_t max_hops = 8;
};

/// Bounded duplicate-suppression window over 32-bit wrapping sequence
/// numbers. Tracks the most recent `capacity` seqs per origin with a ring
/// of bits and a sliding lower bound: marking a seq ahead of the window
/// slides the base forward (evicting the oldest entries), and anything
/// behind the base is conservatively reported as already seen. Ordering
/// uses serial-number arithmetic, so the u32 seq wrapping past 2^32 keeps
/// comparing correctly instead of aliasing entry 0 (the unbounded dense
/// bitmap this replaces leaked linearly in soak runs and aliased on wrap).
class SeqWindow {
 public:
  static constexpr std::uint32_t kDefaultCapacity = 4096;

  explicit SeqWindow(std::uint32_t capacity = kDefaultCapacity)
      : bits_(capacity, false) {}

  /// Marks `seq` as seen; returns true when it was new.
  bool mark(std::uint32_t seq);

  /// Whether `seq` is marked (seqs behind the window count as seen).
  [[nodiscard]] bool seen(std::uint32_t seq) const;

  /// Lowest sequence number still tracked.
  [[nodiscard]] std::uint32_t base() const { return base_; }
  [[nodiscard]] std::size_t capacity() const { return bits_.size(); }

 private:
  std::uint32_t base_ = 0;
  std::vector<bool> bits_;  // slot for seq: seq % capacity
};

class RelayFabric final : public net::BroadcastService {
 public:
  static constexpr std::size_t kHeaderBytes = 6;

  RelayFabric(sim::Simulator& simulator, net::Medium& medium, RelayConfig cfg,
              std::uint32_t n, Rng rng);

  void attach(ProcessId id, net::BroadcastService::ReceiveHandler handler)
      override;
  void detach(ProcessId id) override;
  void broadcast(ProcessId src, FramePayload payload,
                 bool replace_queued) override;

  /// Relay counters for this repetition.
  using Stats = RelayStats;
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  /// Shared cancellation state for one pending rebroadcast.
  struct Pending {
    std::uint32_t duplicates = 0;
    bool cancelled = false;
  };
  struct Node {
    ReceiveHandler app;
    Rng rng;  // assessment-delay stream
    // seen[origin] tracks recent seqs in a bounded sliding window.
    std::vector<SeqWindow> seen;
    std::unordered_map<std::uint64_t, std::shared_ptr<Pending>> pending;
    bool attached = false;
  };

  void on_frame(ProcessId self, ProcessId from, BytesView frame);
  void forward(ProcessId self, ProcessId origin, std::uint32_t seq,
               std::uint32_t hops, FramePayload wrapped);
  [[nodiscard]] static std::uint64_t key_of(ProcessId origin,
                                            std::uint32_t seq) {
    return (static_cast<std::uint64_t>(origin) << 32) | seq;
  }
  [[nodiscard]] bool mark_seen(Node& node, ProcessId origin,
                               std::uint32_t seq);

  sim::Simulator& sim_;
  net::Medium& medium_;
  RelayConfig cfg_;
  Rng rng_;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> next_seq_;
  Stats stats_;
};

}  // namespace turq::spatial
