// Abstract broadcast transport: what a protocol endpoint needs from the
// layer below it — attach/detach and fire-and-forget broadcast.
//
// Medium implements this directly (single-hop: one transmission reaches
// every node in range). spatial::RelayFabric implements it over a Medium
// with counter-based gossip rebroadcast, so the same protocols run
// unmodified over multi-hop topologies — the abstract-MAC framing of the
// paper's model section: protocols see local broadcast, the medium below
// may be richer.
#pragma once

#include <functional>

#include "common/bytes.hpp"
#include "common/types.hpp"

namespace turq::net {

class BroadcastService {
 public:
  /// Called on frame delivery: source, payload, whether it was broadcast.
  /// The view is valid only for the duration of the call; receivers that
  /// keep the data copy what they need (usually a decoded message).
  using ReceiveHandler =
      std::function<void(ProcessId src, BytesView payload, bool broadcast)>;

  /// One immutable frame payload shared by the sender's queue and every
  /// receiver's delivery event — a broadcast costs one allocation total
  /// instead of one deep copy per receiver.
  using FramePayload = SharedBytes;

  virtual ~BroadcastService() = default;

  /// Registers a node. A node must be attached to send or receive.
  virtual void attach(ProcessId id, ReceiveHandler handler) = 0;

  /// Deregisters a node (crash): it stops receiving; queued frames die.
  virtual void detach(ProcessId id) = 0;

  /// Queues a broadcast frame; no ACK, no retry. `replace_queued` keeps
  /// the sender's MAC queue bounded by superseding still-waiting broadcast
  /// frames (see Medium::broadcast).
  virtual void broadcast(ProcessId src, FramePayload payload,
                         bool replace_queued) = 0;
};

}  // namespace turq::net
