// The datagram surface a consensus process talks to.
//
// Turquois only ever needs three verbs from its transport: deliver incoming
// payloads to a handler, fire-and-forget broadcast a payload, and stop
// (crash). BroadcastEndpoint implements this directly on the medium — the
// single-instance shape. FrameMux implements it per *instance*, packing the
// payloads of many concurrent instances into shared broadcast frames
// (frame_mux.hpp). The protocol code is identical over either.
//
// A sent payload is a SharedBytes: immutable once handed over, and a sender
// may hand the same object over again (Turquois re-broadcasts an unchanged
// state every tick). Transports keep the reference for as long as they need
// the bytes and never copy them per receiver.
#pragma once

#include <functional>

#include "common/bytes.hpp"
#include "common/types.hpp"

namespace turq::net {

/// The view aliases the shared in-flight frame and is only valid for the
/// duration of the call; handlers copy what they keep (a decoded datagram).
using DatagramHandler = std::function<void(ProcessId src, BytesView payload)>;

class DatagramPort {
 public:
  virtual ~DatagramPort() = default;

  virtual void set_handler(DatagramHandler handler) = 0;

  /// Broadcasts `payload` to every node, including the local one (loopback).
  /// `payload` must be non-null and is never modified.
  virtual void send(SharedBytes payload) = 0;

  /// Stops sending and receiving (crash).
  virtual void close() = 0;
};

}  // namespace turq::net
