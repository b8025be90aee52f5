// The datagram surface a consensus process talks to.
//
// Turquois only ever needs three verbs from its transport: deliver incoming
// payloads to a handler, fire-and-forget broadcast a payload, and stop
// (crash). BroadcastEndpoint implements this directly on the medium — the
// single-instance shape. FrameMux implements it per *instance*, packing the
// payloads of many concurrent instances into shared broadcast frames
// (frame_mux.hpp). The protocol code is identical over either.
//
// A sent payload is a FramedPayload: the encoded payload followed by room
// for the UDP/IP headers, in one immutable buffer the sender encodes into
// (turquois::Datagram::encode). BroadcastEndpoint airs that buffer as it is;
// FrameMux packs its payload part into a mux frame; the UDP runtime puts
// only the payload part on the wire. A sender may hand the same object over
// again (Turquois re-broadcasts an unchanged state every tick), and no
// layer copies it per receiver.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <utility>

#include "common/assert.hpp"
#include "common/bytes.hpp"
#include "common/types.hpp"

namespace turq::net {

/// IPv4 + UDP headers: the bytes every datagram carries on the air beyond
/// its payload.
inline constexpr std::size_t kUdpIpOverhead = 28;

/// An encoded payload followed by kUdpIpOverhead bytes of header room: the
/// frame a BroadcastEndpoint airs. The header bytes are opaque (zero in
/// simulation). Immutable and shared by reference once built.
class FramedPayload {
 public:
  FramedPayload() = default;
  /// Takes `frame`, whose last kUdpIpOverhead bytes are the header room.
  explicit FramedPayload(Bytes frame)
      : frame_(std::make_shared<const Bytes>(std::move(frame))) {
    TURQ_ASSERT_MSG(frame_->size() >= kUdpIpOverhead,
                    "a framed payload ends in its header room");
  }
  /// Copies `payload` into a new frame with zeroed header room.
  static FramedPayload copy_of(BytesView payload) {
    Bytes frame(payload.size() + kUdpIpOverhead);
    std::copy(payload.begin(), payload.end(), frame.begin());
    return FramedPayload(std::move(frame));
  }

  /// The payload: the frame without its header room. The view lives as
  /// long as some copy of this object does, so a temporary has none.
  [[nodiscard]] BytesView payload() const& {
    return BytesView(*frame_).first(frame_->size() - kUdpIpOverhead);
  }
  BytesView payload() const&& = delete;
  /// The whole frame, header room included.
  [[nodiscard]] const SharedBytes& frame() const { return frame_; }
  explicit operator bool() const { return frame_ != nullptr; }

 private:
  SharedBytes frame_;
};

/// The view aliases the shared in-flight frame and is only valid for the
/// duration of the call; handlers copy what they keep (a decoded datagram).
using DatagramHandler = std::function<void(ProcessId src, BytesView payload)>;

class DatagramPort {
 public:
  virtual ~DatagramPort() = default;

  virtual void set_handler(DatagramHandler handler) = 0;

  /// Broadcasts `payload` to every node, including the local one (loopback).
  /// `payload` must be non-null and is never modified.
  virtual void send(FramedPayload payload) = 0;

  /// Stops sending and receiving (crash).
  virtual void close() = 0;
};

}  // namespace turq::net
