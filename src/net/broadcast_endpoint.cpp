#include "net/broadcast_endpoint.hpp"

namespace turq::net {

BroadcastEndpoint::BroadcastEndpoint(sim::Simulator& simulator,
                                     BroadcastService& service, ProcessId self)
    : sim_(simulator), service_(service), self_(self) {
  service_.attach(self_, [this](ProcessId src, BytesView frame, bool bc) {
    if (!open_ || !bc || !handler_) return;
    if (frame.size() < kUdpIpOverhead) return;  // malformed frame
    // Strip the modeled UDP/IP header room at the frame's tail; a subspan
    // of the shared frame, no copy.
    handler_(src, frame.first(frame.size() - kUdpIpOverhead));
  });
}

BroadcastEndpoint::~BroadcastEndpoint() {
  if (open_) service_.detach(self_);
}

void BroadcastEndpoint::send(FramedPayload payload, bool replace_queued) {
  if (!open_) return;
  ++sent_;
  // The sender's buffer is the frame: payload first, then the opaque
  // UDP/IP header room the medium charges airtime for. Receivers see only
  // the payload part. Loopback: local delivery is immediate and loss-free.
  sim_.schedule(0, [this, payload] {
    if (open_ && handler_) handler_(self_, payload.payload());
  });
  service_.broadcast(self_, payload.frame(), replace_queued);
}

void BroadcastEndpoint::close() {
  if (!open_) return;
  open_ = false;
  service_.detach(self_);
}

}  // namespace turq::net
