#include "net/broadcast_endpoint.hpp"

namespace turq::net {

BroadcastEndpoint::BroadcastEndpoint(sim::Simulator& simulator,
                                     BroadcastService& service, ProcessId self)
    : sim_(simulator), service_(service), self_(self) {
  service_.attach(self_, [this](ProcessId src, BytesView frame, bool bc) {
    if (!open_ || !bc || !handler_) return;
    if (frame.size() < kUdpIpOverhead) return;  // malformed frame
    // Strip the modeled UDP/IP overhead (padded at the tail on send); a
    // subspan of the shared frame, no copy.
    handler_(src, frame.first(frame.size() - kUdpIpOverhead));
  });
}

BroadcastEndpoint::~BroadcastEndpoint() {
  if (open_) service_.detach(self_);
}

void BroadcastEndpoint::send(SharedBytes payload, bool replace_queued) {
  if (!open_) return;
  ++sent_;
  // One immutable frame serves the loopback delivery and all n-1 receivers.
  // Over-the-air it carries UDP/IP headers; the medium adds MAC overhead.
  // Headers conceptually precede the payload, but receivers only see the
  // payload portion; keep payload bytes at the front and pad the tail.
  if (payload != last_payload_) {
    Bytes frame;
    frame.reserve(payload->size() + kUdpIpOverhead);
    frame.assign(payload->begin(), payload->end());
    frame.resize(payload->size() + kUdpIpOverhead);  // header bytes are opaque
    last_frame_ = std::make_shared<const Bytes>(std::move(frame));
    last_payload_ = std::move(payload);
  }
  // Loopback: local delivery is immediate and loss-free.
  sim_.schedule(0, [this, frame = last_frame_] {
    if (open_ && handler_) {
      handler_(self_, BytesView(*frame).first(frame->size() - kUdpIpOverhead));
    }
  });
  service_.broadcast(self_, last_frame_, replace_queued);
  // Only a payload its sender still holds can come back as a re-send; a
  // one-off (a mux flush, an unjustified state) is not worth keeping.
  if (last_payload_.use_count() == 1) {
    last_payload_.reset();
    last_frame_.reset();
  }
}

void BroadcastEndpoint::close() {
  if (!open_) return;
  open_ = false;
  service_.detach(self_);
}

}  // namespace turq::net
