#include "net/frame_mux.hpp"

#include <cstring>

#include "common/assert.hpp"
#include "common/serialize.hpp"

namespace turq::net {

namespace {
constexpr std::size_t kHeaderBytes = 4;      // u32 count
constexpr std::size_t kPerPayloadBytes = 8;  // u32 instance + u32 len

std::uint32_t read_u32(BytesView bytes, std::size_t at) {
  std::uint32_t v;
  std::memcpy(&v, bytes.data() + at, sizeof(v));
  return v;
}
}  // namespace

FrameMux::FrameMux(sim::Simulator& simulator, BroadcastService& service,
                   ProcessId self, FrameMuxConfig cfg)
    : sim_(simulator), self_(self), cfg_(cfg),
      endpoint_(simulator, service, self) {
  TURQ_ASSERT_MSG(cfg_.max_payload_bytes > kHeaderBytes + kPerPayloadBytes,
                  "mux payload budget cannot fit a single sub-payload");
  endpoint_.set_handler(
      [this](ProcessId src, BytesView frame) { on_frame(src, frame); });
}

FrameMux::~FrameMux() = default;

DatagramPort& FrameMux::port(std::uint32_t instance) {
  auto& slot = ports_[instance];
  if (slot == nullptr) slot = std::make_unique<InstancePort>(*this, instance);
  return *slot;
}

void FrameMux::retire(std::uint32_t instance) {
  ports_.erase(instance);
  for (auto it = staged_.begin(); it != staged_.end(); ++it) {
    if (it->first == instance) {  // at most one staged entry per instance
      staged_.erase(it);
      break;
    }
  }
}

void FrameMux::close() {
  if (!open_) return;
  open_ = false;
  for (auto& [id, port] : ports_) port->close();
  staged_.clear();
  endpoint_.close();
}

void FrameMux::stage(std::uint32_t instance, FramedPayload payload) {
  if (!open_) return;
  for (auto& [id, staged] : staged_) {
    if (id == instance) {
      staged = std::move(payload);  // latest-wins, slot keeps its order
      ++stats_.superseded;
      return;
    }
  }
  staged_.emplace_back(instance, std::move(payload));
  if (!flush_scheduled_) {
    flush_scheduled_ = true;
    sim_.schedule(cfg_.window, [this] { flush(); });
  }
}

void FrameMux::flush() {
  flush_scheduled_ = false;
  if (!open_ || staged_.empty()) return;
  // Greedy first-fit in staging order; a sub-payload larger than the budget
  // is a layering bug upstream (Turquois datagrams fit one MSDU).
  std::size_t i = 0;
  bool first_frame = true;
  while (i < staged_.size()) {
    Writer w;
    // One allocation per frame: the budget plus the header room.
    w.reserve(cfg_.max_payload_bytes + kUdpIpOverhead);
    std::size_t count = 0;
    std::size_t used = kHeaderBytes;
    w.u32(0);  // patched below
    while (i < staged_.size()) {
      const auto& [instance, staged] = staged_[i];
      const BytesView payload = staged.payload();
      const std::size_t need = kPerPayloadBytes + payload.size();
      TURQ_ASSERT_MSG(kHeaderBytes + need <= cfg_.max_payload_bytes,
                      "instance payload exceeds the mux frame budget");
      if (used + need > cfg_.max_payload_bytes) break;
      w.u32(instance);
      w.bytes(payload);
      used += need;
      ++count;
      ++i;
    }
    Bytes frame = w.take();
    const auto count32 = static_cast<std::uint32_t>(count);
    std::memcpy(frame.data(), &count32, sizeof(count32));
    frame.resize(frame.size() + kUdpIpOverhead);  // opaque header room
    // The first frame of a flush supersedes this node's stale queued mux
    // frames (their payloads were superseded in-place anyway); continuation
    // frames of the same flush must not cancel their siblings.
    endpoint_.send(FramedPayload(std::move(frame)),
                   /*replace_queued=*/first_frame);
    ++stats_.frames_sent;
    stats_.payloads_sent += count;
    if (!first_frame) ++stats_.frame_splits;
    first_frame = false;
  }
  staged_.clear();
}

void FrameMux::on_frame(ProcessId src, BytesView frame) {
  if (frame.size() < kHeaderBytes) return;  // malformed
  ++stats_.frames_received;
  const std::uint32_t count = read_u32(frame, 0);
  std::size_t at = kHeaderBytes;
  for (std::uint32_t p = 0; p < count; ++p) {
    if (at + kPerPayloadBytes > frame.size()) return;  // truncated
    const std::uint32_t instance = read_u32(frame, at);
    const std::uint32_t len = read_u32(frame, at + 4);
    at += kPerPayloadBytes;
    if (at + len > frame.size()) return;  // truncated
    const BytesView payload = frame.subspan(at, len);
    at += len;
    const auto it = ports_.find(instance);
    if (it == ports_.end() || !it->second->open()) {
      ++stats_.late_drops;  // retired (or never launched here) instance
      continue;
    }
    it->second->deliver(src, payload);
    ++stats_.payloads_routed;
  }
}

}  // namespace turq::net
