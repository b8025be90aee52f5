#include "spatial/relay.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "trace/trace.hpp"

namespace turq::spatial {

namespace {

constexpr std::size_t kOriginOffset = 0;
constexpr std::size_t kHopsOffset = 1;
constexpr std::size_t kSeqOffset = 2;

void write_header(Bytes& frame, ProcessId origin, std::uint32_t hops,
                  std::uint32_t seq) {
  frame[kOriginOffset] = static_cast<std::uint8_t>(origin);
  frame[kHopsOffset] = static_cast<std::uint8_t>(hops);
  frame[kSeqOffset + 0] = static_cast<std::uint8_t>(seq);
  frame[kSeqOffset + 1] = static_cast<std::uint8_t>(seq >> 8);
  frame[kSeqOffset + 2] = static_cast<std::uint8_t>(seq >> 16);
  frame[kSeqOffset + 3] = static_cast<std::uint8_t>(seq >> 24);
}

}  // namespace

RelayFabric::RelayFabric(sim::Simulator& simulator, net::Medium& medium,
                         RelayConfig cfg, std::uint32_t n, Rng rng)
    : sim_(simulator), medium_(medium), cfg_(cfg), rng_(rng), nodes_(n),
      next_seq_(n, 0) {
  TURQ_ASSERT_MSG(n <= 256, "relay header encodes the origin in one byte");
  origin_frames_ = &metrics_.counter("spatial.relay.origin_frames");
  forwards_ = &metrics_.counter("spatial.relay.forwards");
  suppressed_ = &metrics_.counter("spatial.relay.suppressed");
  duplicates_ = &metrics_.counter("spatial.relay.duplicates");
  deliveries_ = &metrics_.counter("spatial.relay.deliveries");
}

void RelayFabric::attach(ProcessId id,
                         net::BroadcastService::ReceiveHandler handler) {
  TURQ_ASSERT(id < nodes_.size());
  Node& node = nodes_[id];
  node.app = std::move(handler);
  node.rng = rng_.derive("node", id);
  node.attached = true;
  medium_.attach(id, [this, id](ProcessId src, BytesView frame, bool bc) {
    if (!bc) {
      // Unicast is not relayed; hand it through untouched.
      Node& n = nodes_[id];
      if (n.attached && n.app) n.app(src, frame, false);
      return;
    }
    on_frame(id, src, frame);
  });
}

void RelayFabric::detach(ProcessId id) {
  if (id >= nodes_.size()) return;
  Node& node = nodes_[id];
  node.attached = false;
  node.app = {};
  for (auto& [key, pending] : node.pending) pending->cancelled = true;
  node.pending.clear();
  medium_.detach(id);
}

bool SeqWindow::mark(std::uint32_t seq) {
  // Serial-number arithmetic: the wrap at 2^32 keeps "ahead"/"behind"
  // meaningful as long as in-flight seqs span less than 2^31.
  const auto delta = static_cast<std::int32_t>(seq - base_);
  if (delta < 0) return false;  // behind the window: treat as already seen
  const auto cap = static_cast<std::uint32_t>(bits_.size());
  if (static_cast<std::uint32_t>(delta) >= cap) {
    // Slide so `seq` becomes the newest tracked entry, evicting whatever
    // falls off the back.
    const std::uint32_t new_base = seq - (cap - 1);
    const std::uint32_t advance = new_base - base_;
    if (advance >= cap) {
      std::fill(bits_.begin(), bits_.end(), false);
    } else {
      for (std::uint32_t i = 0; i < advance; ++i) {
        bits_[(base_ + i) % cap] = false;
      }
    }
    base_ = new_base;
  }
  if (bits_[seq % cap]) return false;
  bits_[seq % cap] = true;
  return true;
}

bool SeqWindow::seen(std::uint32_t seq) const {
  const auto delta = static_cast<std::int32_t>(seq - base_);
  if (delta < 0) return true;  // evicted or pre-window: conservatively seen
  if (static_cast<std::uint32_t>(delta) >= bits_.size()) return false;
  return bits_[seq % bits_.size()];
}

bool RelayFabric::mark_seen(Node& node, ProcessId origin, std::uint32_t seq) {
  if (node.seen.size() <= origin) node.seen.resize(origin + 1);
  return node.seen[origin].mark(seq);
}

void RelayFabric::broadcast(ProcessId src, FramePayload payload,
                            bool replace_queued) {
  TURQ_ASSERT(src < nodes_.size());
  TURQ_ASSERT_MSG(payload != nullptr, "broadcast payload must be non-null");
  const std::uint32_t seq = next_seq_[src]++;
  // Marked so forwards of our own frame count as dupes. The seq is fresh,
  // so the "already seen" result is always false and carries nothing.
  (void)mark_seen(nodes_[src], src, seq);
  origin_frames_->add();
  Bytes wrapped(kHeaderBytes + payload->size());
  write_header(wrapped, src, 0, seq);
  std::copy(payload->begin(), payload->end(),
            wrapped.begin() + kHeaderBytes);
  medium_.send_broadcast(src, std::make_shared<const Bytes>(std::move(wrapped)),
                         replace_queued);
}

void RelayFabric::on_frame(ProcessId self, ProcessId from, BytesView frame) {
  (void)from;  // the MAC-level sender; gossip cares only about the origin
  if (frame.size() < kHeaderBytes) return;  // not relay-framed; drop
  const auto origin = static_cast<ProcessId>(frame[kOriginOffset]);
  const std::uint32_t hops = frame[kHopsOffset];
  const std::uint32_t seq =
      static_cast<std::uint32_t>(frame[kSeqOffset]) |
      (static_cast<std::uint32_t>(frame[kSeqOffset + 1]) << 8) |
      (static_cast<std::uint32_t>(frame[kSeqOffset + 2]) << 16) |
      (static_cast<std::uint32_t>(frame[kSeqOffset + 3]) << 24);
  if (origin >= nodes_.size()) return;
  Node& node = nodes_[self];
  if (!node.attached) return;

  if (!mark_seen(node, origin, seq)) {
    duplicates_->add();
    const auto it = node.pending.find(key_of(origin, seq));
    if (it != node.pending.end()) {
      if (++it->second->duplicates >= cfg_.counter_threshold) {
        // Enough neighbours already cover this frame: stay quiet.
        it->second->cancelled = true;
        suppressed_->add();
        TURQ_TRACE_EVENT(.at = sim_.now(),
                         .category = trace::Category::kSpatial,
                         .kind = trace::Kind::kRelaySuppressed,
                         .process = self,
                         .value = static_cast<std::int64_t>(origin),
                         .frame = seq);
        node.pending.erase(it);
      }
    }
    return;
  }

  deliveries_->add();
  if (node.app) node.app(origin, frame.subspan(kHeaderBytes), true);

  if (hops + 1 >= cfg_.max_hops) return;  // TTL exhausted
  // Schedule the rebroadcast after a random assessment delay; duplicates
  // heard meanwhile can cancel it (counter-based suppression).
  const SimDuration window =
      std::max<SimDuration>(0, cfg_.assess_max - cfg_.assess_min);
  const SimDuration delay =
      cfg_.assess_min + static_cast<SimDuration>(node.rng.uniform(
                            static_cast<std::uint64_t>(window) + 1));
  Bytes copy(frame.begin(), frame.end());
  write_header(copy, origin, hops + 1, seq);
  auto wrapped = std::make_shared<const Bytes>(std::move(copy));
  auto pending = std::make_shared<Pending>();
  node.pending[key_of(origin, seq)] = pending;
  sim_.schedule(delay, [this, self, origin, seq, hops, pending,
                        wrapped = std::move(wrapped)] {
    if (pending->cancelled) return;
    forward(self, origin, seq, hops + 1, wrapped);
  });
}

void RelayFabric::forward(ProcessId self, ProcessId origin, std::uint32_t seq,
                          std::uint32_t hops, FramePayload wrapped) {
  Node& node = nodes_[self];
  if (!node.attached) return;
  node.pending.erase(key_of(origin, seq));
  forwards_->add();
  TURQ_TRACE_EVENT(.at = sim_.now(), .category = trace::Category::kSpatial,
                   .kind = trace::Kind::kRelayForward, .process = self,
                   .value = static_cast<std::int64_t>(origin), .frame = seq,
                   .bytes = static_cast<std::uint32_t>(hops));
  // Forwards never supersede queued frames: gossip coverage depends on
  // them going out even when the origin keeps producing fresher state.
  medium_.send_broadcast(self, std::move(wrapped), /*replace_queued=*/false);
}

RelayFabric::Stats RelayFabric::stats() const {
  return Stats{
      .origin_frames = origin_frames_->value(),
      .forwards = forwards_->value(),
      .suppressed = suppressed_->value(),
      .duplicates = duplicates_->value(),
      .deliveries = deliveries_->value(),
  };
}

}  // namespace turq::spatial
