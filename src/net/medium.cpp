#include "net/medium.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/logging.hpp"

namespace turq::net {

Medium::Medium(sim::Simulator& simulator, MediumConfig config, Rng rng)
    : sim_(simulator), config_(config), rng_(rng) {
  if (trace::active()) {
    trace::Tracer* t = trace::current();
    hist_ = Histograms{
        .tracer = t,
        .backoff_slots = &t->metrics().histogram(
            "medium.backoff_slots",
            {0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}),
        .frame_airtime_us = &t->metrics().histogram(
            "medium.frame_airtime_us",
            {250, 500, 1000, 2000, 4000, 8000, 16000})};
  }
}

const Medium::Histograms* Medium::traced() const {
  if (hist_.tracer == nullptr || trace::current() != hist_.tracer) {
    return nullptr;
  }
  return &hist_;
}

void Medium::attach(ProcessId id, ReceiveHandler handler) {
  if (nodes_.size() <= id) nodes_.resize(id + 1);
  NodeState& node = nodes_[id];
  TURQ_ASSERT_MSG(!node.attached, "node already attached");
  node.attached = true;
  node.handler = std::make_shared<const ReceiveHandler>(std::move(handler));
}

void Medium::detach(ProcessId id) {
  if (id >= nodes_.size()) return;
  NodeState& node = nodes_[id];
  node.attached = false;
  node.handler.reset();  // in-flight deliveries hold their own reference
  node.queue.clear();
  node.contending = false;
  node.transmitting = false;
  // Drop any stale contention entry; a later re-attach under the same id
  // (fresh protocol instance) must start clean.
  std::erase(contenders_, id);
}

SimDuration Medium::frame_airtime(std::size_t payload_bytes,
                                  double rate_bps) const {
  const std::size_t bits = (payload_bytes + config_.mac_overhead_bytes) * 8;
  const auto tx = static_cast<SimDuration>(
      std::ceil(static_cast<double>(bits) / rate_bps * 1e9));
  return config_.preamble + tx;
}

SimDuration Medium::airtime_of(const Frame& frame) const {
  const double rate = frame.is_broadcast() ? config_.broadcast_rate_bps
                                           : config_.unicast_rate_bps;
  return frame_airtime(frame.size(), rate);
}

SimDuration Medium::ack_airtime() const {
  const std::size_t bits = config_.ack_bytes * 8;
  const auto tx = static_cast<SimDuration>(
      std::ceil(static_cast<double>(bits) / config_.control_rate_bps * 1e9));
  return config_.preamble + tx;
}

void Medium::broadcast(ProcessId src, FramePayload payload,
                       bool replace_queued) {
  TURQ_ASSERT_MSG(payload != nullptr, "broadcast payload must be non-null");
  TURQ_ASSERT_MSG(payload->size() <= config_.max_frame_bytes,
                  "frame exceeds MSDU limit; fragment at a higher layer");
  if (broadcast_tap_) broadcast_tap_(src, *payload);
  if (replace_queued) {
    if (NodeState* found = node_of(src)) {
      NodeState& node = *found;
      // Keep at most kBroadcastQueueDepth broadcast frames waiting (plus one
      // on the air): under congestion the oldest state datagrams are
      // superseded, while at low load back-to-back states still all go out.
      constexpr std::size_t kBroadcastQueueDepth = 2;
      std::size_t queued = 0;
      std::size_t idx = 0;
      const std::size_t in_air = node.transmitting ? 1 : 0;
      for (const Frame& f : node.queue) {
        if (idx++ < in_air) continue;
        if (f.is_broadcast()) ++queued;
      }
      while (queued >= kBroadcastQueueDepth) {
        // Drop the oldest waiting broadcast frame.
        idx = 0;
        for (auto qit = node.queue.begin(); qit != node.queue.end(); ++qit) {
          if (idx++ < in_air) continue;
          if (qit->is_broadcast()) {
            TURQ_TRACE_EVENT(.at = sim_.now(),
                             .category = trace::Category::kMedium,
                             .kind = trace::Kind::kFrameSuperseded,
                             .process = src, .frame = qit->trace_id,
                             .bytes = static_cast<std::uint32_t>(qit->size()));
            node.queue.erase(qit);
            --queued;
            break;
          }
        }
      }
    }
  }
  enqueue(Frame{.src = src, .dst = kBroadcastDst, .payload = std::move(payload),
                .retries = 0, .cw = config_.cw_min, .on_result = {},
                .trace_id = 0});
}

void Medium::send_unicast(ProcessId src, ProcessId dst, Bytes payload,
                          SendResult on_result) {
  TURQ_ASSERT_MSG(payload.size() <= config_.max_frame_bytes,
                  "frame exceeds MSDU limit; fragment at a higher layer");
  TURQ_ASSERT_MSG(dst != kBroadcastDst, "invalid unicast destination");
  enqueue(Frame{.src = src, .dst = dst,
                .payload = std::make_shared<const Bytes>(std::move(payload)),
                .retries = 0, .cw = config_.cw_min,
                .on_result = std::move(on_result), .trace_id = 0});
}

void Medium::enqueue(Frame frame) {
  NodeState* node = node_of(frame.src);
  if (node == nullptr) return;  // detached (crashed) senders go silent
  frame.trace_id = ++next_trace_id_;
  TURQ_TRACE_EVENT(.at = sim_.now(), .category = trace::Category::kMedium,
                   .kind = trace::Kind::kFrameEnqueue, .process = frame.src,
                   .value = frame.is_broadcast()
                                ? -1
                                : static_cast<std::int64_t>(frame.dst),
                   .frame = frame.trace_id,
                   .bytes = static_cast<std::uint32_t>(frame.size()));
  const ProcessId src = frame.src;
  node->queue.push_back(std::move(frame));
  add_contender(src);
}

void Medium::add_contender(ProcessId id) {
  NodeState& node = nodes_[id];
  if (node.contending || node.queue.empty()) return;
  node.contending = true;
  contenders_.push_back(id);
  maybe_schedule_resolution();
}

void Medium::maybe_schedule_resolution() {
  if (resolution_pending_ || contenders_.empty()) return;
  resolution_pending_ = true;
  const SimTime at = std::max(sim_.now(), busy_until_) + config_.difs;
  sim_.schedule_at(at, [this] { resolve_contention(); });
}

void Medium::resolve_contention() {
  resolution_pending_ = false;
  if (contenders_.empty()) return;
  if (sim_.now() < busy_until_ + config_.difs) {
    // Channel became busy between scheduling and firing; re-arm.
    maybe_schedule_resolution();
    return;
  }

  // Every contender draws a backoff slot; the minimum transmits. Ties are
  // simultaneous transmissions — a collision. (Per-round redraw instead of
  // the standard residual freeze: with synchronized burst arrivals the
  // redraw matches measured DCF collision rates better and avoids the
  // small-residual pile-up an event-lumped freeze model produces.)
  std::uint32_t min_slot = ~0U;
  draws_.clear();
  for (const ProcessId id : contenders_) {
    const NodeState& node = nodes_[id];
    TURQ_ASSERT(!node.queue.empty());
    const std::uint32_t cw = node.queue.front().cw;
    const auto slot = static_cast<std::uint32_t>(rng_.uniform(cw + 1));
    if (const Histograms* h = traced()) h->backoff_slots->observe(slot);
    TURQ_TRACE_EVENT(.at = sim_.now(), .category = trace::Category::kMedium,
                     .kind = trace::Kind::kBackoffDraw, .process = id,
                     .value = slot, .frame = node.queue.front().trace_id);
    draws_.emplace_back(id, slot);
    min_slot = std::min(min_slot, slot);
  }

  winners_.clear();
  if (spatial_ == nullptr) {
    for (const auto& [id, slot] : draws_) {
      if (slot == min_slot) winners_.push_back(id);
    }
  } else {
    // Per-carrier-sense-domain minima: a contender defers only to a
    // strictly smaller draw it can actually sense. Contenders hidden from
    // every smaller draw transmit concurrently — that is what creates the
    // hidden-terminal overlaps finish_overlap() resolves per receiver.
    // With an infinite sense range this reduces exactly to the global
    // min-slot tie set above.
    for (const auto& [id, slot] : draws_) {
      bool deferred = false;
      for (const auto& [other, other_slot] : draws_) {
        if (other != id && other_slot < slot &&
            spatial_->carrier_sense(id, other, sim_.now())) {
          deferred = true;
          break;
        }
      }
      if (!deferred) winners_.push_back(id);
    }
  }

  // Winners leave the contention set for the duration of their transmission.
  std::erase_if(contenders_, [&](ProcessId id) {
    return std::find(winners_.begin(), winners_.end(), id) != winners_.end();
  });
  for (const ProcessId id : winners_) {
    NodeState& node = nodes_[id];
    node.contending = false;
    node.transmitting = true;
  }

  const SimTime start = sim_.now() + static_cast<SimDuration>(min_slot) *
                                         config_.slot_time;

  if (winners_.size() == 1) {
    const ProcessId winner = winners_.front();
    const Frame& frame = nodes_[winner].queue.front();
    const SimDuration air = airtime_of(frame);
    stats_.bytes_on_air += frame.size() + config_.mac_overhead_bytes;
    stats_.airtime += air;
    if (const Histograms* h = traced()) {
      h->frame_airtime_us->observe(static_cast<double>(air) / 1000.0);
    }
    TURQ_TRACE_EVENT(.at = start, .category = trace::Category::kMedium,
                     .kind = trace::Kind::kFrameTxStart, .process = winner,
                     .phase = frame.is_broadcast() ? 1u : 0u,
                     .value = static_cast<std::int64_t>(air),
                     .frame = frame.trace_id,
                     .bytes = static_cast<std::uint32_t>(frame.size()));
    busy_until_ = start + air;
    sim_.schedule_at(busy_until_, [this, winner] { finish_single(winner); });
  } else {
    // Single-hop: all tied frames overlap and are corrupted at every
    // receiver. Spatial: an overlap corrupts only receivers in range of
    // two or more of the transmissions; finish_overlap() resolves capture
    // per receiver and charges frames_collided there.
    ++stats_.collisions;
    SimDuration longest = 0;
    for (const ProcessId id : winners_) {
      const Frame& frame = nodes_[id].queue.front();
      const SimDuration air = airtime_of(frame);
      stats_.bytes_on_air += frame.size() + config_.mac_overhead_bytes;
      if (const Histograms* h = traced()) {
        h->frame_airtime_us->observe(static_cast<double>(air) / 1000.0);
      }
      TURQ_TRACE_EVENT(.at = start, .category = trace::Category::kMedium,
                       .kind = trace::Kind::kFrameTxStart, .process = id,
                       .phase = frame.is_broadcast() ? 1u : 0u,
                       .value = static_cast<std::int64_t>(air),
                       .frame = frame.trace_id,
                       .bytes = static_cast<std::uint32_t>(frame.size()));
      longest = std::max(longest, air);
      if (spatial_ == nullptr) ++stats_.frames_collided;
    }
    stats_.airtime += longest;
    busy_until_ = start + longest;
    sim_.schedule_at(busy_until_, [this] { finish_collision(); });
  }
}

void Medium::note_unreachable([[maybe_unused]] const Frame& frame,
                              [[maybe_unused]] ProcessId receiver) {
  ++stats_.unreachable;
  TURQ_TRACE_EVENT(.at = sim_.now(), .category = trace::Category::kMedium,
                   .kind = trace::Kind::kFrameUnreachable,
                   .process = frame.src,
                   .value = static_cast<std::int64_t>(receiver),
                   .frame = frame.trace_id);
  if (unreachable_hook_) unreachable_hook_(sim_.now());
}

void Medium::deliver(const Frame& frame) {
  // Index order over the flat vector matches the old map's key order, so
  // receiver-side RNG consumption (fault draws) is unchanged.
  for (ProcessId id = 0; id < nodes_.size(); ++id) {
    NodeState& node = nodes_[id];
    if (!node.attached) continue;
    if (id == frame.src) continue;
    if (!frame.is_broadcast() && id != frame.dst) continue;
    // Reachability gates the fault draw: an out-of-range receiver consumes
    // no injector randomness, and the loss lands in `unreachable`, not
    // `omissions` — injected and geometric losses stay separable for σ.
    if (spatial_ != nullptr &&
        !spatial_->reachable(frame.src, id, sim_.now())) {
      note_unreachable(frame, id);
      continue;
    }
    if (faults_->drop(frame.src, id, sim_.now(), frame.size())) {
      ++stats_.omissions;
      TURQ_TRACE_EVENT(.at = sim_.now(), .category = trace::Category::kMedium,
                       .kind = trace::Kind::kFrameOmitted, .process = frame.src,
                       .value = static_cast<std::int64_t>(id),
                       .frame = frame.trace_id);
      continue;
    }
    ++stats_.deliveries;
    TURQ_TRACE_EVENT(.at = sim_.now(), .category = trace::Category::kMedium,
                     .kind = trace::Kind::kFrameDelivered, .process = frame.src,
                     .value = static_cast<std::int64_t>(id),
                     .frame = frame.trace_id,
                     .bytes = static_cast<std::uint32_t>(frame.size()));
    // Every receiver shares the one immutable payload; handlers run as
    // fresh events so a handler enqueueing new frames sees a consistent
    // medium state.
    sim_.schedule_at(sim_.now(),
                     [handler = node.handler, src = frame.src,
                      payload = frame.payload, bc = frame.is_broadcast()] {
                       (*handler)(src, *payload, bc);
                     });
  }
}

void Medium::finish_single(ProcessId winner) {
  NodeState* sender = node_of(winner);
  if (sender == nullptr) return;  // sender crashed mid-air; frame evaporates
  NodeState& node = *sender;
  TURQ_ASSERT(!node.queue.empty());
  Frame& frame = node.queue.front();

  if (frame.is_broadcast()) {
    ++stats_.broadcast_frames;
    deliver(frame);
    complete_frame(winner, true);
    return;
  }

  ++stats_.unicast_frames;
  // The data frame is subject to injected omission at the destination; the
  // MAC ACK can also be lost on the way back. Spatially, unicast has no
  // relay: the destination must be in direct range (multi-hop runs route
  // broadcast traffic through spatial::RelayFabric instead).
  NodeState* dst = node_of(frame.dst);
  const bool in_range =
      dst == nullptr || spatial_ == nullptr ||
      spatial_->reachable(frame.src, frame.dst, sim_.now());
  if (dst != nullptr && !in_range) note_unreachable(frame, frame.dst);
  const bool data_ok =
      dst != nullptr && in_range &&
      !faults_->drop(frame.src, frame.dst, sim_.now(), frame.size());

  if (data_ok) {
    ++stats_.deliveries;
    TURQ_TRACE_EVENT(.at = sim_.now(), .category = trace::Category::kMedium,
                     .kind = trace::Kind::kFrameDelivered, .process = frame.src,
                     .value = static_cast<std::int64_t>(frame.dst),
                     .frame = frame.trace_id,
                     .bytes = static_cast<std::uint32_t>(frame.size()));
    sim_.schedule_at(sim_.now(),
                     [handler = dst->handler, src = frame.src,
                      payload = frame.payload] {
                       (*handler)(src, *payload, false);
                     });
  } else if (dst != nullptr && in_range) {
    ++stats_.omissions;
    TURQ_TRACE_EVENT(.at = sim_.now(), .category = trace::Category::kMedium,
                     .kind = trace::Kind::kFrameOmitted, .process = frame.src,
                     .value = static_cast<std::int64_t>(frame.dst),
                     .frame = frame.trace_id);
  }

  if (data_ok && acked(frame)) {
    complete_frame(winner, true);
  } else {
    retry_or_drop(winner);
  }
}

void Medium::finish_collision() {
  if (spatial_ != nullptr) {
    finish_overlap(winners_);
    return;
  }
  for (const ProcessId id : winners_) {
    NodeState* node = node_of(id);
    if (node == nullptr) continue;
    TURQ_ASSERT(!node->queue.empty());
    Frame& frame = node->queue.front();
    TURQ_TRACE_EVENT(.at = sim_.now(), .category = trace::Category::kMedium,
                     .kind = trace::Kind::kFrameCollided, .process = id,
                     .frame = frame.trace_id);
    if (frame.is_broadcast()) {
      // 802.11 never retransmits broadcast: the frame is simply lost.
      ++stats_.broadcast_frames;
      complete_frame(id, false);
    } else {
      ++stats_.unicast_frames;
      retry_or_drop(id);
    }
  }
  maybe_schedule_resolution();
}

void Medium::finish_overlap(const std::vector<ProcessId>& winners) {
  // Spatial resolution of concurrent transmissions: each receiver decodes
  // iff exactly one of the overlapping frames is in its range — capture at
  // two or more corrupts everything it hears. This is where the
  // hidden-terminal loss materializes: the senders could not sense each
  // other, but their frames still overlap at the receivers between them.
  const SimTime now = sim_.now();
  std::vector<ProcessId> live;
  for (const ProcessId id : winners) {
    if (node_of(id) != nullptr) live.push_back(id);  // crashed mid-air: gone
  }
  std::vector<std::uint8_t> corrupted_any(live.size(), 0);
  std::vector<std::uint8_t> unicast_data_ok(live.size(), 0);
  std::vector<std::size_t> heard;
  for (ProcessId r = 0; r < nodes_.size(); ++r) {
    NodeState& node = nodes_[r];
    if (!node.attached) continue;
    if (std::find(live.begin(), live.end(), r) != live.end()) {
      continue;  // half-duplex: a transmitting node hears nothing
    }
    heard.clear();
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (spatial_->reachable(live[i], r, now)) heard.push_back(i);
    }
    for (std::size_t i = 0; i < live.size(); ++i) {
      TURQ_ASSERT(!nodes_[live[i]].queue.empty());
      const Frame& frame = nodes_[live[i]].queue.front();
      const bool wants = frame.is_broadcast() || frame.dst == r;
      if (!wants) continue;  // overheard unicast still interferes below
      const bool in_range =
          std::find(heard.begin(), heard.end(), i) != heard.end();
      if (!in_range) {
        note_unreachable(frame, r);
        continue;
      }
      if (heard.size() >= 2) {
        // Corrupted by overlap. Hidden-terminal when some interferer was
        // out of sense range of this frame's sender; otherwise it is a
        // plain same-slot collision.
        corrupted_any[i] = 1;
        bool hidden = false;
        for (const std::size_t j : heard) {
          if (j != i && !spatial_->carrier_sense(live[i], live[j], now)) {
            hidden = true;
            break;
          }
        }
        if (hidden) ++stats_.hidden_terminal;
        TURQ_TRACE_EVENT(.at = now, .category = trace::Category::kMedium,
                         .kind = trace::Kind::kFrameCollided,
                         .process = live[i], .phase = hidden ? 2u : 0u,
                         .value = static_cast<std::int64_t>(r),
                         .frame = frame.trace_id);
        continue;
      }
      if (faults_->drop(frame.src, r, now, frame.size())) {
        ++stats_.omissions;
        TURQ_TRACE_EVENT(.at = now, .category = trace::Category::kMedium,
                         .kind = trace::Kind::kFrameOmitted,
                         .process = frame.src,
                         .value = static_cast<std::int64_t>(r),
                         .frame = frame.trace_id);
        continue;
      }
      ++stats_.deliveries;
      TURQ_TRACE_EVENT(.at = now, .category = trace::Category::kMedium,
                       .kind = trace::Kind::kFrameDelivered,
                       .process = frame.src,
                       .value = static_cast<std::int64_t>(r),
                       .frame = frame.trace_id,
                       .bytes = static_cast<std::uint32_t>(frame.size()));
      if (!frame.is_broadcast()) unicast_data_ok[i] = 1;
      sim_.schedule_at(now, [handler = node.handler, src = frame.src,
                             payload = frame.payload,
                             bc = frame.is_broadcast()] {
        (*handler)(src, *payload, bc);
      });
    }
  }

  for (std::size_t i = 0; i < live.size(); ++i) {
    const ProcessId id = live[i];
    const Frame& frame = nodes_[id].queue.front();
    if (corrupted_any[i] != 0) ++stats_.frames_collided;
    if (frame.is_broadcast()) {
      ++stats_.broadcast_frames;
      complete_frame(id, true);
      continue;
    }
    ++stats_.unicast_frames;
    if (unicast_data_ok[i] != 0 && acked(frame)) {
      complete_frame(id, true);
    } else {
      retry_or_drop(id);
    }
  }
  maybe_schedule_resolution();
}

bool Medium::acked(const Frame& frame) {
  // The ACK occupies the channel after SIFS whether or not the sender hears
  // it. Spatially, the reverse link must be up: links may be asymmetric
  // (fading draws are per direction).
  stats_.airtime += ack_airtime();
  stats_.bytes_on_air += config_.ack_bytes;
  busy_until_ = std::max(busy_until_, sim_.now() + config_.sifs + ack_airtime());
  return (spatial_ == nullptr ||
          spatial_->reachable(frame.dst, frame.src, sim_.now())) &&
         !faults_->drop(frame.dst, frame.src, sim_.now(), config_.ack_bytes);
}

void Medium::complete_frame(ProcessId id, bool delivered) {
  NodeState& node = nodes_[id];
  node.transmitting = false;
  Frame frame = std::move(node.queue.front());
  node.queue.pop_front();
  if (frame.on_result) frame.on_result(delivered);
  add_contender(id);
  maybe_schedule_resolution();
}

void Medium::retry_or_drop(ProcessId id) {
  NodeState& node = nodes_[id];
  node.transmitting = false;
  Frame& frame = node.queue.front();
  if (frame.retries >= config_.retry_limit) {
    ++stats_.unicast_drops;
    TURQ_TRACE_EVENT(.at = sim_.now(), .category = trace::Category::kMedium,
                     .kind = trace::Kind::kFrameDropped, .process = id,
                     .frame = frame.trace_id);
    complete_frame(id, false);
    return;
  }
  ++frame.retries;
  ++stats_.mac_retries;
  TURQ_TRACE_EVENT(.at = sim_.now(), .category = trace::Category::kMedium,
                   .kind = trace::Kind::kFrameRetry, .process = id,
                   .value = frame.retries, .frame = frame.trace_id);
  frame.cw = std::min((frame.cw + 1) * 2 - 1, config_.cw_max);
  add_contender(id);
  maybe_schedule_resolution();
}

}  // namespace turq::net
