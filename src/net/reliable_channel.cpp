#include "net/reliable_channel.hpp"

#include <algorithm>
#include <type_traits>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "common/serialize.hpp"
#include "trace/trace.hpp"

namespace turq::net {

namespace {

/// Bytes a segment authenticates: type, seq, ack and the u32 payload length.
constexpr std::size_t kSegmentHeaderBytes = 1 + 4 + 4 + 4;

/// Bytes of a message's length prefix in a framed stream.
constexpr std::size_t kFramePrefixBytes = 4;

/// Drops `buf[0, head)`, which its owner has consumed: all of it at once
/// when nothing is left, otherwise by moving the live tail to the front once
/// the consumed prefix is at least as long as the tail (so each byte moves
/// O(1) times). Returns how far the buffer's contents moved.
std::size_t reclaim(Bytes& buf, std::size_t head) {
  if (head == 0) return 0;
  if (head == buf.size()) {
    buf.clear();
    return head;
  }
  if (head < buf.size() - head) return 0;
  buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(head));
  return head;
}

/// The framed message at `at` in `buf`, which must hold all of it.
BytesView framed_message_at(const Bytes& buf, std::size_t at) {
  Reader r(BytesView(buf).subspan(at));
  const auto message = r.bytes_view();
  TURQ_ASSERT(message.has_value());
  return *message;
}

}  // namespace

TcpHost::TcpHost(sim::Simulator& simulator, Medium& medium, ProcessId self,
                 TcpConfig config, sim::VirtualCpu* cpu,
                 const crypto::CostModel* costs)
    : sim_(simulator),
      medium_(medium),
      self_(self),
      config_(config),
      cpu_(cpu),
      costs_(costs) {
  if (config_.authenticate) {
    TURQ_ASSERT_MSG(cpu_ != nullptr && costs_ != nullptr,
                    "authentication requires a CPU and cost model");
  }
  medium_.attach(self_, [this](ProcessId src, BytesView frame, bool bc) {
    if (!open_ || bc) return;
    on_frame(src, frame);
  });
}

TcpHost::~TcpHost() { close(); }

void TcpHost::close() {
  if (!open_) return;
  open_ = false;
  for (Connection& c : conns_) {
    if (c.rto_timer != sim::kInvalidEvent) sim_.cancel(c.rto_timer);
    c.rto_timer = sim::kInvalidEvent;
    if (c.ack_timer != sim::kInvalidEvent) sim_.cancel(c.ack_timer);
    c.ack_timer = sim::kInvalidEvent;
  }
  medium_.detach(self_);
}

TcpHost::Connection& TcpHost::conn(ProcessId peer) {
  // Growing conns_ must move, not copy, the connections: a handler that
  // sends to a new peer would otherwise free the receive buffer its own
  // message view points into.
  static_assert(std::is_nothrow_move_constructible_v<Connection>);
  if (peer >= conns_.size()) {
    const std::size_t first = conns_.size();
    conns_.resize(std::size_t{peer} + 1);
    for (std::size_t i = first; i < conns_.size(); ++i) {
      conns_[i].srtt = config_.initial_rtt;
      conns_[i].rttvar = config_.initial_rtt / 2;
      conns_[i].rto = config_.min_rto;
    }
  }
  return conns_[peer];
}

void TcpHost::set_peer_key(ProcessId peer, Bytes key) {
  conn(peer).hmac = crypto::HmacKey(key);
}

void TcpHost::disconnect_peer(ProcessId peer) {
  conn(peer).disconnected = true;
}

void TcpHost::charge_auth(std::size_t bytes) {
  if (config_.authenticate && cpu_ != nullptr) {
    cpu_->charge(costs_->hmac(bytes));
  }
}

void TcpHost::append_framed(Bytes& out, BytesView message) {
  std::uint8_t prefix[kFramePrefixBytes] = {};
  put_le(prefix, static_cast<std::uint32_t>(message.size()));
  out.insert(out.end(), prefix, prefix + kFramePrefixBytes);
  out.insert(out.end(), message.begin(), message.end());
}

void TcpHost::send(ProcessId dst, BytesView message) {
  if (Bytes* out = open_stream(dst)) {
    append_framed(*out, message);
    commit(dst, 1);
  }
}

void TcpHost::send_many(ProcessId dst, const std::vector<Bytes>& messages) {
  if (messages.empty()) return;
  if (Bytes* out = open_stream(dst)) {
    for (const Bytes& m : messages) append_framed(*out, m);
    commit(dst, messages.size());
  }
}

void TcpHost::send_framed(ProcessId dst, BytesView framed, std::size_t count) {
  if (count == 0) return;
  if (Bytes* out = open_stream(dst)) {
    out->insert(out->end(), framed.begin(), framed.end());
    commit(dst, count);
  }
}

Bytes* TcpHost::open_stream(ProcessId dst) {
  if (!open_ || conn(dst).disconnected) return nullptr;
  if (dst != self_) return &conns_[dst].send_buf;
  loopback_head_ -= reclaim(loopback_, loopback_head_);
  return &loopback_;
}

void TcpHost::commit(ProcessId dst, std::size_t count) {
  stats_.messages_sent += count;
  if (dst == self_) {
    // Loopback: ordered and loss-free but still asynchronous, one event per
    // message.
    for (std::size_t i = 0; i < count; ++i) {
      sim_.schedule(0, [this] { deliver_loopback(); });
    }
    return;
  }
  pump(dst, conns_[dst]);
}

void TcpHost::pump(ProcessId peer, Connection& c) {
  while (c.in_flight.size() < config_.window_segments && c.unsent_bytes() > 0) {
    const std::size_t pending = c.unsent_bytes();
    // Nagle: hold sub-MSS data while segments are unacknowledged so small
    // writes coalesce into one frame.
    if (config_.nagle && pending < config_.mss && !c.in_flight.empty()) {
      break;
    }
    c.in_flight.push_back(
        {.begin = c.unsent,
         .length = static_cast<std::uint32_t>(std::min(config_.mss, pending)),
         .first_sent = sim_.now(),
         .last_sent = sim_.now(),
         .retransmitted = false});
    c.unsent += c.in_flight.back().length;
    transmit_segment(peer, c, c.next_seq++, /*retransmit=*/false);
  }
}

Bytes TcpHost::encode_segment(const Connection& c, std::uint8_t type,
                              std::uint32_t seq, std::uint32_t ack,
                              BytesView payload) const {
  const std::size_t authed = kSegmentHeaderBytes + payload.size();
  // Value-initialized: the tail stays the zero TCP/IP padding (receivers
  // strip it by parsing).
  Bytes frame(authed + (config_.authenticate ? crypto::kSha256DigestSize : 0) +
              config_.tcp_ip_overhead);
  std::uint8_t* at = frame.data();
  *at++ = type;
  at = put_le(at, seq);
  at = put_le(at, ack);
  at = put_le(at, static_cast<std::uint32_t>(payload.size()));
  std::copy(payload.begin(), payload.end(), at);
  if (config_.authenticate) {
    const crypto::Digest mac = c.hmac.mac(BytesView(frame).first(authed));
    std::copy(mac.begin(), mac.end(),
              frame.begin() + static_cast<std::ptrdiff_t>(authed));
  }
  return frame;
}

void TcpHost::transmit_segment(ProcessId peer, Connection& c,
                               std::uint32_t seq, bool retransmit) {
  if (seq < c.send_base || seq - c.send_base >= c.in_flight.size()) return;
  Segment& s = c.in_flight[seq - c.send_base];
  if (retransmit) {
    s.retransmitted = true;
    ++stats_.segments_retransmitted;
  }
  s.last_sent = sim_.now();
  ++stats_.segments_sent;
  TURQ_TRACE_EVENT(.at = sim_.now(), .category = trace::Category::kChannel,
                   .kind = retransmit ? trace::Kind::kSegmentRetransmit
                                      : trace::Kind::kSegmentSend,
                   .process = self_, .value = static_cast<std::int64_t>(peer),
                   .frame = seq, .bytes = s.length);
  charge_auth(s.length);
  // The data segment piggybacks our cumulative ACK.
  if (c.ack_timer != sim::kInvalidEvent) {
    sim_.cancel(c.ack_timer);
    c.ack_timer = sim::kInvalidEvent;
  }
  c.acks_owed = 0;
  const BytesView payload =
      BytesView(c.send_buf).subspan(s.begin - c.send_origin, s.length);
  medium_.send_unicast(self_, peer,
                       encode_segment(c, kData, seq, c.recv_next, payload));
  arm_rto(peer, c);
}

void TcpHost::send_ack(ProcessId peer, Connection& c) {
  charge_auth(0);
  medium_.send_unicast(self_, peer, encode_segment(c, kAck, 0, c.recv_next, {}));
}

void TcpHost::flush_ack(ProcessId peer, Connection& c) {
  if (c.ack_timer != sim::kInvalidEvent) {
    sim_.cancel(c.ack_timer);
    c.ack_timer = sim::kInvalidEvent;
  }
  c.acks_owed = 0;
  send_ack(peer, c);
}

void TcpHost::note_ack_owed(ProcessId peer, Connection& c, bool urgent) {
  ++c.acks_owed;
  if (!config_.delayed_ack || urgent || c.acks_owed >= 2) {
    flush_ack(peer, c);
    return;
  }
  if (c.ack_timer == sim::kInvalidEvent) {
    c.ack_timer = sim_.schedule(config_.ack_delay, [this, peer] {
      Connection& cc = conn(peer);
      cc.ack_timer = sim::kInvalidEvent;
      if (cc.acks_owed > 0) flush_ack(peer, cc);
    });
  }
}

void TcpHost::arm_rto(ProcessId peer, Connection& c) {
  if (c.rto_timer != sim::kInvalidEvent) return;  // already armed
  if (c.in_flight.empty()) return;
  const SimDuration rto = std::min(c.rto << c.backoff, config_.max_rto);
  c.rto_timer = sim_.schedule(rto, [this, peer] { on_rto(peer); });
}

void TcpHost::on_rto(ProcessId peer) {
  if (!open_) return;
  Connection& c = conn(peer);
  c.rto_timer = sim::kInvalidEvent;
  if (c.in_flight.empty()) return;
  ++stats_.rto_fires;
  TURQ_TRACE_EVENT(.at = sim_.now(), .category = trace::Category::kChannel,
                   .kind = trace::Kind::kRtoFire, .process = self_,
                   .value = static_cast<std::int64_t>(peer));
  c.backoff = std::min<std::uint32_t>(c.backoff + 1, 8);
  // Retransmit only the oldest unacked segment (classic timeout behaviour).
  transmit_segment(peer, c, c.send_base, /*retransmit=*/true);
}

void TcpHost::on_frame(ProcessId src, BytesView frame) {
  // Parse header; trailing TCP/IP padding is ignored by construction.
  Reader r(frame);
  const auto type = r.u8();
  const auto seq = r.u32();
  const auto ack = r.u32();
  const auto payload = r.bytes_view();
  if (!type || !seq || !ack || !payload) return;  // malformed
  Connection& c = conn(src);

  if (config_.authenticate) {
    // The authenticated bytes are the frame's own prefix: verify in place.
    const std::size_t authed = kSegmentHeaderBytes + payload->size();
    if (frame.size() < authed + crypto::kSha256DigestSize) return;
    charge_auth(payload->size());
    crypto::Digest mac;
    std::copy_n(frame.begin() + static_cast<std::ptrdiff_t>(authed),
                mac.size(), mac.begin());
    if (!c.hmac.verify(frame.first(authed), mac)) {
      ++stats_.auth_failures;
      return;
    }
  }

  // Data beyond the receive window is dropped whole, as RFC 793 drops an
  // unacceptable segment: a correct sender never has a segment in flight at
  // or past send_base + window_segments, and send_base <= recv_next.
  if (*type == kData && std::uint64_t{*seq} >= std::uint64_t{c.recv_next} +
                                                   config_.window_segments) {
    return;
  }
  // Only pure ACK segments participate in duplicate-ACK counting; a data
  // segment's piggybacked cumulative ACK repeats the last value whenever
  // the peer simply has nothing new to acknowledge.
  on_ack(src, c, *ack, /*pure_ack=*/*type == kAck);
  if (*type == kData) on_data(src, c, *seq, *payload);
}

void TcpHost::on_data(ProcessId src, Connection& c, std::uint32_t seq,
                      BytesView payload) {
  const bool in_order = seq == c.recv_next;
  if (in_order) {
    // Append straight to the reassembly stream, then everything the
    // arrival put in order. Every held seq is above recv_next.
    const std::size_t moved = reclaim(c.recv_buf, c.recv_head);
    c.recv_head -= moved;
    c.recv_scan -= moved;
    c.recv_buf.insert(c.recv_buf.end(), payload.begin(), payload.end());
    ++c.recv_next;
    for (auto it = c.out_of_order.begin();
         it != c.out_of_order.end() && it->first == c.recv_next;
         it = c.out_of_order.erase(it)) {
      c.recv_buf.insert(c.recv_buf.end(), it->second.begin(), it->second.end());
      ++c.recv_next;
    }
    extract_messages(src, c);
  } else if (seq > c.recv_next) {
    c.out_of_order.try_emplace(seq, payload.begin(), payload.end());
  }
  // Out-of-order (or duplicate) arrivals ACK immediately so the sender's
  // dup-ack fast retransmit can kick in; in-order data may be delayed.
  note_ack_owed(src, c, /*urgent=*/!in_order || !c.out_of_order.empty());
}

void TcpHost::extract_messages(ProcessId src, Connection& c) {
  while (true) {
    Reader r(BytesView(c.recv_buf).subspan(c.recv_scan));
    const auto message = r.bytes_view();
    if (!message) break;
    c.recv_scan += kFramePrefixBytes + message->size();
    // Deliver as a fresh event so handlers can re-enter the host safely.
    // With a CPU attached, delivery queues behind outstanding (modeled)
    // compute — authentication cost then actually delays the protocol. The
    // host's deliveries run in the order they were scheduled (the CPU's
    // completions and zero-delay events are FIFO), so each takes the oldest
    // message still queued in its source's buffer.
    auto deliver_one = [this, src] { deliver(src); };
    if (cpu_ != nullptr) {
      cpu_->execute(0, std::move(deliver_one));
    } else {
      sim_.schedule(0, std::move(deliver_one));
    }
  }
}

void TcpHost::deliver(ProcessId src) {
  if (!open_) return;
  Connection& c = conn(src);
  const BytesView message = framed_message_at(c.recv_buf, c.recv_head);
  c.recv_head += kFramePrefixBytes + message.size();
  // Appends to recv_buf happen only on frame arrival, never inside a
  // handler, so the view outlives the call.
  if (handler_) handler_(src, message);
}

void TcpHost::deliver_loopback() {
  if (!open_) return;
  const BytesView message = framed_message_at(loopback_, loopback_head_);
  loopback_head_ += kFramePrefixBytes + message.size();
  loopback_msg_.assign(message.begin(), message.end());
  if (handler_) handler_(self_, loopback_msg_);
}

void TcpHost::update_rtt(Connection& c, SimDuration sample) {
  if (c.srtt == 0) {
    c.srtt = sample;
    c.rttvar = sample / 2;
  } else {
    const SimDuration err = std::abs(sample - c.srtt);
    c.rttvar = (3 * c.rttvar + err) / 4;
    c.srtt = (7 * c.srtt + sample) / 8;
  }
  c.rto = std::max(config_.min_rto, c.srtt + 4 * c.rttvar);
}

void TcpHost::on_ack(ProcessId src, Connection& c, std::uint32_t ack,
                     bool pure_ack) {
  // An ACK of data never sent is ignored (RFC 793): honoring it would drop
  // unacknowledged segments and move send_base past next_seq for good.
  if (ack > c.next_seq) return;
  if (ack > c.send_base) {
    // New data acknowledged. RTT sampling emulates the timestamp option:
    // fresh segments sample from their only transmission; retransmitted
    // ones sample conservatively from the most recent transmission, so the
    // estimator still adapts when congestion pushes RTT past the RTO
    // (plain Karn would freeze SRTT and spuriously retransmit forever).
    const auto acked = static_cast<std::ptrdiff_t>(ack - c.send_base);
    for (auto it = c.in_flight.begin(); it != c.in_flight.begin() + acked;
         ++it) {
      const SimTime basis = it->retransmitted ? it->last_sent : it->first_sent;
      if (sim_.now() > basis) update_rtt(c, sim_.now() - basis);
    }
    c.in_flight.erase(c.in_flight.begin(), c.in_flight.begin() + acked);
    c.send_base = ack;
    const std::uint64_t live =
        c.in_flight.empty() ? c.unsent : c.in_flight.front().begin;
    c.send_origin +=
        reclaim(c.send_buf, static_cast<std::size_t>(live - c.send_origin));
    c.dup_acks = 0;
    c.backoff = 0;
    if (c.rto_timer != sim::kInvalidEvent) {
      sim_.cancel(c.rto_timer);
      c.rto_timer = sim::kInvalidEvent;
    }
    arm_rto(src, c);
    pump(src, c);
  } else if (pure_ack && ack == c.send_base && !c.in_flight.empty()) {
    // Duplicate ACK; three in a row trigger fast retransmit.
    if (++c.dup_acks == 3) {
      c.dup_acks = 0;
      ++stats_.fast_retransmits;
      TURQ_TRACE_EVENT(.at = sim_.now(), .category = trace::Category::kChannel,
                       .kind = trace::Kind::kFastRetransmit, .process = self_,
                       .value = static_cast<std::int64_t>(src));
      transmit_segment(src, c, c.send_base, /*retransmit=*/true);
    }
  }
}

}  // namespace turq::net
