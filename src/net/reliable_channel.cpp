#include "net/reliable_channel.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "common/serialize.hpp"

namespace turq::net {

namespace {

/// Bytes a segment authenticates: type, seq, ack and the u32 payload length.
constexpr std::size_t kSegmentHeaderBytes = 1 + 4 + 4 + 4;

/// Appends one framed message (u32 little-endian length, then the bytes, as
/// Writer::bytes lays them out) to a connection's outgoing stream.
void append_framed(std::deque<std::uint8_t>& stream, BytesView message) {
  const auto len = static_cast<std::uint32_t>(message.size());
  const std::uint8_t prefix[4] = {
      static_cast<std::uint8_t>(len), static_cast<std::uint8_t>(len >> 8),
      static_cast<std::uint8_t>(len >> 16),
      static_cast<std::uint8_t>(len >> 24)};
  const std::size_t at = stream.size();
  stream.resize(at + sizeof(prefix) + message.size());
  const auto body = std::copy(prefix, prefix + sizeof(prefix),
                              stream.begin() + static_cast<std::ptrdiff_t>(at));
  std::copy(message.begin(), message.end(), body);
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
  ctr_.messages_sent = &metrics_.counter("tcp.messages_sent");
  ctr_.segments_sent = &metrics_.counter("tcp.segments_sent");
  ctr_.segments_retransmitted = &metrics_.counter("tcp.segments_retransmitted");
  ctr_.rto_fires = &metrics_.counter("tcp.rto_fires");
  ctr_.fast_retransmits = &metrics_.counter("tcp.fast_retransmits");
  ctr_.auth_failures = &metrics_.counter("tcp.auth_failures");
  medium_.attach(self_, [this](ProcessId src, BytesView frame, bool bc) {
    if (!open_ || bc) return;
    on_frame(src, frame);
  });
}

TcpHost::~TcpHost() { close(); }

TcpHost::Stats TcpHost::stats() const {
  return Stats{
      .messages_sent = ctr_.messages_sent->value(),
      .segments_sent = ctr_.segments_sent->value(),
      .segments_retransmitted = ctr_.segments_retransmitted->value(),
      .rto_fires = ctr_.rto_fires->value(),
      .fast_retransmits = ctr_.fast_retransmits->value(),
      .auth_failures = ctr_.auth_failures->value(),
  };
}

void TcpHost::close() {
  if (!open_) return;
  open_ = false;
  for (auto& [peer, c] : conns_) {
    if (c.rto_timer != sim::kInvalidEvent) sim_.cancel(c.rto_timer);
    c.rto_timer = sim::kInvalidEvent;
    if (c.ack_timer != sim::kInvalidEvent) sim_.cancel(c.ack_timer);
    c.ack_timer = sim::kInvalidEvent;
  }
  medium_.detach(self_);
}

TcpHost::Connection& TcpHost::conn(ProcessId peer) {
  auto [it, inserted] = conns_.try_emplace(peer);
  if (inserted) {
    it->second.srtt = config_.initial_rtt;
    it->second.rttvar = config_.initial_rtt / 2;
    it->second.rto = config_.min_rto;
  }
  return it->second;
}

void TcpHost::set_peer_key(ProcessId peer, Bytes key) {
  Connection& c = conn(peer);
  c.key = std::move(key);
  c.hmac = crypto::HmacKey(c.key);
}

void TcpHost::charge_auth(std::size_t bytes) {
  if (config_.authenticate && cpu_ != nullptr) {
    cpu_->charge(costs_->hmac(bytes));
  }
}

void TcpHost::send(ProcessId dst, Bytes message) {
  if (!open_ || disconnected_.contains(dst)) return;
  ctr_.messages_sent->add();
  if (dst == self_) {
    // Loopback: ordered and loss-free but still asynchronous.
    sim_.schedule(0, [this, msg = std::move(message)] {
      if (open_ && handler_) handler_(self_, msg);
    });
    return;
  }
  append_framed(conn(dst).out_stream, message);
  pump(dst);
}

void TcpHost::send_many(ProcessId dst, const std::vector<Bytes>& messages) {
  if (!open_ || disconnected_.contains(dst) || messages.empty()) return;
  if (dst == self_) {
    for (const Bytes& m : messages) send(dst, m);
    return;
  }
  Connection& c = conn(dst);
  for (const Bytes& m : messages) {
    ctr_.messages_sent->add();
    append_framed(c.out_stream, m);
  }
  pump(dst);
}

void TcpHost::pump(ProcessId peer) {
  Connection& c = conn(peer);
  while (c.in_flight.size() < config_.window_segments && !c.out_stream.empty()) {
    // Nagle: hold sub-MSS data while segments are unacknowledged so small
    // writes coalesce into one frame.
    if (config_.nagle && c.out_stream.size() < config_.mss &&
        !c.in_flight.empty()) {
      break;
    }
    const std::size_t take = std::min(config_.mss, c.out_stream.size());
    Bytes payload(c.out_stream.begin(),
                  c.out_stream.begin() + static_cast<std::ptrdiff_t>(take));
    c.out_stream.erase(c.out_stream.begin(),
                       c.out_stream.begin() + static_cast<std::ptrdiff_t>(take));
    const std::uint32_t seq = c.next_seq++;
    c.in_flight.emplace(seq, SentSegment{.payload = std::move(payload),
                                         .first_sent = sim_.now(),
                                         .last_sent = sim_.now(),
                                         .retransmitted = false});
    transmit_segment(peer, seq, /*retransmit=*/false);
  }
}

Bytes TcpHost::encode_segment(Connection& c, std::uint8_t type,
                              std::uint32_t seq, std::uint32_t ack,
                              BytesView payload) const {
  Writer w;
  w.reserve(kSegmentHeaderBytes + payload.size() +
            (config_.authenticate ? crypto::kSha256DigestSize : 0) +
            config_.tcp_ip_overhead);
  w.u8(type);
  w.u32(seq);
  w.u32(ack);
  w.bytes(payload);
  if (config_.authenticate) {
    const crypto::Digest mac = c.hmac.mac(w.data());
    w.raw(BytesView(mac.data(), mac.size()));
  }
  // Model TCP/IP header bytes as tail padding (receivers strip by parsing).
  Bytes out = w.take();
  out.resize(out.size() + config_.tcp_ip_overhead);
  return out;
}

void TcpHost::transmit_segment(ProcessId peer, std::uint32_t seq,
                               bool retransmit) {
  Connection& c = conn(peer);
  const auto it = c.in_flight.find(seq);
  if (it == c.in_flight.end()) return;  // already acked
  if (retransmit) {
    it->second.retransmitted = true;
    ctr_.segments_retransmitted->add();
  }
  it->second.last_sent = sim_.now();
  ctr_.segments_sent->add();
  TURQ_TRACE_EVENT(.at = sim_.now(), .category = trace::Category::kChannel,
                   .kind = retransmit ? trace::Kind::kSegmentRetransmit
                                      : trace::Kind::kSegmentSend,
                   .process = self_, .value = static_cast<std::int64_t>(peer),
                   .frame = seq,
                   .bytes = static_cast<std::uint32_t>(
                       it->second.payload.size()));
  charge_auth(it->second.payload.size());
  // The data segment piggybacks our cumulative ACK.
  if (c.ack_timer != sim::kInvalidEvent) {
    sim_.cancel(c.ack_timer);
    c.ack_timer = sim::kInvalidEvent;
  }
  c.acks_owed = 0;
  medium_.send_unicast(self_, peer,
                       encode_segment(c, kData, seq, c.recv_next,
                                      it->second.payload));
  arm_rto(peer);
}

void TcpHost::send_ack(ProcessId peer) {
  Connection& c = conn(peer);
  charge_auth(0);
  medium_.send_unicast(self_, peer, encode_segment(c, kAck, 0, c.recv_next, {}));
}

void TcpHost::flush_ack(ProcessId peer) {
  Connection& c = conn(peer);
  if (c.ack_timer != sim::kInvalidEvent) {
    sim_.cancel(c.ack_timer);
    c.ack_timer = sim::kInvalidEvent;
  }
  c.acks_owed = 0;
  send_ack(peer);
}

void TcpHost::note_ack_owed(ProcessId peer, bool urgent) {
  Connection& c = conn(peer);
  ++c.acks_owed;
  if (!config_.delayed_ack || urgent || c.acks_owed >= 2) {
    flush_ack(peer);
    return;
  }
  if (c.ack_timer == sim::kInvalidEvent) {
    c.ack_timer = sim_.schedule(config_.ack_delay, [this, peer] {
      Connection& cc = conn(peer);
      cc.ack_timer = sim::kInvalidEvent;
      if (cc.acks_owed > 0) flush_ack(peer);
    });
  }
}

void TcpHost::arm_rto(ProcessId peer) {
  Connection& c = conn(peer);
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
  ctr_.rto_fires->add();
  TURQ_TRACE_EVENT(.at = sim_.now(), .category = trace::Category::kChannel,
                   .kind = trace::Kind::kRtoFire, .process = self_,
                   .value = static_cast<std::int64_t>(peer));
  c.backoff = std::min<std::uint32_t>(c.backoff + 1, 8);
  // Retransmit only the oldest unacked segment (classic timeout behaviour).
  transmit_segment(peer, c.in_flight.begin()->first, /*retransmit=*/true);
}

void TcpHost::on_frame(ProcessId src, BytesView frame) {
  Connection& c = conn(src);
  // Parse header; trailing TCP/IP padding is ignored by construction.
  Reader r(frame);
  const auto type = r.u8();
  const auto seq = r.u32();
  const auto ack = r.u32();
  auto payload = r.bytes();
  if (!type || !seq || !ack || !payload) return;  // malformed

  if (config_.authenticate) {
    // The authenticated bytes are the frame's own prefix: verify in place.
    const std::size_t authed = kSegmentHeaderBytes + payload->size();
    if (frame.size() < authed + crypto::kSha256DigestSize) return;
    charge_auth(payload->size());
    crypto::Digest mac;
    std::copy_n(frame.begin() + static_cast<std::ptrdiff_t>(authed),
                mac.size(), mac.begin());
    if (!c.hmac.verify(frame.first(authed), mac)) {
      ctr_.auth_failures->add();
      return;
    }
  }

  // Only pure ACK segments participate in duplicate-ACK counting; a data
  // segment's piggybacked cumulative ACK repeats the last value whenever
  // the peer simply has nothing new to acknowledge.
  on_ack(src, *ack, /*pure_ack=*/*type == kAck);
  if (*type == kData) on_data(src, *seq, std::move(*payload));
}

void TcpHost::on_data(ProcessId src, std::uint32_t seq, Bytes payload) {
  Connection& c = conn(src);
  const bool in_order = seq == c.recv_next;
  if (seq >= c.recv_next && !c.out_of_order.contains(seq)) {
    c.out_of_order.emplace(seq, std::move(payload));
  }
  // Pull everything now in order into the reassembly stream.
  while (true) {
    const auto it = c.out_of_order.find(c.recv_next);
    if (it == c.out_of_order.end()) break;
    c.reassembly.insert(c.reassembly.end(), it->second.begin(), it->second.end());
    c.out_of_order.erase(it);
    ++c.recv_next;
  }
  extract_messages(src, c);
  // Out-of-order (or duplicate) arrivals ACK immediately so the sender's
  // dup-ack fast retransmit can kick in; in-order data may be delayed.
  note_ack_owed(src, /*urgent=*/!in_order || !c.out_of_order.empty());
}

void TcpHost::extract_messages(ProcessId src, Connection& c) {
  while (true) {
    Reader r(c.reassembly);
    const auto len = r.u32();
    if (!len || r.remaining() < *len) break;
    auto body = r.raw(*len);
    TURQ_ASSERT(body.has_value());
    c.reassembly.erase(c.reassembly.begin(),
                       c.reassembly.begin() +
                           static_cast<std::ptrdiff_t>(4 + *len));
    if (handler_) {
      // Deliver as a fresh event so handlers can re-enter the host safely.
      // With a CPU attached, delivery queues behind outstanding (modeled)
      // compute — authentication cost then actually delays the protocol.
      auto deliver = [this, src, msg = std::move(*body)] {
        if (open_ && handler_) handler_(src, msg);
      };
      if (cpu_ != nullptr) {
        cpu_->execute(0, std::move(deliver));
      } else {
        sim_.schedule(0, std::move(deliver));
      }
    }
  }
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

void TcpHost::on_ack(ProcessId src, std::uint32_t ack, bool pure_ack) {
  Connection& c = conn(src);
  if (ack > c.send_base) {
    // New data acknowledged. RTT sampling emulates the timestamp option:
    // fresh segments sample from their only transmission; retransmitted
    // ones sample conservatively from the most recent transmission, so the
    // estimator still adapts when congestion pushes RTT past the RTO
    // (plain Karn would freeze SRTT and spuriously retransmit forever).
    for (auto it = c.in_flight.begin();
         it != c.in_flight.end() && it->first < ack;) {
      const SimTime basis = it->second.retransmitted ? it->second.last_sent
                                                     : it->second.first_sent;
      if (sim_.now() > basis) update_rtt(c, sim_.now() - basis);
      it = c.in_flight.erase(it);
    }
    c.send_base = ack;
    c.dup_acks = 0;
    c.backoff = 0;
    if (c.rto_timer != sim::kInvalidEvent) {
      sim_.cancel(c.rto_timer);
      c.rto_timer = sim::kInvalidEvent;
    }
    arm_rto(src);
    pump(src);
  } else if (pure_ack && ack == c.send_base && !c.in_flight.empty()) {
    // Duplicate ACK; three in a row trigger fast retransmit.
    if (++c.dup_acks == 3) {
      c.dup_acks = 0;
      ctr_.fast_retransmits->add();
      TURQ_TRACE_EVENT(.at = sim_.now(), .category = trace::Category::kChannel,
                       .kind = trace::Kind::kFastRetransmit, .process = self_,
                       .value = static_cast<std::int64_t>(src));
      transmit_segment(src, c.in_flight.begin()->first, /*retransmit=*/true);
    }
  }
}

}  // namespace turq::net
