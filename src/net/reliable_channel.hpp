// TCP-like reliable, ordered, message-framed transport over the medium.
//
// The Bracha and ABBA baselines assume reliable point-to-point links; on the
// paper's testbed they ran over TCP (Bracha additionally over IPSec AH).
// TcpHost gives each node a full mesh of pre-established connections with:
//   * byte-stream framing (u32 length prefix), segmented at an MSS;
//   * per-segment sequence numbers, cumulative ACKs, fast retransmit on
//     three duplicate ACKs, and an RTO with exponential backoff
//     (Jacobson/Karels SRTT estimation, Linux-style 200 ms minimum RTO);
//   * a bounded in-flight window;
//   * optional per-segment HMAC-SHA256 authentication (the IPSec AH
//     analogue), with CPU cost charged to the node's virtual CPU.
//
// Unicast frames below already get MAC-level ACK/retry, so the RTO mainly
// fires under sustained injected omissions — matching real TCP over 802.11.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "crypto/cost_model.hpp"
#include "crypto/hmac.hpp"
#include "net/medium.hpp"
#include "sim/cpu.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"

namespace turq::net {

struct TcpConfig {
  std::size_t mss = 1400;               // max payload bytes per segment
  std::size_t window_segments = 8;      // in-flight cap
  SimDuration min_rto = 200 * kMillisecond;
  SimDuration max_rto = 60 * kSecond;
  SimDuration initial_rtt = 5 * kMillisecond;
  std::size_t tcp_ip_overhead = 40;     // TCP + IPv4 headers
  bool authenticate = false;            // per-segment HMAC (IPSec AH analogue)

  /// Nagle's algorithm: a sub-MSS segment is only cut while nothing is in
  /// flight; small application writes coalesce into shared segments. This
  /// matters enormously on a contended shared channel (frame count, not
  /// bytes, dominates 802.11 airtime).
  bool nagle = true;

  /// Delayed ACKs: acknowledge every second segment or after ack_delay.
  /// Out-of-order arrivals are ACKed immediately (dup-ack fast retransmit).
  /// Stacks differ on the delack floor (Linux 40 ms, others adaptive down
  /// to ~10 ms); 10 ms calibrates the Bracha baseline to the paper.
  bool delayed_ack = true;
  SimDuration ack_delay = 10 * kMillisecond;
};

class TcpHost {
 public:
  using MessageHandler = std::function<void(ProcessId src, const Bytes& message)>;

  /// `cpu` may be null when `config.authenticate` is false; with
  /// authentication on, HMAC costs are charged to it per segment.
  TcpHost(sim::Simulator& simulator, Medium& medium, ProcessId self,
          TcpConfig config, sim::VirtualCpu* cpu = nullptr,
          const crypto::CostModel* costs = nullptr);
  ~TcpHost();

  TcpHost(const TcpHost&) = delete;
  TcpHost& operator=(const TcpHost&) = delete;

  void set_handler(MessageHandler handler) { handler_ = std::move(handler); }

  /// Installs the shared authentication key for the connection to `peer`
  /// (the pre-run security association). Required when authenticate is set.
  void set_peer_key(ProcessId peer, Bytes key);

  /// Sends a framed message reliably and in order to `dst`. Messages to a
  /// node's own id are delivered via loopback.
  void send(ProcessId dst, Bytes message);

  /// Sends several framed messages in one burst: all of them enter the
  /// stream before segmentation, so they share segments (the writev-style
  /// batching a real application does on top of kernel TCP).
  void send_many(ProcessId dst, const std::vector<Bytes>& messages);

  /// Marks `peer` as unreachable (its process never came up): sends to it
  /// are dropped silently, with no frames or retransmissions on the air.
  void disconnect_peer(ProcessId peer) { disconnected_.insert(peer); }

  /// Stops all activity (crash). Pending timers are cancelled.
  void close();

  [[nodiscard]] ProcessId self() const { return self_; }

  /// Snapshot view assembled from metrics() — the registry is the single
  /// counting path.
  struct Stats {
    std::uint64_t messages_sent = 0;
    std::uint64_t segments_sent = 0;
    std::uint64_t segments_retransmitted = 0;
    std::uint64_t rto_fires = 0;
    std::uint64_t fast_retransmits = 0;
    std::uint64_t auth_failures = 0;

    Stats& operator+=(const Stats& o) {
      messages_sent += o.messages_sent;
      segments_sent += o.segments_sent;
      segments_retransmitted += o.segments_retransmitted;
      rto_fires += o.rto_fires;
      fast_retransmits += o.fast_retransmits;
      auth_failures += o.auth_failures;
      return *this;
    }
  };
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const trace::MetricsRegistry& metrics() const {
    return metrics_;
  }

 private:
  // Wire segment types.
  static constexpr std::uint8_t kData = 1;
  static constexpr std::uint8_t kAck = 2;

  struct SentSegment {
    Bytes payload;
    SimTime first_sent = 0;
    SimTime last_sent = 0;
    bool retransmitted = false;
  };

  /// Per-peer connection state (one object holds both directions).
  struct Connection {
    // --- send side ---
    std::deque<std::uint8_t> out_stream;       // framed bytes not yet segmented
    std::map<std::uint32_t, SentSegment> in_flight;
    std::uint32_t next_seq = 0;                // next segment to cut
    std::uint32_t send_base = 0;               // oldest unacked
    std::uint32_t dup_acks = 0;
    sim::EventId rto_timer = sim::kInvalidEvent;
    SimDuration srtt = 0;
    SimDuration rttvar = 0;
    SimDuration rto = 0;
    std::uint32_t backoff = 0;
    // --- receive side ---
    std::uint32_t recv_next = 0;               // next in-order segment
    std::map<std::uint32_t, Bytes> out_of_order;
    Bytes reassembly;                          // in-order byte stream tail
    std::uint32_t acks_owed = 0;
    sim::EventId ack_timer = sim::kInvalidEvent;
    // --- auth ---
    Bytes key;
    // Pads pre-absorbed once per set_peer_key(); initialized to the empty
    // key so a keyless authenticated connection MACs exactly as before.
    crypto::HmacKey hmac{BytesView{}};
  };

  Connection& conn(ProcessId peer);
  void pump(ProcessId peer);
  void transmit_segment(ProcessId peer, std::uint32_t seq, bool retransmit);
  void send_ack(ProcessId peer);
  void flush_ack(ProcessId peer);
  void note_ack_owed(ProcessId peer, bool urgent);
  void arm_rto(ProcessId peer);
  void on_rto(ProcessId peer);
  void on_frame(ProcessId src, BytesView frame);
  void on_data(ProcessId src, std::uint32_t seq, Bytes payload);
  void on_ack(ProcessId src, std::uint32_t ack, bool pure_ack);
  void extract_messages(ProcessId src, Connection& c);
  void update_rtt(Connection& c, SimDuration sample);
  [[nodiscard]] Bytes encode_segment(Connection& c, std::uint8_t type,
                                     std::uint32_t seq, std::uint32_t ack,
                                     BytesView payload) const;
  void charge_auth(std::size_t bytes);

  sim::Simulator& sim_;
  Medium& medium_;
  ProcessId self_;
  TcpConfig config_;
  sim::VirtualCpu* cpu_;
  const crypto::CostModel* costs_;
  bool open_ = true;
  MessageHandler handler_;
  std::map<ProcessId, Connection> conns_;
  std::set<ProcessId> disconnected_;

  /// Counters resolved once against metrics_ (stable map-node addresses).
  struct HotCounters {
    trace::Counter* messages_sent = nullptr;
    trace::Counter* segments_sent = nullptr;
    trace::Counter* segments_retransmitted = nullptr;
    trace::Counter* rto_fires = nullptr;
    trace::Counter* fast_retransmits = nullptr;
    trace::Counter* auth_failures = nullptr;
  };
  trace::MetricsRegistry metrics_;
  HotCounters ctr_;
};

}  // namespace turq::net
