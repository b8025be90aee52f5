// UDP-broadcast-style endpoint over an abstract broadcast service.
//
// This is Turquois's transport: fire-and-forget datagrams with UDP/IP
// overhead, delivered to every attached node subject to collisions and
// injected omissions. The sender also delivers to itself via loopback
// (the paper's broadcast(m) reaches every process *including* the sender).
// The service below is usually the Medium itself (single-hop); under a
// spatial topology it is a spatial::RelayFabric, and the protocol above
// is none the wiser — the abstract-MAC layering.
#pragma once

#include <functional>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "net/broadcast_service.hpp"
#include "net/datagram_port.hpp"
#include "sim/simulator.hpp"

namespace turq::net {

class BroadcastEndpoint final : public DatagramPort {
 public:
  /// Legacy alias; the handler type lives in datagram_port.hpp.
  using DatagramHandler = net::DatagramHandler;

  static constexpr std::size_t kUdpIpOverhead = 28;  // IPv4 + UDP headers

  BroadcastEndpoint(sim::Simulator& simulator, BroadcastService& service,
                    ProcessId self);
  ~BroadcastEndpoint() override;

  BroadcastEndpoint(const BroadcastEndpoint&) = delete;
  BroadcastEndpoint& operator=(const BroadcastEndpoint&) = delete;

  void set_handler(DatagramHandler handler) override {
    handler_ = std::move(handler);
  }

  /// Broadcasts `payload` to every node, including the local one (loopback).
  void send(SharedBytes payload) override {
    send(std::move(payload), /*replace_queued=*/true);
  }

  /// As send(), with control over whether this frame supersedes the sender's
  /// still-queued broadcasts. The mux passes false for the continuation
  /// frames of a split flush so they don't cancel each other in the MAC
  /// queue.
  void send(SharedBytes payload, bool replace_queued);

  /// Stops sending and receiving (crash).
  void close() override;

  [[nodiscard]] ProcessId self() const { return self_; }
  [[nodiscard]] std::uint64_t datagrams_sent() const { return sent_; }

 private:
  sim::Simulator& sim_;
  BroadcastService& service_;
  ProcessId self_;
  bool open_ = true;
  std::uint64_t sent_ = 0;
  DatagramHandler handler_;
  // The last payload sent and its padded frame, while the sender still
  // holds the payload too. A re-send of the same object reuses the frame
  // instead of copying and padding the payload again; holding the payload
  // keeps its address from being reused by a different buffer, so pointer
  // equality implies the same bytes.
  SharedBytes last_payload_;
  BroadcastService::FramePayload last_frame_;
};

}  // namespace turq::net
