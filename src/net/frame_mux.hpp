// Per-node frame multiplexer: many consensus instances, one radio.
//
// The service layer (src/service) runs W pipelined Turquois instances at
// once. Naively that is W independent endpoints per node — W DIFS/backoff
// contentions, W preamble+MAC+UDP/IP overheads, and W frames fighting for
// the same collision domain every tick. The mux collapses them: each
// instance talks to an InstancePort (a DatagramPort), the port *stages* the
// instance's latest payload, and one flush per coalescing window packs every
// staged payload into a single broadcast frame tagged with instance ids.
// Receivers unpack and route sub-payloads to the matching instance port, so
// airtime, MAC overhead, and datagram framing are amortized across all
// instances with a pending send — and a receiver can hand the whole frame's
// signatures to one batched verification pass.
//
// Staging is latest-wins per instance: a Turquois state datagram is stale
// the moment a newer one exists (the same rule Medium applies to queued
// frames), and every process re-broadcasts on every tick, so a superseded
// payload costs at most one tick of that instance's progress.
//
// Wire format (fits the MSDU budget; flushes split when they don't):
//   u32 count, then count × [u32 instance, u32 len, raw bytes].
// A flush reserves the whole budget for each frame's buffer up front, so
// packing a frame is one allocation, not one regrowth per appended field.
//
// Determinism: staging order is the deterministic send order of the
// simulation, flushes run at scheduled sim times, and receivers route in
// frame order — nothing here consumes randomness or host-time.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "net/broadcast_endpoint.hpp"
#include "net/datagram_port.hpp"
#include "sim/simulator.hpp"

namespace turq::net {

struct FrameMuxConfig {
  /// Coalescing delay between the first staged payload and the flush that
  /// airs it. Longer windows pack more instances per frame at the cost of
  /// per-instance latency; 0 still coalesces same-instant sends.
  SimDuration window = 2 * kMillisecond;
  /// Largest mux payload handed to the endpoint; flushes exceeding it are
  /// split across frames. Defaults to the 802.11 MSDU limit minus the
  /// UDP/IP overhead the endpoint pads on.
  std::size_t max_payload_bytes = 2304 - BroadcastEndpoint::kUdpIpOverhead;
};

class FrameMux {
 public:
  struct Stats {
    std::uint64_t frames_sent = 0;      // mux frames handed to the endpoint
    std::uint64_t payloads_sent = 0;    // instance payloads those carried
    std::uint64_t frame_splits = 0;     // extra frames forced by the MSDU cap
    std::uint64_t frames_received = 0;  // mux frames decoded (incl. loopback)
    std::uint64_t payloads_routed = 0;  // sub-payloads delivered to a port
    std::uint64_t late_drops = 0;       // payloads for retired/unknown instances
    std::uint64_t superseded = 0;       // staged payloads replaced before flush
  };

  FrameMux(sim::Simulator& simulator, BroadcastService& service, ProcessId self,
           FrameMuxConfig cfg = {});
  ~FrameMux();

  FrameMux(const FrameMux&) = delete;
  FrameMux& operator=(const FrameMux&) = delete;

  /// The port for `instance`, created on first use. The reference stays
  /// valid until retire(instance) or the mux is destroyed.
  DatagramPort& port(std::uint32_t instance);

  /// Drops the instance's port and staged payload; later sub-payloads for
  /// it are counted `late_drops`. Callers must not touch the port again.
  void retire(std::uint32_t instance);

  /// Closes every port and the underlying endpoint (node crash).
  void close();

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] ProcessId self() const { return self_; }

 private:
  class InstancePort final : public DatagramPort {
   public:
    InstancePort(FrameMux& mux, std::uint32_t instance)
        : mux_(mux), instance_(instance) {}
    void set_handler(DatagramHandler handler) override {
      handler_ = std::move(handler);
    }
    void send(SharedBytes payload) override {
      if (open_) mux_.stage(instance_, std::move(payload));
    }
    void close() override { open_ = false; }

    void deliver(ProcessId src, BytesView payload) {
      if (open_ && handler_) handler_(src, payload);
    }
    [[nodiscard]] bool open() const { return open_; }

   private:
    FrameMux& mux_;
    std::uint32_t instance_;
    DatagramHandler handler_;
    bool open_ = true;
  };

  void stage(std::uint32_t instance, SharedBytes payload);
  void flush();
  void on_frame(ProcessId src, BytesView frame);

  sim::Simulator& sim_;
  ProcessId self_;
  FrameMuxConfig cfg_;
  BroadcastEndpoint endpoint_;
  // Ordered map: deterministic routing/teardown order, stable addresses.
  std::map<std::uint32_t, std::unique_ptr<InstancePort>> ports_;
  // Staged payloads in first-staged order; at most one per instance. The
  // instance's own payload object is held until the flush copies it in.
  std::vector<std::pair<std::uint32_t, SharedBytes>> staged_;
  bool flush_scheduled_ = false;
  bool open_ = true;
  Stats stats_;
};

}  // namespace turq::net
