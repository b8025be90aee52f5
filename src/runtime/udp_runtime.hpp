// Real-time runtime: epoll-driven timers and UDP broadcast on localhost/LAN.
//
// One UdpRuntime hosts an epoll loop, a monotonic clock anchored at
// construction, a timer heap, and any number of UdpPorts — each a bound,
// non-blocking UDP socket implementing net::DatagramPort. send() fans a
// framed payload out to every configured peer *including the sender's own
// address*, mirroring the simulator's BroadcastEndpoint loopback semantics
// (a process hears its own broadcasts, asynchronously, via the socket).
//
// The loop is single-threaded: timers and datagram handlers run inline on
// the thread that calls run(), so protocol code needs no locking — the same
// concurrency model as the deterministic simulator.
//
// Crypto-cost charging is a policy: kNone (default) treats charge() as a
// no-op and runs execute() completions synchronously — on real hardware the
// genuine computation already took its time; kSleep burns the modeled cost
// in wall-clock nanosleep before completing, for experiments that want
// production-size crypto latency on toy primitives.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "net/datagram_port.hpp"
#include "runtime/runtime.hpp"

namespace turq::runtime {

/// A (host, port) UDP destination. Host is a dotted-quad IPv4 literal
/// ("127.0.0.1", "192.168.1.17") or "255.255.255.255" for LAN broadcast.
struct UdpEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

class UdpRuntime final : public Runtime {
 public:
  enum class ChargePolicy {
    kNone,   // charge() no-op; execute() completes synchronously
    kSleep,  // burn the modeled duration in wall-clock sleep
  };

  /// `rng_seed` roots derive_rng so a node's jitter/coin streams are
  /// reproducible across runs given the same seed and message timing.
  explicit UdpRuntime(std::uint64_t rng_seed = 0xC0FFEE,
                      ChargePolicy policy = ChargePolicy::kNone);
  ~UdpRuntime() override;

  UdpRuntime(const UdpRuntime&) = delete;
  UdpRuntime& operator=(const UdpRuntime&) = delete;

  // --- Runtime ---
  [[nodiscard]] SimTime now() const override;
  TimerId schedule(SimDuration delay, Callback fn) override;
  void cancel(TimerId id) override;
  void charge(SimDuration duration) override;
  void execute(SimDuration duration, Callback done) override;
  [[nodiscard]] Rng derive_rng(std::string_view tag,
                               std::uint64_t index) const override;

  // --- Sockets ---

  /// A bound UDP socket presented as the protocol's DatagramPort.
  /// Constructed via UdpRuntime::open_port; owned by the runtime.
  class UdpPort final : public net::DatagramPort {
   public:
    void set_handler(net::DatagramHandler handler) override;
    /// Sends the payload part only: the kernel writes the real UDP/IP
    /// headers, so the modelled header room never goes onto the wire.
    void send(net::FramedPayload payload) override;
    void close() override;

    /// The locally bound port (resolves 0 = ephemeral after binding).
    [[nodiscard]] std::uint16_t local_port() const { return local_port_; }
    [[nodiscard]] bool closed() const { return fd_ < 0; }

   private:
    friend class UdpRuntime;
    UdpPort(UdpRuntime& rt, ProcessId self, int fd, std::uint16_t port,
            bool broadcast)
        : rt_(rt), self_(self), fd_(fd), local_port_(port),
          broadcast_(broadcast) {}

    UdpRuntime& rt_;
    ProcessId self_;
    int fd_ = -1;
    std::uint16_t local_port_ = 0;
    bool broadcast_ = false;  // SO_BROADCAST was enabled at bind time
    net::DatagramHandler handler_;
  };

  /// Binds a UDP socket on `bind_port` (0 = ephemeral; read back via
  /// local_port()) and registers it with the epoll loop. `self` stamps the
  /// sender id into every outgoing frame. Aborts on socket errors — a node
  /// that cannot bind has nothing useful to do.
  UdpPort& open_port(ProcessId self, std::uint16_t bind_port);

  /// The broadcast fan-out targets, shared by every port on this runtime.
  /// Include each node's own address — self-delivery is part of the
  /// DatagramPort contract. May be (re)set after ports are bound, which is
  /// how ephemeral-port meshes bootstrap.
  void set_peers(std::vector<UdpEndpoint> peers);

  // --- Loop ---

  /// Runs timers and socket I/O until `done` returns true (checked between
  /// events), stop() is called, or `max_wait` elapses (<= 0: no limit).
  void run(const std::function<bool()>& done, SimDuration max_wait = 0);

  /// Requests run() to return after the current event.
  void stop() { stopped_ = true; }

  [[nodiscard]] std::size_t timers_pending() const { return callbacks_.size(); }
  [[nodiscard]] std::uint64_t datagrams_received() const { return received_; }
  /// Drain invocations that read at least one datagram. A multi-datagram
  /// burst landing between polls counts once: received_ grows by the burst
  /// size while this grows by one (the drain-until-EAGAIN regression
  /// contract, tests/runtime_test.cpp).
  [[nodiscard]] std::uint64_t socket_wakeups() const { return wakeups_; }

 private:
  struct TimerEntry {
    SimTime at;
    std::uint64_t seq;
    TimerId id;
  };
  struct EntryAfter {
    bool operator()(const TimerEntry& a, const TimerEntry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// Fires every timer due at `t`; returns ns until the next pending timer
  /// (or -1 when none are pending).
  SimDuration fire_due_timers(SimTime t);
  void drain_socket(UdpPort& port);

  int epoll_fd_ = -1;
  SimTime epoch_ = 0;  // CLOCK_MONOTONIC at construction, ns
  ChargePolicy policy_;
  Rng rng_root_;
  bool stopped_ = false;

  std::uint64_t next_timer_ = 1;
  std::uint64_t timer_seq_ = 0;
  std::vector<TimerEntry> heap_;  // lazy deletion: ids absent from the map
  std::unordered_map<TimerId, Callback> callbacks_;

  std::vector<std::unique_ptr<UdpPort>> ports_;
  std::vector<UdpEndpoint> peers_;
  std::uint64_t received_ = 0;
  std::uint64_t wakeups_ = 0;
};

}  // namespace turq::runtime
