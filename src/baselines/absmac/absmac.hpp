// AbsMac — Byzantine consensus over an abstract MAC layer
// (Tseng–Sardina, "Byzantine Fault-Tolerant Consensus over an Abstract
// MAC Layer", arXiv:2311.03034 lineage): the only communication
// primitives are a local broadcast with an acknowledgement that the
// frame cleared the channel, and the contention delay that ack makes
// observable. No point-to-point channels, no signatures, no message
// relaying — the model the wireless-consensus literature converged on
// after Turquois.
//
// Round structure: Bracha's three steps (bracha::StepMachine, the same
// step rules and receiver-side plausibility gates the Bracha baseline
// runs), spread *directly* over the lossy broadcast medium — no reliable-
// broadcast sublayer; the abstract MAC's guaranteed local delivery
// replaces it. The gates take the place of sender-attached proofs: a
// step-k claim is held until the local step-(k-1) evidence could justify
// it, so Byzantine claims can't outrun any honest schedule. A decided
// process never stops initiating steps: under injected omissions a quiet
// decider's unretransmitted frames could strand a peer one message short
// of a quorum forever. The harness stops the run once every correct
// process has decided.
//
// Abstract-MAC mapping onto net::Medium:
//   ack       — the medium loopback-delivers every broadcast to its
//               sender only after the frame actually cleared the air
//               (MAC queue, DIFS, backoff, airtime), so observing our
//               own frame IS the ack, and its latency is the contention
//               signal the model exposes.
//   progress  — the current (round, step) message is retransmitted on a
//               tick timer until the process advances; a tick that fires
//               with the ack still outstanding is congestion evidence
//               and stretches the interval (capped binary backoff), a
//               prompt ack resets it. Retransmission is what stands in
//               for the abstract MAC's eventual-delivery guarantee on a
//               medium with injected omissions.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "baselines/bracha/step_machine.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/datagram_port.hpp"
#include "runtime/runtime.hpp"

namespace turq::absmac {

struct Config {
  std::uint32_t n = 4;
  std::uint32_t f = 1;
  /// Base retransmission tick — the abstract MAC's progress bound. The
  /// effective interval stretches under contention (see backoff_cap).
  SimDuration tick_interval = 2 * kMillisecond;
  /// Maximum backoff multiplier applied to tick_interval.
  std::uint32_t backoff_cap = 4;

  static Config for_group(std::uint32_t n) {
    return Config{.n = n, .f = (n - 1) / 3};
  }
};

/// Byzantine strategy: broadcast the opposite value with the flag cleared
/// (the receiver-side gates make a forged flag unprofitable).
using bracha::Strategy;

using baselines::ProcessHooks;

class Process {
 public:
  /// Runtime-agnostic constructor; `rt` and `port` must outlive the
  /// process. `port` is any broadcast datagram surface (single-hop Medium
  /// endpoint or a spatial RelayFabric endpoint).
  Process(runtime::Runtime& rt, net::DatagramPort& port, const Config& config,
          ProcessId id, Rng rng, Strategy strategy = Strategy::kHonest,
          ProcessHooks hooks = {});

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  void propose(Value initial);
  void crash();

  [[nodiscard]] ProcessId id() const { return id_; }
  [[nodiscard]] bool decided() const { return steps_.decided(); }
  [[nodiscard]] Value decision() const { return steps_.decision(); }
  [[nodiscard]] std::uint32_t round() const { return steps_.position().round; }

  struct Stats {
    std::uint64_t messages_sent = 0;  // datagrams put on the air
    std::uint64_t messages_received = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t acks_observed = 0;  // own frames seen back (MAC acks)
    std::uint64_t contention_backoffs = 0;  // ticks with the ack outstanding
    std::uint64_t help_responses = 0;   // past frames re-sent for laggards
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  using StepKey = bracha::StepKey;

  void broadcast_current(bool is_retransmit);
  void arm_tick();
  void on_tick();
  void maybe_help(const StepKey& behind);
  void on_datagram(ProcessId src, BytesView payload);

  runtime::Runtime& rt_;
  net::DatagramPort& port_;
  Config cfg_;
  ProcessId id_;
  bracha::StepMachine steps_;

  bool running_ = false;
  bool halted_ = false;
  std::vector<std::pair<ProcessId, Bytes>> prestart_;

  // Abstract-MAC progress/ack state for the current (round, step) frame.
  net::FramedPayload current_frame_;
  bool ack_pending_ = false;
  std::uint32_t backoff_ = 1;  // current tick multiplier
  runtime::TimerId tick_timer_ = runtime::kInvalidTimer;

  // Own frames per position already moved past, for laggard repair: only
  // the current frame is retransmitted, so a peer that lost an older frame
  // (collision, superseded MAC queue slot) would otherwise be stranded one
  // message short of a quorum forever. A frame from a position behind ours
  // triggers a rate-limited re-broadcast of our frame at that position.
  std::map<StepKey, net::FramedPayload> sent_frames_;
  std::map<StepKey, SimTime> helped_at_;

  Stats stats_;
};

}  // namespace turq::absmac
