// AbsMac — Byzantine consensus over an abstract MAC layer
// (Tseng–Sardina, "Byzantine Fault-Tolerant Consensus over an Abstract
// MAC Layer", arXiv:2311.03034 lineage): the only communication
// primitives are a local broadcast with an acknowledgement that the
// frame cleared the channel, and the contention delay that ack makes
// observable. No point-to-point channels, no signatures, no message
// relaying — the model the wireless-consensus literature converged on
// after Turquois.
//
// Round structure: Bracha's three-step threshold logic, run *directly*
// over the lossy broadcast medium (no reliable-broadcast sublayer — the
// abstract MAC's guaranteed local delivery replaces it):
//   step 1: broadcast est; at n-f accepted step-1 values adopt majority.
//   step 2: broadcast majority; a value with > n/2 support gets flag=true.
//   step 3: broadcast (value, flag); >= 2f+1 flagged v -> decide v,
//           >= f+1 flagged v -> adopt v, else local coin.
// Receiver-side plausibility gates (the same monotone claim checks as
// our Bracha implementation) take the place of sender-attached proofs:
// a step-k claim is buffered until the local step-(k-1) evidence could
// justify it, so Byzantine claims can't outrun any honest schedule.
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
#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

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

  [[nodiscard]] std::uint32_t quorum() const { return n - f; }

  static Config for_group(std::uint32_t n) {
    return Config{.n = n, .f = (n - 1) / 3};
  }
};

/// Byzantine strategy: broadcast the opposite value with the flag cleared
/// (the receiver-side gates make a forged flag unprofitable).
enum class Strategy : std::uint8_t {
  kHonest = 0,
  kValueInversion = 1,
};

using DecideHandler = std::function<void(Value, std::uint32_t round, SimTime)>;
using RoundHandler = std::function<void(std::uint32_t round, SimTime)>;

/// Construction-time observation hooks — the same surface shape as
/// turquois::ProcessHooks, so all protocols wire up identically.
struct ProcessHooks {
  DecideHandler on_decide;
  RoundHandler on_round;
};

class Process {
 public:
  using DecideHandler = absmac::DecideHandler;
  using RoundHandler = absmac::RoundHandler;

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
  [[nodiscard]] bool decided() const { return decision_.has_value(); }
  [[nodiscard]] Value decision() const { return *decision_; }
  [[nodiscard]] std::uint32_t round() const { return round_; }

  struct Stats {
    std::uint64_t messages_sent = 0;  // datagrams put on the air
    std::uint64_t messages_received = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t acks_observed = 0;  // own frames seen back (MAC acks)
    std::uint64_t contention_backoffs = 0;  // ticks with the ack outstanding
    std::uint64_t buffered_claims = 0;  // claims held by plausibility gates
    std::uint64_t help_responses = 0;   // past frames re-sent for laggards
    std::uint64_t coin_flips = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct StepValue {
    Value value = Value::kZero;
    bool flag = false;

    auto operator<=>(const StepValue&) const = default;
  };

  struct StepKey {
    std::uint32_t round = 0;
    std::uint8_t step = 0;

    auto operator<=>(const StepKey&) const = default;
  };

  void broadcast_current(bool is_retransmit);
  void arm_tick();
  void on_tick();
  void maybe_help(const StepKey& behind);
  void on_datagram(ProcessId src, BytesView payload);
  [[nodiscard]] bool claim_plausible(const StepKey& key,
                                     const StepValue& sv) const;
  void reprocess_buffered();
  [[nodiscard]] std::size_t count_accepted(std::uint32_t round,
                                           std::uint8_t step, Value v,
                                           std::optional<bool> flag) const;
  void try_advance();
  void decide(Value v);

  runtime::Runtime& rt_;
  net::DatagramPort& port_;
  Config cfg_;
  ProcessId id_;
  Rng rng_;
  Strategy strategy_;

  std::uint32_t round_ = 1;
  std::uint8_t step_ = 0;  // 0 until propose()
  Value value_ = Value::kZero;
  bool flag_ = false;
  std::optional<Value> decision_;
  std::uint32_t decided_round_ = 0;
  bool running_ = false;
  bool halted_ = false;
  std::vector<std::pair<ProcessId, Bytes>> prestart_;

  // Receive side: first accepted (round, step) claim per origin, plus the
  // plausibility-gated holding buffer.
  std::map<StepKey, std::map<ProcessId, StepValue>> accepted_;
  std::vector<std::pair<StepKey, std::pair<ProcessId, StepValue>>> buffered_;

  // Abstract-MAC progress/ack state for the current (round, step) frame.
  SharedBytes current_frame_;
  bool ack_pending_ = false;
  std::uint32_t backoff_ = 1;  // current tick multiplier
  runtime::TimerId tick_timer_ = runtime::kInvalidTimer;

  // Own frames per position already moved past, for laggard repair: only
  // the current frame is retransmitted, so a peer that lost an older frame
  // (collision, superseded MAC queue slot) would otherwise be stranded one
  // message short of a quorum forever. A frame from a position behind ours
  // triggers a rate-limited re-broadcast of our frame at that position.
  std::map<StepKey, SharedBytes> sent_frames_;
  std::map<StepKey, SimTime> helped_at_;

  DecideHandler on_decide_;
  RoundHandler on_round_;
  Stats stats_;
};

}  // namespace turq::absmac
