// Bracha's asynchronous ⌊(n-1)/3⌋-resilient binary consensus (PODC 1984),
// the paper's first baseline.
//
// Structure per round: three steps, each message disseminated with Bracha's
// reliable broadcast (initial/echo/ready with (n+f)/2 and f+1/2f+1
// amplification thresholds — O(n^2) frames per broadcast, O(n^3) per step):
//   step 1: broadcast v; on n-f deliveries, v <- majority value;
//   step 2: broadcast v; if more than n/2 of n-f deliveries agree on w,
//           v <- w with the decision flag d set;
//   step 3: broadcast (v, flag); with 2f+1 flagged w -> decide w; with f+1
//           flagged w -> v <- w; otherwise v <- local coin flip.
//
// Value validation: step-2 and step-3 claims only count once the receiver
// has delivered enough lower-step messages to make the claim possible
// (e.g. a step-2 value w needs floor((n-f)/2)+1 step-1 deliveries of w —
// the minimum for w to be the majority of any (n-f)-subset). This is the
// monotone receiver-side equivalent of Bracha's validation sets and is what
// preserves Validity against the value-inversion attack.
//
// Transport: reliable point-to-point channels (TcpHost) authenticated with
// HMAC — the analogue of the paper's TCP + IPSec AH deployment.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/sender_set.hpp"
#include "common/types.hpp"
#include "crypto/cost_model.hpp"
#include "net/reliable_channel.hpp"
#include "runtime/runtime.hpp"

namespace turq::bracha {

struct Config {
  std::uint32_t n = 4;
  std::uint32_t f = 1;

  [[nodiscard]] std::uint32_t quorum() const { return n - f; }  // wait set
  [[nodiscard]] bool exceeds_echo_threshold(std::size_t c) const {
    return 2 * c > n + f;
  }

  static Config for_group(std::uint32_t n) {
    return Config{.n = n, .f = (n - 1) / 3};
  }
};

/// The paper's Byzantine strategy for Bracha: propose the opposite value in
/// steps 1 and 2, and an unflagged opposite value in step 3.
enum class Strategy : std::uint8_t {
  kHonest = 0,
  kValueInversion = 1,
};

using DecideHandler = std::function<void(Value, std::uint32_t round, SimTime)>;
/// Round-entry callback, fired whenever the process advances to a new
/// round. Purely observational (consensus auditor); never steers the run.
using RoundHandler = std::function<void(std::uint32_t round, SimTime)>;

/// Construction-time observation hooks — the same surface shape as
/// turquois::ProcessHooks, so all three protocols wire up identically.
struct ProcessHooks {
  DecideHandler on_decide;
  RoundHandler on_round;
};

class Process {
 public:
  using DecideHandler = bracha::DecideHandler;
  using RoundHandler = bracha::RoundHandler;

  /// Runtime-agnostic constructor; `rt` and `transport` must outlive the
  /// process. (The TcpHost transport is currently sim-only, but the
  /// protocol logic itself schedules through `rt` alone.) Requires
  /// config.n <= SenderSet::kCapacity.
  Process(runtime::Runtime& rt, net::TcpHost& transport, const Config& config,
          ProcessId id, Rng rng, const crypto::CostModel& costs,
          Strategy strategy = Strategy::kHonest, ProcessHooks hooks = {});


  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  void propose(Value initial);
  void crash();

  [[nodiscard]] ProcessId id() const { return id_; }
  [[nodiscard]] bool decided() const { return decision_.has_value(); }
  [[nodiscard]] Value decision() const { return *decision_; }
  [[nodiscard]] std::uint32_t round() const { return round_; }
  [[nodiscard]] std::uint32_t step() const { return step_; }

  struct Stats {
    std::uint64_t rbc_broadcasts = 0;  // application-level broadcasts
    std::uint64_t messages_sent = 0;   // point-to-point sends
    std::uint64_t messages_received = 0;
    std::uint64_t delivered = 0;       // RBC deliveries
    std::uint64_t coin_flips = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  // RBC message kinds.
  static constexpr std::uint8_t kInitial = 1;
  static constexpr std::uint8_t kEcho = 2;
  static constexpr std::uint8_t kReady = 3;

  struct StepValue {
    Value value = Value::kZero;
    bool flag = false;

    /// Slot in an RbcState tally: (value, flag) are validated binary before
    /// any tally, so four slots cover every pair.
    [[nodiscard]] std::size_t tally_slot() const {
      return 2 * static_cast<std::size_t>(value) + (flag ? 1 : 0);
    }
  };

  /// Identifies one reliable-broadcast instance.
  struct RbcKey {
    std::uint32_t round = 0;
    std::uint8_t step = 0;
    ProcessId origin = kInvalidProcess;
    bool operator<(const RbcKey& o) const {
      return std::tie(round, step, origin) < std::tie(o.round, o.step, o.origin);
    }
  };

  /// Echo and ready senders per StepValue::tally_slot(). Thresholds count
  /// distinct senders, so a replayed echo or ready adds nothing.
  struct RbcState {
    std::array<SenderSet, 4> echoes;
    std::array<SenderSet, 4> readies;
    bool sent_echo = false;
    bool sent_ready = false;
    bool delivered = false;
  };

  void rbc_broadcast(std::uint32_t round, std::uint8_t step, StepValue sv);
  void send_to_all(std::uint32_t round, std::uint8_t step, std::uint8_t kind,
                   ProcessId origin, StepValue sv);
  void flush_outbox();
  void on_message(ProcessId src, const Bytes& payload);
  void on_rbc_deliver(const RbcKey& key, StepValue sv);
  void reprocess_buffered();
  bool claim_plausible(const RbcKey& key, const StepValue& sv) const;
  void try_advance();
  void decide(Value v);

  [[nodiscard]] std::size_t count_delivered(std::uint32_t round,
                                            std::uint8_t step, Value v,
                                            std::optional<bool> flag) const;

  runtime::Runtime& rt_;
  net::TcpHost& transport_;
  Config cfg_;
  ProcessId id_;
  Rng rng_;
  const crypto::CostModel& costs_;
  Strategy strategy_;

  std::uint32_t round_ = 1;
  std::uint8_t step_ = 0;  // 0 = not yet started this round's step 1
  Value value_ = Value::kZero;
  bool flag_ = false;
  std::optional<Value> decision_;
  std::uint32_t decided_round_ = 0;
  bool running_ = false;
  bool halted_ = false;
  std::vector<std::pair<ProcessId, Bytes>> prestart_;

  /// Outgoing messages batched per event turn (writev-style batching over
  /// the reliable channels; without it every tiny RBC message becomes its
  /// own MAC frame and the shared channel collapses at n = 16).
  std::map<ProcessId, std::vector<Bytes>> outbox_;
  bool flush_scheduled_ = false;

  std::map<RbcKey, RbcState> rbc_;
  /// RBC-delivered but not yet plausibility-accepted messages.
  std::vector<std::pair<RbcKey, StepValue>> buffered_;
  /// Accepted messages: (round, step) -> origin -> value.
  std::map<std::pair<std::uint32_t, std::uint8_t>,
           std::map<ProcessId, StepValue>>
      accepted_;

  DecideHandler on_decide_;
  RoundHandler on_round_;
  Stats stats_;
};

}  // namespace turq::bracha
