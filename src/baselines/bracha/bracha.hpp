// Bracha's asynchronous ⌊(n-1)/3⌋-resilient binary consensus (PODC 1984),
// the paper's first baseline.
//
// The three steps of a round and their claim validation live in the
// transport-free StepMachine (step_machine.hpp), which the abstract-MAC
// baseline runs too. This process spreads each step with Bracha's reliable
// broadcast: initial/echo/ready with (n+f)/2 and f+1/2f+1 amplification
// thresholds — O(n^2) frames per broadcast, O(n^3) per step. A decided
// process stops initiating steps two rounds after its decision (its RBC
// echo/ready handling for other processes' messages continues).
//
// Transport: reliable point-to-point channels (TcpHost) authenticated with
// HMAC — the analogue of the paper's TCP + IPSec AH deployment.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "baselines/bracha/step_machine.hpp"
#include "baselines/tcp_outbox.hpp"
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

  [[nodiscard]] bool exceeds_echo_threshold(std::size_t c) const {
    return 2 * c > n + f;
  }

  static Config for_group(std::uint32_t n) {
    return Config{.n = n, .f = (n - 1) / 3};
  }
};

class Process {
 public:
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
  [[nodiscard]] bool decided() const { return steps_.decided(); }
  [[nodiscard]] Value decision() const { return steps_.decision(); }
  [[nodiscard]] std::uint32_t round() const { return steps_.position().round; }
  [[nodiscard]] std::uint32_t step() const { return steps_.position().step; }
  /// See StepMachine::split_tallies().
  [[nodiscard]] std::uint64_t split_tallies() const {
    return steps_.split_tallies();
  }

  struct Stats {
    std::uint64_t rbc_broadcasts = 0;  // application-level broadcasts
    std::uint64_t messages_sent = 0;   // point-to-point sends
    std::uint64_t messages_received = 0;
    std::uint64_t delivered = 0;       // RBC deliveries
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  // RBC message kinds.
  static constexpr std::uint8_t kInitial = 1;
  static constexpr std::uint8_t kEcho = 2;
  static constexpr std::uint8_t kReady = 3;

  /// Echo and ready senders per tally slot: (value, flag) are validated
  /// binary before any tally, so four slots (2 * value + flag) cover every
  /// pair. Thresholds count distinct senders, so a replayed echo or ready
  /// adds nothing.
  struct RbcState {
    std::array<SenderSet, 4> echoes;
    std::array<SenderSet, 4> readies;
    bool sent_echo = false;
    bool sent_ready = false;
    bool delivered = false;
  };

  /// The reliable-broadcast instances seen so far, in one open-addressing
  /// table keyed by the packed (round, step, origin) over one state store,
  /// like turquois::VerifyMemo: memory grows with the instances seen, so a
  /// forged far-away round costs one entry, never a table sized by it.
  class RbcTable {
   public:
    /// The state of instance (round, step, origin), created empty on first
    /// use. Requires origin < 256. States never move.
    RbcState& at(std::uint32_t round, std::uint8_t step, ProcessId origin);

   private:
    /// An open-addressing slot: a packed key and 1 + its state's index;
    /// index 0 marks an empty slot.
    struct Slot {
      std::uint64_t key = 0;
      std::uint32_t index = 0;
    };
    [[nodiscard]] std::size_t probe(std::uint64_t key) const;
    void grow();

    std::vector<Slot> slots_;  // power-of-two size, at most half occupied
    // A deque grows in fixed blocks, so no state moves and a run ends
    // without one large array to free. (A doubling vector here left glibc's
    // heap in a state that made the next perfbench set-up ~25 % slower.)
    std::deque<RbcState> states_;
    int shift_ = 0;  // 64 - log2(slots_.size()) once the table exists
  };

  void rbc_broadcast();
  void send_to_all(std::uint32_t round, std::uint8_t step, std::uint8_t kind,
                   ProcessId origin, StepValue sv);
  void on_message(ProcessId src, BytesView payload);

  net::TcpHost& transport_;
  Config cfg_;
  ProcessId id_;
  baselines::TcpOutbox outbox_;
  StepMachine steps_;

  bool running_ = false;
  bool halted_ = false;
  std::vector<std::pair<ProcessId, Bytes>> prestart_;
  RbcTable rbc_;
  Stats stats_;
};

}  // namespace turq::bracha
