// Crain — signature-free randomized binary Byzantine consensus
// (T. Crain, "Two More Algorithms for Randomized Signature-Free
// Asynchronous Binary Byzantine Consensus with t < n/3 and O(n²)
// Messages and O(1) Round Expected Termination", arXiv:2002.08765) —
// the Mostéfaoui–Moumen–Raynal family the 2020s measure against.
//
// Per round r, three signature-free exchanges:
//   BV-broadcast:  broadcast EST(r, est). Receiving EST(r, v) from f+1
//                  distinct senders without having broadcast v echoes it
//                  (amplification: a value with one correct backer reaches
//                  everyone); 2f+1 distinct senders admit v into the local
//                  bin_values[r] set. Byzantine-proposed values can never
//                  enter bin_values — the 2f+1 quorum needs a correct
//                  sender — which is what replaces signatures.
//   AUX:           once bin_values[r] is non-empty, broadcast AUX(r, w)
//                  for the first admitted w. Wait for n-f AUX messages
//                  whose values all lie inside bin_values[r]; the value
//                  set of that quorum is `vals`.
//   common coin:   reveal a threshold coin share (the same
//                  crypto::ThresholdScheme machinery as ABBA's coin,
//                  threshold f+1); combining yields the round's common
//                  coin s. vals = {b}: decide b when b == s, else est = b.
//                  vals = {0, 1}: est = s.
//
// The consensus messages themselves carry no cryptography — O(n²)
// messages per round, O(1) expected rounds — only the coin shares do,
// mirroring the paper's assumption of a pre-distributed common coin.
//
// Transport: reliable authenticated point-to-point channels (TcpHost with
// authentication on), the paper's asynchronous-network model.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/sender_set.hpp"
#include "common/serialize.hpp"
#include "common/types.hpp"
#include "crypto/cost_model.hpp"
#include "crypto/threshold.hpp"
#include "net/reliable_channel.hpp"
#include "runtime/runtime.hpp"

namespace turq::sim {
class Simulator;
class VirtualCpu;
}  // namespace turq::sim

namespace turq::crain {

struct Config {
  std::uint32_t n = 4;
  std::uint32_t f = 1;

  /// n-f: the AUX collection quorum.
  [[nodiscard]] std::uint32_t quorum() const { return n - f; }
  /// f+1 distinct EST senders trigger the BV-broadcast echo.
  [[nodiscard]] std::uint32_t bv_echo_threshold() const { return f + 1; }
  /// 2f+1 distinct EST senders admit the value into bin_values.
  [[nodiscard]] std::uint32_t bv_deliver_threshold() const {
    return 2 * f + 1;
  }
  /// f+1 coin shares reconstruct the common coin.
  [[nodiscard]] std::uint32_t coin_threshold() const { return f + 1; }

  static Config for_group(std::uint32_t n) {
    return Config{.n = n, .f = (n - 1) / 3};
  }
};

/// Trusted-dealer setup for the common coin only — the consensus messages
/// are signature-free. Per-repetition like ABBA's dealer: the combined
/// shares ARE the coin values, so the dealer seed steers control flow.
struct Dealer {
  crypto::ThresholdScheme coin;

  static Dealer setup(const Config& cfg, Rng& rng) {
    return Dealer{.coin = crypto::ThresholdScheme::deal(
                      cfg.n, cfg.coin_threshold(),
                      /*group_seed=*/0xC2A1, rng)};
  }
};

/// Byzantine strategy: broadcast the opposite estimate/aux value (the
/// paper-family attack a signature-free design must absorb via its
/// 2f+1 BV-admission quorum).
enum class Strategy : std::uint8_t {
  kHonest = 0,
  kValueInversion = 1,
};

using DecideHandler = std::function<void(Value, std::uint32_t round, SimTime)>;
/// Round-entry callback (consensus auditor); purely observational.
using RoundHandler = std::function<void(std::uint32_t round, SimTime)>;

/// Construction-time observation hooks — the same surface shape as
/// turquois::ProcessHooks, so all protocols wire up identically.
struct ProcessHooks {
  DecideHandler on_decide;
  RoundHandler on_round;
};

class Process {
 public:
  using DecideHandler = crain::DecideHandler;
  using RoundHandler = crain::RoundHandler;

  /// Runtime-agnostic constructor; `rt` and `transport` must outlive the
  /// process. Requires config.n <= SenderSet::kCapacity.
  Process(runtime::Runtime& rt, net::TcpHost& transport, const Config& config,
          const Dealer& dealer, ProcessId id, Rng rng,
          const crypto::CostModel& costs,
          Strategy strategy = Strategy::kHonest, ProcessHooks hooks = {});

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  void propose(Value initial);
  void crash();

  [[nodiscard]] ProcessId id() const { return id_; }
  [[nodiscard]] bool decided() const { return decision_.has_value(); }
  [[nodiscard]] Value decision() const { return *decision_; }
  [[nodiscard]] std::uint32_t round() const { return round_; }

  struct Stats {
    std::uint64_t messages_sent = 0;
    std::uint64_t messages_received = 0;
    std::uint64_t bv_echoes = 0;       // f+1 amplification rebroadcasts
    std::uint64_t bin_admissions = 0;  // values admitted into bin_values
    std::uint64_t shares_generated = 0;
    std::uint64_t shares_verified = 0;
    std::uint64_t share_verify_failures = 0;
    std::uint64_t combines = 0;
    std::uint64_t coin_flips = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  static constexpr std::uint8_t kEst = 1;
  static constexpr std::uint8_t kAux = 2;
  static constexpr std::uint8_t kCoinShare = 3;

  struct RoundState {
    std::array<SenderSet, 2> est_senders;  // EST(r, v) senders per value
    bool est_broadcast[2] = {false, false};  // own EST(r, v) already sent
    bool bin_values[2] = {false, false};
    std::optional<Value> first_bin;  // first value admitted (AUX payload)
    std::map<ProcessId, Value> aux_votes;  // first AUX per sender
    bool aux_sent = false;
    // `vals` frozen at the first n-f AUX quorum inside bin_values:
    // bit0 = zero present, bit1 = one present.
    std::optional<std::uint8_t> vals_mask;
    std::vector<crypto::ThresholdShare> coin_shares;
    bool coin_share_sent = false;
    std::optional<bool> coin_value;
    bool advanced = false;
  };

  static Bytes coin_name(std::uint32_t round);

  void send_est(std::uint32_t round, Value v);
  void send_aux(std::uint32_t round, Value v);
  void send_coin_share(std::uint32_t round);
  void broadcast(const Bytes& payload);
  void flush_outbox();

  void on_message(ProcessId src, const Bytes& payload);
  void handle_est(ProcessId src, std::uint32_t round, Value v);
  void handle_aux(ProcessId src, std::uint32_t round, Value v);
  void handle_coin_share(ProcessId src, std::uint32_t round,
                         const crypto::ThresholdShare& share);
  void try_progress(std::uint32_t round);
  void enter_round(std::uint32_t round);
  void decide(Value v, std::uint32_t round);

  RoundState& state(std::uint32_t round) { return rounds_[round]; }

  runtime::Runtime& rt_;
  net::TcpHost& transport_;
  Config cfg_;
  const Dealer& dealer_;
  ProcessId id_;
  Rng rng_;
  const crypto::CostModel& costs_;
  Strategy strategy_;

  std::uint32_t round_ = 1;
  Value est_ = Value::kBottom;
  std::optional<Value> decision_;
  std::uint32_t decided_round_ = 0;
  bool running_ = false;
  bool halted_ = false;
  std::vector<std::pair<ProcessId, Bytes>> prestart_;
  std::map<std::uint32_t, RoundState> rounds_;

  // End-of-turn send batching (same as Bracha): every reaction to one
  // inbound segment shares outgoing segments.
  std::map<ProcessId, std::vector<Bytes>> outbox_;
  bool flush_scheduled_ = false;

  DecideHandler on_decide_;
  RoundHandler on_round_;
  Stats stats_;
};

}  // namespace turq::crain
