// ABBA — Asynchronous Binary Byzantine Agreement (Cachin, Kursawe, Shoup;
// "Random oracles in Constantinople", J. Cryptology 2005) — the paper's
// second baseline.
//
// Rounds of pre-vote / main-vote, each vote justified by threshold
// signatures, plus a threshold common coin:
//   pre-vote(r, b):  r = 1 justified by the input; r > 1 justified by a
//                    threshold signature from round r-1 (hard lock) or by
//                    the round-(r-1) coin;
//   main-vote(r, v): v = b when all n-f collected pre-votes agree on b
//                    (justified by the combined signature on them), else
//                    `abstain` (justified by conflicting pre-vote shares);
//   decision:        all n-f collected main-votes equal b -> decide b;
//                    some b -> hard pre-vote b for r+1; all abstain ->
//                    reveal coin share, combine f+1 shares, pre-vote coin
//                    (baselines::ThresholdCoin, the one Crain flips too).
//
// Every vote carries a signature share on its statement; receivers verify
// each share and each justification. This is where ABBA's cost lives: the
// virtual CPU is charged production-size prices per operation (see
// crypto::CostModel) while the toy math runs for real underneath.
//
// Transport: reliable point-to-point channels (plain TCP analogue — ABBA
// brings its own authentication).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "baselines/hooks.hpp"
#include "baselines/threshold_coin.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "crypto/cost_model.hpp"
#include "crypto/threshold.hpp"
#include "net/reliable_channel.hpp"
#include "runtime/receive_buffer.hpp"
#include "runtime/runtime.hpp"

namespace turq::abba {

struct Config {
  std::uint32_t n = 4;
  std::uint32_t f = 1;

  [[nodiscard]] std::uint32_t vote_quorum() const { return n - f; }
  [[nodiscard]] std::uint32_t coin_threshold() const { return f + 1; }

  static Config for_group(std::uint32_t n) {
    return Config{.n = n, .f = (n - 1) / 3};
  }
};

/// Shared trusted-dealer setup: signature scheme (threshold n-f) and coin
/// scheme (threshold f+1), mirroring the paper's pre-distributed keys.
struct Dealer {
  crypto::ThresholdScheme sig;
  crypto::ThresholdScheme coin;

  static Dealer setup(const Config& cfg, Rng& rng) {
    return Dealer{
        .sig = crypto::ThresholdScheme::deal(cfg.n, cfg.vote_quorum(),
                                             /*group_seed=*/0x5161, rng),
        .coin = crypto::ThresholdScheme::deal(cfg.n, cfg.coin_threshold(),
                                              /*group_seed=*/0xC014, rng)};
  }
};

/// The paper's Byzantine strategy for ABBA: structurally plausible votes
/// carrying invalid signature shares and justifications, forcing correct
/// processes into wasted verification work.
enum class Strategy : std::uint8_t {
  kHonest = 0,
  kInvalidCrypto = 1,
};

enum class Vote : std::uint8_t { kZero = 0, kOne = 1, kAbstain = 2 };

using baselines::ProcessHooks;

class Process {
 public:
  /// Runtime-agnostic constructor; `rt` and `transport` must outlive the
  /// process.
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
  [[nodiscard]] Value decision() const { return decision_.value(); }
  [[nodiscard]] std::uint32_t round() const { return round_; }

  /// Share counters cover the vote signatures and the coin together.
  struct Stats : baselines::ShareStats {
    std::uint64_t messages_sent = 0;
    std::uint64_t messages_received = 0;
    std::uint64_t coin_flips = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  static constexpr std::uint8_t kPreVote = 1;
  static constexpr std::uint8_t kMainVote = 2;
  static constexpr std::uint8_t kCoinShare = 3;

  struct RoundState {
    std::map<ProcessId, Vote> pre_votes;
    std::map<ProcessId, Vote> main_votes;
    bool main_voted = false;
    bool advanced = false;
  };

  // Statement names for the threshold schemes.
  static Bytes pv_name(std::uint32_t round, Vote b);
  static Bytes mv_name(std::uint32_t round, Vote v);

  void send_prevote(std::uint32_t round, Vote b);
  void send_mainvote(std::uint32_t round, Vote v);
  void send_coin_share(std::uint32_t round);
  void broadcast(BytesView payload);

  void on_message(ProcessId src, BytesView payload);
  void handle_prevote(ProcessId src, std::uint32_t round, Vote b,
                      const crypto::ThresholdShare& share);
  void handle_mainvote(ProcessId src, std::uint32_t round, Vote v,
                       const crypto::ThresholdShare& share);
  void try_progress(std::uint32_t round);

  RoundState& state(std::uint32_t round) { return rounds_[round]; }

  [[nodiscard]] crypto::ThresholdShare make_share(BytesView name);

  runtime::Runtime& rt_;
  net::TcpHost& transport_;
  Config cfg_;
  const Dealer& dealer_;
  ProcessId id_;
  Rng rng_;
  const crypto::CostModel& costs_;
  Strategy strategy_;

  std::uint32_t round_ = 1;
  bool running_ = false;
  runtime::ReceiveBuffer inbox_;  // the modeled OS buffer
  std::map<std::uint32_t, RoundState> rounds_;

  baselines::Decision decision_;
  baselines::RoundHandler on_round_;
  Stats stats_;
  baselines::ThresholdCoin coin_;
};

}  // namespace turq::abba
