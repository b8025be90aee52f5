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
//                    reveal coin share, combine f+1 shares, pre-vote coin.
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
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "common/types.hpp"
#include "crypto/cost_model.hpp"
#include "crypto/threshold.hpp"
#include "net/reliable_channel.hpp"
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
  using DecideHandler = abba::DecideHandler;
  using RoundHandler = abba::RoundHandler;

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
  [[nodiscard]] Value decision() const { return *decision_; }
  [[nodiscard]] std::uint32_t round() const { return round_; }

  struct Stats {
    std::uint64_t messages_sent = 0;
    std::uint64_t messages_received = 0;
    std::uint64_t shares_generated = 0;
    std::uint64_t shares_verified = 0;
    std::uint64_t share_verify_failures = 0;
    std::uint64_t combines = 0;
    std::uint64_t coin_flips = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  static constexpr std::uint8_t kPreVote = 1;
  static constexpr std::uint8_t kMainVote = 2;
  static constexpr std::uint8_t kCoinShare = 3;

  /// A combined threshold signature: the unique combined value plus the
  /// contributing shares (our verifiable encoding; verification is charged
  /// as one production signature check).
  struct ThresholdSig {
    std::uint64_t combined = 0;
    std::vector<crypto::ThresholdShare> shares;
  };

  struct RoundState {
    std::map<ProcessId, Vote> pre_votes;
    std::map<ProcessId, Vote> main_votes;
    std::vector<crypto::ThresholdShare> coin_shares;
    // Stored combined signatures for justifying later votes.
    std::optional<ThresholdSig> prevote_sig[2];   // on "pv|r|b"
    std::optional<ThresholdSig> abstain_sig;      // on "mv|r|abstain"
    std::optional<bool> coin_value;
    bool main_voted = false;
    bool advanced = false;
    bool coin_share_sent = false;
  };

  // Statement names for the threshold schemes.
  static Bytes pv_name(std::uint32_t round, Vote b);
  static Bytes mv_name(std::uint32_t round, Vote v);
  static Bytes coin_name(std::uint32_t round);

  void send_prevote(std::uint32_t round, Vote b);
  void send_mainvote(std::uint32_t round, Vote v);
  void send_coin_share(std::uint32_t round);
  void broadcast(const Bytes& payload);

  void on_message(ProcessId src, const Bytes& payload);
  void handle_prevote(ProcessId src, std::uint32_t round, Vote b,
                      const crypto::ThresholdShare& share);
  void handle_mainvote(ProcessId src, std::uint32_t round, Vote v,
                       const crypto::ThresholdShare& share);
  void handle_coin_share(ProcessId src, std::uint32_t round,
                         const crypto::ThresholdShare& share);
  void try_progress(std::uint32_t round);
  void decide(Value v, std::uint32_t round);

  RoundState& state(std::uint32_t round) { return rounds_[round]; }

  [[nodiscard]] crypto::ThresholdShare make_share(BytesView name);
  void encode_share(Writer& w, const crypto::ThresholdShare& share) const;
  [[nodiscard]] std::optional<crypto::ThresholdShare> decode_share(
      Reader& r) const;

  runtime::Runtime& rt_;
  net::TcpHost& transport_;
  Config cfg_;
  const Dealer& dealer_;
  ProcessId id_;
  Rng rng_;
  const crypto::CostModel& costs_;
  Strategy strategy_;

  std::uint32_t round_ = 1;
  std::optional<Value> decision_;
  std::uint32_t decided_round_ = 0;
  bool running_ = false;
  bool halted_ = false;
  std::vector<std::pair<ProcessId, Bytes>> prestart_;
  std::map<std::uint32_t, RoundState> rounds_;

  DecideHandler on_decide_;
  RoundHandler on_round_;
  Stats stats_;
};

}  // namespace turq::abba
