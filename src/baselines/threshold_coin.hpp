// The threshold common coin of the ABBA and Crain baselines: a dealer's
// (f+1)-of-n crypto::ThresholdScheme, one statement per round. A process
// reveals its share of a round's coin once; the first verified share per
// party counts, and f+1 of them combine into the round's unpredictable
// bit. Verification stays with each process (ABBA folds it into its vote
// checks), as do the coin's statement tag and ABBA's corrupted shares.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "common/types.hpp"
#include "crypto/cost_model.hpp"
#include "crypto/threshold.hpp"
#include "runtime/runtime.hpp"

namespace turq::baselines {

/// Modeled wire size of a production (RSA-1024 class) threshold share plus
/// its correctness proof; the toy share's 28 bytes are padded up to it, so
/// the coin costs the same airtime in every baseline that flips one.
inline constexpr std::size_t kModeledShareBytes = 200;
inline constexpr std::size_t kSharePadBytes = kModeledShareBytes - 28;

/// Threshold-share work, counted by a process and its coin together.
struct ShareStats {
  std::uint64_t shares_generated = 0;
  std::uint64_t shares_verified = 0;
  std::uint64_t share_verify_failures = 0;
  std::uint64_t combines = 0;
};

/// One share-carrying message: type, round, vote, the toy share, then
/// `pad` zero bytes standing in for the production-size artifacts.
[[nodiscard]] Bytes share_message(std::uint8_t type, std::uint32_t round,
                                  std::uint8_t vote,
                                  const crypto::ThresholdShare& share,
                                  std::size_t pad);
/// Reads the share that share_message() wrote after its vote byte.
[[nodiscard]] std::optional<crypto::ThresholdShare> decode_share(Reader& r);

class ThresholdCoin {
 public:
  /// `tag` names the coin's statements (tag|round). `rt`, `costs`,
  /// `scheme` and `stats` must outlive the coin.
  ThresholdCoin(runtime::Runtime& rt, const crypto::CostModel& costs,
                const crypto::ThresholdScheme& scheme, std::string tag,
                ProcessId id, ShareStats& stats);

  /// The statement a share of round's coin signs.
  [[nodiscard]] Bytes name(std::uint32_t round) const;

  /// This process's share of round's coin, generated and charged to the
  /// CPU on the first call; nullopt on every later call for that round.
  [[nodiscard]] std::optional<crypto::ThresholdShare> reveal(
      std::uint32_t round, Rng& rng);

  /// Adds a verified share. Returns false, changing nothing, when its
  /// party already has one; the threshold-th share combines the coin.
  bool add(std::uint32_t round, const crypto::ThresholdShare& share);

  /// Round's coin bit, once combined.
  [[nodiscard]] std::optional<bool> value(std::uint32_t round) const;

 private:
  struct Round {
    std::vector<crypto::ThresholdShare> shares;
    bool revealed = false;
    std::optional<bool> value;
  };

  runtime::Runtime& rt_;
  const crypto::CostModel& costs_;
  const crypto::ThresholdScheme& scheme_;
  std::string tag_;
  ProcessId id_;
  ShareStats& stats_;
  std::map<std::uint32_t, Round> rounds_;
};

}  // namespace turq::baselines
