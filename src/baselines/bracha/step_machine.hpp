// Bracha's three-step round (PODC 1984) as a transport-free state machine.
// Two baselines run it and differ only in how they spread a step: Bracha
// (bracha.hpp) reliably broadcasts each step over TCP, AbsMac (absmac.hpp)
// broadcasts it straight onto the shared medium.
//
//   step 1: at n-f accepted step-1 claims, v <- the majority value;
//   step 2: at n-f accepted step-2 claims, a value held by more than n/2
//           becomes v with the decision flag set; otherwise v <- the
//           majority value, unflagged;
//   step 3: at n-f accepted step-3 claims, 2f+1 flagged w -> decide w;
//           f+1 flagged w -> v <- w; otherwise v <- a local coin flip.
// Both majorities break an exact zeros == ones tie toward 1.
//
// Claim validation: a step-2 or step-3 claim is held until the accepted
// lower-step claims make it possible (e.g. a step-2 value w needs
// floor((n-f)/2)+1 step-1 claims of w — the minimum for w to be the
// majority of any (n-f)-subset). This is the monotone receiver-side
// equivalent of Bracha's validation sets: honest claims pass eventually,
// and it is what preserves Validity against the value-inversion attack.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "baselines/hooks.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "runtime/runtime.hpp"

namespace turq::bracha {

using baselines::ProcessHooks;

/// The paper's Byzantine strategy for Bracha: propose the opposite value in
/// steps 1 and 2, and an unflagged opposite value in step 3.
enum class Strategy : std::uint8_t {
  kHonest = 0,
  kValueInversion = 1,
};

/// One process's claim for one step: a binary value and the decision flag.
struct StepValue {
  Value value = Value::kZero;
  bool flag = false;

  bool operator==(const StepValue&) const = default;
};

/// A (round, step) position.
struct StepKey {
  std::uint32_t round = 0;
  std::uint8_t step = 0;

  auto operator<=>(const StepKey&) const = default;
};

class StepMachine {
 public:
  /// How the owning process spreads the steps the machine enters.
  struct Spread {
    /// Asked after every transition, before the new step is entered. Once
    /// it answers false the machine stops entering steps for good; it
    /// still accepts claims.
    std::function<bool()> keep_initiating;
    /// Spreads claim() for the step just entered (position(), after its
    /// round-entry trace event).
    std::function<void()> send;
  };

  /// `rt` supplies the clock for trace events and hooks; `rng` draws the
  /// step-3 coin. Requires f < n.
  StepMachine(runtime::Runtime& rt, ProcessId id, std::uint32_t n,
              std::uint32_t f, Rng rng, Strategy strategy, ProcessHooks hooks,
              Spread spread);

  StepMachine(const StepMachine&) = delete;
  StepMachine& operator=(const StepMachine&) = delete;

  /// Enters round 1, step 1 with `initial` and spreads its claim.
  void start(Value initial);

  /// `origin`'s claim for `at`. The first claim per (round, step, origin)
  /// counts and later ones are dropped. Accepts every held claim whose
  /// support has arrived and advances as far as the accepted claims allow.
  void offer(StepKey at, ProcessId origin, StepValue sv);

  /// Accepted claims for `at` with value `v` (and flag `flag`, if given).
  [[nodiscard]] std::size_t support(StepKey at, Value v,
                                    std::optional<bool> flag = {}) const;

  /// This process's claim for the current step, as the strategy sends it.
  [[nodiscard]] StepValue claim() const;
  /// The current position; step 0 before start() and after the machine
  /// stopped initiating.
  [[nodiscard]] StepKey position() const { return {.round = round_, .step = step_}; }
  [[nodiscard]] bool decided() const { return decision_.has_value(); }
  [[nodiscard]] Value decision() const { return decision_.value(); }
  [[nodiscard]] std::uint32_t decided_round() const { return decision_.round(); }
  /// Claims offered but not yet plausible.
  [[nodiscard]] std::size_t held() const { return held_.size(); }
  /// Step-3 coin draws so far.
  [[nodiscard]] std::uint64_t coin_flips() const { return coin_flips_; }
  /// Split step-2 tallies so far: step-2 transitions whose n-f accepted
  /// claims held no value more than n/2 times, so the step-3 claim went out
  /// unflagged and the round could not decide. A tally such as 10-1 at
  /// n=16 holds both values but is not split.
  [[nodiscard]] std::uint64_t split_tallies() const { return split_tallies_; }

 private:
  struct Claim {
    StepKey at;
    ProcessId origin = kInvalidProcess;
    StepValue sv;
  };

  [[nodiscard]] bool plausible(const Claim& c) const;
  void release_held();
  void advance();
  void enter();

  runtime::Runtime& rt_;
  ProcessId id_;
  std::uint32_t n_;
  std::uint32_t f_;
  Rng rng_;
  Strategy strategy_;
  baselines::Decision decision_;
  baselines::RoundHandler on_round_;
  Spread spread_;

  std::uint32_t round_ = 1;
  std::uint8_t step_ = 0;
  Value value_ = Value::kZero;
  bool flag_ = false;
  std::uint64_t coin_flips_ = 0;
  std::uint64_t split_tallies_ = 0;

  /// Accepted claims: (round, step) -> origin -> claim.
  std::map<StepKey, std::map<ProcessId, StepValue>> accepted_;
  /// Offered claims the plausibility gates still hold, in arrival order.
  std::vector<Claim> held_;
};

}  // namespace turq::bracha
