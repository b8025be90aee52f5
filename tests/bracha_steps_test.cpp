// Unit tests for bracha::StepMachine, the three-step round shared by the
// Bracha and AbsMac baselines, driven directly with no transport: every
// claim is offered by hand and every step the machine enters is recorded.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "baselines/bracha/step_machine.hpp"
#include "common/rng.hpp"
#include "runtime/sim_runtime.hpp"
#include "sim/cpu.hpp"
#include "sim/simulator.hpp"

namespace turq {
namespace {

using bracha::StepKey;
using bracha::StepValue;

constexpr std::uint64_t kSeed = 7;
constexpr StepValue k0{.value = Value::kZero, .flag = false};
constexpr StepValue k1{.value = Value::kOne, .flag = false};
constexpr StepValue k1Flagged{.value = Value::kOne, .flag = true};

StepKey at(std::uint32_t round, std::uint8_t step) {
  return {.round = round, .step = step};
}

/// One machine (process 0) of an n-process group, with the steps it
/// entered, the claims it spread and the decisions it reported.
struct Steps {
  sim::Simulator sim;
  sim::VirtualCpu cpu{sim};
  runtime::SimRuntime rt{sim, cpu};
  std::vector<std::pair<StepKey, StepValue>> spread;
  std::vector<std::pair<Value, std::uint32_t>> decisions;
  std::vector<std::uint32_t> rounds;
  bool keep_initiating = true;
  bracha::StepMachine m;

  Steps(std::uint32_t n, std::uint32_t f)
      : m(rt, 0, n, f, Rng(kSeed), bracha::Strategy::kHonest,
          {.on_decide =
               [this](Value v, std::uint32_t round, SimTime) {
                 decisions.emplace_back(v, round);
               },
           .on_round = [this](std::uint32_t round,
                              SimTime) { rounds.push_back(round); }},
          {.keep_initiating = [this] { return keep_initiating; },
           .send = [this] { spread.emplace_back(m.position(), m.claim()); }}) {}

  /// Offers `claims` for (round, step) from origins first, first+1, ...
  void offer(StepKey key, const std::vector<StepValue>& claims,
             ProcessId first = 0) {
    for (std::size_t i = 0; i < claims.size(); ++i) {
      m.offer(key, first + static_cast<ProcessId>(i), claims[i]);
    }
  }
};

// ------------------------------------------------------------- tie rule --

TEST(BrachaSteps, StepOneMajorityBreaksAnExactTieTowardOne) {
  Steps s(8, 2);  // quorum n-f = 6
  s.m.start(Value::kZero);
  s.offer(at(1, 1), {k0, k1, k0, k1, k0, k1});
  ASSERT_EQ(s.m.support(at(1, 1), Value::kZero), 3u);
  ASSERT_EQ(s.m.support(at(1, 1), Value::kOne), 3u);
  ASSERT_EQ(s.spread.size(), 2u);
  EXPECT_EQ(s.spread.back().first, at(1, 2));
  EXPECT_EQ(s.spread.back().second, k1);
}

TEST(BrachaSteps, UnflaggedStepTwoFallbackBreaksAnExactTieTowardOne) {
  Steps s(8, 2);  // a step-2 claim needs 6/2+1 = 4 step-1 claims of it
  s.m.start(Value::kZero);
  s.offer(at(1, 1), {k0, k0, k0, k0, k1, k1, k1, k1});
  ASSERT_EQ(s.m.position(), at(1, 2));
  // Origins 0, 4, 1, 5, 2, 6: three zeros and three ones, neither above
  // n/2 = 4, so no flag.
  for (const auto& [origin, sv] :
       std::vector<std::pair<ProcessId, StepValue>>{
           {0, k0}, {4, k1}, {1, k0}, {5, k1}, {2, k0}, {6, k1}}) {
    s.m.offer(at(1, 2), origin, sv);
  }
  ASSERT_EQ(s.m.support(at(1, 2), Value::kZero), 3u);
  ASSERT_EQ(s.m.support(at(1, 2), Value::kOne), 3u);
  EXPECT_EQ(s.spread.back().first, at(1, 3));
  EXPECT_EQ(s.spread.back().second, k1);
}

// ------------------------------------------------------ plausibility gates --

TEST(BrachaSteps, StepTwoClaimNeedsStepOneMajoritySupport) {
  Steps s(7, 2);  // floor((n-f)/2)+1 = 3
  s.m.offer(at(1, 2), 0, k0);
  s.offer(at(1, 1), {k0, k0, k1}, 1);  // two step-1 zeros, one one
  EXPECT_EQ(s.m.held(), 1u);
  EXPECT_EQ(s.m.support(at(1, 2), Value::kZero), 0u);
  s.m.offer(at(1, 1), 4, k0);  // the third zero
  EXPECT_EQ(s.m.held(), 0u);
  EXPECT_EQ(s.m.support(at(1, 2), Value::kZero), 1u);
}

TEST(BrachaSteps, FlaggedStepThreeClaimNeedsMoreThanHalfStepTwoSupport) {
  Steps s(8, 2);
  s.offer(at(1, 1), {k1, k1, k1, k1});
  s.m.offer(at(1, 3), 0, k1Flagged);
  s.offer(at(1, 2), {k1, k1, k1, k1});  // exactly n/2 = 4: not enough
  EXPECT_EQ(s.m.held(), 1u);
  s.m.offer(at(1, 2), 4, k1);
  EXPECT_EQ(s.m.held(), 0u);
  EXPECT_EQ(s.m.support(at(1, 3), Value::kOne, true), 1u);
}

TEST(BrachaSteps, UnflaggedStepThreeClaimNeedsOneStepTwoSupport) {
  Steps s(7, 2);
  s.m.offer(at(1, 3), 5, k0);
  s.offer(at(1, 1), {k0, k0, k0});  // support for a step-2 zero, not a step-3 one
  EXPECT_EQ(s.m.held(), 1u);
  s.m.offer(at(1, 2), 0, k0);
  EXPECT_EQ(s.m.held(), 0u);
  EXPECT_EQ(s.m.support(at(1, 3), Value::kZero, false), 1u);
}

TEST(BrachaSteps, HeldClaimsAreReleasedInChainOnceTheirSupportArrives) {
  Steps s(4, 1);  // a step-2 claim needs 3/2+1 = 2 step-1 claims
  s.m.offer(at(1, 3), 3, k1);
  s.m.offer(at(1, 2), 2, k1);
  s.m.offer(at(1, 1), 0, k1);
  EXPECT_EQ(s.m.held(), 2u);
  // The second step-1 one releases the step-2 claim, which in turn
  // releases the step-3 claim, within the same offer.
  s.m.offer(at(1, 1), 1, k1);
  EXPECT_EQ(s.m.held(), 0u);
  EXPECT_EQ(s.m.support(at(1, 2), Value::kOne), 1u);
  EXPECT_EQ(s.m.support(at(1, 3), Value::kOne), 1u);
}

TEST(BrachaSteps, RepeatedClaimFromOneOriginCountsOnce) {
  Steps s(4, 1);
  s.m.offer(at(1, 1), 2, k0);
  s.m.offer(at(1, 1), 2, k1);  // equivocation: the first claim stands
  s.m.offer(at(1, 2), 2, k0);
  s.m.offer(at(1, 2), 2, k1);  // held duplicates are dropped too
  EXPECT_EQ(s.m.support(at(1, 1), Value::kZero), 1u);
  EXPECT_EQ(s.m.support(at(1, 1), Value::kOne), 0u);
  EXPECT_EQ(s.m.held(), 1u);
}

// ---------------------------------------------------------------- step 3 --

TEST(BrachaSteps, TwoFPlusOneFlaggedClaimsDecide) {
  Steps s(4, 1);  // quorum 3, 2f+1 = 3
  s.m.start(Value::kOne);
  s.offer(at(1, 1), {k1, k1, k1});
  s.offer(at(1, 2), {k1, k1, k1});
  ASSERT_EQ(s.spread.back().second, k1Flagged);  // 2 * 3 > 4
  s.offer(at(1, 3), {k1Flagged, k1Flagged, k1Flagged});
  ASSERT_TRUE(s.m.decided());
  EXPECT_EQ(s.m.decision(), Value::kOne);
  EXPECT_EQ(s.m.decided_round(), 1u);
  EXPECT_EQ(s.decisions,
            (std::vector<std::pair<Value, std::uint32_t>>{{Value::kOne, 1}}));
  EXPECT_EQ(s.rounds, std::vector<std::uint32_t>{2});
  EXPECT_EQ(s.m.coin_flips(), 0u);
  EXPECT_EQ(s.spread.back().first, at(2, 1));
  EXPECT_EQ(s.spread.back().second, k1);
}

TEST(BrachaSteps, FPlusOneFlaggedClaimsAdoptWithoutDecidingOrFlipping) {
  Steps s(7, 2);  // quorum 5, f+1 = 3, 2f+1 = 5
  s.m.start(Value::kZero);
  s.offer(at(1, 1), {k1, k1, k1, k1, k1});
  s.offer(at(1, 2), {k1, k1, k1, k1, k1});
  // 2f flagged claims: one short of deciding.
  s.offer(at(1, 3), {k1Flagged, k1Flagged, k1Flagged, k1Flagged, k1});
  EXPECT_FALSE(s.m.decided());
  EXPECT_TRUE(s.decisions.empty());
  EXPECT_EQ(s.m.coin_flips(), 0u);
  EXPECT_EQ(s.spread.back().first, at(2, 1));
  EXPECT_EQ(s.spread.back().second, k1);
}

TEST(BrachaSteps, WithoutFPlusOneFlaggedClaimsExactlyOneCoinIsDrawn) {
  Steps s(7, 2);
  s.m.start(Value::kZero);
  s.offer(at(1, 1), {k0, k0, k0, k1, k1, k1});
  s.offer(at(1, 2), {k0, k0, k0, k1, k1});
  ASSERT_EQ(s.spread.back().second, k0);  // 2 * 3 does not exceed 7
  // Two late step-2 ones give a flagged step-3 one its support (2 * 4 > 7).
  s.offer(at(1, 2), {k1, k1}, 5);
  // f flagged claims: one short of adopting.
  s.offer(at(1, 3), {k1Flagged, k1Flagged, k0, k0, k1});
  EXPECT_EQ(s.m.coin_flips(), 1u);
  Rng coin(kSeed);
  EXPECT_EQ(s.spread.back().first, at(2, 1));
  EXPECT_EQ(s.spread.back().second.value, binary_value(coin.coin()));
  s.m.offer(at(1, 3), 5, k1);  // a late step-3 claim draws nothing more
  EXPECT_EQ(s.m.coin_flips(), 1u);
  EXPECT_FALSE(s.m.decided());
}

TEST(BrachaSteps, AMachineToldToStopInitiatingEntersNoFurtherStep) {
  Steps s(4, 1);
  s.keep_initiating = false;
  s.m.start(Value::kZero);
  s.offer(at(1, 1), {k0, k0, k0});
  EXPECT_EQ(s.m.position().step, 0u);
  EXPECT_EQ(s.spread.size(), 1u);  // start() only
  s.offer(at(1, 2), {k0, k0, k0});  // claims are still accepted
  EXPECT_EQ(s.m.support(at(1, 2), Value::kZero), 3u);
}

}  // namespace
}  // namespace turq
