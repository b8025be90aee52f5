// Unit tests for the Turquois view (set V) and the §6 validation rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "crypto/onetime_sig.hpp"
#include "turquois/config.hpp"
#include "turquois/exchange_pool.hpp"
#include "turquois/key_infra.hpp"
#include "turquois/message.hpp"
#include "turquois/validation.hpp"
#include "turquois/view.hpp"

namespace turq::turquois {
namespace {

/// The wire bytes of `d`: the payload part of its encoded frame.
Bytes wire(const Datagram& d) {
  const net::FramedPayload framed = d.encode();
  const BytesView payload = framed.payload();
  return {payload.begin(), payload.end()};
}

Message msg(ProcessId sender, Phase phase, Value v,
            Status status = Status::kUndecided, bool from_coin = false) {
  return Message{.sender = sender,
                 .phase = phase,
                 .value = v,
                 .status = status,
                 .from_coin = from_coin,
                 .auth_sk = {}};
}

/// Inserts one message per sender id starting at `first_sender`.
void fill(View& view, Phase phase, Value v, std::size_t count,
          ProcessId first_sender = 0, Status status = Status::kUndecided) {
  for (std::size_t i = 0; i < count; ++i) {
    view.insert(msg(first_sender + static_cast<ProcessId>(i), phase, v, status));
  }
}

// -------------------------------------------------------------------- view

TEST(View, CountsByPhaseAndValue) {
  View v;
  fill(v, 1, Value::kZero, 3, 0);
  fill(v, 1, Value::kOne, 2, 3);
  fill(v, 2, Value::kOne, 4, 0);
  EXPECT_EQ(v.count_phase(1), 5u);
  EXPECT_EQ(v.count_phase(2), 4u);
  EXPECT_EQ(v.count_phase(3), 0u);
  EXPECT_EQ(v.count_phase_value(1, Value::kZero), 3u);
  EXPECT_EQ(v.count_phase_value(1, Value::kOne), 2u);
  EXPECT_EQ(v.size(), 9u);
}

TEST(View, DeduplicatesPerSenderPhase) {
  View v;
  EXPECT_TRUE(v.insert(msg(1, 4, Value::kOne)));
  EXPECT_FALSE(v.insert(msg(1, 4, Value::kZero)));  // equivocation ignored
  EXPECT_TRUE(v.insert(msg(1, 5, Value::kZero)));   // new phase is fine
  EXPECT_EQ(v.count_phase_value(4, Value::kOne), 1u);
  EXPECT_EQ(v.count_phase_value(4, Value::kZero), 0u);
}

TEST(View, MajorityValueWithTieBreak) {
  View v;
  fill(v, 1, Value::kZero, 3, 0);
  fill(v, 1, Value::kOne, 2, 3);
  EXPECT_EQ(v.majority_value(1), Value::kZero);
  fill(v, 1, Value::kOne, 1, 5);  // now 3-3
  EXPECT_EQ(v.majority_value(1), Value::kOne);  // deterministic tie-break
}

TEST(View, ViewMajorityTieRule) {
  // Pins the documented tie rule (view.hpp): majority_value breaks binary
  // ties — including the empty phase — toward kOne. The CONVERGE rule only
  // needs *some* deterministic choice here (a tie implies no (n+f)/2
  // majority existed), but changing the pick would shift benchmark bytes.
  View v;
  EXPECT_EQ(v.majority_value(1), Value::kOne);  // empty phase: 0-0 tie
  fill(v, 1, Value::kZero, 2, 0);
  fill(v, 1, Value::kOne, 2, 2);
  EXPECT_EQ(v.majority_value(1), Value::kOne);  // 2-2 tie
  // kBottom votes never tip the binary majority.
  fill(v, 1, Value::kBottom, 5, 4);
  EXPECT_EQ(v.majority_value(1), Value::kOne);
  fill(v, 1, Value::kZero, 1, 9);  // 3-2: strict zero majority wins
  EXPECT_EQ(v.majority_value(1), Value::kZero);
}

TEST(View, CopyRebindsHighestAndClearResets) {
  View v;
  v.insert(msg(5, 9, Value::kOne));
  v.insert(msg(2, 4, Value::kZero));

  View copy(v);
  v.clear();  // the copy must not share storage with `v`
  EXPECT_EQ(v.highest_phase_message(), nullptr);
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.count_phase(9), 0u);
  ASSERT_NE(copy.highest_phase_message(), nullptr);
  EXPECT_EQ(copy.highest_phase_message()->phase, 9u);
  EXPECT_EQ(copy.highest_phase_message()->sender, 5u);
  EXPECT_EQ(copy.size(), 2u);

  View assigned;
  assigned.insert(msg(1, 1, Value::kZero));
  assigned = copy;
  copy.clear();
  ASSERT_NE(assigned.highest_phase_message(), nullptr);
  EXPECT_EQ(assigned.highest_phase_message()->phase, 9u);
  // The view stays usable after clear(): a later insert is the new highest.
  copy.insert(msg(7, 3, Value::kOne));
  ASSERT_NE(copy.highest_phase_message(), nullptr);
  EXPECT_EQ(copy.highest_phase_message()->sender, 7u);
}

TEST(View, HighestPhaseMessage) {
  View v;
  EXPECT_EQ(v.highest_phase_message(), nullptr);
  v.insert(msg(2, 3, Value::kOne));
  v.insert(msg(1, 7, Value::kZero));
  v.insert(msg(3, 7, Value::kOne));
  ASSERT_NE(v.highest_phase_message(), nullptr);
  EXPECT_EQ(v.highest_phase_message()->phase, 7u);
  EXPECT_EQ(v.highest_phase_message()->sender, 1u);  // lowest sender wins tie
}

TEST(View, CountPhaseAtLeastCountsDistinctSenders) {
  View v;
  v.insert(msg(0, 5, Value::kOne));
  v.insert(msg(0, 9, Value::kOne));  // same sender, higher phase
  v.insert(msg(1, 7, Value::kOne));
  EXPECT_EQ(v.count_phase_at_least(5), 2u);
  EXPECT_EQ(v.count_phase_at_least(8), 1u);
  EXPECT_EQ(v.count_phase_at_least(10), 0u);
}

TEST(View, AppendAtRespectsLimitAndSenderOrder) {
  View v;
  // Five kOne messages at phase 2, inserted out of sender order.
  for (const ProcessId s : {4u, 0u, 3u, 1u, 2u}) {
    v.insert(msg(s, 2, Value::kOne));
  }
  const auto at = [&](Phase phase, std::optional<Value> value,
                      std::size_t limit) {
    std::vector<const Message*> out;
    v.append_at(out, phase, value, limit);
    return out;
  };
  EXPECT_EQ(at(2, Value::kOne, 3).size(), 3u);
  EXPECT_EQ(at(2, Value::kZero, 3).size(), 0u);
  EXPECT_EQ(at(2, std::nullopt, 100).size(), 5u);

  // Ascending sender order, whatever the insertion order.
  const auto all = at(2, std::nullopt, 100);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i]->sender, i);
  }
  // The value filter skips senders without counting them toward the limit.
  v.insert(msg(0, 4, Value::kZero));
  v.insert(msg(1, 4, Value::kOne));
  v.insert(msg(2, 4, Value::kZero));
  v.insert(msg(3, 4, Value::kZero));
  const auto zeros = at(4, Value::kZero, 2);
  ASSERT_EQ(zeros.size(), 2u);
  EXPECT_EQ(zeros[0]->sender, 0u);
  EXPECT_EQ(zeros[1]->sender, 2u);

  // Appends after what `out` already holds.
  std::vector<const Message*> out{nullptr};
  v.append_at(out, 4, Value::kOne, 5);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1]->sender, 1u);

  // An absent phase (and phase 0) appends nothing.
  EXPECT_TRUE(at(3, std::nullopt, 100).empty());
  EXPECT_TRUE(at(0, Value::kOne, 100).empty());
}

TEST(View, SendersAtListsExactlyThePhaseBook) {
  View v;
  EXPECT_TRUE(v.senders_at(1).empty());
  v.insert(msg(3, 2, Value::kOne));
  v.insert(msg(70, 2, Value::kZero));  // second bitset word
  v.insert(msg(5, 4, Value::kOne));
  SenderSet expected;
  expected.insert(3);
  expected.insert(70);
  EXPECT_EQ(v.senders_at(2), expected);
  EXPECT_TRUE(v.senders_at(3).empty());
  EXPECT_EQ(v.senders_at(4).count(), 1u);
  EXPECT_TRUE(v.senders_at(4).contains(5));
}

TEST(SenderSetDifference, KeepsOnlyMembersAbsentFromTheOther) {
  SenderSet a;
  SenderSet b;
  for (const std::uint32_t id : {0u, 1u, 63u, 64u, 127u}) a.insert(id);
  for (const std::uint32_t id : {1u, 64u, 100u}) b.insert(id);
  const SenderSet d = a - b;
  EXPECT_EQ(d.count(), 3u);
  for (const std::uint32_t id : {0u, 63u, 127u}) EXPECT_TRUE(d.contains(id));
  EXPECT_FALSE(d.contains(1));
  EXPECT_FALSE(d.contains(100));
  EXPECT_TRUE((a - a).empty());
  EXPECT_EQ(a - SenderSet{}, a);
}

TEST(ViewDeathTest, InsertRejectsSendersBeyondTheBitset) {
  View v;
  EXPECT_DEATH(v.insert(msg(SenderSet::kCapacity, 1, Value::kOne)),
               "view senders must be below SenderSet::kCapacity");
  v.insert(msg(SenderSet::kCapacity - 1, 1, Value::kOne));
  EXPECT_TRUE(v.has(SenderSet::kCapacity - 1, 1));
}

// ------------------------------------------------------------- phase rule

class ValidationFixture : public ::testing::Test {
 protected:
  ValidationFixture() : cfg_(Config::for_group(7)) {}
  // n=7, f=2: quorum = 5 (> 4.5), half-quorum = 3 (> 2.25).
  Config cfg_;
  View view_;
};

TEST_F(ValidationFixture, PhaseOneAlwaysValid) {
  const SemanticValidator val(cfg_, view_);
  EXPECT_TRUE(val.phase_valid(msg(0, 1, Value::kOne)));
}

TEST_F(ValidationFixture, PhaseRequiresQuorumAtPreviousPhase) {
  fill(view_, 1, Value::kOne, 4);
  SemanticValidator val(cfg_, view_);
  EXPECT_FALSE(val.phase_valid(msg(0, 2, Value::kOne)));  // only 4 < quorum
  fill(view_, 1, Value::kOne, 1, 4);                      // 5th sender
  EXPECT_TRUE(val.phase_valid(msg(0, 2, Value::kOne)));
}

TEST_F(ValidationFixture, TransitivePhaseRuleViaClaims) {
  // f+1 = 3 distinct authentic claims at phase >= 9 justify phase 9.
  std::vector<Phase> claims = {9, 0, 12, 0, 9, 0, 0};
  const SemanticValidator val(cfg_, view_, &claims);
  EXPECT_TRUE(val.phase_valid(msg(0, 9, Value::kOne, Status::kDecided)));
  claims[0] = 8;  // only 2 claims >= 9 now
  EXPECT_FALSE(val.phase_valid(msg(0, 9, Value::kOne, Status::kDecided)));
}

TEST_F(ValidationFixture, TransitivePhaseRuleCanBeDisabled) {
  cfg_.transitive_phase_rule = false;
  std::vector<Phase> claims = {9, 9, 9, 9, 9, 9, 9};
  const SemanticValidator val(cfg_, view_, &claims);
  EXPECT_FALSE(val.phase_valid(msg(0, 9, Value::kOne)));
}

// ------------------------------------------------------------- value rule

TEST_F(ValidationFixture, Phase1ValuesMustBeBinary) {
  const SemanticValidator val(cfg_, view_);
  EXPECT_TRUE(val.value_valid(msg(0, 1, Value::kZero)));
  EXPECT_TRUE(val.value_valid(msg(0, 1, Value::kOne)));
  EXPECT_FALSE(val.value_valid(msg(0, 1, Value::kBottom)));
}

TEST_F(ValidationFixture, LockPhaseMessageNeedsHalfQuorumSupport) {
  // Messages with phase ≡ 2 (mod 3) carry a CONVERGE majority: v needs
  // more than (n+f)/2 / 2 = 3 messages at φ-1.
  fill(view_, 1, Value::kOne, 2);
  SemanticValidator val(cfg_, view_);
  EXPECT_FALSE(val.value_valid(msg(0, 2, Value::kOne)));
  fill(view_, 1, Value::kOne, 1, 2);
  EXPECT_TRUE(val.value_valid(msg(0, 2, Value::kOne)));
  EXPECT_FALSE(val.value_valid(msg(0, 2, Value::kZero)));   // no 0 support
  EXPECT_FALSE(val.value_valid(msg(0, 2, Value::kBottom)));  // never ⊥ here
}

TEST_F(ValidationFixture, DecidePhaseBinaryValueNeedsFullQuorum) {
  fill(view_, 2, Value::kOne, 5);
  const SemanticValidator val(cfg_, view_);
  EXPECT_TRUE(val.value_valid(msg(0, 3, Value::kOne)));
  EXPECT_FALSE(val.value_valid(msg(0, 3, Value::kZero)));
}

TEST_F(ValidationFixture, DecidePhaseBottomNeedsBothValuesTwoBack) {
  fill(view_, 1, Value::kZero, 3, 0);
  SemanticValidator val(cfg_, view_);
  EXPECT_FALSE(val.value_valid(msg(0, 3, Value::kBottom)));  // no 1s yet
  fill(view_, 1, Value::kOne, 3, 3);
  EXPECT_TRUE(val.value_valid(msg(0, 3, Value::kBottom)));
}

TEST_F(ValidationFixture, ConvergePhaseDeterministicValue) {
  // Message at phase 4 (≡ 1 mod 3) with deterministic v: needs quorum of v
  // at phase 2.
  fill(view_, 2, Value::kOne, 5);
  const SemanticValidator val(cfg_, view_);
  EXPECT_TRUE(val.value_valid(msg(0, 4, Value::kOne)));
  EXPECT_FALSE(val.value_valid(msg(0, 4, Value::kZero)));
}

TEST_F(ValidationFixture, ConvergePhaseCoinValue) {
  // A coin-derived value at phase 4 needs a quorum of ⊥ at phase 3.
  fill(view_, 3, Value::kBottom, 5);
  const SemanticValidator val(cfg_, view_);
  EXPECT_TRUE(val.value_valid(
      msg(0, 4, Value::kZero, Status::kUndecided, /*from_coin=*/true)));
  EXPECT_TRUE(val.value_valid(
      msg(0, 4, Value::kOne, Status::kUndecided, /*from_coin=*/true)));
  // Without the coin flag the same message needs the deterministic chain.
  EXPECT_FALSE(val.value_valid(msg(0, 4, Value::kOne)));
}

TEST_F(ValidationFixture, DecidedValueSubsumedByDecideQuorum) {
  // Catch-up extension: a decided message's value is accepted from the
  // decide-phase quorum alone, even with no per-phase evidence chain.
  fill(view_, 3, Value::kOne, 5);
  const SemanticValidator val(cfg_, view_);
  EXPECT_TRUE(val.value_valid(msg(0, 10, Value::kOne, Status::kDecided)));
  EXPECT_FALSE(val.value_valid(msg(0, 10, Value::kZero, Status::kDecided)));
}

// ------------------------------------------------------------ status rule

TEST_F(ValidationFixture, NoDecisionBeforePhase4) {
  const SemanticValidator val(cfg_, view_);
  for (Phase p = 1; p <= 3; ++p) {
    EXPECT_TRUE(val.status_valid(msg(0, p, Value::kOne)));
    EXPECT_FALSE(val.status_valid(msg(0, p, Value::kOne, Status::kDecided)));
  }
}

TEST_F(ValidationFixture, DecidedNeedsDecidePhaseQuorum) {
  SemanticValidator val(cfg_, view_);
  EXPECT_FALSE(val.status_valid(msg(0, 4, Value::kOne, Status::kDecided)));
  fill(view_, 3, Value::kOne, 5);
  EXPECT_TRUE(val.status_valid(msg(0, 4, Value::kOne, Status::kDecided)));
  // The quorum pins the value: a decided 0 is still invalid.
  EXPECT_FALSE(val.status_valid(msg(0, 4, Value::kZero, Status::kDecided)));
}

TEST_F(ValidationFixture, DecidedQuorumMayBeAtEarlierDecidePhase) {
  fill(view_, 3, Value::kOne, 5);
  const SemanticValidator val(cfg_, view_);
  // Message at phase 11; the quorum sits at phase 3 — still valid.
  EXPECT_TRUE(val.status_valid(msg(0, 11, Value::kOne, Status::kDecided)));
}

TEST_F(ValidationFixture, UndecidedPaperRuleBothValuesAtLock) {
  // Undecided at phase 4: paper rule wants half-quorum of both values at
  // the last LOCK phase (2).
  fill(view_, 2, Value::kZero, 3, 0);
  fill(view_, 2, Value::kOne, 3, 3);
  const SemanticValidator val(cfg_, view_);
  EXPECT_TRUE(val.status_valid(msg(6, 4, Value::kOne)));
}

TEST_F(ValidationFixture, UndecidedAcceptedViaBottomAtDecidePhase) {
  // Extension: a ⊥ at the last DECIDE phase proves the quorum was
  // non-uniform — undecided is then truthful.
  view_.insert(msg(1, 3, Value::kBottom));
  const SemanticValidator val(cfg_, view_);
  EXPECT_TRUE(val.status_valid(msg(6, 4, Value::kOne)));
}

TEST_F(ValidationFixture, UndecidedAcceptedViaValueSplitAtDecidePhase) {
  // Extension: one 0 and one 1 at the last DECIDE phase, with no ⊥, also
  // prove the quorum there was non-uniform.
  view_.insert(msg(1, 3, Value::kZero));
  SemanticValidator val(cfg_, view_);
  EXPECT_FALSE(val.status_valid(msg(6, 4, Value::kOne)));  // one value only
  view_.insert(msg(2, 3, Value::kOne));
  EXPECT_TRUE(val.status_valid(msg(6, 4, Value::kOne)));
}

TEST_F(ValidationFixture, UndecidedRejectedWhenOneValueMissesLockHalf) {
  // The paper rule wants both values at the LOCK phase: 3 zeros reach the
  // half quorum (3), 2 ones do not, and phase 3 holds no evidence.
  fill(view_, 2, Value::kZero, 3, 0);
  fill(view_, 2, Value::kOne, 2, 3);
  SemanticValidator val(cfg_, view_);
  EXPECT_FALSE(val.status_valid(msg(6, 4, Value::kOne)));
  fill(view_, 2, Value::kOne, 1, 5);
  EXPECT_TRUE(val.status_valid(msg(6, 4, Value::kOne)));
}

TEST_F(ValidationFixture, UndecidedRejectedWithoutAnyEvidence) {
  fill(view_, 3, Value::kOne, 5);  // uniform decide quorum, no ⊥, no split
  const SemanticValidator val(cfg_, view_);
  EXPECT_FALSE(val.status_valid(msg(6, 4, Value::kOne)));
}

TEST(ValidationHelpers, LockAndDecidePhaseHelpers) {
  EXPECT_EQ(SemanticValidator::highest_lock_phase_below(3), 2u);
  EXPECT_EQ(SemanticValidator::highest_lock_phase_below(4), 2u);
  EXPECT_EQ(SemanticValidator::highest_lock_phase_below(5), 2u);
  EXPECT_EQ(SemanticValidator::highest_lock_phase_below(6), 5u);
  EXPECT_EQ(SemanticValidator::highest_lock_phase_below(2), 0u);
  EXPECT_EQ(SemanticValidator::highest_decide_phase_below(4), 3u);
  EXPECT_EQ(SemanticValidator::highest_decide_phase_below(6), 3u);
  EXPECT_EQ(SemanticValidator::highest_decide_phase_below(7), 6u);
  EXPECT_EQ(SemanticValidator::highest_decide_phase_below(3), 0u);
}

// ----------------------------------------------------------- authenticity

TEST(Authenticity, GenuineMessagesPassForgeryFails) {
  const Config cfg = Config::for_group(4);
  Rng rng(3);
  const KeyInfrastructure keys = KeyInfrastructure::setup(cfg, rng);

  Message m = msg(2, 5, Value::kOne);
  const BytesView sk = keys.chain(2).secret_key(5, Value::kOne);
  m.auth_sk.assign(sk.begin(), sk.end());
  EXPECT_TRUE(authentic(keys, cfg, m));

  // Claiming another sender with the same key fails.
  Message imposter = m;
  imposter.sender = 1;
  EXPECT_FALSE(authentic(keys, cfg, imposter));

  // Mutating the value without the matching key fails.
  Message mutated = m;
  mutated.value = Value::kZero;
  EXPECT_FALSE(authentic(keys, cfg, mutated));

  // The status field is NOT covered (the §6.1 caveat).
  Message replayed = m;
  replayed.status = Status::kDecided;
  EXPECT_TRUE(authentic(keys, cfg, replayed));

  // Out-of-range sender.
  Message bad_sender = m;
  bad_sender.sender = 99;
  EXPECT_FALSE(authentic(keys, cfg, bad_sender));
}

// -------------------------------------------------------------- verify memo

/// `d`'s messages in Prepared::auth order: justification first, main last.
std::vector<std::uint8_t> reference_verdicts(const KeyInfrastructure& keys,
                                             const Config& cfg,
                                             const Datagram& d) {
  std::vector<std::uint8_t> out;
  for (const Message& m : d.justification) {
    out.push_back(authentic(keys, cfg, m) ? 1 : 0);
  }
  out.push_back(authentic(keys, cfg, d.main) ? 1 : 0);
  return out;
}

TEST(VerifyMemo, CheckBatchMatchesAuthenticAndCountsHitsAndMisses) {
  const Config cfg = Config::for_group(4);
  Rng rng(5);
  const KeyInfrastructure keys = KeyInfrastructure::setup(cfg, rng);
  const auto signed_msg = [&](ProcessId sender, Phase phase, Value v) {
    Message m = msg(sender, phase, v);
    const BytesView sk = keys.chain(sender).secret_key(phase, v);
    m.auth_sk.assign(sk.begin(), sk.end());
    return m;
  };
  VerifyMemo memo;
  std::vector<std::uint8_t> verdicts;
  const auto check = [&](const Datagram& d) {
    memo.check_batch(keys, cfg, d, verdicts);
    EXPECT_EQ(verdicts, reference_verdicts(keys, cfg, d));
  };

  // A genuine key, a forged one, a sender beyond n carrying a genuine
  // key, then repeats of the genuine and forged messages: the repeats are
  // hits on this batch's own misses, and the stranger counts nowhere.
  const Message genuine = signed_msg(1, 2, Value::kOne);
  Message forged = genuine;
  forged.auth_sk.back() ^= 0x01;
  Message stranger = genuine;
  stranger.sender = 9;
  Datagram mixed;
  mixed.justification = {genuine, forged, stranger, genuine, forged};
  mixed.main = signed_msg(2, 3, Value::kZero);
  check(mixed);
  EXPECT_EQ(verdicts, (std::vector<std::uint8_t>{1, 0, 0, 1, 0, 1}));
  EXPECT_EQ(memo.misses(), 3u);
  EXPECT_EQ(memo.hits(), 2u);
  // Again: every in-range message is now memoized, rejections included.
  check(mixed);
  EXPECT_EQ(memo.misses(), 3u);
  EXPECT_EQ(memo.hits(), 7u);

  // A key-grinding flood: more distinct forged keys for one (sender,
  // phase, value) than the memo keeps. The first kMaxEntriesPerKey are
  // memoized; the rest are verified every time they arrive.
  constexpr std::size_t kFlood = VerifyMemo::kMaxEntriesPerKey + 2;
  const Message target = signed_msg(3, 4, Value::kOne);
  std::vector<Message> grind;
  for (std::size_t i = 0; i < kFlood; ++i) {
    Message m = target;
    m.auth_sk.back() ^= static_cast<std::uint8_t>(i + 1);
    grind.push_back(m);
  }
  Datagram flood;
  flood.justification.assign(grind.begin(), grind.end() - 1);
  flood.main = grind.back();
  check(flood);
  EXPECT_EQ(verdicts, std::vector<std::uint8_t>(kFlood, 0));
  EXPECT_EQ(memo.misses(), 3u + kFlood);
  EXPECT_EQ(memo.hits(), 7u);
  check(flood);
  EXPECT_EQ(memo.misses(), 3u + kFlood + 2);
  EXPECT_EQ(memo.hits(), 7u + VerifyMemo::kMaxEntriesPerKey);

  // The genuine key for the flooded triple still verifies, uncached.
  Datagram honest;
  honest.main = target;
  check(honest);
  EXPECT_EQ(verdicts, (std::vector<std::uint8_t>{1}));
  check(honest);
  EXPECT_EQ(memo.misses(), 3u + kFlood + 4);
  EXPECT_EQ(memo.hits(), 7u + VerifyMemo::kMaxEntriesPerKey);
}

TEST(VerifyMemo, TableGrowthKeepsEveryVerdict) {
  // Thousands of distinct (sender, phase, value) keys take the memo's
  // table through several doublings. Verdicts, hits and misses must match
  // a std::map model of the memo: a (key, revealed SK) pair the memo or an
  // earlier message of the same batch holds is a hit, anything else in
  // range a miss, and each key keeps its first kMaxEntriesPerKey pairs.
  Config cfg = Config::for_group(16);
  cfg.phases_per_epoch = 120;
  Rng rng(27);
  const KeyInfrastructure keys = KeyInfrastructure::setup(cfg, rng);

  std::vector<Message> stream;
  for (ProcessId s = 0; s < cfg.n; ++s) {
    for (Phase p = 1; p <= cfg.phases_per_epoch; ++p) {
      for (const Value v : {Value::kZero, Value::kOne, Value::kBottom}) {
        if (!crypto::ots_value_allowed(p, v)) continue;
        Message m = msg(s, p, v);
        m.auth_sk = keys.secret_key(s, p, v);
        stream.push_back(m);
        if ((s + p) % 5 == 0) {
          m.auth_sk.back() ^= 0x5A;  // a forgery of the same key
          stream.push_back(m);
        }
      }
    }
  }
  for (std::size_t i = stream.size() - 1; i > 0; --i) {
    std::swap(stream[i], stream[rng.uniform(i + 1)]);
  }
  // Repeats of earlier messages (hits once the table has grown), key
  // grinding past the per-key cap, and senders beyond n.
  const std::size_t distinct = stream.size();
  for (int i = 0; i < 2000; ++i) stream.push_back(stream[rng.uniform(distinct)]);
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < VerifyMemo::kMaxEntriesPerKey + 3; ++i) {
      Message m = msg(3, 9, Value::kOne);
      m.auth_sk = keys.secret_key(3, 9, Value::kOne);
      m.auth_sk.back() ^= static_cast<std::uint8_t>(i + 1);
      stream.push_back(m);
    }
  }
  for (int i = 0; i < 50; ++i) {
    Message m = stream[rng.uniform(distinct)];
    m.sender = static_cast<ProcessId>(cfg.n + rng.uniform(8));
    stream.push_back(m);
  }

  std::map<std::uint64_t, std::vector<std::pair<AuthKey, bool>>> model;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  VerifyMemo memo;
  std::vector<std::uint8_t> verdicts;
  for (std::size_t at = 0; at < stream.size();) {
    const std::size_t len =
        std::min<std::size_t>(1 + rng.uniform(8), stream.size() - at);
    Datagram d;
    d.justification.assign(stream.begin() + static_cast<long>(at),
                           stream.begin() + static_cast<long>(at + len - 1));
    d.main = stream[at + len - 1];
    at += len;

    const std::vector<std::uint8_t> expected = reference_verdicts(keys, cfg, d);
    std::vector<std::pair<std::uint64_t, std::size_t>> batch_misses;
    for (std::size_t i = 0; i < len; ++i) {
      const Message& m = i + 1 < len ? d.justification[i] : d.main;
      if (m.sender >= cfg.n) continue;
      const std::uint64_t key = (std::uint64_t{m.phase} << 16) |
                                (std::uint64_t{m.sender} << 8) |
                                static_cast<std::uint64_t>(m.value);
      const auto& held = model[key];
      const bool memoized =
          std::any_of(held.begin(), held.end(),
                      [&](const auto& e) { return e.first == m.auth_sk; });
      const bool earlier = std::any_of(
          batch_misses.begin(), batch_misses.end(), [&](const auto& miss) {
            const Message& prior = miss.second + 1 < len
                                       ? d.justification[miss.second]
                                       : d.main;
            return miss.first == key && prior.auth_sk == m.auth_sk;
          });
      if (memoized || earlier) {
        ++hits;
      } else {
        ++misses;
        batch_misses.emplace_back(key, i);
      }
    }
    for (const auto& [key, i] : batch_misses) {
      auto& held = model[key];
      if (held.size() < VerifyMemo::kMaxEntriesPerKey) {
        held.emplace_back(i + 1 < len ? d.justification[i].auth_sk
                                      : d.main.auth_sk,
                          expected[i] != 0);
      }
    }

    memo.check_batch(keys, cfg, d, verdicts);
    ASSERT_EQ(verdicts, expected) << "datagram ending at " << at;
    ASSERT_EQ(memo.hits(), hits) << "datagram ending at " << at;
    ASSERT_EQ(memo.misses(), misses) << "datagram ending at " << at;
  }
  EXPECT_GT(model.size(), 4000u);
  EXPECT_GT(hits, 2000u);
  EXPECT_EQ(model[(std::uint64_t{9} << 16) | (3 << 8) | 1].size(),
            VerifyMemo::kMaxEntriesPerKey);
}

// ---------------------------------------------------------- exchange pool

TEST(ExchangePool, PerSenderMemoConfirmsBytes) {
  // Interleaved deliveries from two senders. The pool's per-sender memo
  // must only speed up finding an entry: a sender's next payload that
  // differs in one byte gets its own entry (a memo trusting the sender
  // would hand back the old one), and equal bytes share one entry
  // whichever sender delivered them.
  const Config cfg = Config::for_group(4);
  Rng rng(3);
  const KeyInfrastructure keys = KeyInfrastructure::setup(cfg, rng);
  ExchangePool pool(keys, cfg);

  Datagram d;
  d.main = msg(1, 2, Value::kOne);
  const BytesView sk = keys.chain(1).secret_key(2, Value::kOne);
  d.main.auth_sk.assign(sk.begin(), sk.end());
  Datagram forged = d;
  forged.main.auth_sk.back() ^= 0x01;
  const Bytes genuine = wire(d);
  const Bytes tampered = wire(forged);
  ASSERT_EQ(tampered.size(), genuine.size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < genuine.size(); ++i) {
    differing += genuine[i] != tampered[i] ? 1 : 0;
  }
  ASSERT_EQ(differing, 1u);

  const ExchangePool::Prepared& a = pool.acquire(1, genuine);
  ASSERT_TRUE(a.datagram.has_value());
  EXPECT_EQ(a.datagram->main, d.main);
  EXPECT_EQ(a.auth, (std::vector<std::uint8_t>{1}));

  const ExchangePool::Prepared& b = pool.acquire(1, tampered);
  EXPECT_NE(&b, &a);
  ASSERT_TRUE(b.datagram.has_value());
  EXPECT_EQ(b.datagram->main, forged.main);
  EXPECT_EQ(b.auth, (std::vector<std::uint8_t>{0}));

  // Sender 2 delivers both byte strings, then sender 1 repeats them.
  EXPECT_EQ(&pool.acquire(2, genuine), &a);
  EXPECT_EQ(&pool.acquire(2, tampered), &b);
  EXPECT_EQ(&pool.acquire(1, genuine), &a);
  EXPECT_EQ(&pool.acquire(2, genuine), &a);
  EXPECT_EQ(&pool.acquire(1, tampered), &b);

  const ExchangePool::Stats& s = pool.stats();
  EXPECT_EQ(s.acquires, 7u);
  EXPECT_EQ(s.shared_hits, 5u);  // every acquire after each payload's first
  EXPECT_EQ(s.misses(), 2u);     // one prepare per distinct payload
}

TEST(ExchangePool, PublishedEntriesHitByAddressAndByContent) {
  // A published entry is found by the address of the publisher's buffer
  // and, from any other buffer, by its bytes. Its first acquire is the
  // miss, as if that acquire had prepared it, and nothing is decoded.
  const Config cfg = Config::for_group(4);
  Rng rng(5);
  const KeyInfrastructure keys = KeyInfrastructure::setup(cfg, rng);
  ExchangePool pool(keys, cfg);
  Datagram d;
  d.main = msg(1, 2, Value::kOne);
  const BytesView sk = keys.chain(1).secret_key(2, Value::kOne);
  d.main.auth_sk.assign(sk.begin(), sk.end());
  d.justification = {msg(0, 1, Value::kOne), msg(2, 1, Value::kZero)};

  const net::FramedPayload framed = d.encode();
  pool.publish(1, framed, d);
  EXPECT_EQ(pool.stats().acquires, 0u);

  const ExchangePool::Prepared& entry = pool.acquire(1, framed.payload());
  EXPECT_EQ(entry.buffer, framed.frame());  // the publisher's own buffer
  EXPECT_EQ(entry.payload.data(), framed.payload().data());
  EXPECT_EQ(entry.datagram, d);
  std::vector<std::uint8_t> verdicts;
  VerifyMemo().check_batch(keys, cfg, d, verdicts);
  EXPECT_EQ(entry.auth, verdicts);
  EXPECT_EQ(pool.stats().misses(), 1u);
  EXPECT_EQ(pool.stats().shared_hits, 0u);

  // Byte-equal views in other buffers, from the publisher and from a
  // sender whose memo has never seen the entry.
  const Bytes copy = wire(d);
  EXPECT_EQ(&pool.acquire(1, copy), &entry);
  EXPECT_EQ(&pool.acquire(3, copy), &entry);
  EXPECT_EQ(&pool.acquire(2, framed.payload()), &entry);
  // Equal bytes published again from a new buffer keep the first entry.
  const net::FramedPayload again = d.encode();
  pool.publish(2, again, d);
  EXPECT_EQ(&pool.acquire(2, again.payload()), &entry);

  const ExchangePool::Stats& s = pool.stats();
  EXPECT_EQ(s.acquires, 5u);
  EXPECT_EQ(s.shared_hits, 4u);
  EXPECT_EQ(s.misses(), 1u);
  EXPECT_EQ(s.decodes, 0u);

  // A payload first seen on receive is decoded once.
  Datagram other = d;
  other.justification.pop_back();
  EXPECT_NE(&pool.acquire(1, wire(other)), &entry);
  EXPECT_EQ(pool.stats().decodes, 1u);
  EXPECT_EQ(pool.stats().misses(), 2u);
}

TEST(ExchangeSummary, GroupsInRangeSendersByPhase) {
  Config cfg = Config::for_group(4);
  cfg.max_phase = 10;
  Datagram d;
  d.main = msg(2, 5, Value::kOne);
  d.justification = {msg(1, 4, Value::kOne), msg(3, 4, Value::kZero),
                     msg(1, 4, Value::kOne, Status::kDecided),
                     msg(9, 4, Value::kOne),    // sender >= n
                     msg(0, 11, Value::kOne)};  // phase > max_phase
  const ExchangeSummary s = ExchangeSummary::of(d, cfg);
  EXPECT_FALSE(s.overflow);
  ASSERT_EQ(s.count, 2u);
  EXPECT_EQ(s.phases[0], 4u);
  EXPECT_EQ(s.phases[1], 5u);
  SenderSet at4;
  at4.insert(1);
  at4.insert(3);
  EXPECT_EQ(s.senders[0], at4);
  EXPECT_EQ(s.senders[1].count(), 1u);
  EXPECT_TRUE(s.senders[1].contains(2));
}

TEST(ExchangeSummary, MorePhasesThanItHoldsSetsOverflow) {
  const Config cfg = Config::for_group(4);
  Datagram d;
  d.main = msg(0, 1, Value::kOne);
  for (Phase p = 2; p <= ExchangeSummary::kMaxPhases; ++p) {
    d.justification.push_back(msg(1, p, Value::kOne));
  }
  EXPECT_FALSE(ExchangeSummary::of(d, cfg).overflow);
  d.justification.push_back(msg(2, ExchangeSummary::kMaxPhases + 1,
                                Value::kOne));
  // Phases 2..kMaxPhases + 1 fill the list, so the main message's phase 1
  // overflows; a listed phase keeps collecting senders after that.
  d.justification.push_back(msg(3, 2, Value::kZero));
  const ExchangeSummary s = ExchangeSummary::of(d, cfg);
  EXPECT_TRUE(s.overflow);
  EXPECT_EQ(s.count, ExchangeSummary::kMaxPhases);
  ASSERT_EQ(s.phases[0], 2u);
  EXPECT_TRUE(s.senders[0].contains(3));
  for (const Phase p : s.phases) EXPECT_NE(p, 1u);
}

TEST(ExchangeSummary, PoolEntriesCarryTheSummaryOfTheirDatagram) {
  const Config cfg = Config::for_group(4);
  Rng rng(8);
  const KeyInfrastructure keys = KeyInfrastructure::setup(cfg, rng);
  ExchangePool pool(keys, cfg);
  Datagram d;
  d.main = msg(1, 2, Value::kOne);
  d.justification = {msg(0, 1, Value::kOne), msg(2, 1, Value::kZero)};
  const ExchangePool::Prepared& entry = pool.acquire(1, wire(d));
  const ExchangeSummary expected = ExchangeSummary::of(d, cfg);
  ASSERT_EQ(entry.summary.count, expected.count);
  EXPECT_EQ(entry.summary.phases, expected.phases);
  EXPECT_EQ(entry.summary.senders, expected.senders);
  EXPECT_EQ(entry.summary.overflow, expected.overflow);
}

// ------------------------------------------------------------------ codec

TEST(MessageCodec, DatagramRoundTrip) {
  Datagram d;
  d.main = msg(3, 7, Value::kBottom, Status::kUndecided, false);
  d.main.phase = 6;  // ⊥ only exists in DECIDE phases
  d.main.auth_sk = Bytes(32, 0xAB);
  d.justification.push_back(msg(1, 5, Value::kOne));
  d.justification.push_back(msg(2, 5, Value::kZero, Status::kDecided, true));

  const auto decoded = Datagram::decode(wire(d));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->main, d.main);
  ASSERT_EQ(decoded->justification.size(), 2u);
  EXPECT_EQ(decoded->justification[0], d.justification[0]);
  EXPECT_EQ(decoded->justification[1], d.justification[1]);
}

TEST(MessageCodec, RejectsGarbage) {
  EXPECT_FALSE(Datagram::decode(Bytes{}).has_value());
  EXPECT_FALSE(Datagram::decode(Bytes{0x00, 0x01, 0x02}).has_value());
  // Valid tag but truncated body.
  Datagram d;
  d.main = msg(3, 7, Value::kOne);
  Bytes enc = wire(d);
  enc.resize(enc.size() - 3);
  EXPECT_FALSE(Datagram::decode(enc).has_value());
}

TEST(MessageCodec, RejectsInvalidEnumValues) {
  Datagram d;
  d.main = msg(3, 7, Value::kOne);
  Bytes enc = wire(d);
  // Value byte sits after tag(1) + sender(4) + phase(4).
  enc[9] = 7;  // not a Value
  EXPECT_FALSE(Datagram::decode(enc).has_value());
}

// ----------------------------------------------------------------- config

TEST(Config, QuorumArithmetic) {
  const Config cfg = Config::for_group(16);  // f = 5, k = 11
  EXPECT_EQ(cfg.f, 5u);
  EXPECT_EQ(cfg.k, 11u);
  EXPECT_EQ(cfg.quorum_size(), 11u);           // > 10.5
  EXPECT_FALSE(cfg.exceeds_quorum(10));
  EXPECT_TRUE(cfg.exceeds_quorum(11));
  EXPECT_EQ(cfg.half_quorum_size(), 6u);       // > 5.25
  EXPECT_FALSE(cfg.exceeds_half_quorum(5));
  EXPECT_TRUE(cfg.exceeds_half_quorum(6));
}

TEST(Config, SigmaBoundMatchesFormula) {
  // σ = ceil((n-t)/2)(n-k-t) + k - 2
  EXPECT_EQ(sigma_bound(4, 3, 0), 2 * 1 + 3 - 2);    // n=4, k=3, t=0
  EXPECT_EQ(sigma_bound(16, 11, 0), 8 * 5 + 11 - 2);
  EXPECT_EQ(sigma_bound(16, 11, 5), 6 * 0 + 11 - 2);  // t=f=5
}

}  // namespace
}  // namespace turq::turquois
