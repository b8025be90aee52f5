// Tests for the consensus-property auditor (src/audit) and the regression
// pins for the bugs turquois_fuzz found.
#include <gtest/gtest.h>

#include <optional>

#include "audit/audit.hpp"
#include "faultplan/spec.hpp"
#include "harness/experiment.hpp"

namespace turq::audit {
namespace {

AuditConfig cfg4() { return AuditConfig{.n = 4, .f = 1, .k = 3}; }

/// A clean unanimous run: everyone proposes 1, advances, decides 1.
void feed_clean_run(ConsensusAuditor& a) {
  for (ProcessId p = 0; p < 4; ++p) a.on_propose(p, Value::kOne, 0);
  for (ProcessId p = 0; p < 4; ++p) {
    a.on_phase(p, 1, 10);
    a.on_phase(p, 2, 20);
    a.on_phase(p, 3, 30);
    a.on_decide(p, Value::kOne, 3, 40);
  }
}

TEST(ConsensusAuditor, CleanRunPasses) {
  ConsensusAuditor a(cfg4());
  feed_clean_run(a);
  const AuditReport r = a.finish(std::nullopt, /*all_correct_decided=*/true);
  EXPECT_TRUE(r.checked);
  EXPECT_TRUE(r.passed());
  EXPECT_TRUE(r.describe().empty());
}

TEST(ConsensusAuditor, ValidityFlagsUnproposedDecision) {
  ConsensusAuditor a(cfg4());
  for (ProcessId p = 0; p < 4; ++p) a.on_propose(p, Value::kZero, 0);
  for (ProcessId p = 0; p < 4; ++p) a.on_decide(p, Value::kOne, 3, 40);
  const AuditReport r = a.finish(std::nullopt, true);
  EXPECT_FALSE(r.passed());
  // Nobody proposed 1, so every decider violates validity — and the
  // proposals were unanimous, so unanimity fires too.
  EXPECT_EQ(r.count(Property::kValidity), 4u);
  EXPECT_EQ(r.count(Property::kUnanimity), 4u);
}

TEST(ConsensusAuditor, AgreementFlagsSplitDecision) {
  ConsensusAuditor a(cfg4());
  for (ProcessId p = 0; p < 4; ++p) {
    a.on_propose(p, p % 2 == 0 ? Value::kZero : Value::kOne, 0);
  }
  a.on_decide(0, Value::kZero, 3, 40);
  a.on_decide(1, Value::kOne, 3, 41);  // disagrees with p0
  a.on_decide(2, Value::kZero, 3, 42); // disagrees with p1
  const AuditReport r = a.finish(std::nullopt, true);
  EXPECT_EQ(r.count(Property::kAgreement), 2u);
  // Divergent proposals: both values are valid, unanimity does not apply.
  EXPECT_EQ(r.count(Property::kValidity), 0u);
  EXPECT_EQ(r.count(Property::kUnanimity), 0u);
}

TEST(ConsensusAuditor, PhaseMonotonicityFlagsBackwardsMove) {
  ConsensusAuditor a(cfg4());
  a.on_phase(2, 5, 10);
  a.on_phase(2, 5, 11);  // repeating a phase is fine
  a.on_phase(2, 3, 12);  // moving backwards is not
  const AuditReport r = a.finish(std::nullopt, true);
  ASSERT_EQ(r.count(Property::kPhaseMonotonicity), 1u);
  EXPECT_EQ(r.violations[0].process, 2u);
}

TEST(ConsensusAuditor, QuorumSanityFlagsDoubleEvents) {
  ConsensusAuditor a(cfg4());
  a.on_propose(0, Value::kOne, 0);
  a.on_propose(0, Value::kOne, 1);         // proposed twice
  a.on_decide(1, Value::kOne, 3, 40);
  a.on_decide(1, Value::kOne, 6, 50);      // decided twice
  a.on_decide(2, Value::kBottom, 3, 40);   // non-binary decision
  a.note_violation(Property::kQuorumSanity, 3, "injected by harness scan");
  const AuditReport r = a.finish(std::nullopt, true);
  EXPECT_EQ(r.count(Property::kQuorumSanity), 4u);
}

TEST(ConsensusAuditor, SigmaLivenessRequiresDecisionWhenEligible) {
  faultplan::SigmaSummary eligible;  // violating_rounds == 0
  {
    ConsensusAuditor a(cfg4());
    const AuditReport r = a.finish(eligible, /*all_correct_decided=*/false);
    EXPECT_EQ(r.count(Property::kSigmaLiveness), 1u);
    EXPECT_EQ(r.violations[0].process, kNoProcess);
  }
  {
    // A σ-violating repetition carries no liveness obligation.
    faultplan::SigmaSummary violating;
    violating.violating_rounds = 2;
    ConsensusAuditor a(cfg4());
    const AuditReport r = a.finish(violating, false);
    EXPECT_EQ(r.count(Property::kSigmaLiveness), 0u);
  }
  {
    // Without σ accounting there is nothing to condition on.
    ConsensusAuditor a(cfg4());
    const AuditReport r = a.finish(std::nullopt, false);
    EXPECT_EQ(r.count(Property::kSigmaLiveness), 0u);
  }
}

TEST(ConsensusAuditor, SigmaLivenessPhaseBound) {
  AuditConfig cfg = cfg4();
  cfg.phase_bound = 6;
  ConsensusAuditor a(cfg);
  feed_clean_run(a);            // decides at phase 3 — inside the bound
  a.on_decide(3, Value::kOne, 9, 50);  // p3 already decided; ignore count
  faultplan::SigmaSummary eligible;
  const AuditReport r = a.finish(eligible, true);
  // p3's duplicate decide is a quorum-sanity hit but its first decide
  // (phase 3) is what the phase bound sees; no liveness violation.
  EXPECT_EQ(r.count(Property::kSigmaLiveness), 0u);

  ConsensusAuditor b(cfg);
  b.on_propose(0, Value::kOne, 0);
  b.on_decide(0, Value::kOne, 9, 50);  // above the bound
  const AuditReport rb = b.finish(eligible, true);
  EXPECT_EQ(rb.count(Property::kSigmaLiveness), 1u);
}

TEST(AuditAggregate, MergeCountsPerProperty) {
  AuditAggregate agg;
  AuditReport clean;
  clean.checked = true;
  agg.merge(clean);

  AuditReport bad;
  bad.checked = true;
  bad.violations.push_back({Property::kAgreement, 1, "x"});
  bad.violations.push_back({Property::kAgreement, 2, "y"});
  bad.violations.push_back({Property::kValidity, 1, "z"});
  agg.merge(bad);

  AuditReport unchecked;  // finish() never ran — must not count
  agg.merge(unchecked);

  EXPECT_EQ(agg.checked_reps, 2u);
  EXPECT_EQ(agg.violating_reps, 1u);
  EXPECT_EQ(agg.violations, 3u);
  EXPECT_EQ(agg.by_property[static_cast<std::size_t>(Property::kAgreement)],
            2u);
  EXPECT_EQ(agg.by_property[static_cast<std::size_t>(Property::kValidity)],
            1u);
  EXPECT_FALSE(agg.passed());
}

}  // namespace
}  // namespace turq::audit

namespace turq::harness {
namespace {

/// Shrunk reproducer config from turquois_fuzz for the decided-coin
/// agreement bug (adopt() coin-flipping forged kDecided messages,
/// process.cpp). The fuzzer's minimal command line was:
///   turquois_sim --protocol turquois --n 4 --dist <dist>
///     --faults 'byzantine;' --attack decided-coin --seed 1 --reps <reps>
ScenarioConfig decided_coin_repro(ProposalDist dist, std::uint32_t reps) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kTurquois;
  cfg.n = 4;
  cfg.distribution = dist;
  cfg.plan = *faultplan::plan_from_name("byzantine;", nullptr);
  cfg.attack = TurquoisAttack::kDecidedCoinForge;
  cfg.seed = 1;
  cfg.repetitions = reps;
  cfg.run_timeout = 30 * kSecond;
  return cfg;
}

TEST(AuditRegression, DecidedCoinForgeUnanimous) {
  // Pre-fix, repetition 135 of this exact grid decided a coin flip and
  // broke agreement/validity. Pinned: the audited sweep must stay clean.
  const ScenarioResult r =
      run_scenario(decided_coin_repro(ProposalDist::kUnanimous, 136));
  EXPECT_EQ(r.safety_violations, 0u);
  ASSERT_TRUE(r.audit.has_value());
  EXPECT_EQ(r.audit->checked_reps, 136u);
  EXPECT_TRUE(r.audit->passed()) << "audit violations reappeared";
}

TEST(AuditRegression, DecidedCoinForgeDivergent) {
  // Pre-fix minimal reproducer: repetition 26 under divergent proposals.
  const ScenarioResult r =
      run_scenario(decided_coin_repro(ProposalDist::kDivergent, 27));
  EXPECT_EQ(r.safety_violations, 0u);
  ASSERT_TRUE(r.audit.has_value());
  EXPECT_EQ(r.audit->checked_reps, 27u);
  EXPECT_TRUE(r.audit->passed()) << "audit violations reappeared";
}

TEST(AuditRegression, AdaptiveSigmaRoundCoversFullExchangeAtN16) {
  // Second turquois_fuzz find: with the σ accounting round fixed at one
  // tick, a full n=16 broadcast exchange spanned several rounds, so the
  // full-budget adaptive adversary got a multiple of σ per exchange —
  // permanent livelock that the accountant still labelled
  // liveness-eligible. The default round now scales with n
  // (harness::fault_context). Reproducer:
  //   turquois_sim --protocol turquois --n 16 --dist unanimous
  //     --faults 'sigma;adaptive(frac=1)' --seed 1 --reps 1 --timeout 30
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kTurquois;
  cfg.n = 16;
  cfg.distribution = ProposalDist::kUnanimous;
  cfg.plan = *faultplan::plan_from_name("sigma;adaptive(frac=1)", nullptr);
  cfg.seed = 1;
  cfg.repetitions = 1;
  cfg.run_timeout = 30 * kSecond;
  const ScenarioResult r = run_scenario(cfg);
  EXPECT_EQ(r.failed_runs, 0u) << "adaptive n=16 livelocked again";
  ASSERT_TRUE(r.sigma.has_value());
  EXPECT_TRUE(r.sigma->liveness_eligible());
  ASSERT_TRUE(r.audit.has_value());
  EXPECT_TRUE(r.audit->passed());
}

TEST(AuditScenario, AuditOnByDefaultAndOptOut) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kTurquois;
  cfg.n = 4;
  cfg.repetitions = 2;
  cfg.seed = 11;
  EXPECT_TRUE(cfg.audit);
  const ScenarioResult on = run_scenario(cfg);
  ASSERT_TRUE(on.audit.has_value());
  EXPECT_EQ(on.audit->checked_reps, 2u);
  EXPECT_TRUE(on.audit->passed());

  cfg.audit = false;
  const ScenarioResult off = run_scenario(cfg);
  EXPECT_FALSE(off.audit.has_value());
  // The auditor is observational: disabling it must not move a sample.
  ASSERT_EQ(off.latency_ms.count(), on.latency_ms.count());
  EXPECT_EQ(off.latency_ms.samples(), on.latency_ms.samples());
}

TEST(AuditScenario, BaselinesAreAuditedToo) {
  for (const Protocol p : {Protocol::kBracha, Protocol::kAbba}) {
    ScenarioConfig cfg;
    cfg.protocol = p;
    cfg.n = 4;
    cfg.repetitions = 2;
    cfg.seed = 5;
    const ScenarioResult r = run_scenario(cfg);
    ASSERT_TRUE(r.audit.has_value()) << to_string(p);
    EXPECT_EQ(r.audit->checked_reps, 2u) << to_string(p);
    EXPECT_TRUE(r.audit->passed()) << to_string(p);
  }
}

TEST(AuditScenario, GroupsBeyondBitsetWidthAreRejected) {
  // Regression for the sender<128 bitset assumption: n > 128 must be
  // rejected up front by validate(), not silently mis-counted deep in
  // apply_decision_certificates().
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kTurquois;
  cfg.n = 129;
  cfg.repetitions = 1;
  const std::optional<std::string> err = validate(cfg);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("128"), std::string::npos);
  EXPECT_THROW((void)run_scenario(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace turq::harness
