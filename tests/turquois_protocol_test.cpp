// Integration tests for the Turquois protocol over the simulated medium.
//
// Each test builds a full stack (simulator, 802.11b medium, broadcast
// endpoints, key infrastructure, processes), runs consensus, and checks the
// problem's three properties: validity, agreement, termination.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "crypto/cost_model.hpp"
#include "net/broadcast_endpoint.hpp"
#include "net/fault_injector.hpp"
#include "net/medium.hpp"
#include "runtime/sim_runtime.hpp"
#include "sim/cpu.hpp"
#include "sim/simulator.hpp"
#include "turquois/config.hpp"
#include "turquois/key_infra.hpp"
#include "adversary/strategies.hpp"
#include "turquois/process.hpp"

namespace turq::turquois {
namespace {

/// Self-contained Turquois deployment for tests.
class Cluster {
 public:
  /// The last `insiders` processes run the value-inversion attack.
  Cluster(std::uint32_t n, std::uint64_t seed,
          net::MediumConfig medium_cfg = {}, std::uint32_t insiders = 0)
      : cfg_(Config::for_group(n)),
        root_rng_(seed),
        medium_(sim_, medium_cfg, root_rng_.derive("medium", 0)),
        keys_(KeyInfrastructure::setup(cfg_, root_rng_)) {
    for (ProcessId id = 0; id < n; ++id) {
      cpus_.push_back(std::make_unique<sim::VirtualCpu>(sim_));
      runtimes_.push_back(
          std::make_unique<runtime::SimRuntime>(sim_, *cpus_.back()));
      endpoints_.push_back(
          std::make_unique<net::BroadcastEndpoint>(sim_, medium_, id));
      ProcessHooks hooks;
      if (id >= n - insiders) {
        hooks.mutate_outgoing = adversary::turquois_value_inversion();
      }
      processes_.push_back(std::make_unique<Process>(
          *runtimes_.back(), *endpoints_.back(), cfg_, keys_, id,
          root_rng_.derive("process", id), costs_, std::move(hooks)));
    }
  }

  Config& config() { return cfg_; }
  sim::Simulator& simulator() { return sim_; }
  net::Medium& medium() { return medium_; }
  Process& process(ProcessId id) { return *processes_[id]; }
  std::uint32_t n() const { return cfg_.n; }

  void propose_all(const std::vector<Value>& values) {
    for (ProcessId id = 0; id < cfg_.n; ++id) {
      if (id < values.size()) processes_[id]->propose(values[id]);
    }
  }

  /// Runs until every process in `expected` decides, or `timeout`.
  /// Returns true if all decided in time.
  bool run_until_decided(const std::vector<ProcessId>& expected,
                         SimDuration timeout = 30 * kSecond) {
    const SimTime deadline = sim_.now() + timeout;
    while (sim_.now() < deadline) {
      bool all = true;
      for (const ProcessId id : expected) {
        all = all && processes_[id]->decided();
      }
      if (all) return true;
      if (sim_.run_until(std::min(deadline, sim_.now() + 5 * kMillisecond)) ==
              0 &&
          sim_.idle()) {
        break;  // nothing left to run
      }
    }
    bool all = true;
    for (const ProcessId id : expected) all = all && processes_[id]->decided();
    return all;
  }

  std::vector<ProcessId> all_ids() const {
    std::vector<ProcessId> ids(cfg_.n);
    for (ProcessId i = 0; i < cfg_.n; ++i) ids[i] = i;
    return ids;
  }

  /// Asserts agreement + validity among decided processes in `group`.
  void check_safety(const std::vector<ProcessId>& group,
                    const std::vector<Value>& proposals) {
    std::optional<Value> decided_value;
    for (const ProcessId id : group) {
      if (!processes_[id]->decided()) continue;
      const Value d = processes_[id]->decision();
      EXPECT_TRUE(is_binary(d));
      if (decided_value.has_value()) {
        EXPECT_EQ(*decided_value, d) << "agreement violated by p" << id;
      } else {
        decided_value = d;
      }
      // Validity: the decision must be some process's proposal.
      const bool proposed = std::find(proposals.begin(), proposals.end(), d) !=
                            proposals.end();
      EXPECT_TRUE(proposed) << "decision " << to_string(d) << " never proposed";
    }
  }

 private:
  Config cfg_;
  Rng root_rng_;
  sim::Simulator sim_;
  net::Medium medium_;
  KeyInfrastructure keys_;
  crypto::CostModel costs_;
  std::vector<std::unique_ptr<sim::VirtualCpu>> cpus_;
  std::vector<std::unique_ptr<runtime::SimRuntime>> runtimes_;
  std::vector<std::unique_ptr<net::BroadcastEndpoint>> endpoints_;
  std::vector<std::unique_ptr<Process>> processes_;
};

std::vector<Value> unanimous(std::uint32_t n, Value v) {
  return std::vector<Value>(n, v);
}

std::vector<Value> divergent(std::uint32_t n) {
  std::vector<Value> out(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    out[i] = (i % 2 == 1) ? Value::kOne : Value::kZero;  // odd ids propose 1
  }
  return out;
}

TEST(TurquoisProtocol, UnanimousOneFourProcesses) {
  Cluster cluster(4, /*seed=*/1);
  const auto proposals = unanimous(4, Value::kOne);
  cluster.propose_all(proposals);
  ASSERT_TRUE(cluster.run_until_decided(cluster.all_ids()));
  cluster.check_safety(cluster.all_ids(), proposals);
  for (const ProcessId id : cluster.all_ids()) {
    EXPECT_EQ(cluster.process(id).decision(), Value::kOne);
  }
}

TEST(TurquoisProtocol, UnanimousZeroFourProcesses) {
  Cluster cluster(4, /*seed=*/2);
  const auto proposals = unanimous(4, Value::kZero);
  cluster.propose_all(proposals);
  ASSERT_TRUE(cluster.run_until_decided(cluster.all_ids()));
  for (const ProcessId id : cluster.all_ids()) {
    EXPECT_EQ(cluster.process(id).decision(), Value::kZero);
  }
}

TEST(TurquoisProtocol, DivergentFourProcesses) {
  Cluster cluster(4, /*seed=*/3);
  const auto proposals = divergent(4);
  cluster.propose_all(proposals);
  ASSERT_TRUE(cluster.run_until_decided(cluster.all_ids()));
  cluster.check_safety(cluster.all_ids(), proposals);
}

TEST(TurquoisProtocol, UnanimousDecidesInFirstCycle) {
  // With unanimous proposals and no faults, processes decide by the end of
  // the first CONVERGE/LOCK/DECIDE cycle (phase 3 -> 4), per the paper.
  Cluster cluster(7, /*seed=*/4);
  cluster.propose_all(unanimous(7, Value::kOne));
  ASSERT_TRUE(cluster.run_until_decided(cluster.all_ids()));
  for (const ProcessId id : cluster.all_ids()) {
    EXPECT_LE(cluster.process(id).phase(), 5u);
  }
}

class TurquoisGroupSizes : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(TurquoisGroupSizes, UnanimousAllSizes) {
  Cluster cluster(GetParam(), /*seed=*/100 + GetParam());
  const auto proposals = unanimous(GetParam(), Value::kOne);
  cluster.propose_all(proposals);
  ASSERT_TRUE(cluster.run_until_decided(cluster.all_ids()));
  cluster.check_safety(cluster.all_ids(), proposals);
}

TEST_P(TurquoisGroupSizes, DivergentAllSizes) {
  Cluster cluster(GetParam(), /*seed=*/200 + GetParam());
  const auto proposals = divergent(GetParam());
  cluster.propose_all(proposals);
  ASSERT_TRUE(cluster.run_until_decided(cluster.all_ids()));
  cluster.check_safety(cluster.all_ids(), proposals);
}

INSTANTIATE_TEST_SUITE_P(PaperGroupSizes, TurquoisGroupSizes,
                         ::testing::Values(4u, 7u, 10u, 13u, 16u));

TEST(TurquoisProtocol, FailStopCrashesBeforeStart) {
  // f = (n-1)/3 processes crash before proposing; the rest must decide.
  for (const std::uint32_t n : {4u, 7u, 10u}) {
    Cluster cluster(n, /*seed=*/300 + n);
    const std::uint32_t f = (n - 1) / 3;
    std::vector<ProcessId> alive;
    std::vector<Value> proposals = divergent(n);
    for (ProcessId id = 0; id < n; ++id) {
      if (id < f) {
        cluster.process(id).crash();
      } else {
        alive.push_back(id);
      }
    }
    for (const ProcessId id : alive) {
      cluster.process(id).propose(proposals[id]);
    }
    ASSERT_TRUE(cluster.run_until_decided(alive, 60 * kSecond))
        << "n=" << n << ": survivors failed to decide";
    cluster.check_safety(alive, proposals);
  }
}

TEST(TurquoisProtocol, SafetyUnderTotalOmission) {
  // With 100% loss no process can decide (progress requires quorums that
  // include other processes' messages) — but safety must hold: nothing bad
  // happens, nobody decides on garbage.
  Cluster cluster(4, /*seed=*/5);
  net::TargetedOmission jam([](ProcessId, ProcessId, SimTime) { return true; });
  cluster.medium().set_fault_injector(&jam);
  cluster.propose_all(divergent(4));
  EXPECT_FALSE(
      cluster.run_until_decided(cluster.all_ids(), 2 * kSecond));
  for (const ProcessId id : cluster.all_ids()) {
    // Everyone self-delivers only its own messages: quorum needs 3 distinct
    // senders, so no progress past phase 1.
    EXPECT_EQ(cluster.process(id).phase(), 1u);
    EXPECT_FALSE(cluster.process(id).decided());
  }
}

TEST(TurquoisProtocol, ProgressResumesAfterJamming) {
  // Jam the first 500 ms, then let the network behave: the fairness
  // assumption kicks in and consensus completes.
  Cluster cluster(4, /*seed=*/6);
  net::JammingWindows jam({{0, 500 * kMillisecond}});
  cluster.medium().set_fault_injector(&jam);
  cluster.propose_all(unanimous(4, Value::kOne));
  ASSERT_TRUE(cluster.run_until_decided(cluster.all_ids(), 30 * kSecond));
  for (const ProcessId id : cluster.all_ids()) {
    EXPECT_EQ(cluster.process(id).decision(), Value::kOne);
  }
}

TEST(TurquoisProtocol, LossyNetworkStillTerminates) {
  Cluster cluster(7, /*seed=*/7);
  net::IidLoss loss(0.2, Rng(42));
  cluster.medium().set_fault_injector(&loss);
  const auto proposals = divergent(7);
  cluster.propose_all(proposals);
  ASSERT_TRUE(cluster.run_until_decided(cluster.all_ids(), 120 * kSecond));
  cluster.check_safety(cluster.all_ids(), proposals);
}

class TurquoisSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TurquoisSeeds, DivergentSevenProcessesManySeeds) {
  Cluster cluster(7, GetParam());
  const auto proposals = divergent(7);
  cluster.propose_all(proposals);
  ASSERT_TRUE(cluster.run_until_decided(cluster.all_ids(), 120 * kSecond));
  cluster.check_safety(cluster.all_ids(), proposals);
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, TurquoisSeeds,
                         ::testing::Range<std::uint64_t>(1000, 1010));

// --------------------------------------------------------------- Byzantine

TEST(TurquoisByzantine, ValueInversionCannotBreakValidity) {
  // All correct processes propose 1; f insiders flip values and push ⊥.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const std::uint32_t f = 2;
    Cluster cluster(7, seed, {}, f);
    std::vector<ProcessId> correct;
    for (ProcessId id = 0; id < 7; ++id) {
      if (id < 7 - f) correct.push_back(id);
      cluster.process(id).propose(Value::kOne);
    }
    ASSERT_TRUE(cluster.run_until_decided(correct, 60 * kSecond))
        << "seed " << seed;
    for (const ProcessId id : correct) {
      EXPECT_EQ(cluster.process(id).decision(), Value::kOne) << "seed " << seed;
    }
  }
}

TEST(TurquoisByzantine, DivergentUnderAttackStillTerminates) {
  // Regression for the coin-value catch-up deadlock: without the
  // corroboration rule, Byzantine + divergent runs stalled ~35% of the
  // time (a straggler could never validate coin-derived values whose ⊥
  // justification cannot be attached recursively).
  for (const std::uint64_t seed : {10u, 11u, 12u, 13u, 14u, 15u}) {
    const std::uint32_t f = 2;
    Cluster cluster(7, seed, {}, f);
    std::vector<ProcessId> correct;
    const auto proposals = divergent(7);
    for (ProcessId id = 0; id < 7; ++id) {
      if (id < 7 - f) correct.push_back(id);
      cluster.process(id).propose(proposals[id]);
    }
    ASSERT_TRUE(cluster.run_until_decided(correct, 120 * kSecond))
        << "seed " << seed;
    cluster.check_safety(correct, proposals);
  }
}

TEST(TurquoisByzantine, SilentByzantineIsJustFailStop) {
  // Byzantine processes that never propose behave like crashed ones;
  // the correct majority decides regardless.
  Cluster cluster(10, 77);
  std::vector<ProcessId> correct;
  for (ProcessId id = 0; id < 7; ++id) {
    correct.push_back(id);
    cluster.process(id).propose(Value::kZero);
  }
  // ids 7..9 never propose (silent).
  ASSERT_TRUE(cluster.run_until_decided(correct, 60 * kSecond));
  for (const ProcessId id : correct) {
    EXPECT_EQ(cluster.process(id).decision(), Value::kZero);
  }
}

TEST(TurquoisByzantine, StragglerCatchesUpToDecision) {
  // One correct process is cut off from the network until long after the
  // rest decide; once reconnected it must import the decision via the
  // catch-up machinery (transitive phase rule + decision certificates).
  Cluster cluster(7, 31);
  const ProcessId straggler = 0;
  net::TargetedOmission cutoff([](ProcessId src, ProcessId dst, SimTime now) {
    return (src == 0 || dst == 0) && now < 1 * kSecond;
  });
  cluster.medium().set_fault_injector(&cutoff);
  cluster.propose_all(unanimous(7, Value::kOne));

  std::vector<ProcessId> others = {1, 2, 3, 4, 5, 6};
  ASSERT_TRUE(cluster.run_until_decided(others, 2 * kSecond));
  EXPECT_FALSE(cluster.process(straggler).decided());

  ASSERT_TRUE(cluster.run_until_decided({straggler}, 30 * kSecond));
  EXPECT_EQ(cluster.process(straggler).decision(), Value::kOne);
}

TEST(TurquoisByzantine, ReplayedStatusCannotForgeDecision) {
  // The one-time signature does not cover the status field (§6.1 caveat).
  // Construct the replay directly against the validator: an authentic
  // message re-labelled `decided` must fail semantic validation when no
  // decide-phase quorum exists.
  Config cfg = Config::for_group(4);
  Rng rng(5);
  const KeyInfrastructure keys = KeyInfrastructure::setup(cfg, rng);
  Message honest{.sender = 1,
                 .phase = 4,
                 .value = Value::kOne,
                 .status = Status::kUndecided,
                 .from_coin = false,
                 .auth_sk = keys.chain(1).secret_key(4, Value::kOne)};
  Message replayed = honest;
  replayed.status = Status::kDecided;
  EXPECT_TRUE(authentic(keys, cfg, replayed));  // the forgery authenticates…

  View empty_view;
  const SemanticValidator validator(cfg, empty_view);
  EXPECT_FALSE(validator.status_valid(replayed));  // …but cannot validate
}

}  // namespace
}  // namespace turq::turquois
