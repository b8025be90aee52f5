// Integration tests for the Bracha, ABBA, Crain, and abstract-MAC baselines
// over the simulated medium with TCP-like or broadcast transports.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "baselines/abba/abba.hpp"
#include "baselines/absmac/absmac.hpp"
#include "baselines/bracha/bracha.hpp"
#include "baselines/crain/crain.hpp"
#include "common/rng.hpp"
#include "common/sender_set.hpp"
#include "common/serialize.hpp"
#include "crypto/cost_model.hpp"
#include "net/broadcast_endpoint.hpp"
#include "net/fault_injector.hpp"
#include "net/medium.hpp"
#include "net/reliable_channel.hpp"
#include "runtime/sim_runtime.hpp"
#include "sim/cpu.hpp"
#include "sim/simulator.hpp"

namespace turq {
namespace {

template <typename Proc>
void check_agreement_validity(const std::vector<std::unique_ptr<Proc>>& procs,
                              const std::vector<ProcessId>& correct,
                              const std::vector<Value>& proposals) {
  std::optional<Value> agreed;
  for (const ProcessId id : correct) {
    ASSERT_TRUE(procs[id]->decided()) << "p" << id << " undecided";
    const Value v = procs[id]->decision();
    EXPECT_TRUE(is_binary(v));
    if (agreed.has_value()) {
      EXPECT_EQ(*agreed, v) << "agreement broken";
    }
    agreed = v;
    EXPECT_NE(std::find(proposals.begin(), proposals.end(), v),
              proposals.end())
        << "validity broken";
  }
}

// ------------------------------------------------------------------ Bracha

struct BrachaRig {
  sim::Simulator sim;
  net::Medium medium;
  crypto::CostModel costs;
  bracha::Config cfg;
  std::vector<std::unique_ptr<sim::VirtualCpu>> cpus;
  std::vector<std::unique_ptr<runtime::SimRuntime>> runtimes;
  std::vector<std::unique_ptr<net::TcpHost>> hosts;
  std::vector<std::unique_ptr<bracha::Process>> procs;

  explicit BrachaRig(std::uint32_t n, std::uint64_t seed = 1,
                     std::vector<bracha::Strategy> strategies = {})
      : medium(sim, net::MediumConfig{}, Rng(seed)),
        cfg(bracha::Config::for_group(n)) {
    net::TcpConfig tcp;
    tcp.authenticate = true;
    Rng root(seed);
    for (ProcessId id = 0; id < n; ++id) {
      cpus.push_back(std::make_unique<sim::VirtualCpu>(sim));
      hosts.push_back(std::make_unique<net::TcpHost>(
          sim, medium, id, tcp, cpus.back().get(), &costs));
      const auto strategy = id < strategies.size() ? strategies[id]
                                                   : bracha::Strategy::kHonest;
      runtimes.push_back(
          std::make_unique<runtime::SimRuntime>(sim, *cpus.back()));
      procs.push_back(std::make_unique<bracha::Process>(
          *runtimes.back(), *hosts.back(), cfg, id, root.derive("p", id),
          costs, strategy));
    }
    for (auto& h : hosts) {
      for (ProcessId peer = 0; peer < n; ++peer) {
        h->set_peer_key(peer, Bytes(32, 0x55));
      }
    }
  }

  bool run_until_decided(const std::vector<ProcessId>& who,
                         SimDuration timeout = 120 * kSecond) {
    while (sim.now() < timeout) {
      bool all = true;
      for (const ProcessId id : who) all = all && procs[id]->decided();
      if (all) return true;
      sim.run_until(sim.now() + 5 * kMillisecond);
    }
    return false;
  }
};

TEST(Bracha, UnanimousDecidesProposedValue) {
  BrachaRig rig(4, 2);
  for (auto& p : rig.procs) p->propose(Value::kZero);
  std::vector<ProcessId> all = {0, 1, 2, 3};
  ASSERT_TRUE(rig.run_until_decided(all));
  for (const ProcessId id : all) {
    EXPECT_EQ(rig.procs[id]->decision(), Value::kZero);
  }
}

TEST(Bracha, DivergentReachesAgreement) {
  BrachaRig rig(7, 3);
  std::vector<Value> proposals;
  for (ProcessId id = 0; id < 7; ++id) {
    proposals.push_back(id % 2 ? Value::kOne : Value::kZero);
    rig.procs[id]->propose(proposals.back());
  }
  std::vector<ProcessId> all = {0, 1, 2, 3, 4, 5, 6};
  ASSERT_TRUE(rig.run_until_decided(all));
  check_agreement_validity(rig.procs, all, proposals);
}

TEST(Bracha, ToleratesCrashedProcesses) {
  BrachaRig rig(7, 4);
  const std::vector<ProcessId> alive = {0, 1, 2, 3, 4};
  for (ProcessId dead = 5; dead < 7; ++dead) {
    rig.procs[dead]->crash();
    for (const ProcessId a : alive) rig.hosts[a]->disconnect_peer(dead);
  }
  for (const ProcessId id : alive) rig.procs[id]->propose(Value::kOne);
  ASSERT_TRUE(rig.run_until_decided(alive));
  for (const ProcessId id : alive) {
    EXPECT_EQ(rig.procs[id]->decision(), Value::kOne);
  }
}

TEST(Bracha, ReplayedEchoesAndReadiesCountOnce) {
  // p0 runs alone beside one raw TcpHost peer (id 1); 2 and 3 are down. The
  // peer replays the same ECHO and READY for p0's own broadcast 2f+1 times
  // each. Thresholds count distinct senders: p0's own echo plus the peer's
  // is 2 (the echo threshold needs 3 at n=4), and one distinct ready is
  // below both f+1 and 2f+1, so p0 neither sends READY nor delivers.
  BrachaRig rig(4);
  std::vector<Bytes> from_p0;
  rig.hosts[1]->set_handler([&](ProcessId src, const Bytes& m) {
    if (src == 0) from_p0.push_back(m);
  });
  for (const ProcessId dead : {2u, 3u}) {
    rig.procs[dead]->crash();
    rig.hosts[0]->disconnect_peer(dead);
  }
  rig.procs[0]->propose(Value::kZero);
  const auto rbc_message = [](std::uint8_t kind) {
    Writer w;
    w.u32(1);  // round
    w.u8(1);   // step
    w.u8(kind);
    w.u32(0);  // origin: p0's own broadcast
    w.u8(static_cast<std::uint8_t>(Value::kZero));
    w.u8(0);  // flag
    return w.take();
  };
  constexpr std::uint8_t kEcho = 2;
  constexpr std::uint8_t kReady = 3;
  for (std::uint32_t i = 0; i < 2 * rig.cfg.f + 1; ++i) {
    rig.hosts[1]->send(0, rbc_message(kEcho));
    rig.hosts[1]->send(0, rbc_message(kReady));
  }
  rig.sim.run_until(5 * kSecond);

  EXPECT_EQ(rig.procs[0]->stats().delivered, 0u);
  EXPECT_FALSE(rig.procs[0]->decided());
  ASSERT_FALSE(from_p0.empty());  // p0's INITIAL and ECHO did arrive
  for (const Bytes& m : from_p0) {
    ASSERT_GE(m.size(), 6u);
    EXPECT_NE(m[5], kReady) << "p0 sent READY";
  }
}

TEST(BrachaDeathTest, GroupLargerThanSenderSetCapacityAborts) {
  EXPECT_DEATH({ BrachaRig rig(SenderSet::kCapacity + 1); },
               "n <= SenderSet::kCapacity");
}

TEST(Bracha, ValueInversionCannotBreakValidity) {
  // All correct processes propose 1; f attackers push 0. The decision must
  // still be 1 — this is exactly what the lower-step plausibility gates
  // protect (see bracha.hpp).
  for (const std::uint64_t seed : {5u, 6u, 7u}) {
    BrachaRig rig(7, seed,
                  {bracha::Strategy::kHonest, bracha::Strategy::kHonest,
                   bracha::Strategy::kHonest, bracha::Strategy::kHonest,
                   bracha::Strategy::kHonest, bracha::Strategy::kValueInversion,
                   bracha::Strategy::kValueInversion});
    for (auto& p : rig.procs) p->propose(Value::kOne);
    const std::vector<ProcessId> correct = {0, 1, 2, 3, 4};
    ASSERT_TRUE(rig.run_until_decided(correct)) << "seed " << seed;
    for (const ProcessId id : correct) {
      EXPECT_EQ(rig.procs[id]->decision(), Value::kOne) << "seed " << seed;
    }
  }
}

TEST(Bracha, SurvivesLossyChannel) {
  BrachaRig rig(4, 8);
  net::IidLoss loss(0.15, Rng(99));
  rig.medium.set_fault_injector(&loss);
  std::vector<Value> proposals = {Value::kZero, Value::kOne, Value::kZero,
                                  Value::kOne};
  for (ProcessId id = 0; id < 4; ++id) rig.procs[id]->propose(proposals[id]);
  std::vector<ProcessId> all = {0, 1, 2, 3};
  ASSERT_TRUE(rig.run_until_decided(all, 300 * kSecond));
  check_agreement_validity(rig.procs, all, proposals);
}

// -------------------------------------------------------------------- ABBA

struct AbbaRig {
  sim::Simulator sim;
  net::Medium medium;
  crypto::CostModel costs;
  abba::Config cfg;
  abba::Dealer dealer;
  std::vector<std::unique_ptr<sim::VirtualCpu>> cpus;
  std::vector<std::unique_ptr<runtime::SimRuntime>> runtimes;
  std::vector<std::unique_ptr<net::TcpHost>> hosts;
  std::vector<std::unique_ptr<abba::Process>> procs;

  static abba::Dealer make_dealer(const abba::Config& c, std::uint64_t seed) {
    Rng rng(seed);
    return abba::Dealer::setup(c, rng);
  }

  explicit AbbaRig(std::uint32_t n, std::uint64_t seed = 1,
                   std::vector<abba::Strategy> strategies = {})
      : medium(sim, net::MediumConfig{}, Rng(seed)),
        cfg(abba::Config::for_group(n)),
        dealer(make_dealer(cfg, seed)) {
    Rng root(seed);
    for (ProcessId id = 0; id < n; ++id) {
      cpus.push_back(std::make_unique<sim::VirtualCpu>(sim));
      hosts.push_back(std::make_unique<net::TcpHost>(
          sim, medium, id, net::TcpConfig{}, cpus.back().get(), &costs));
      const auto strategy =
          id < strategies.size() ? strategies[id] : abba::Strategy::kHonest;
      runtimes.push_back(
          std::make_unique<runtime::SimRuntime>(sim, *cpus.back()));
      procs.push_back(std::make_unique<abba::Process>(
          *runtimes.back(), *hosts.back(), cfg, dealer, id,
          root.derive("p", id), costs, strategy));
    }
  }

  bool run_until_decided(const std::vector<ProcessId>& who,
                         SimDuration timeout = 120 * kSecond) {
    while (sim.now() < timeout) {
      bool all = true;
      for (const ProcessId id : who) all = all && procs[id]->decided();
      if (all) return true;
      sim.run_until(sim.now() + 5 * kMillisecond);
    }
    return false;
  }
};

TEST(Abba, UnanimousDecidesInRoundOne) {
  AbbaRig rig(4, 2);
  for (auto& p : rig.procs) p->propose(Value::kOne);
  std::vector<ProcessId> all = {0, 1, 2, 3};
  ASSERT_TRUE(rig.run_until_decided(all));
  for (const ProcessId id : all) {
    EXPECT_EQ(rig.procs[id]->decision(), Value::kOne);
    EXPECT_LE(rig.procs[id]->round(), 2u);
  }
}

TEST(Abba, DivergentTerminatesWithAgreement) {
  for (const std::uint64_t seed : {3u, 4u, 5u}) {
    AbbaRig rig(7, seed);
    std::vector<Value> proposals;
    for (ProcessId id = 0; id < 7; ++id) {
      proposals.push_back(id % 2 ? Value::kOne : Value::kZero);
      rig.procs[id]->propose(proposals.back());
    }
    std::vector<ProcessId> all = {0, 1, 2, 3, 4, 5, 6};
    ASSERT_TRUE(rig.run_until_decided(all)) << "seed " << seed;
    check_agreement_validity(rig.procs, all, proposals);
  }
}

TEST(Abba, ToleratesCrashedProcesses) {
  AbbaRig rig(10, 6);
  const std::vector<ProcessId> alive = {0, 1, 2, 3, 4, 5, 6};
  for (ProcessId dead = 7; dead < 10; ++dead) {
    rig.procs[dead]->crash();
    for (const ProcessId a : alive) rig.hosts[a]->disconnect_peer(dead);
  }
  for (const ProcessId id : alive) rig.procs[id]->propose(Value::kZero);
  ASSERT_TRUE(rig.run_until_decided(alive));
  for (const ProcessId id : alive) {
    EXPECT_EQ(rig.procs[id]->decision(), Value::kZero);
  }
}

TEST(Abba, InvalidCryptoAttackersCannotStopDecision) {
  AbbaRig rig(7, 9,
              {abba::Strategy::kHonest, abba::Strategy::kHonest,
               abba::Strategy::kHonest, abba::Strategy::kHonest,
               abba::Strategy::kHonest, abba::Strategy::kInvalidCrypto,
               abba::Strategy::kInvalidCrypto});
  for (auto& p : rig.procs) p->propose(Value::kOne);
  const std::vector<ProcessId> correct = {0, 1, 2, 3, 4};
  ASSERT_TRUE(rig.run_until_decided(correct));
  for (const ProcessId id : correct) {
    EXPECT_EQ(rig.procs[id]->decision(), Value::kOne);
    // The attack's cost shows up as rejected shares.
    EXPECT_GT(rig.procs[id]->stats().share_verify_failures, 0u);
  }
}

TEST(Abba, CoinSharesCombineOnAbstainPath) {
  // With a value split and unlucky interleaving, some round ends all-abstain
  // and the common coin fires. Run several seeds and require at least one
  // coin flip across them (statistically near-certain).
  std::uint64_t coin_flips = 0;
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    AbbaRig rig(4, seed);
    for (ProcessId id = 0; id < 4; ++id) {
      rig.procs[id]->propose(id % 2 ? Value::kOne : Value::kZero);
    }
    std::vector<ProcessId> all = {0, 1, 2, 3};
    ASSERT_TRUE(rig.run_until_decided(all)) << "seed " << seed;
    for (const ProcessId id : all) {
      coin_flips += rig.procs[id]->stats().coin_flips;
    }
  }
  EXPECT_GT(coin_flips, 0u);
}

// ------------------------------------------------------------------- Crain

struct CrainRig {
  sim::Simulator sim;
  net::Medium medium;
  crypto::CostModel costs;
  crain::Config cfg;
  crain::Dealer dealer;
  std::vector<std::unique_ptr<sim::VirtualCpu>> cpus;
  std::vector<std::unique_ptr<runtime::SimRuntime>> runtimes;
  std::vector<std::unique_ptr<net::TcpHost>> hosts;
  std::vector<std::unique_ptr<crain::Process>> procs;

  static crain::Dealer make_dealer(const crain::Config& c, std::uint64_t seed) {
    Rng rng(seed);
    return crain::Dealer::setup(c, rng);
  }

  explicit CrainRig(std::uint32_t n, std::uint64_t seed = 1,
                    std::vector<crain::Strategy> strategies = {})
      : medium(sim, net::MediumConfig{}, Rng(seed)),
        cfg(crain::Config::for_group(n)),
        dealer(make_dealer(cfg, seed)) {
    net::TcpConfig tcp;
    tcp.authenticate = true;  // authenticated channels, no signatures
    Rng root(seed);
    for (ProcessId id = 0; id < n; ++id) {
      cpus.push_back(std::make_unique<sim::VirtualCpu>(sim));
      runtimes.push_back(
          std::make_unique<runtime::SimRuntime>(sim, *cpus.back()));
      hosts.push_back(std::make_unique<net::TcpHost>(
          sim, medium, id, tcp, cpus.back().get(), &costs));
      const auto strategy =
          id < strategies.size() ? strategies[id] : crain::Strategy::kHonest;
      procs.push_back(std::make_unique<crain::Process>(
          *runtimes.back(), *hosts.back(), cfg, dealer, id,
          root.derive("p", id), costs, strategy));
    }
    for (auto& h : hosts) {
      for (ProcessId peer = 0; peer < n; ++peer) {
        h->set_peer_key(peer, Bytes(32, 0x55));
      }
    }
  }

  bool run_until_decided(const std::vector<ProcessId>& who,
                         SimDuration timeout = 120 * kSecond) {
    while (sim.now() < timeout) {
      bool all = true;
      for (const ProcessId id : who) all = all && procs[id]->decided();
      if (all) return true;
      sim.run_until(sim.now() + 5 * kMillisecond);
    }
    return false;
  }
};

TEST(Crain, UnanimousDecidesProposedValue) {
  CrainRig rig(4, 2);
  for (auto& p : rig.procs) p->propose(Value::kOne);
  std::vector<ProcessId> all = {0, 1, 2, 3};
  ASSERT_TRUE(rig.run_until_decided(all));
  for (const ProcessId id : all) {
    EXPECT_EQ(rig.procs[id]->decision(), Value::kOne);
    // Unanimity pins bin_values to {1}: the decision needed a coin round
    // that landed on 1, and every round combined exactly one coin.
    EXPECT_GT(rig.procs[id]->stats().combines, 0u);
  }
}

TEST(Crain, DivergentTerminatesWithAgreement) {
  for (const std::uint64_t seed : {3u, 4u, 5u}) {
    CrainRig rig(7, seed);
    std::vector<Value> proposals;
    for (ProcessId id = 0; id < 7; ++id) {
      proposals.push_back(id % 2 ? Value::kOne : Value::kZero);
      rig.procs[id]->propose(proposals.back());
    }
    std::vector<ProcessId> all = {0, 1, 2, 3, 4, 5, 6};
    ASSERT_TRUE(rig.run_until_decided(all)) << "seed " << seed;
    check_agreement_validity(rig.procs, all, proposals);
  }
}

TEST(Crain, ToleratesCrashedProcesses) {
  CrainRig rig(7, 6);
  const std::vector<ProcessId> alive = {0, 1, 2, 3, 4};
  for (ProcessId dead = 5; dead < 7; ++dead) {
    rig.procs[dead]->crash();
    for (const ProcessId a : alive) rig.hosts[a]->disconnect_peer(dead);
  }
  for (const ProcessId id : alive) rig.procs[id]->propose(Value::kZero);
  ASSERT_TRUE(rig.run_until_decided(alive));
  for (const ProcessId id : alive) {
    EXPECT_EQ(rig.procs[id]->decision(), Value::kZero);
  }
}

TEST(Crain, ValueInversionCannotBreakValidity) {
  // All correct processes propose 1; f attackers push 0. The f EST(0)
  // senders stay below the f+1 BV-broadcast echo bar, so 0 never enters
  // bin_values and the decision is pinned to 1.
  for (const std::uint64_t seed : {5u, 6u, 7u}) {
    CrainRig rig(7, seed,
                 {crain::Strategy::kHonest, crain::Strategy::kHonest,
                  crain::Strategy::kHonest, crain::Strategy::kHonest,
                  crain::Strategy::kHonest, crain::Strategy::kValueInversion,
                  crain::Strategy::kValueInversion});
    for (auto& p : rig.procs) p->propose(Value::kOne);
    const std::vector<ProcessId> correct = {0, 1, 2, 3, 4};
    ASSERT_TRUE(rig.run_until_decided(correct)) << "seed " << seed;
    for (const ProcessId id : correct) {
      EXPECT_EQ(rig.procs[id]->decision(), Value::kOne) << "seed " << seed;
    }
  }
}

// ------------------------------------------------------------ abstract MAC

struct AbsMacRig {
  sim::Simulator sim;
  net::Medium medium;
  absmac::Config cfg;
  std::vector<std::unique_ptr<sim::VirtualCpu>> cpus;
  std::vector<std::unique_ptr<runtime::SimRuntime>> runtimes;
  std::vector<std::unique_ptr<net::BroadcastEndpoint>> endpoints;
  std::vector<std::unique_ptr<absmac::Process>> procs;

  explicit AbsMacRig(std::uint32_t n, std::uint64_t seed = 1,
                     std::vector<absmac::Strategy> strategies = {})
      : medium(sim, net::MediumConfig{}, Rng(seed)),
        cfg(absmac::Config::for_group(n)) {
    Rng root(seed);
    for (ProcessId id = 0; id < n; ++id) {
      cpus.push_back(std::make_unique<sim::VirtualCpu>(sim));
      runtimes.push_back(
          std::make_unique<runtime::SimRuntime>(sim, *cpus.back()));
      endpoints.push_back(
          std::make_unique<net::BroadcastEndpoint>(sim, medium, id));
      const auto strategy =
          id < strategies.size() ? strategies[id] : absmac::Strategy::kHonest;
      procs.push_back(std::make_unique<absmac::Process>(
          *runtimes.back(), *endpoints.back(), cfg, id, root.derive("p", id),
          strategy));
    }
  }

  bool run_until_decided(const std::vector<ProcessId>& who,
                         SimDuration timeout = 120 * kSecond) {
    while (sim.now() < timeout) {
      bool all = true;
      for (const ProcessId id : who) all = all && procs[id]->decided();
      if (all) return true;
      sim.run_until(sim.now() + 5 * kMillisecond);
    }
    return false;
  }
};

TEST(AbsMac, UnanimousDecidesProposedValue) {
  AbsMacRig rig(4, 2);
  for (auto& p : rig.procs) p->propose(Value::kZero);
  std::vector<ProcessId> all = {0, 1, 2, 3};
  ASSERT_TRUE(rig.run_until_decided(all));
  for (const ProcessId id : all) {
    EXPECT_EQ(rig.procs[id]->decision(), Value::kZero);
  }
}

TEST(AbsMac, DivergentTerminatesWithAgreement) {
  for (const std::uint64_t seed : {3u, 4u, 5u}) {
    AbsMacRig rig(7, seed);
    std::vector<Value> proposals;
    for (ProcessId id = 0; id < 7; ++id) {
      proposals.push_back(id % 2 ? Value::kOne : Value::kZero);
      rig.procs[id]->propose(proposals.back());
    }
    std::vector<ProcessId> all = {0, 1, 2, 3, 4, 5, 6};
    ASSERT_TRUE(rig.run_until_decided(all)) << "seed " << seed;
    check_agreement_validity(rig.procs, all, proposals);
  }
}

TEST(AbsMac, ToleratesCrashedProcesses) {
  AbsMacRig rig(7, 4);
  const std::vector<ProcessId> alive = {0, 1, 2, 3, 4};
  for (ProcessId dead = 5; dead < 7; ++dead) rig.procs[dead]->crash();
  for (const ProcessId id : alive) rig.procs[id]->propose(Value::kOne);
  ASSERT_TRUE(rig.run_until_decided(alive));
  for (const ProcessId id : alive) {
    EXPECT_EQ(rig.procs[id]->decision(), Value::kOne);
  }
}

TEST(AbsMac, ValueInversionCannotBreakValidity) {
  for (const std::uint64_t seed : {5u, 6u, 7u}) {
    AbsMacRig rig(7, seed,
                  {absmac::Strategy::kHonest, absmac::Strategy::kHonest,
                   absmac::Strategy::kHonest, absmac::Strategy::kHonest,
                   absmac::Strategy::kHonest, absmac::Strategy::kValueInversion,
                   absmac::Strategy::kValueInversion});
    for (auto& p : rig.procs) p->propose(Value::kOne);
    const std::vector<ProcessId> correct = {0, 1, 2, 3, 4};
    ASSERT_TRUE(rig.run_until_decided(correct)) << "seed " << seed;
    for (const ProcessId id : correct) {
      EXPECT_EQ(rig.procs[id]->decision(), Value::kOne) << "seed " << seed;
    }
  }
}

TEST(AbsMac, TicksRetransmitUntilTheAckComesBack) {
  // The MAC layer's liveness lever: a frame keeps re-airing on the tick
  // timer until the sender hears its own broadcast (the modeled ack).
  // Under 20% iid loss some retransmits are certain, and the run still
  // decides.
  AbsMacRig rig(4, 8);
  net::IidLoss loss(0.2, Rng(99));
  rig.medium.set_fault_injector(&loss);
  for (auto& p : rig.procs) p->propose(Value::kOne);
  std::vector<ProcessId> all = {0, 1, 2, 3};
  ASSERT_TRUE(rig.run_until_decided(all, 300 * kSecond));
  std::uint64_t retransmits = 0;
  std::uint64_t acks = 0;
  for (const ProcessId id : all) {
    EXPECT_EQ(rig.procs[id]->decision(), Value::kOne);
    retransmits += rig.procs[id]->stats().retransmits;
    acks += rig.procs[id]->stats().acks_observed;
  }
  EXPECT_GT(retransmits, 0u);
  EXPECT_GT(acks, 0u);
}

class BaselineSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BaselineSeeds, BrachaDivergentSafetySweep) {
  BrachaRig rig(4, GetParam());
  std::vector<Value> proposals = {Value::kZero, Value::kOne, Value::kZero,
                                  Value::kOne};
  for (ProcessId id = 0; id < 4; ++id) rig.procs[id]->propose(proposals[id]);
  std::vector<ProcessId> all = {0, 1, 2, 3};
  ASSERT_TRUE(rig.run_until_decided(all, 300 * kSecond));
  check_agreement_validity(rig.procs, all, proposals);
}

TEST_P(BaselineSeeds, AbbaDivergentSafetySweep) {
  AbbaRig rig(4, GetParam());
  std::vector<Value> proposals = {Value::kZero, Value::kOne, Value::kZero,
                                  Value::kOne};
  for (ProcessId id = 0; id < 4; ++id) rig.procs[id]->propose(proposals[id]);
  std::vector<ProcessId> all = {0, 1, 2, 3};
  ASSERT_TRUE(rig.run_until_decided(all, 300 * kSecond));
  check_agreement_validity(rig.procs, all, proposals);
}

TEST_P(BaselineSeeds, CrainDivergentSafetySweep) {
  CrainRig rig(4, GetParam());
  std::vector<Value> proposals = {Value::kZero, Value::kOne, Value::kZero,
                                  Value::kOne};
  for (ProcessId id = 0; id < 4; ++id) rig.procs[id]->propose(proposals[id]);
  std::vector<ProcessId> all = {0, 1, 2, 3};
  ASSERT_TRUE(rig.run_until_decided(all, 300 * kSecond));
  check_agreement_validity(rig.procs, all, proposals);
}

TEST_P(BaselineSeeds, AbsMacDivergentSafetySweep) {
  AbsMacRig rig(4, GetParam());
  std::vector<Value> proposals = {Value::kZero, Value::kOne, Value::kZero,
                                  Value::kOne};
  for (ProcessId id = 0; id < 4; ++id) rig.procs[id]->propose(proposals[id]);
  std::vector<ProcessId> all = {0, 1, 2, 3};
  ASSERT_TRUE(rig.run_until_decided(all, 300 * kSecond));
  check_agreement_validity(rig.procs, all, proposals);
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, BaselineSeeds,
                         ::testing::Range<std::uint64_t>(100, 108));

}  // namespace
}  // namespace turq
