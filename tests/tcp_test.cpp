// Unit tests for the TCP-like reliable channel.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "crypto/cost_model.hpp"
#include "net/fault_injector.hpp"
#include "net/medium.hpp"
#include "net/reliable_channel.hpp"
#include "sim/cpu.hpp"
#include "sim/simulator.hpp"

namespace turq::net {
namespace {

struct Rig {
  sim::Simulator sim;
  Medium medium;
  crypto::CostModel costs;
  std::vector<std::unique_ptr<sim::VirtualCpu>> cpus;
  std::vector<std::unique_ptr<TcpHost>> hosts;
  std::vector<std::vector<std::pair<ProcessId, Bytes>>> inbox;

  explicit Rig(std::uint32_t n, TcpConfig cfg = {}, std::uint64_t seed = 1)
      : medium(sim, MediumConfig{}, Rng(seed)), inbox(n) {
    for (ProcessId id = 0; id < n; ++id) {
      cpus.push_back(std::make_unique<sim::VirtualCpu>(sim));
      hosts.push_back(std::make_unique<TcpHost>(sim, medium, id, cfg,
                                                cpus.back().get(), &costs));
      hosts.back()->set_handler([this, id](ProcessId src, const Bytes& msg) {
        inbox[id].emplace_back(src, msg);
      });
    }
  }

  void set_all_keys() {
    for (auto& h : hosts) {
      for (ProcessId peer = 0; peer < hosts.size(); ++peer) {
        h->set_peer_key(peer, Bytes(32, 0x77));
      }
    }
  }
};

TEST(Tcp, DeliversInOrder) {
  Rig rig(2);
  for (int i = 0; i < 20; ++i) {
    rig.hosts[0]->send(1, Bytes{static_cast<std::uint8_t>(i)});
  }
  rig.sim.run_until(5 * kSecond);
  ASSERT_EQ(rig.inbox[1].size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(rig.inbox[1][i].second[0], i);
  }
}

TEST(Tcp, LoopbackWorks) {
  Rig rig(1);
  rig.hosts[0]->send(0, Bytes{42});
  rig.sim.run();
  ASSERT_EQ(rig.inbox[0].size(), 1u);
  EXPECT_EQ(rig.inbox[0][0].first, 0u);
}

TEST(Tcp, LargeMessageIsFragmentedAndReassembled) {
  Rig rig(2);
  Bytes big(5000);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 31);
  }
  rig.hosts[0]->send(1, big);
  rig.sim.run_until(5 * kSecond);
  ASSERT_EQ(rig.inbox[1].size(), 1u);
  EXPECT_EQ(rig.inbox[1][0].second, big);
  EXPECT_GE(rig.hosts[0]->stats().segments_sent, 4u);  // > 3 MSS segments
}

TEST(Tcp, SurvivesHeavyLoss) {
  Rig rig(2, {}, /*seed=*/9);
  IidLoss loss(0.4, Rng(5));
  rig.medium.set_fault_injector(&loss);
  for (int i = 0; i < 30; ++i) {
    rig.hosts[0]->send(1, Bytes{static_cast<std::uint8_t>(i)});
  }
  rig.sim.run_until(120 * kSecond);
  ASSERT_EQ(rig.inbox[1].size(), 30u);
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(rig.inbox[1][i].second[0], i);  // order preserved
  }
}

TEST(Tcp, RtoFiresWhenMacGivesUp) {
  // Drop everything from 0 to 1 for a while: MAC exhausts retries, the RTO
  // keeps trying, and after the blackout delivery succeeds.
  Rig rig(2);
  JammingWindows jam({{0, 800 * kMillisecond}});
  rig.medium.set_fault_injector(&jam);
  rig.hosts[0]->send(1, Bytes{7});
  rig.sim.run_until(30 * kSecond);
  ASSERT_EQ(rig.inbox[1].size(), 1u);
  EXPECT_GE(rig.hosts[0]->stats().rto_fires, 1u);
}

TEST(Tcp, NagleCoalescesSmallWrites) {
  TcpConfig with_nagle;
  with_nagle.nagle = true;
  TcpConfig without;
  without.nagle = false;

  auto run = [](TcpConfig cfg) {
    Rig rig(2, cfg);
    for (int burst = 0; burst < 5; ++burst) {
      for (int i = 0; i < 10; ++i) {
        rig.hosts[0]->send(1, Bytes(20, static_cast<std::uint8_t>(i)));
      }
    }
    rig.sim.run_until(10 * kSecond);
    EXPECT_EQ(rig.inbox[1].size(), 50u);
    return rig.hosts[0]->stats().segments_sent;
  };

  EXPECT_LT(run(with_nagle), run(without));
}

TEST(Tcp, SendManySharesSegments) {
  Rig rig(2);
  std::vector<Bytes> batch;
  for (int i = 0; i < 10; ++i) batch.push_back(Bytes(20, static_cast<std::uint8_t>(i)));
  rig.hosts[0]->send_many(1, batch);
  rig.sim.run_until(5 * kSecond);
  ASSERT_EQ(rig.inbox[1].size(), 10u);
  // 10 × 24B framed messages fit one MSS segment.
  EXPECT_EQ(rig.hosts[0]->stats().segments_sent, 1u);
}

TEST(Tcp, AuthenticationAcceptsSharedKey) {
  TcpConfig cfg;
  cfg.authenticate = true;
  Rig rig(2, cfg);
  rig.set_all_keys();
  rig.hosts[0]->send(1, Bytes{9});
  rig.sim.run_until(5 * kSecond);
  ASSERT_EQ(rig.inbox[1].size(), 1u);
  EXPECT_EQ(rig.hosts[1]->stats().auth_failures, 0u);
}

TEST(Tcp, AuthenticationRejectsKeyMismatch) {
  TcpConfig cfg;
  cfg.authenticate = true;
  Rig rig(2, cfg);
  rig.hosts[0]->set_peer_key(1, Bytes(32, 0x01));
  rig.hosts[1]->set_peer_key(0, Bytes(32, 0x02));  // different association
  rig.hosts[0]->send(1, Bytes{9});
  rig.sim.run_until(2 * kSecond);
  EXPECT_TRUE(rig.inbox[1].empty());
  EXPECT_GE(rig.hosts[1]->stats().auth_failures, 1u);
}

TEST(Tcp, StatsSumEveryField) {
  TcpHost::Stats total{1, 2, 3, 4, 5, 6};
  total += TcpHost::Stats{10, 20, 30, 40, 50, 60};
  EXPECT_EQ(total.messages_sent, 11u);
  EXPECT_EQ(total.segments_sent, 22u);
  EXPECT_EQ(total.segments_retransmitted, 33u);
  EXPECT_EQ(total.rto_fires, 44u);
  EXPECT_EQ(total.fast_retransmits, 55u);
  EXPECT_EQ(total.auth_failures, 66u);
}

TEST(Tcp, DisconnectedPeerGetsNothingAndCostsNothing) {
  Rig rig(2);
  rig.hosts[0]->disconnect_peer(1);
  rig.hosts[0]->send(1, Bytes{1});
  rig.sim.run();
  EXPECT_TRUE(rig.inbox[1].empty());
  EXPECT_EQ(rig.medium.stats().unicast_frames, 0u);
}

TEST(Tcp, CloseStopsTraffic) {
  Rig rig(2);
  rig.hosts[0]->send(1, Bytes{1});
  rig.sim.run_until(1 * kSecond);
  rig.hosts[1]->close();
  rig.hosts[0]->send(1, Bytes{2});
  rig.sim.run_until(10 * kSecond);
  ASSERT_EQ(rig.inbox[1].size(), 1u);  // only the pre-close message
}

TEST(Tcp, BidirectionalTrafficPiggybacksAcks) {
  Rig rig(2);
  for (int i = 0; i < 10; ++i) {
    rig.hosts[0]->send(1, Bytes{static_cast<std::uint8_t>(i)});
    rig.hosts[1]->send(0, Bytes{static_cast<std::uint8_t>(100 + i)});
  }
  rig.sim.run_until(10 * kSecond);
  EXPECT_EQ(rig.inbox[0].size(), 10u);
  EXPECT_EQ(rig.inbox[1].size(), 10u);
}

TEST(Tcp, ManyPeersFullMesh) {
  Rig rig(6);
  for (ProcessId a = 0; a < 6; ++a) {
    for (ProcessId b = 0; b < 6; ++b) {
      rig.hosts[a]->send(b, Bytes{static_cast<std::uint8_t>(a * 16 + b)});
    }
  }
  rig.sim.run_until(30 * kSecond);
  for (ProcessId b = 0; b < 6; ++b) {
    EXPECT_EQ(rig.inbox[b].size(), 6u) << "node " << b;
  }
}

TEST(Tcp, DuplicateDeliverySuppressedUnderAckLoss) {
  // Drop ACK frames from 1 to 0 occasionally: the MAC/TCP layers retransmit
  // data the receiver already has; the receiver must not deliver twice.
  Rig rig(2, {}, /*seed=*/13);
  TargetedOmission drop_reverse(
      [](ProcessId src, ProcessId dst, SimTime now) {
        return src == 1 && dst == 0 && now < 600 * kMillisecond;
      });
  rig.medium.set_fault_injector(&drop_reverse);
  for (int i = 0; i < 10; ++i) {
    rig.hosts[0]->send(1, Bytes{static_cast<std::uint8_t>(i)});
  }
  rig.sim.run_until(60 * kSecond);
  ASSERT_EQ(rig.inbox[1].size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rig.inbox[1][i].second[0], i);
}

}  // namespace
}  // namespace turq::net
