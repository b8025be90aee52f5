// Unit tests for the 802.11b medium model and the fault injectors.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "common/rng.hpp"
#include "net/fault_injector.hpp"
#include "net/medium.hpp"
#include "net/spatial_model.hpp"
#include "sim/simulator.hpp"

namespace turq::net {
namespace {

struct Rig {
  sim::Simulator sim;
  Medium medium;
  std::map<ProcessId, std::vector<std::pair<ProcessId, Bytes>>> received;

  explicit Rig(MediumConfig cfg = {}, std::uint64_t seed = 1)
      : medium(sim, cfg, Rng(seed)) {}

  void attach(ProcessId id) {
    medium.attach(id, [this, id](ProcessId src, BytesView payload, bool) {
      received[id].emplace_back(src, Bytes(payload.begin(), payload.end()));
    });
  }

  /// Broadcasts `payload` from `src`, superseding its queued broadcasts.
  void broadcast(ProcessId src, Bytes payload) {
    medium.broadcast(src, std::make_shared<const Bytes>(std::move(payload)),
                     /*replace_queued=*/true);
  }
};

TEST(Medium, AirtimeMath) {
  Rig rig;
  // 100-byte payload + 34 MAC overhead = 1072 bits; at 2 Mb/s = 536 us,
  // plus the 192 us preamble.
  EXPECT_EQ(rig.medium.frame_airtime(100, 2e6),
            192 * kMicrosecond + 536 * kMicrosecond);
  // At 11 Mb/s: 1072 / 11e6 s = 97.5 us (rounded up per ns).
  const SimDuration at11 = rig.medium.frame_airtime(100, 11e6);
  EXPECT_GT(at11, 192 * kMicrosecond + 97 * kMicrosecond);
  EXPECT_LT(at11, 192 * kMicrosecond + 98 * kMicrosecond);
}

TEST(Medium, BroadcastReachesAllOthers) {
  Rig rig;
  for (ProcessId id = 0; id < 5; ++id) rig.attach(id);
  rig.broadcast(0, Bytes(10, 0xAA));
  rig.sim.run();
  EXPECT_TRUE(rig.received[0].empty());  // no self-delivery at the MAC layer
  for (ProcessId id = 1; id < 5; ++id) {
    ASSERT_EQ(rig.received[id].size(), 1u) << "node " << id;
    EXPECT_EQ(rig.received[id][0].first, 0u);
  }
  EXPECT_EQ(rig.medium.stats().broadcast_frames, 1u);
  EXPECT_EQ(rig.medium.stats().deliveries, 4u);
}

TEST(Medium, UnicastReachesOnlyDestination) {
  Rig rig;
  for (ProcessId id = 0; id < 4; ++id) rig.attach(id);
  bool acked = false;
  rig.medium.send_unicast(0, 2, Bytes(10, 0xBB), [&](bool ok) { acked = ok; });
  rig.sim.run();
  EXPECT_TRUE(acked);
  EXPECT_TRUE(rig.received[1].empty());
  EXPECT_TRUE(rig.received[3].empty());
  ASSERT_EQ(rig.received[2].size(), 1u);
}

TEST(Medium, UnicastToDetachedNodeFailsAfterRetries) {
  Rig rig;
  rig.attach(0);
  rig.attach(1);
  rig.medium.detach(1);
  bool result = true;
  rig.medium.send_unicast(0, 1, Bytes(10, 0xBB), [&](bool ok) { result = ok; });
  rig.sim.run();
  EXPECT_FALSE(result);
  EXPECT_EQ(rig.medium.stats().mac_retries, rig.medium.config().retry_limit);
  EXPECT_EQ(rig.medium.stats().unicast_drops, 1u);
}

TEST(Medium, SimultaneousBroadcastsCanCollide) {
  // With many synchronized senders and a tiny contention window, collisions
  // must occur; collided broadcast frames are lost (no MAC retry).
  MediumConfig cfg;
  cfg.cw_min = 1;
  cfg.cw_max = 1;
  Rig rig(cfg, /*seed=*/3);
  for (ProcessId id = 0; id < 8; ++id) rig.attach(id);
  for (ProcessId id = 0; id < 8; ++id) {
    rig.broadcast(id, Bytes(10, id));
  }
  rig.sim.run();
  EXPECT_GT(rig.medium.stats().collisions, 0u);
  EXPECT_GT(rig.medium.stats().frames_collided, 1u);
}

TEST(Medium, UnicastRecoversFromCollisionsViaRetry) {
  MediumConfig cfg;
  cfg.cw_min = 1;  // force initial collisions; retries double the window
  Rig rig(cfg, /*seed=*/3);
  for (ProcessId id = 0; id < 6; ++id) rig.attach(id);
  int acked = 0;
  for (ProcessId id = 0; id < 6; ++id) {
    rig.medium.send_unicast(id, (id + 1) % 6, Bytes(10, id),
                            [&](bool ok) { acked += ok ? 1 : 0; });
  }
  rig.sim.run();
  EXPECT_EQ(acked, 6);
  EXPECT_GT(rig.medium.stats().mac_retries, 0u);
}

TEST(Medium, FaultInjectorDropsPerReceiver) {
  Rig rig;
  for (ProcessId id = 0; id < 4; ++id) rig.attach(id);
  // Drop only at receiver 2.
  TargetedOmission faults(
      [](ProcessId, ProcessId dst, SimTime) { return dst == 2; });
  rig.medium.set_fault_injector(&faults);
  rig.broadcast(0, Bytes(10, 0xCC));
  rig.sim.run();
  EXPECT_EQ(rig.received[1].size(), 1u);
  EXPECT_TRUE(rig.received[2].empty());
  EXPECT_EQ(rig.received[3].size(), 1u);
  EXPECT_EQ(rig.medium.stats().omissions, 1u);
}

TEST(Medium, BroadcastQueueReplacement) {
  // A burst of state datagrams from one node keeps only the freshest few;
  // receivers must still get the last one.
  Rig rig;
  rig.attach(0);
  rig.attach(1);
  for (int i = 0; i < 20; ++i) {
    rig.broadcast(0, Bytes{static_cast<std::uint8_t>(i)});
  }
  rig.sim.run();
  // Far fewer than 20 frames hit the air…
  EXPECT_LT(rig.medium.stats().broadcast_frames, 20u);
  // …and the newest datagram is among the delivered ones.
  ASSERT_FALSE(rig.received[1].empty());
  EXPECT_EQ(rig.received[1].back().second[0], 19);
}

TEST(Medium, BroadcastQueueReplacementKeepsUnicast) {
  Rig rig;
  rig.attach(0);
  rig.attach(1);
  int acked = 0;
  rig.medium.send_unicast(0, 1, Bytes{0x55}, [&](bool ok) { acked += ok; });
  for (int i = 0; i < 10; ++i) {
    rig.broadcast(0, Bytes{static_cast<std::uint8_t>(i)});
  }
  rig.sim.run();
  EXPECT_EQ(acked, 1);  // replacement never drops unicast frames
}

TEST(Medium, AirtimeAccumulates) {
  Rig rig;
  rig.attach(0);
  rig.attach(1);
  rig.broadcast(0, Bytes(100, 0xAA));
  rig.sim.run();
  EXPECT_EQ(rig.medium.stats().airtime, rig.medium.frame_airtime(100, 2e6));
  EXPECT_EQ(rig.medium.stats().bytes_on_air, 134u);  // 100 + MAC overhead
}

// ----------------------------------------------------------- fault models

/// A spatial model of one-way links in which nobody senses anybody, so
/// every pair of contenders transmits concurrently.
class OneWayLinks final : public SpatialModel {
 public:
  explicit OneWayLinks(std::set<std::pair<ProcessId, ProcessId>> links)
      : links_(std::move(links)) {}

  bool reachable(ProcessId src, ProcessId dst, SimTime /*now*/) override {
    return links_.contains({src, dst});
  }
  bool carrier_sense(ProcessId /*a*/, ProcessId /*b*/,
                     SimTime /*now*/) override {
    return false;
  }

 private:
  std::set<std::pair<ProcessId, ProcessId>> links_;
};

TEST(Medium, OverlappedUnicastNeedsTheReverseLinkForItsAck) {
  // 0 unicasts to 1 while the hidden 2 broadcasts to 3: the two frames
  // overlap, and 1 decodes 0's data cleanly since it hears nothing of 2.
  // The link 1 -> 0 is down, so 0 never hears the MAC ACK: it retries up
  // to the limit and gives up, exactly as a lone unicast would.
  Rig rig;
  OneWayLinks links({{0, 1}, {2, 3}});
  rig.medium.set_spatial(&links);
  for (ProcessId id = 0; id < 4; ++id) rig.attach(id);
  std::optional<bool> acked;
  rig.medium.send_unicast(0, 1, Bytes(10, 0xBB), [&](bool ok) { acked = ok; });
  rig.broadcast(2, Bytes(10, 0xCC));
  rig.sim.run();
  ASSERT_FALSE(rig.received[1].empty());  // the data itself got through
  ASSERT_EQ(rig.received[3].size(), 1u);
  ASSERT_TRUE(acked.has_value());
  EXPECT_FALSE(*acked);
  EXPECT_EQ(rig.medium.stats().unicast_drops, 1u);
  EXPECT_EQ(rig.medium.stats().mac_retries, MediumConfig{}.retry_limit);
}

TEST(FaultInjectors, IidLossRateApproximatelyMatches) {
  IidLoss loss(0.3, Rng(7));
  int dropped = 0;
  for (int i = 0; i < 20000; ++i) {
    dropped += loss.drop(0, 1, i, 100) ? 1 : 0;
  }
  EXPECT_NEAR(dropped, 6000, 350);
}

TEST(FaultInjectors, JammingWindowsDropInsideOnly) {
  JammingWindows jam({{100, 200}, {400, 500}});
  EXPECT_FALSE(jam.drop(0, 1, 50, 10));
  EXPECT_TRUE(jam.drop(0, 1, 150, 10));
  EXPECT_FALSE(jam.drop(0, 1, 250, 10));
  EXPECT_TRUE(jam.drop(0, 1, 499, 10));
  EXPECT_FALSE(jam.drop(0, 1, 500, 10));  // half-open interval
}

TEST(FaultInjectors, CrashSetSilencesBothDirections) {
  CrashSet crash({2});
  EXPECT_TRUE(crash.drop(2, 1, 0, 10));
  EXPECT_TRUE(crash.drop(1, 2, 0, 10));
  EXPECT_FALSE(crash.drop(0, 1, 0, 10));
  crash.crash(0);
  EXPECT_TRUE(crash.drop(0, 1, 0, 10));
}

TEST(FaultInjectors, CompositeIsUnionOfChildren) {
  CompositeFaults comp;
  comp.add(std::make_unique<JammingWindows>(
      std::vector<std::pair<SimTime, SimTime>>{{0, 100}}));
  comp.add(std::make_unique<CrashSet>(std::unordered_set<ProcessId>{3}));
  EXPECT_TRUE(comp.drop(0, 1, 50, 10));   // inside jam window
  EXPECT_TRUE(comp.drop(3, 1, 200, 10));  // from crashed node
  EXPECT_FALSE(comp.drop(0, 1, 200, 10));
}

TEST(FaultInjectors, GilbertElliottProducesBurstyLoss) {
  GilbertElliott::Params params;
  params.mean_good_dwell = 10 * kMillisecond;
  params.mean_bad_dwell = 10 * kMillisecond;
  params.loss_good = 0.0;
  params.loss_bad = 1.0;
  GilbertElliott ge(params, Rng(11));
  // Sample a long trace on one link; both states must be visited, and
  // losses must cluster (adjacent correlation above iid).
  std::vector<bool> trace;
  for (int i = 0; i < 5000; ++i) {
    trace.push_back(ge.drop(0, 1, i * 100 * kMicrosecond, 10));
  }
  const auto losses = std::count(trace.begin(), trace.end(), true);
  EXPECT_GT(losses, 500);
  EXPECT_LT(losses, 4500);
  std::size_t adjacent_same = 0;
  for (std::size_t i = 1; i < trace.size(); ++i) {
    adjacent_same += trace[i] == trace[i - 1] ? 1 : 0;
  }
  // Bursty: consecutive samples agree far more often than 50%.
  EXPECT_GT(adjacent_same, trace.size() * 6 / 10);
}

TEST(FaultInjectors, GilbertElliottDropSequenceIsPinned) {
  // Every link evolves its own chain from a good state at t=0, and all
  // links draw from one stream in query order. The count and hash pin the
  // drop sequence bit for bit: any change of per-link state, default state
  // or draw order moves them. The second half addresses ids past the ones
  // the injector was sized for, so links must keep their state when the
  // table grows.
  GilbertElliott::Params params;
  params.mean_good_dwell = 20 * kMillisecond;
  params.mean_bad_dwell = 5 * kMillisecond;
  params.loss_good = 0.05;
  params.loss_bad = 0.7;
  GilbertElliott ge(params, Rng(2010), /*n=*/5);
  std::uint64_t fnv = 1469598103934665603ULL;
  std::size_t drops = 0;
  SimTime now = 0;
  for (std::uint64_t q = 0; q < 4000; ++q) {
    const std::uint64_t ids = q < 2000 ? 5 : 7;
    const auto src = static_cast<ProcessId>((q * 7) % ids);
    auto dst = static_cast<ProcessId>((q * 3 + 1) % ids);
    if (dst == src) dst = static_cast<ProcessId>((dst + 1) % ids);
    now += static_cast<SimDuration>(100 + (q * 37) % 900) * kMicrosecond;
    const bool dropped = ge.drop(src, dst, now, 64);
    drops += dropped ? 1 : 0;
    fnv = (fnv ^ (dropped ? 1U : 0U)) * 1099511628211ULL;
  }
  EXPECT_EQ(drops, 703u);
  EXPECT_EQ(fnv, 3599198332021951514ULL);
}

}  // namespace
}  // namespace turq::net
