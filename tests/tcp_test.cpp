// Unit tests for the TCP-like reliable channel.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "crypto/cost_model.hpp"
#include "crypto/sha256.hpp"
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
      hosts.back()->set_handler([this, id](ProcessId src, BytesView msg) {
        inbox[id].emplace_back(src, Bytes(msg.begin(), msg.end()));
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

// A TcpHost at id 0 facing a raw medium endpoint at id 1 that records what
// the host sends it and can inject arbitrary frames back.
struct RawPeerRig {
  static constexpr ProcessId kHost = 0;
  static constexpr ProcessId kRaw = 1;

  sim::Simulator sim;
  Medium medium{sim, MediumConfig{}, Rng(1)};
  crypto::CostModel costs;
  sim::VirtualCpu cpu{sim};
  TcpHost host;
  std::vector<Bytes> inbox;
  std::vector<Bytes> captured;

  explicit RawPeerRig(TcpConfig cfg)
      : host(sim, medium, kHost, cfg, &cpu, &costs) {
    host.set_peer_key(kRaw, Bytes(32, 0x77));
    host.set_handler([this](ProcessId, BytesView m) {
      inbox.emplace_back(m.begin(), m.end());
    });
    medium.attach(kRaw, [this](ProcessId, BytesView frame, bool) {
      captured.emplace_back(frame.begin(), frame.end());
    });
  }

  void inject(Bytes frame) { medium.send_unicast(kRaw, kHost, std::move(frame)); }
};

TEST(Tcp, AuthenticatedBytesAreExactlyTheSegmentPrefix) {
  TcpConfig cfg;
  cfg.authenticate = true;
  const Bytes message = {1, 2, 3, 4, 5};
  // Capture a data segment from the host, then replay it back as if the raw
  // peer had sent it (one key serves both directions), which makes the host
  // deliver it and answer with a pure ACK.
  Bytes data_frame;
  Bytes ack_frame;
  {
    RawPeerRig rig(cfg);
    rig.host.send(RawPeerRig::kRaw, message);
    rig.sim.run_until(5 * kMillisecond);
    ASSERT_EQ(rig.captured.size(), 1u);
    data_frame = rig.captured[0];
    rig.inject(data_frame);
    rig.sim.run_until(100 * kMillisecond);
    ASSERT_EQ(rig.inbox.size(), 1u);
    ASSERT_EQ(rig.captured.size(), 2u);
    ack_frame = rig.captured[1];
  }
  const std::size_t digest = crypto::kSha256DigestSize;
  const std::size_t data_authed = 13 + 4 + message.size();  // framed message
  const std::size_t ack_authed = 13;
  ASSERT_EQ(data_frame[0], 1);  // data
  ASSERT_EQ(ack_frame[0], 2);   // pure ACK
  ASSERT_EQ(data_frame.size(), data_authed + digest + cfg.tcp_ip_overhead);
  ASSERT_EQ(ack_frame.size(), ack_authed + digest + cfg.tcp_ip_overhead);

  // Replays data_frame with `mutate` applied to a fresh host; returns
  // (delivered, auth_failures).
  const auto replay_data = [&](const std::function<void(Bytes&)>& mutate) {
    RawPeerRig rig(cfg);
    Bytes frame = data_frame;
    mutate(frame);
    rig.inject(std::move(frame));
    rig.sim.run_until(100 * kMillisecond);
    return std::make_pair(rig.inbox.size(),
                          rig.host.stats().auth_failures);
  };
  // Replays ack_frame to a fresh host whose one segment it acknowledges;
  // returns (rto_fires, auth_failures). An accepted ACK stops the RTO.
  const auto replay_ack = [&](const std::function<void(Bytes&)>& mutate) {
    RawPeerRig rig(cfg);
    rig.host.send(RawPeerRig::kRaw, message);
    rig.sim.run_until(5 * kMillisecond);
    Bytes frame = ack_frame;
    mutate(frame);
    rig.inject(std::move(frame));
    rig.sim.run_until(1 * kSecond);
    return std::make_pair(rig.host.stats().rto_fires,
                          rig.host.stats().auth_failures);
  };

  EXPECT_EQ(replay_data([](Bytes&) {}), std::make_pair(std::size_t{1},
                                                       std::uint64_t{0}));
  EXPECT_EQ(replay_ack([](Bytes&) {}), std::make_pair(std::uint64_t{0},
                                                      std::uint64_t{0}));

  // Type, seq, ack, length, payload and MAC: any flip is an auth failure.
  // The exception is the length's upper three bytes (10..12): their low bit
  // makes the length overrun the frame, which drops it as malformed before
  // the MAC check. Either way nothing is delivered.
  const auto overruns = [](std::size_t i) { return i >= 10 && i < 13; };
  for (std::size_t i = 0; i < data_authed + digest; ++i) {
    const auto [delivered, failures] =
        replay_data([i](Bytes& f) { f[i] ^= 1; });
    EXPECT_EQ(delivered, 0u) << "data byte " << i;
    EXPECT_EQ(failures, overruns(i) ? 0u : 1u) << "data byte " << i;
  }
  for (std::size_t i = 0; i < ack_authed + digest; ++i) {
    const auto [rto_fires, failures] =
        replay_ack([i](Bytes& f) { f[i] ^= 1; });
    EXPECT_GE(rto_fires, 1u) << "ack byte " << i;
    EXPECT_EQ(failures, overruns(i) ? 0u : 1u) << "ack byte " << i;
  }

  // The TCP/IP tail padding is not authenticated.
  for (std::size_t i = data_authed + digest; i < data_frame.size(); ++i) {
    EXPECT_EQ(replay_data([i](Bytes& f) { f[i] ^= 0x80; }),
              std::make_pair(std::size_t{1}, std::uint64_t{0}))
        << "data pad byte " << i;
  }
  for (std::size_t i = ack_authed + digest; i < ack_frame.size(); ++i) {
    EXPECT_EQ(replay_ack([i](Bytes& f) { f[i] ^= 0x80; }),
              std::make_pair(std::uint64_t{0}, std::uint64_t{0}))
        << "ack pad byte " << i;
  }

  // Truncated inside the MAC: dropped before verification.
  for (std::size_t keep = data_authed; keep < data_authed + digest; ++keep) {
    EXPECT_EQ(replay_data([keep](Bytes& f) { f.resize(keep); }),
              std::make_pair(std::size_t{0}, std::uint64_t{0}))
        << "kept " << keep;
  }
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

// One SHA-256 over every unicast frame (src, dst, bytes) and every delivered
// message (receiver, src, bytes), interleaved in event order, of a lossy
// authenticated n=4 mesh. Each host sits on a medium of its own next to
// proxies for the other three ids: a proxy records what the host sends it
// and forwards it to the destination host's medium, so every frame a host
// emits is seen with its bytes and then crosses two lossy hops. The mesh
// runs send_many bursts, a message larger than the MSS, zero-length
// messages, single sends and loopback. The digest was taken before the
// channel's buffers were rewritten; any change to a frame byte, a
// retransmission or a delivery moves it.
struct TappedMesh {
  static constexpr std::uint32_t kN = 4;

  sim::Simulator sim;
  crypto::CostModel costs;
  std::vector<std::unique_ptr<Medium>> media;
  std::vector<std::unique_ptr<IidLoss>> losses;
  std::vector<std::unique_ptr<sim::VirtualCpu>> cpus;
  std::vector<std::unique_ptr<TcpHost>> hosts;
  crypto::Sha256 digest;
  std::size_t frames = 0;
  std::size_t deliveries = 0;

  void absorb(char tag, ProcessId a, ProcessId b, BytesView bytes) {
    Writer w;
    w.u8(static_cast<std::uint8_t>(tag));
    w.u32(a);
    w.u32(b);
    w.bytes(bytes);
    digest.update(w.data());
  }

  explicit TappedMesh(std::uint64_t seed) {
    const Rng root(seed);
    TcpConfig cfg;
    cfg.authenticate = true;
    for (ProcessId id = 0; id < kN; ++id) {
      media.push_back(std::make_unique<Medium>(sim, MediumConfig{},
                                               root.derive("medium", id)));
      losses.push_back(
          std::make_unique<IidLoss>(0.2, root.derive("loss", id)));
      media.back()->set_fault_injector(losses.back().get());
    }
    for (ProcessId id = 0; id < kN; ++id) {
      cpus.push_back(std::make_unique<sim::VirtualCpu>(sim));
      hosts.push_back(std::make_unique<TcpHost>(sim, *media[id], id, cfg,
                                                cpus.back().get(), &costs));
      for (ProcessId peer = 0; peer < kN; ++peer) {
        hosts.back()->set_peer_key(
            peer, Bytes(32, static_cast<std::uint8_t>(
                                0x40 + std::min(id, peer) * 4 +
                                std::max(id, peer))));
      }
      hosts.back()->set_handler([this, id](ProcessId src, BytesView m) {
        ++deliveries;
        absorb('D', id, src, m);
      });
      for (ProcessId proxy = 0; proxy < kN; ++proxy) {
        if (proxy == id) continue;
        media[id]->attach(proxy, [this, id, proxy](ProcessId src,
                                                   BytesView frame, bool) {
          if (src != id) return;
          ++frames;
          absorb('F', id, proxy, frame);
          media[proxy]->send_unicast(id, proxy, Bytes(frame.begin(),
                                                      frame.end()));
        });
      }
    }
  }

  // One wave of traffic from every host: a send_many burst and a single
  // send to every destination, itself included.
  void wave(std::uint8_t tag) {
    for (ProcessId src = 0; src < kN; ++src) {
      for (ProcessId dst = 0; dst < kN; ++dst) {
        const auto fill = static_cast<std::uint8_t>(tag + src * kN + dst);
        std::vector<Bytes> burst;
        burst.push_back(Bytes(14, fill));
        burst.push_back(Bytes{});
        burst.push_back(Bytes(3000 + 7 * dst, fill));
        for (int i = 0; i < 6; ++i) {
          burst.push_back(Bytes(10 + 37 * i, static_cast<std::uint8_t>(fill + i)));
        }
        hosts[src]->send_many(dst, burst);
        hosts[src]->send(dst, Bytes(tag % 3 == 0 ? 0 : 90, fill));
      }
    }
  }
};

TEST(Tcp, LossyAuthenticatedMeshMatchesKnownAnswer) {
  TappedMesh mesh(2010);
  mesh.wave(1);
  mesh.sim.schedule(40 * kMillisecond, [&mesh] { mesh.wave(3); });
  mesh.sim.schedule(700 * kMillisecond, [&mesh] { mesh.wave(5); });
  mesh.sim.run_until(120 * kSecond);
  // 3 waves x 16 (src, dst) pairs x 10 messages, all delivered.
  EXPECT_EQ(mesh.deliveries, 480u);
  TcpHost::Stats total;
  for (const auto& h : mesh.hosts) total += h->stats();
  EXPECT_GT(total.segments_retransmitted, 0u);
  EXPECT_EQ(mesh.frames, 327u);
  EXPECT_EQ(to_hex(mesh.digest.finalize()),
            "c0750096594ca43e36627e23da3b9fb5b1972ce592461285e987caadc5a4af72");
}

// An unauthenticated segment in the channel's wire format.
constexpr std::uint8_t kDataSegment = 1;
constexpr std::uint8_t kAckSegment = 2;
Bytes segment(std::uint8_t type, std::uint32_t seq, std::uint32_t ack,
              BytesView payload) {
  Writer w;
  w.u8(type);
  w.u32(seq);
  w.u32(ack);
  w.bytes(payload);
  Bytes out = w.take();
  out.resize(out.size() + TcpConfig{}.tcp_ip_overhead);
  return out;
}

Bytes data_segment(std::uint32_t seq, BytesView payload) {
  return segment(kDataSegment, seq, 0, payload);
}

// The seq of a data frame the host sent.
std::uint32_t seq_of(const Bytes& frame) {
  Reader r(frame);
  r.u8();
  return r.u32().value();
}

TEST(Tcp, OutOfOrderAndDuplicateSegmentsReassembleExactly) {
  // 120 messages of 0..4 KB framed into one stream, cut at sizes that never
  // line up with message boundaries, then injected out of order and with
  // duplicates inside each window-sized block. Reassembly must consume and
  // compact its buffer mid-message many times and still deliver every
  // message once, in order, byte for byte.
  std::vector<Bytes> messages;
  Writer stream;
  for (std::size_t i = 0; i < 120; ++i) {
    Bytes m((i * 1237) % 4100);
    for (std::size_t k = 0; k < m.size(); ++k) {
      m[k] = static_cast<std::uint8_t>(i * 7 + k * 13);
    }
    stream.bytes(m);
    messages.push_back(std::move(m));
  }
  const Bytes bytes = stream.take();
  std::vector<Bytes> segments;
  for (std::size_t at = 0, i = 0; at < bytes.size(); ++i) {
    const std::size_t take =
        std::min<std::size_t>(1 + (i * 977) % 1400, bytes.size() - at);
    segments.push_back(data_segment(
        static_cast<std::uint32_t>(segments.size()),
        BytesView(bytes).subspan(at, take)));
    at += take;
  }

  TcpConfig cfg;
  RawPeerRig rig(cfg);
  const std::size_t window = cfg.window_segments;
  const std::size_t order[] = {3, 1, 1, 6, 0, 2, 0, 7, 5, 3, 4, 6, 2};
  for (std::size_t base = 0; base < segments.size(); base += window) {
    for (const std::size_t k : order) {
      if (base + k < segments.size()) rig.inject(segments[base + k]);
    }
    rig.sim.run_until(rig.sim.now() + 50 * kMillisecond);
  }
  rig.sim.run_until(rig.sim.now() + 1 * kSecond);
  ASSERT_EQ(rig.inbox.size(), messages.size());
  for (std::size_t i = 0; i < messages.size(); ++i) {
    EXPECT_EQ(rig.inbox[i], messages[i]) << "message " << i;
  }
}

TEST(Tcp, AckOfUnsentDataChangesNothing) {
  // A pure ACK for seq 5 while only seq 0 was sent must not drop seq 0 or
  // move send_base past what was sent: the honest ACKs that follow still
  // advance the connection, and nothing is retransmitted.
  RawPeerRig rig(TcpConfig{});  // unauthenticated, as ABBA's links are
  rig.host.send(RawPeerRig::kRaw, Bytes{1});
  rig.sim.run_until(5 * kMillisecond);
  ASSERT_EQ(rig.captured.size(), 1u);
  rig.inject(segment(kAckSegment, 0, /*ack=*/5, {}));
  rig.sim.run_until(10 * kMillisecond);
  // Nagle holds this one behind the unacknowledged seq 0.
  rig.host.send(RawPeerRig::kRaw, Bytes{2});
  rig.sim.run_until(15 * kMillisecond);
  EXPECT_EQ(rig.captured.size(), 1u);
  rig.inject(segment(kAckSegment, 0, /*ack=*/1, {}));
  rig.sim.run_until(30 * kMillisecond);
  ASSERT_EQ(rig.captured.size(), 2u);
  EXPECT_EQ(seq_of(rig.captured[1]), 1u);
  rig.inject(segment(kAckSegment, 0, /*ack=*/2, {}));
  rig.sim.run_until(60 * kSecond);
  EXPECT_EQ(rig.captured.size(), 2u);
  EXPECT_EQ(rig.host.stats().rto_fires, 0u);
  EXPECT_EQ(rig.host.stats().segments_retransmitted, 0u);
}

TEST(Tcp, DataBeyondTheReceiveWindowChangesNothing) {
  // 1 000 segments of 1 KB at seqs from recv_next + window_segments on are
  // dropped: no ACK answers them, and once the in-window seqs arrive only
  // their messages are delivered, because nothing beyond was buffered.
  const TcpConfig cfg;
  RawPeerRig rig(cfg);
  const auto window = static_cast<std::uint32_t>(cfg.window_segments);
  Bytes far_message;
  TcpHost::append_framed(far_message, Bytes(1020, 0xEE));
  for (std::uint32_t i = 0; i < 1000; ++i) {
    rig.inject(data_segment(window + i, far_message));
  }
  rig.sim.run_until(10 * kSecond);
  EXPECT_TRUE(rig.captured.empty());
  EXPECT_TRUE(rig.inbox.empty());
  for (std::uint32_t seq = 0; seq < window; ++seq) {
    Bytes framed;
    TcpHost::append_framed(framed, Bytes{static_cast<std::uint8_t>(seq)});
    rig.inject(data_segment(seq, framed));
  }
  rig.sim.run_until(rig.sim.now() + 1 * kSecond);
  ASSERT_EQ(rig.inbox.size(), window);
  for (std::uint32_t seq = 0; seq < window; ++seq) {
    EXPECT_EQ(rig.inbox[seq], Bytes{static_cast<std::uint8_t>(seq)});
  }
}

}  // namespace
}  // namespace turq::net
