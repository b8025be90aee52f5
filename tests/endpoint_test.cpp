// Tests for the broadcast endpoint and the Turquois key infrastructure.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "net/broadcast_endpoint.hpp"
#include "net/broadcast_service.hpp"
#include "net/medium.hpp"
#include "sim/simulator.hpp"
#include "turquois/config.hpp"
#include "turquois/key_infra.hpp"

namespace turq {
namespace {

TEST(BroadcastEndpoint, LoopbackAndAirDelivery) {
  sim::Simulator sim;
  net::Medium medium(sim, net::MediumConfig{}, Rng(1));
  net::BroadcastEndpoint a(sim, medium, 0);
  net::BroadcastEndpoint b(sim, medium, 1);
  int a_got = 0, b_got = 0;
  a.set_handler([&](ProcessId src, BytesView) {
    EXPECT_EQ(src, 0u);  // loopback carries the sender's own id
    ++a_got;
  });
  b.set_handler([&](ProcessId src, BytesView) {
    EXPECT_EQ(src, 0u);
    ++b_got;
  });
  a.send(net::FramedPayload::copy_of(Bytes(10, 0x5A)));
  sim.run();
  EXPECT_EQ(a_got, 1);  // self-delivery is local and loss-free
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(a.datagrams_sent(), 1u);
}

TEST(BroadcastEndpoint, PayloadSurvivesHeaderModeling) {
  // The UDP/IP overhead is modeled as extra frame bytes; the application
  // payload must arrive byte-identical.
  sim::Simulator sim;
  net::Medium medium(sim, net::MediumConfig{}, Rng(1));
  net::BroadcastEndpoint a(sim, medium, 0);
  net::BroadcastEndpoint b(sim, medium, 1);
  Bytes payload(100);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7);
  }
  Bytes received;
  b.set_handler([&](ProcessId, BytesView p) { received = Bytes(p.begin(), p.end()); });
  a.send(net::FramedPayload::copy_of(payload));
  sim.run();
  EXPECT_EQ(received, payload);
}

TEST(BroadcastEndpoint, ClosedEndpointIsSilent) {
  sim::Simulator sim;
  net::Medium medium(sim, net::MediumConfig{}, Rng(1));
  net::BroadcastEndpoint a(sim, medium, 0);
  net::BroadcastEndpoint b(sim, medium, 1);
  int b_got = 0;
  b.set_handler([&](ProcessId, BytesView) { ++b_got; });
  b.close();
  a.send(net::FramedPayload::copy_of(Bytes(5, 1)));
  sim.run();
  EXPECT_EQ(b_got, 0);
  // And a closed endpoint no longer transmits.
  b.send(net::FramedPayload::copy_of(Bytes(5, 2)));
  sim.run();
  EXPECT_EQ(b.datagrams_sent(), 0u);
}

TEST(BroadcastEndpoint, ReattachAfterCloseUnderSameId) {
  // A fresh protocol instance re-uses node ids (multi-valued rounds).
  sim::Simulator sim;
  net::Medium medium(sim, net::MediumConfig{}, Rng(1));
  auto first = std::make_unique<net::BroadcastEndpoint>(sim, medium, 0);
  first.reset();  // destructor detaches
  net::BroadcastEndpoint second(sim, medium, 0);
  net::BroadcastEndpoint peer(sim, medium, 1);
  int got = 0;
  peer.set_handler([&](ProcessId, BytesView) { ++got; });
  second.send(net::FramedPayload::copy_of(Bytes(3, 9)));
  sim.run();
  EXPECT_EQ(got, 1);
}

/// Forwards to a Medium and records every frame handed to it.
class RecordingService final : public net::BroadcastService {
 public:
  explicit RecordingService(net::Medium& medium) : medium_(medium) {}
  void attach(ProcessId id, ReceiveHandler handler) override {
    medium_.attach(id, std::move(handler));
  }
  void detach(ProcessId id) override { medium_.detach(id); }
  void broadcast(ProcessId src, FramePayload payload,
                 bool replace_queued) override {
    frames.push_back(payload);
    medium_.broadcast(src, std::move(payload), replace_queued);
  }
  std::vector<FramePayload> frames;

 private:
  net::Medium& medium_;
};

TEST(BroadcastEndpoint, ResentPayloadAirsEveryTime) {
  // The sender's framed buffer is the frame that airs: no copy, and a
  // re-send of the same object airs the same buffer again. It is still a
  // new broadcast: it airs, costs the same airtime, and is delivered over
  // the air and by loopback. An equal payload in a different object is
  // delivered too.
  sim::Simulator sim;
  net::Medium medium(sim, net::MediumConfig{}, Rng(1));
  RecordingService service(medium);
  net::BroadcastEndpoint a(sim, service, 0);
  net::BroadcastEndpoint b(sim, service, 1);
  Bytes bytes(100);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 13 + 1);
  }
  std::vector<Bytes> looped, aired;
  a.set_handler([&](ProcessId src, BytesView p) {
    EXPECT_EQ(src, 0u);
    looped.emplace_back(p.begin(), p.end());
  });
  b.set_handler([&](ProcessId src, BytesView p) {
    EXPECT_EQ(src, 0u);
    aired.emplace_back(p.begin(), p.end());
  });

  const net::FramedPayload payload = net::FramedPayload::copy_of(bytes);
  const SimDuration airtime = medium.frame_airtime(
      bytes.size() + net::BroadcastEndpoint::kUdpIpOverhead,
      net::MediumConfig{}.broadcast_rate_bps);
  a.send(payload);
  sim.run();
  EXPECT_EQ(medium.stats().airtime, airtime);
  a.send(payload);
  sim.run();
  EXPECT_EQ(medium.stats().broadcast_frames, 2u);  // no suppression
  EXPECT_EQ(medium.stats().airtime, 2 * airtime);
  a.send(net::FramedPayload::copy_of(bytes));
  sim.run();

  EXPECT_EQ(a.datagrams_sent(), 3u);
  EXPECT_EQ(medium.stats().broadcast_frames, 3u);
  EXPECT_EQ(medium.stats().airtime, 3 * airtime);
  ASSERT_EQ(service.frames.size(), 3u);
  EXPECT_EQ(service.frames[0], payload.frame());    // the sender's buffer
  EXPECT_EQ(service.frames[1], service.frames[0]);  // re-send: same buffer
  EXPECT_NE(service.frames[2], service.frames[0]);  // new object: new frame
  for (const auto& frame : service.frames) {
    EXPECT_EQ(frame->size(),
              bytes.size() + net::BroadcastEndpoint::kUdpIpOverhead);
  }
  EXPECT_EQ(looped, std::vector<Bytes>(3, bytes));
  EXPECT_EQ(aired, std::vector<Bytes>(3, bytes));
  // The sent object is never modified, header room included.
  EXPECT_EQ(Bytes(payload.payload().begin(), payload.payload().end()), bytes);
  EXPECT_EQ(*payload.frame(), [&] {
    Bytes frame = bytes;
    frame.resize(bytes.size() + net::kUdpIpOverhead);
    return frame;
  }());
}

TEST(KeyInfrastructure, ChainsCoverEpochAndCrossVerify) {
  turquois::Config cfg = turquois::Config::for_group(4);
  cfg.phases_per_epoch = 32;
  Rng rng(9);
  const auto keys = turquois::KeyInfrastructure::setup(cfg, rng);
  EXPECT_EQ(keys.n(), 4u);
  for (ProcessId id = 0; id < 4; ++id) {
    EXPECT_TRUE(keys.chain(id).covers(1));
    EXPECT_TRUE(keys.chain(id).covers(32));
    EXPECT_FALSE(keys.chain(id).covers(33));
    // The signed VK arrays verify under the right RSA key and no other.
    EXPECT_TRUE(crypto::verify_key_array(keys.verification_keys(id),
                                         keys.signature(id),
                                         keys.rsa_public(id)));
    EXPECT_FALSE(crypto::verify_key_array(keys.verification_keys(id),
                                          keys.signature(id),
                                          keys.rsa_public((id + 1) % 4)));
  }
}

TEST(KeyInfrastructure, DistinctSetupsYieldDistinctKeys) {
  const turquois::Config cfg = turquois::Config::for_group(4);
  Rng rng_a(1), rng_b(2);
  const auto a = turquois::KeyInfrastructure::setup(cfg, rng_a);
  const auto b = turquois::KeyInfrastructure::setup(cfg, rng_b);
  // A key from epoch A must not authenticate under epoch B.
  EXPECT_FALSE(crypto::ots_verify(b.verification_keys(0), 2, Value::kOne,
                                  a.chain(0).secret_key(2, Value::kOne)));
}

}  // namespace
}  // namespace turq
