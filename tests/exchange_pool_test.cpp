// End-to-end checks that the prepared-exchange cache
// (turquois/exchange_pool.hpp) is shared across receivers, read from each
// repetition's trace counters rather than from host timing.
//
// Every delivery, including a sender's loopback of its own broadcast, is
// one acquire, so acquires == broadcasts + deliveries. Receivers that share
// the pool count one miss per distinct payload (its first acquire, whether
// its sender published it or the acquire prepared it), and each broadcast
// adds at most one distinct payload, so misses <= broadcasts.
// Without sharing, every receiver would prepare each payload it hears, and
// misses would grow with n × distinct payloads — at n = 64 far beyond the
// broadcast count. See DESIGN.md §14.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/serialize.hpp"
#include "crypto/sha256.hpp"
#include "faultplan/spec.hpp"
#include "harness/experiment.hpp"
#include "service/service.hpp"
#include "trace/metrics.hpp"
#include "trace/sink.hpp"
#include "trace/trace.hpp"

namespace turq::harness {
namespace {

/// Keeps each repetition's counters; events are ignored.
class CounterSink final : public trace::Sink {
 public:
  void on_event(const trace::TraceEvent& /*event*/) override {}
  void on_metrics(const trace::MetricsRegistry& metrics) override {
    auto& rep = reps.emplace_back();
    for (const auto& [name, counter] : metrics.counters()) {
      rep[name] = counter.value();
    }
  }

  std::vector<std::map<std::string, std::uint64_t>> reps;
};

/// The large_n shape: n = 64 failure-free Turquois with divergent
/// proposals on an 11 Mbps collision domain with a 40 ms tick.
ScenarioConfig large_n64(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kTurquois;
  cfg.n = 64;
  cfg.distribution = ProposalDist::kDivergent;
  cfg.repetitions = 2;
  cfg.seed = seed;
  cfg.tick_interval = 40 * kMillisecond;
  cfg.medium.broadcast_rate_bps = 11e6;
  return cfg;
}

/// The same shape multi-hop: grid placement with waypoint motion, gossip
/// relay on, consensus audit on. Two repetitions cross a repetition
/// boundary (pool lifetime is per repetition).
ScenarioConfig spatial_n64() {
  ScenarioConfig cfg = large_n64(0x1A46E);
  cfg.spatial.placement = spatial::Placement::kGrid;
  cfg.spatial.radius_m = 180.0;
  cfg.spatial.mobility = spatial::Mobility::kWaypoint;
  return cfg;
}

/// Runs `cfg` traced and checks the sharing identities per repetition;
/// `deliveries` names the counter of non-loopback deliveries.
void expect_shared(ScenarioConfig cfg, const std::string& deliveries) {
  CounterSink sink;
  cfg.trace_sink = &sink;
  const ScenarioResult result = run_scenario(cfg);
  EXPECT_EQ(result.failed_runs, 0u);
  EXPECT_EQ(result.safety_violations, 0u);
  ASSERT_EQ(sink.reps.size(), cfg.repetitions);
  for (std::size_t rep = 0; rep < sink.reps.size(); ++rep) {
    std::map<std::string, std::uint64_t>& c = sink.reps[rep];
    const std::uint64_t broadcasts = c["turquois.broadcasts"];
    ASSERT_GT(broadcasts, 0u) << "rep " << rep;
    EXPECT_LE(c["exchange_pool.misses"], broadcasts) << "rep " << rep;
    EXPECT_EQ(c["exchange_pool.acquires"], broadcasts + c[deliveries])
        << "rep " << rep;
    EXPECT_EQ(c["exchange_pool.acquires"],
              c["exchange_pool.hits"] + c["exchange_pool.misses"])
        << "rep " << rep;
  }
}

TEST(ExchangePool, ReceiversShareOnePreparePerPayloadAtN64MultiHop) {
#if !TURQ_TRACE_ENABLED
  GTEST_SKIP() << "the counters come from the trace";
#endif
  expect_shared(spatial_n64(), "spatial.relay.deliveries");
}

TEST(ExchangePool, ReceiversShareOnePreparePerPayloadAtN64SingleHop) {
#if !TURQ_TRACE_ENABLED
  GTEST_SKIP() << "the counters come from the trace";
#endif
  expect_shared(large_n64(3), "medium.deliveries");
}

/// What a run put on the wire and how its receivers shared the work: one
/// SHA-256 over every broadcast frame handed to the medium (source id,
/// length and bytes, in hand-over order) and the exchange-pool counters
/// summed over the repetitions.
struct WireAnswer {
  std::string frames_sha256;
  std::uint64_t frames = 0;
  std::uint64_t acquires = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t relay_forwards = 0;  // not pinned; shows the run multi-hop
};

template <typename Run>
WireAnswer wire_answer(ScenarioConfig cfg, Run run) {
  crypto::Sha256 h;
  WireAnswer out;
  cfg.broadcast_tap = [&](ProcessId src, BytesView frame) {
    std::uint8_t head[8];
    put_le(put_le(head, static_cast<std::uint32_t>(src)),
           static_cast<std::uint32_t>(frame.size()));
    h.update(BytesView(head, sizeof(head)));
    h.update(frame);
    ++out.frames;
  };
  CounterSink sink;
  cfg.trace_sink = &sink;
  const ScenarioResult result = run(cfg);
  EXPECT_EQ(result.safety_violations, 0u);
  out.frames_sha256 = to_hex(h.finalize());
  for (auto& rep : sink.reps) {
    out.acquires += rep["exchange_pool.acquires"];
    out.hits += rep["exchange_pool.hits"];
    out.misses += rep["exchange_pool.misses"];
    out.relay_forwards += rep["spatial.relay.forwards"];
  }
  return out;
}

void expect_answer(const WireAnswer& got, const WireAnswer& want) {
  EXPECT_EQ(got.frames_sha256, want.frames_sha256);
  EXPECT_EQ(got.frames, want.frames);
  EXPECT_EQ(got.acquires, want.acquires);
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
  // Printed on a mismatch, so a deliberate change to the wire format can
  // re-take the answer.
  if (!::testing::Test::HasFailure()) return;
  std::printf("{\"%s\", %llu, %llu, %llu, %llu}\n",
              got.frames_sha256.c_str(),
              static_cast<unsigned long long>(got.frames),
              static_cast<unsigned long long>(got.acquires),
              static_cast<unsigned long long>(got.hits),
              static_cast<unsigned long long>(got.misses));
}

// The known answers below were taken before senders prepared their own
// exchange-pool entries and before the encoder wrote the header room
// itself: every frame byte and every pool counter must stay as it was.

TEST(ExchangePool, ByzantineDivergentWireMatchesKnownAnswer) {
#if !TURQ_TRACE_ENABLED
  GTEST_SKIP() << "the counters come from the trace";
#endif
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kTurquois;
  cfg.n = 7;
  cfg.distribution = ProposalDist::kDivergent;
  cfg.plan = faultplan::plan_from_name("byzantine", nullptr);
  cfg.repetitions = 8;
  cfg.seed = 0xB42;
  expect_answer(wire_answer(cfg, run_scenario),
                {"d7f88bcc6fa72d6e77c4fa64257e3354"
                 "7e955409342e7b27872d3a0f52cd86e8",
                 766, 3434, 2860, 574});
}

TEST(ExchangePool, MultiHopRelayWireMatchesKnownAnswer) {
#if !TURQ_TRACE_ENABLED
  GTEST_SKIP() << "the counters come from the trace";
#endif
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kTurquois;
  cfg.n = 9;
  cfg.distribution = ProposalDist::kDivergent;
  cfg.repetitions = 4;
  cfg.seed = 0x4E1A;
  cfg.spatial.placement = spatial::Placement::kGrid;
  cfg.spatial.radius_m = 180.0;
  cfg.spatial.mobility = spatial::Mobility::kWaypoint;
  const WireAnswer got = wire_answer(cfg, run_scenario);
  EXPECT_GT(got.relay_forwards, 0u);
  expect_answer(got, {"1cf7a8c9ddac9d3c8aef788fd6569768"
                      "eea119b7de1c0d97cf301017d8df8c8a",
                      3616, 3654, 2982, 672});
}

TEST(ExchangePool, MuxServiceWireMatchesKnownAnswer) {
#if !TURQ_TRACE_ENABLED
  GTEST_SKIP() << "the counters come from the trace";
#endif
  ScenarioConfig cfg;
  cfg.n = 4;
  cfg.seed = 0x5E4;
  cfg.repetitions = 2;
  cfg.service.enabled = true;
  cfg.service.pipeline_depth = 4;
  cfg.service.batch = 4;
  cfg.service.offered_load = 4000.0;
  cfg.service.total_requests = 48;
  expect_answer(wire_answer(cfg, service::run_service),
                {"b211c9952acff38f78262ceb4cc4917c"
                 "c2a00725734db691b43ac5afb1cc950f",
                 166, 1374, 990, 384});
}

}  // namespace
}  // namespace turq::harness
