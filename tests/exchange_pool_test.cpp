// End-to-end checks that the prepared-exchange cache
// (turquois/exchange_pool.hpp) is shared across receivers, read from each
// repetition's trace counters rather than from host timing.
//
// Every delivery, including a sender's loopback of its own broadcast, is
// one acquire, so acquires == broadcasts + deliveries. Receivers that share
// the pool pay one prepare (a miss) per distinct payload, and each
// broadcast adds at most one distinct payload, so misses <= broadcasts.
// Without sharing, every receiver would prepare each payload it hears, and
// misses would grow with n × distinct payloads — at n = 64 far beyond the
// broadcast count. See DESIGN.md §14.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
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

}  // namespace
}  // namespace turq::harness
