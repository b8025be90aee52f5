// End-to-end bit-identity test for the shared prepared-exchange cache
// (turquois/exchange_pool.hpp): a multi-hop spatial run at n = 64 must
// produce the same report bytes — pooled statistics, medium and spatial
// counters, consensus-audit verdicts — with the pool as with the legacy
// per-receiver verification path (exchange_pool = false).
//
// This is the end-to-end companion to the unit-level guarantee: verdicts
// are pure functions of (payload bytes, key infrastructure), so sharing
// them across receivers changes nothing observable. See DESIGN.md §14.
#include <gtest/gtest.h>

#include <string>

#include "harness/experiment.hpp"
#include "harness/report.hpp"

namespace turq::harness {
namespace {

/// A multi-hop n = 64 Turquois scenario on the large-n channel shape
/// (11 Mbps, 40 ms tick): grid placement with waypoint motion, gossip
/// relay on, consensus audit on. Two repetitions keep the test quick
/// while still crossing a repetition boundary (pool lifetime is per rep).
ScenarioConfig spatial_n64(bool pool) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kTurquois;
  cfg.n = 64;
  cfg.distribution = ProposalDist::kDivergent;
  cfg.repetitions = 2;
  cfg.seed = 0x1A46E;
  cfg.exchange_pool = pool;
  cfg.tick_interval = 40 * kMillisecond;
  cfg.medium.broadcast_rate_bps = 11e6;
  cfg.spatial.placement = spatial::Placement::kGrid;
  cfg.spatial.radius_m = 180.0;
  cfg.spatial.mobility = spatial::Mobility::kWaypoint;
  return cfg;
}

/// The report bytes collapse the full observable surface (latencies,
/// medium, audit, spatial counters). The environment is fixed, so the
/// whole document is compared.
std::string report_for(const ScenarioConfig& cfg) {
  BenchReport report;
  report.name = "exchange_pool_test";
  report.seed = cfg.seed;
  report.cells.push_back(make_cell(run_scenario(cfg)));
  return to_json(report);
}

TEST(ExchangePool, OffIsBitIdenticalAtN64MultiHop) {
  const std::string legacy = report_for(spatial_n64(false));
  const std::string pooled = report_for(spatial_n64(true));
  EXPECT_NE(legacy.find("\"spatial\""), std::string::npos);
  EXPECT_EQ(legacy, pooled);
}

}  // namespace
}  // namespace turq::harness
