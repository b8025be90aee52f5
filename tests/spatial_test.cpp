// Tests for the spatial multi-hop layer: unit-disk geometry (radius edge,
// carrier-sense range), hidden-terminal capture at the medium, the gossip
// relay (flooding across hops, duplicate suppression), spec round-trips,
// and the harness-level determinism contracts — random-waypoint runs are
// bit-identical at any --jobs value, and radius=inf reproduces the
// committed single-hop Table 1 baseline byte for byte modulo environment.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "harness/table.hpp"
#include "net/medium.hpp"
#include "sim/simulator.hpp"
#include "spatial/relay.hpp"
#include "spatial/topology.hpp"

namespace turq::spatial {
namespace {

SpatialConfig grid_config(double radius) {
  SpatialConfig cfg;
  cfg.placement = Placement::kGrid;
  cfg.radius_m = radius;
  cfg.area_m = 300.0;
  return cfg;
}

// ------------------------------------------------------------- geometry ---

TEST(Topology, NodeExactlyAtRadiusIsReachable) {
  SpatialConfig cfg = grid_config(100.0);
  Topology topo(cfg, 2, Rng(1));
  topo.pin(0, {0.0, 0.0});
  topo.pin(1, {100.0, 0.0});  // exactly on the disk edge: in range
  EXPECT_TRUE(topo.reachable(0, 1, 0));
  EXPECT_TRUE(topo.reachable(1, 0, 0));
  topo.pin(1, {100.001, 0.0});  // just beyond: out of range
  EXPECT_FALSE(topo.reachable(0, 1, 0));
}

TEST(Topology, CarrierSenseExtendsBeyondDeliveryRange) {
  SpatialConfig cfg = grid_config(100.0);
  cfg.cs_factor = 2.0;
  Topology topo(cfg, 2, Rng(1));
  topo.pin(0, {0.0, 0.0});
  topo.pin(1, {150.0, 0.0});  // beyond delivery, within sensing
  EXPECT_FALSE(topo.reachable(0, 1, 0));
  EXPECT_TRUE(topo.carrier_sense(0, 1, 0));
  topo.pin(1, {200.001, 0.0});  // beyond sensing too
  EXPECT_FALSE(topo.carrier_sense(0, 1, 0));
}

TEST(Topology, PlacementIsDeterministicInSeed) {
  SpatialConfig cfg = grid_config(120.0);
  cfg.placement = Placement::kRandom;
  Topology a(cfg, 8, Rng(42));
  Topology b(cfg, 8, Rng(42));
  Topology c(cfg, 8, Rng(43));
  bool any_differs = false;
  for (ProcessId id = 0; id < 8; ++id) {
    const Position pa = a.position(id, 0);
    const Position pb = b.position(id, 0);
    EXPECT_DOUBLE_EQ(pa.x, pb.x);
    EXPECT_DOUBLE_EQ(pa.y, pb.y);
    const Position pc = c.position(id, 0);
    any_differs = any_differs || pa.x != pc.x || pa.y != pc.y;
  }
  EXPECT_TRUE(any_differs);  // a different seed places differently
}

TEST(Topology, SpecSerializationRoundTrips) {
  SpatialConfig cfg = grid_config(137.5);
  cfg.cs_factor = 1.9;
  cfg.fading_sigma_db = 4.0;
  cfg.fading_alpha = 2.7;
  cfg.mobility = Mobility::kWaypoint;
  cfg.speed_min_mps = 0.5;
  cfg.speed_max_mps = 2.25;
  cfg.pause = 750 * kMillisecond;

  SpatialConfig parsed;
  std::string error;
  ASSERT_TRUE(parse_topology(to_spec_topology(cfg), &parsed, &error)) << error;
  ASSERT_TRUE(parse_mobility(to_spec_mobility(cfg), &parsed, &error)) << error;
  EXPECT_EQ(parsed.placement, cfg.placement);
  EXPECT_DOUBLE_EQ(parsed.radius_m, cfg.radius_m);
  EXPECT_DOUBLE_EQ(parsed.area_m, cfg.area_m);
  EXPECT_DOUBLE_EQ(parsed.cs_factor, cfg.cs_factor);
  EXPECT_DOUBLE_EQ(parsed.fading_sigma_db, cfg.fading_sigma_db);
  EXPECT_DOUBLE_EQ(parsed.fading_alpha, cfg.fading_alpha);
  EXPECT_EQ(parsed.mobility, cfg.mobility);
  EXPECT_DOUBLE_EQ(parsed.speed_min_mps, cfg.speed_min_mps);
  EXPECT_DOUBLE_EQ(parsed.speed_max_mps, cfg.speed_max_mps);
  EXPECT_EQ(parsed.pause, cfg.pause);

  SpatialConfig single;
  ASSERT_TRUE(parse_topology("single", &single, &error)) << error;
  EXPECT_EQ(to_spec_topology(single), "single");
  EXPECT_EQ(to_spec_mobility(single), "static");
}

// -------------------------------------------------- medium interactions ---

struct SpatialRig {
  sim::Simulator sim;
  net::Medium medium;
  Topology topo;
  std::map<ProcessId, std::vector<std::pair<ProcessId, Bytes>>> received;

  SpatialRig(const SpatialConfig& cfg, std::uint32_t n,
             std::uint64_t seed = 1)
      : medium(sim, net::MediumConfig{}, Rng(seed)),
        topo(cfg, n, Rng(seed).derive("spatial", 0)) {
    medium.set_spatial(&topo);
  }

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

TEST(SpatialMedium, OutOfRangeReceiverCountsUnreachable) {
  SpatialConfig cfg = grid_config(100.0);
  SpatialRig rig(cfg, 3);
  rig.topo.pin(0, {0.0, 0.0});
  rig.topo.pin(1, {90.0, 0.0});    // in range of 0
  rig.topo.pin(2, {1000.0, 0.0});  // far out of range
  for (ProcessId id = 0; id < 3; ++id) rig.attach(id);
  rig.broadcast(0, Bytes(10, 0xAA));
  rig.sim.run();
  ASSERT_EQ(rig.received[1].size(), 1u);
  EXPECT_TRUE(rig.received[2].empty());
  EXPECT_EQ(rig.medium.stats().deliveries, 1u);
  EXPECT_EQ(rig.medium.stats().unreachable, 1u);
  EXPECT_EQ(rig.medium.stats().omissions, 0u);  // geometry, not injection
}

TEST(SpatialMedium, ColinearHiddenTerminalTripleCorruptsTheMiddle) {
  // A --90m-- B --90m-- C with delivery radius 100 m and sense radius
  // 100 m (cs_factor 1): A and C each reach B but cannot sense each other,
  // so both transmit concurrently and B decodes neither frame.
  SpatialConfig cfg = grid_config(100.0);
  cfg.cs_factor = 1.0;
  SpatialRig rig(cfg, 3);
  rig.topo.pin(0, {0.0, 0.0});
  rig.topo.pin(1, {90.0, 0.0});
  rig.topo.pin(2, {180.0, 0.0});
  for (ProcessId id = 0; id < 3; ++id) rig.attach(id);
  rig.broadcast(0, Bytes(10, 0xAA));
  rig.broadcast(2, Bytes(10, 0xCC));
  rig.sim.run();
  EXPECT_TRUE(rig.received[1].empty());  // both frames corrupted at B
  EXPECT_EQ(rig.medium.stats().deliveries, 0u);
  EXPECT_GE(rig.medium.stats().hidden_terminal, 1u);
  EXPECT_GE(rig.medium.stats().frames_collided, 2u);
}

TEST(SpatialMedium, SensingSendersStillDeferToEachOther) {
  // Same triple but with a sense range covering A--C: the second sender
  // defers, both frames are delivered cleanly in turn.
  SpatialConfig cfg = grid_config(100.0);
  cfg.cs_factor = 2.0;  // sense radius 200 m >= 180 m
  SpatialRig rig(cfg, 3);
  rig.topo.pin(0, {0.0, 0.0});
  rig.topo.pin(1, {90.0, 0.0});
  rig.topo.pin(2, {180.0, 0.0});
  for (ProcessId id = 0; id < 3; ++id) rig.attach(id);
  rig.broadcast(0, Bytes(10, 0xAA));
  rig.broadcast(2, Bytes(10, 0xCC));
  rig.sim.run();
  ASSERT_EQ(rig.received[1].size(), 2u);  // B hears both, in some order
  EXPECT_EQ(rig.medium.stats().hidden_terminal, 0u);
}

// ---------------------------------------------------------------- relay ---

TEST(SeqWindow, MarksNewSeqsOnceAndDetectsDuplicates) {
  SeqWindow w(8);
  EXPECT_TRUE(w.mark(0));
  EXPECT_TRUE(w.mark(3));
  EXPECT_TRUE(w.mark(1));
  EXPECT_FALSE(w.mark(0));  // duplicate
  EXPECT_FALSE(w.mark(3));
  EXPECT_TRUE(w.seen(1));
  EXPECT_FALSE(w.seen(2));  // in-window, never marked
}

TEST(SeqWindow, MemoryStaysBoundedAndEvictedSeqsReadAsSeen) {
  // The dense bitmap this replaced grew with the highest seq ever marked;
  // the window must stay at its fixed capacity and slide instead.
  SeqWindow w(8);
  for (std::uint32_t seq = 0; seq < 1000; ++seq) {
    EXPECT_TRUE(w.mark(seq)) << seq;
  }
  EXPECT_EQ(w.capacity(), 8u);
  EXPECT_EQ(w.base(), 1000u - 8u);
  // Everything evicted off the back is conservatively a duplicate: a stale
  // forward of an old frame must never be re-delivered or re-flooded.
  EXPECT_FALSE(w.mark(0));
  EXPECT_FALSE(w.mark(500));
  EXPECT_TRUE(w.seen(0));
  // In-window seqs skipped by a jump are still fresh.
  SeqWindow jumpy(8);
  EXPECT_TRUE(jumpy.mark(0));
  EXPECT_TRUE(jumpy.mark(100));  // jump: base slides to 93, ring cleared
  EXPECT_TRUE(jumpy.mark(95));   // landed inside the new window: new
  EXPECT_FALSE(jumpy.mark(95));
  EXPECT_FALSE(jumpy.mark(0));   // behind the new window
}

TEST(SeqWindow, SerialArithmeticSurvivesUint32Wrap) {
  // Walk the base across the 2^32 boundary in big strides (serial-number
  // comparison only needs each stride < 2^31). The old dense bitmap
  // aliased seq k and seq k + 2^32 onto one slot; the window must keep
  // pre-wrap and post-wrap seqs distinct.
  SeqWindow w(8);
  EXPECT_TRUE(w.mark(0x7FFFFFF0u));
  EXPECT_TRUE(w.mark(0xF0000000u));
  EXPECT_TRUE(w.mark(0x10u));  // wrapped past 2^32: still "ahead"
  EXPECT_EQ(w.base(), 0x10u - 7u);
  EXPECT_FALSE(w.mark(0x10u));         // post-wrap duplicate is caught
  EXPECT_TRUE(w.mark(0xCu));           // in-window, unmarked: fresh
  EXPECT_FALSE(w.mark(0xF0000000u));   // pre-wrap seq stays "behind", no alias
  EXPECT_TRUE(w.seen(0xF0000000u));
}

TEST(Relay, FloodsAcrossTwoHops) {
  // A --120m-- B --120m-- C with radius 150 m: A cannot reach C directly;
  // the relay's rebroadcast at B must carry A's frame across.
  SpatialConfig cfg = grid_config(150.0);
  SpatialRig rig(cfg, 3, /*seed=*/7);
  rig.topo.pin(0, {0.0, 0.0});
  rig.topo.pin(1, {120.0, 0.0});
  rig.topo.pin(2, {240.0, 0.0});
  RelayFabric relay(rig.sim, rig.medium, RelayConfig{}, 3,
                    Rng(7).derive("relay", 0));
  std::map<ProcessId, std::vector<ProcessId>> got;  // receiver -> origins
  for (ProcessId id = 0; id < 3; ++id) {
    relay.attach(id, [&got, id](ProcessId src, BytesView, bool) {
      got[id].push_back(src);
    });
  }
  relay.broadcast(0, std::make_shared<const Bytes>(Bytes(12, 0xAB)),
                  /*replace_queued=*/true);
  rig.sim.run();
  ASSERT_EQ(got[1].size(), 1u);
  EXPECT_EQ(got[1][0], 0u);  // src is the origin, not the forwarder
  ASSERT_EQ(got[2].size(), 1u);
  EXPECT_EQ(got[2][0], 0u);
  const RelayFabric::Stats stats = relay.stats();
  EXPECT_EQ(stats.origin_frames, 1u);
  EXPECT_GE(stats.forwards, 1u);  // B's rebroadcast carried the frame
  EXPECT_EQ(stats.deliveries, 2u);
}

TEST(Relay, DenseNeighbourhoodSuppressesRedundantForwards) {
  // Every node hears every other: after the origin frame and the first
  // rebroadcast, the duplicate counter (threshold 2) cancels the rest.
  SpatialConfig cfg = grid_config(150.0);
  const std::uint32_t n = 5;
  SpatialRig rig(cfg, n, /*seed=*/11);
  for (ProcessId id = 0; id < n; ++id) {
    rig.topo.pin(id, {10.0 * id, 0.0});
  }
  RelayFabric relay(rig.sim, rig.medium, RelayConfig{}, n,
                    Rng(11).derive("relay", 0));
  for (ProcessId id = 0; id < n; ++id) {
    relay.attach(id, [](ProcessId, BytesView, bool) {});
  }
  relay.broadcast(0, std::make_shared<const Bytes>(Bytes(12, 0xEE)),
                  /*replace_queued=*/true);
  rig.sim.run();
  const RelayFabric::Stats stats = relay.stats();
  EXPECT_EQ(stats.deliveries, n - 1);  // everyone got it exactly once
  EXPECT_GE(stats.suppressed, 1u);     // the storm was damped
  // Each non-origin node either forwarded or was suppressed, never both.
  EXPECT_EQ(stats.forwards + stats.suppressed, n - 1);
  EXPECT_GE(stats.duplicates, 1u);
}

}  // namespace
}  // namespace turq::spatial

// -------------------------------------------------- harness determinism ---

namespace turq::harness {
namespace {

std::string strip_environment(const std::string& json) {
  std::string out;
  std::istringstream in(json);
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"environment\"") == std::string::npos) out += line + "\n";
  }
  return out;
}

ScenarioConfig waypoint_scenario(std::uint32_t jobs) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kTurquois;
  cfg.n = 7;
  cfg.distribution = ProposalDist::kDivergent;
  cfg.repetitions = 6;
  cfg.seed = 0xD15C;
  cfg.jobs = jobs;
  cfg.spatial.placement = spatial::Placement::kGrid;
  cfg.spatial.radius_m = 180.0;
  cfg.spatial.mobility = spatial::Mobility::kWaypoint;
  return cfg;
}

TEST(SpatialHarness, WaypointRunsBitIdenticalAcrossJobCounts) {
  const auto report_for = [](std::uint32_t jobs) {
    BenchReport report;
    report.name = "spatial_jobs";
    report.seed = 0xD15C;
    report.jobs = jobs;
    report.wall_seconds = jobs * 0.25;  // deliberately different per run
    report.cells.push_back(make_cell(run_scenario(waypoint_scenario(jobs))));
    return to_json(report);
  };
  const std::string seq = report_for(1);
  const std::string par = report_for(8);
  EXPECT_EQ(strip_environment(seq), strip_environment(par));
}

TEST(SpatialHarness, InfiniteRadiusMatchesNonSpatialRunExactly) {
  ScenarioConfig plain;
  plain.n = 4;
  plain.repetitions = 4;
  plain.seed = 77;
  ScenarioConfig spatial_inf = plain;
  spatial_inf.spatial.placement = spatial::Placement::kGrid;
  spatial_inf.spatial.radius_m = spatial::kInfiniteRadius;
  spatial_inf.spatial.mobility = spatial::Mobility::kWaypoint;

  const auto report_for = [](const ScenarioConfig& cfg) {
    BenchReport report;
    report.name = "radius_inf";
    report.seed = cfg.seed;
    report.cells.push_back(make_cell(run_scenario(cfg)));
    return to_json(report);
  };
  // Not just statistically close: byte-identical, spatial fields absent.
  const std::string a = report_for(plain);
  EXPECT_EQ(strip_environment(a), strip_environment(report_for(spatial_inf)));
  EXPECT_EQ(a.find("\"spatial\""), std::string::npos);
  EXPECT_EQ(a.find("\"unreachable\""), std::string::npos);
}

TEST(SpatialHarness, InfiniteRadiusReproducesTable1Golden) {
  // The committed BENCH_table1_failure_free.json was produced by the
  // single-hop bench (--quick --jobs 1). Re-running the same grid with a
  // radius=inf topology configured must reproduce it byte for byte modulo
  // the environment line: an infinite radius IS the single-hop medium.
  std::ifstream golden_in(TABLE1_GOLDEN_FILE, std::ios::binary);
  ASSERT_TRUE(golden_in) << "missing golden " << TABLE1_GOLDEN_FILE;
  std::ostringstream golden_bytes;
  golden_bytes << golden_in.rdbuf();

  TableSpec spec;
  spec.group_sizes = {4, 7, 10};  // the --quick preset
  ScenarioConfig base;
  base.repetitions = 10;
  base.seed = 2010;
  base.jobs = 4;  // any value; the report is jobs-invariant
  base.spatial.placement = spatial::Placement::kGrid;
  base.spatial.radius_m = spatial::kInfiniteRadius;

  BenchReport report;
  report.name = "table1_failure_free";
  report.seed = base.seed;
  report.jobs = 4;
  for (const ScenarioResult& r : run_table(spec, base)) {
    report.cells.push_back(make_cell(r));
  }
  EXPECT_EQ(strip_environment(golden_bytes.str()),
            strip_environment(to_json(report)));
}

TEST(SpatialHarness, MultiHopCampaignStyleRunDecides) {
  ScenarioConfig cfg;
  cfg.n = 7;
  cfg.repetitions = 3;
  cfg.seed = 5;
  cfg.spatial = spatial::SpatialConfig{};
  cfg.spatial.placement = spatial::Placement::kGrid;
  cfg.spatial.radius_m = 180.0;
  const ScenarioResult r = run_scenario(cfg);
  EXPECT_EQ(r.failed_runs, 0u);
  EXPECT_EQ(r.safety_violations, 0u);
  ASSERT_TRUE(r.spatial_total.has_value());
  EXPECT_GT(r.spatial_total->samples, 0u);
  EXPECT_GT(r.spatial_total->relay.origin_frames, 0u);
  EXPECT_GT(r.medium_total.unreachable, 0u);  // the grid is genuinely sparse
  ASSERT_TRUE(r.sigma.has_value());  // spatial scenarios force sigma tracking
  ASSERT_TRUE(r.audit.has_value());
  EXPECT_TRUE(r.audit->passed());
}

TEST(SpatialHarness, ValidateRejectsDegenerateSpatialConfigs) {
  ScenarioConfig cfg;
  cfg.spatial.placement = spatial::Placement::kGrid;
  cfg.spatial.radius_m = 0.0;
  EXPECT_TRUE(validate(cfg).has_value());

  cfg.spatial.radius_m = 150.0;
  cfg.spatial.cs_factor = 0.5;
  EXPECT_TRUE(validate(cfg).has_value());

  cfg.spatial.cs_factor = 2.0;
  cfg.spatial.mobility = spatial::Mobility::kWaypoint;
  cfg.spatial.speed_min_mps = 0.0;
  EXPECT_TRUE(validate(cfg).has_value());

  cfg.spatial.speed_min_mps = 1.0;
  cfg.relay.counter_threshold = 0;
  EXPECT_TRUE(validate(cfg).has_value());

  cfg.relay.counter_threshold = 2;
  EXPECT_FALSE(validate(cfg).has_value());
}

}  // namespace
}  // namespace turq::harness
