// Microbenchmark for the spatial stack: a 16-node grid in a 400 m area
// with radius 150 m and random-waypoint motion, driven through the gossip
// relay. Each iteration broadcasts one application frame from a rotating
// origin and drains the simulator, so the measured region covers the full
// multi-hop path: topology queries (mobility advance + unit disk), the
// medium's per-receiver delivery loop with carrier-sense arbitration, and
// the relay's assessment timers, duplicate counters, and rebroadcasts.
//
// Metrics (schema turquois-perf/1, harness/report.hpp):
//   sim_events_per_wall_s — simulator events executed per wall second; the
//                     gated number (tools/check_perf.py, at most a 30 %
//                     drop against the committed BENCH_spatial_grid.json)
//   floods_per_wall_s — origin frames fully flooded per wall second
//   relay_coverage  — unique deliveries per origin frame / (n-1): how much
//                     of the group each flood reached (sanity, not gated)
//
// Unlike sim_micro there is no steady_state_allocs metric: the relay's
// duplicate-suppression table and per-frame assessment state allocate by
// design, so the zero-alloc claim does not extend here.
//
// Usage: spatial_grid [--quick] [--json PATH]

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "harness/flags.hpp"
#include "harness/report.hpp"
#include "net/medium.hpp"
#include "sim/simulator.hpp"
#include "spatial/relay.hpp"
#include "spatial/topology.hpp"

namespace turq {
namespace {

using harness::PerfReport;
using harness::seconds_since;
using enum harness::Better;
using enum harness::Domain;

void bench_grid(std::uint64_t frames, PerfReport& report) {
  constexpr std::uint32_t kNodes = 16;
  spatial::SpatialConfig scfg;
  scfg.placement = spatial::Placement::kGrid;
  scfg.radius_m = 150.0;
  scfg.area_m = 400.0;
  scfg.mobility = spatial::Mobility::kWaypoint;

  sim::Simulator sim;
  net::Medium medium(sim, net::MediumConfig{}, Rng::stream(7, "medium", 0));
  spatial::Topology topo(scfg, kNodes, Rng::stream(7, "spatial", 0));
  medium.set_spatial(&topo);
  spatial::RelayFabric relay(sim, medium, spatial::RelayConfig{}, kNodes,
                             Rng::stream(7, "relay", 0));
  for (ProcessId id = 0; id < kNodes; ++id) {
    relay.attach(id, [](ProcessId, BytesView, bool) {});
  }

  const auto payload = std::make_shared<const Bytes>(Bytes(120, 0xAB));
  // Warmup: size the relay tables and move past the initial waypoint pause.
  for (std::uint64_t i = 0; i < frames / 20 + 8; ++i) {
    relay.broadcast(static_cast<ProcessId>(i % kNodes), payload,
                    /*replace_queued=*/false);
    sim.run_until(sim.now() + kSecond);
  }

  const std::uint64_t executed_before = sim.events_executed();
  const spatial::RelayFabric::Stats before = relay.stats();
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < frames; ++i) {
    // One flood per round trip: broadcast, then drain until the gossip dies
    // out, so every iteration measures a complete multi-hop dissemination.
    relay.broadcast(static_cast<ProcessId>(i % kNodes), payload,
                    /*replace_queued=*/false);
    sim.run_until(sim.now() + kSecond);
  }
  const double elapsed = seconds_since(start);
  const spatial::RelayFabric::Stats after = relay.stats();

  const std::uint64_t executed = sim.events_executed() - executed_before;
  const std::uint64_t origins = after.origin_frames - before.origin_frames;
  const std::uint64_t deliveries = after.deliveries - before.deliveries;

  report.add("sim_events_per_wall_s", executed / elapsed, "1/s", kHost, kHigher)
      .max_drop = harness::kThroughputMaxDrop;
  report.add("events_executed", executed, "count", kSim, kLower);
  report.add("floods_per_wall_s", origins / elapsed, "1/s", kHost, kHigher);
  report.add("origin_frames", origins, "count", kSim, kHigher);
  report.add("relay_deliveries", deliveries, "count", kSim, kHigher);
  report.add("relay_coverage",
             static_cast<double>(deliveries) / (origins * (kNodes - 1.0)),
             "fraction", kSim, kHigher);
}

int run(int argc, char** argv) {
  bool quick = false;
  std::string json_path;
  harness::parse_flags(
      argc, argv,
      {harness::flag("--quick", "a tenth of the iterations (CI smoke run)",
                     quick),
       harness::flag("--json", "<path>",
                     "write the turquois-perf/1 report", json_path)});

  PerfReport report;
  report.name = "spatial_grid";
  report.quick = quick;
  const auto started = std::chrono::steady_clock::now();
  bench_grid(quick ? 2'000 : 20'000, report);
  report.wall_seconds = seconds_since(started);

  harness::print_metrics(report);
  std::fprintf(stderr, "wall-clock: %.2f s\n", *report.wall_seconds);
  return harness::finish_perf_report(report, json_path);
}

}  // namespace
}  // namespace turq

int main(int argc, char** argv) { return turq::run(argc, argv); }
