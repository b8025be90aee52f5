// Ablation C — broadcast vs. unicast utilization of the shared medium.
//
// The paper's core systems argument: on a wireless channel the cost of
// reaching n-1 receivers by broadcast is one frame; by reliable unicast it
// is n-1 frames plus MAC ACKs. This ablation measures frames and airtime
// to disseminate one 64-byte payload to all receivers, for both transports
// and for the broadcast basic-rate choice (2 vs 11 Mb/s).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/rng.hpp"
#include "harness/flags.hpp"
#include "harness/report.hpp"
#include "net/broadcast_endpoint.hpp"
#include "net/medium.hpp"
#include "net/reliable_channel.hpp"
#include "sim/simulator.hpp"

using namespace turq;

namespace {

struct Outcome {
  std::uint64_t frames = 0;
  double airtime_ms = 0;
  std::uint64_t delivered = 0;
};

Outcome run_broadcast(std::uint32_t n, double rate_bps) {
  sim::Simulator sim;
  net::MediumConfig cfg;
  cfg.broadcast_rate_bps = rate_bps;
  net::Medium medium(sim, cfg, Rng(1));
  std::uint64_t delivered = 0;
  std::vector<std::unique_ptr<net::BroadcastEndpoint>> eps;
  for (ProcessId id = 0; id < n; ++id) {
    eps.push_back(std::make_unique<net::BroadcastEndpoint>(sim, medium, id));
    eps.back()->set_handler(
        [&delivered](ProcessId, BytesView) { ++delivered; });
  }
  eps[0]->send(std::make_shared<const Bytes>(64, 0xAA));
  sim.run();
  return Outcome{
      .frames = medium.stats().broadcast_frames + medium.stats().unicast_frames,
      .airtime_ms = to_milliseconds(medium.stats().airtime),
      .delivered = delivered};
}

Outcome run_unicast(std::uint32_t n) {
  sim::Simulator sim;
  net::Medium medium(sim, net::MediumConfig{}, Rng(1));
  std::uint64_t delivered = 0;
  std::vector<std::unique_ptr<net::TcpHost>> hosts;
  for (ProcessId id = 0; id < n; ++id) {
    hosts.push_back(
        std::make_unique<net::TcpHost>(sim, medium, id, net::TcpConfig{}));
    hosts.back()->set_handler(
        [&delivered](ProcessId, BytesView) { ++delivered; });
  }
  for (ProcessId dst = 0; dst < n; ++dst) {
    hosts[0]->send(dst, Bytes(64, 0xAA));
  }
  sim.run_until(2 * kSecond);
  return Outcome{.frames = medium.stats().unicast_frames,
                 .airtime_ms = to_milliseconds(medium.stats().airtime),
                 .delivered = delivered};
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  harness::parse_flags(argc, argv,
                       {harness::flag("--json", "<path>",
                                      "write a machine-readable report",
                                      json_path)});
  harness::BenchReport report;
  report.name = "ablation_medium";
  report.seed = 1;  // the fixed Rng(1) used by both transports
  const auto started = std::chrono::steady_clock::now();
  const auto record = [&report](const char* transport, std::uint32_t n,
                                const Outcome& o, double rate_bps) {
    harness::ReportCell cell;
    cell.protocol = transport;
    cell.n = n;
    cell.distribution = "n/a";
    cell.fault_load = "failure-free";
    cell.repetitions = 1;
    cell.extra["rate_bps"] = rate_bps;
    cell.extra["frames"] = static_cast<double>(o.frames);
    cell.extra["airtime_ms"] = o.airtime_ms;
    cell.extra["delivered"] = static_cast<double>(o.delivered);
    report.cells.push_back(std::move(cell));
  };

  std::printf(
      "Ablation C — cost of delivering one 64-byte message to n-1 peers\n\n");
  std::printf("%4s | %28s | %28s | %28s\n", "n", "broadcast @2Mb/s",
              "broadcast @11Mb/s", "reliable unicast (TCP)");
  std::printf("%4s | %9s %9s %8s | %9s %9s %8s | %9s %9s %8s\n", "",
              "frames", "air(ms)", "recv", "frames", "air(ms)", "recv",
              "frames", "air(ms)", "recv");
  std::printf("%s\n", std::string(100, '-').c_str());
  for (const std::uint32_t n : {4u, 7u, 10u, 13u, 16u}) {
    const Outcome b2 = run_broadcast(n, 2e6);
    const Outcome b11 = run_broadcast(n, 11e6);
    const Outcome u = run_unicast(n);
    record("broadcast", n, b2, 2e6);
    record("broadcast", n, b11, 11e6);
    record("tcp-unicast", n, u, 0);
    std::printf(
        "%4u | %9llu %9.3f %8llu | %9llu %9.3f %8llu | %9llu %9.3f %8llu\n",
        n, static_cast<unsigned long long>(b2.frames), b2.airtime_ms,
        static_cast<unsigned long long>(b2.delivered),
        static_cast<unsigned long long>(b11.frames), b11.airtime_ms,
        static_cast<unsigned long long>(b11.delivered),
        static_cast<unsigned long long>(u.frames), u.airtime_ms,
        static_cast<unsigned long long>(u.delivered));
  }
  std::printf(
      "\nBroadcast reaches every receiver with one frame regardless of n;\n"
      "reliable unicast pays n-1 data frames plus TCP acknowledgements.\n");

  if (!json_path.empty()) {
    report.wall_seconds = harness::seconds_since(started);
    if (!harness::write_json_report(report, json_path)) return 1;
    std::fprintf(stderr, "json report: %s\n", json_path.c_str());
  }
  return 0;
}
