// turquois_soak — back-to-back consensus instances over real UDP sockets.
//
// Default mode hosts all n protocol processes inside this one OS process,
// on one runtime::UdpRuntime: every instance opens n fresh ephemeral-port
// UDP sockets on loopback, derives a fresh key infrastructure, runs one
// Turquois consensus to decision, feeds every observation into the
// unmodified audit::ConsensusAuditor, then tears the instance down and
// starts the next — until --duration elapses or --instances complete.
// This exercises the real-time runtime (epoll timers, socket queues, frame
// parsing) continuously rather than for one decision.
//
//   $ turquois_soak --n 4 --duration 60s
//
// `--verify-logs f1 f2 ...` instead replays the PROPOSE/DECIDE lines that
// turquois_node processes printed into a ConsensusAuditor — the CI
// udp-smoke job uses it to audit a live multi-process run after the fact.
//
// Exit status: 0 when every instance decided unanimously with a clean
// audit (or, under --verify-logs, when the logs show n clean decides).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "audit/audit.hpp"
#include "common/rng.hpp"
#include "crypto/cost_model.hpp"
#include "harness/parse_duration.hpp"
#include "runtime/udp_runtime.hpp"
#include "turquois/key_infra.hpp"
#include "turquois/process.hpp"

using namespace turq;
using namespace turq::harness;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "       %s --n N --verify-logs FILE...\n"
      "  --n <4..128>         group size (default 4)\n"
      "  --duration <dur>     stop starting new instances after this long\n"
      "                       (default 10s)\n"
      "  --instances <K>      run exactly K instances instead (0 = until\n"
      "                       --duration; default 0)\n"
      "  --base-port <P>      first port to bind (default 0 = ephemeral)\n"
      "  --seed <S>           root seed for keys and jitter (default 2010)\n"
      "  --tick <dur>         T1 tick interval (default 10ms)\n"
      "  --timeout <dur>      per-instance deadline (default 10s)\n"
      "  --verify-logs F...   audit turquois_node PROPOSE/DECIDE logs and\n"
      "                       exit; every later argument is a log file\n",
      argv0, argv0);
  std::exit(2);
}

/// Replays turquois_node output lines into a ConsensusAuditor.
int verify_logs(std::uint32_t n, const std::vector<std::string>& files) {
  const turquois::Config cfg = turquois::Config::for_group(n);
  audit::ConsensusAuditor auditor(audit::AuditConfig{
      .n = n, .f = cfg.f, .k = cfg.k, .phase_bound = 0});
  std::uint32_t proposes = 0;
  std::uint32_t decides = 0;
  for (const std::string& file : files) {
    std::ifstream in(file);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", file.c_str());
      return 2;
    }
    for (std::string line; std::getline(in, line);) {
      unsigned node = 0;
      int value = 0;
      unsigned long long phase = 0;
      double ms = 0.0;
      if (std::sscanf(line.c_str(), "PROPOSE node=%u value=%d at_ms=%lf",
                      &node, &value, &ms) == 3) {
        auditor.on_propose(node, value ? Value::kOne : Value::kZero,
                           static_cast<SimTime>(ms * kMillisecond));
        ++proposes;
      } else if (std::sscanf(line.c_str(),
                             "DECIDE node=%u value=%d phase=%llu at_ms=%lf",
                             &node, &value, &phase, &ms) == 4) {
        auditor.on_decide(node, value ? Value::kOne : Value::kZero, phase,
                          static_cast<SimTime>(ms * kMillisecond));
        ++decides;
      }
    }
  }
  const audit::AuditReport report =
      auditor.finish(std::nullopt, /*all_correct_decided=*/decides >= n);
  std::printf("verify-logs: %u proposes, %u decides (n=%u), audit %s\n",
              proposes, decides, n, report.passed() ? "clean" : "VIOLATED");
  if (!report.passed()) std::printf("%s", report.describe().c_str());
  if (decides < n) {
    std::fprintf(stderr, "verify-logs: only %u of %u processes decided\n",
                 decides, n);
    return 1;
  }
  return report.passed() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t n = 4;
  SimDuration duration = 10 * kSecond;
  std::uint32_t instances = 0;
  std::uint16_t base_port = 0;
  std::uint64_t seed = 2010;
  SimDuration tick = 10 * kMillisecond;
  SimDuration timeout = 10 * kSecond;
  std::vector<std::string> log_files;
  bool verify_mode = false;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--n") {
      n = u32_flag("--n", next());
    } else if (arg == "--duration") {
      duration = duration_flag("--duration", next(), kSecond);
    } else if (arg == "--instances") {
      instances = u32_flag("--instances", next());
    } else if (arg == "--base-port") {
      base_port =
          static_cast<std::uint16_t>(unsigned_flag("--base-port", next(), 65535));
    } else if (arg == "--seed") {
      seed = unsigned_flag("--seed", next());
    } else if (arg == "--tick") {
      tick = duration_flag("--tick", next(), kMillisecond);
    } else if (arg == "--timeout") {
      timeout = duration_flag("--timeout", next(), kSecond);
    } else if (arg == "--verify-logs") {
      verify_mode = true;
      while (i + 1 < argc) log_files.emplace_back(argv[++i]);
    } else {
      usage(argv[0]);
    }
  }
  if (n < 4) usage(argv[0]);
  if (verify_mode) {
    if (log_files.empty()) usage(argv[0]);
    return verify_logs(n, log_files);
  }

  turquois::Config cfg = turquois::Config::for_group(n);
  cfg.tick_interval = tick;
  cfg.tick_jitter = tick / 5;
  cfg.validate();

  runtime::UdpRuntime rt(seed);
  const SimTime soak_end = rt.now() + duration;

  std::uint32_t launched = 0;
  std::uint32_t clean = 0;
  std::uint64_t violations = 0;
  std::uint64_t timeouts = 0;

  while ((instances > 0 && launched < instances) ||
         (instances == 0 && rt.now() < soak_end)) {
    const std::uint32_t seq = launched++;
    Rng key_rng = Rng::stream(seed, "keys", seq);
    const turquois::KeyInfrastructure keys =
        turquois::KeyInfrastructure::setup(cfg, key_rng);

    // Fresh sockets per instance: the mesh rebinds and rediscovers its
    // peer table every time, like a service bringing instances up and down.
    std::vector<runtime::UdpRuntime::UdpPort*> ports;
    std::vector<runtime::UdpEndpoint> peers;
    for (ProcessId id = 0; id < n; ++id) {
      auto& port = rt.open_port(
          id, base_port == 0
                  ? std::uint16_t{0}
                  : static_cast<std::uint16_t>(base_port + seq * n + id));
      ports.push_back(&port);
      peers.push_back(
          runtime::UdpEndpoint{.host = "127.0.0.1", .port = port.local_port()});
    }
    rt.set_peers(std::move(peers));

    audit::ConsensusAuditor auditor(audit::AuditConfig{
        .n = n, .f = cfg.f, .k = cfg.k, .phase_bound = 0});
    std::uint32_t decided = 0;
    Value first_decision = Value::kBottom;
    bool agreement = true;
    const SimTime started = rt.now();

    std::vector<std::unique_ptr<turquois::Process>> procs;
    for (ProcessId id = 0; id < n; ++id) {
      turquois::ProcessHooks hooks;
      hooks.on_decide = [&, id](Value v, turquois::Phase phase, SimTime at) {
        auditor.on_decide(id, v, phase, at);
        if (decided++ == 0) first_decision = v;
        else if (v != first_decision) agreement = false;
      };
      hooks.on_phase = [&, id](turquois::Phase phase, SimTime at) {
        auditor.on_phase(id, phase, at);
      };
      procs.push_back(std::make_unique<turquois::Process>(
          rt, *ports[id], cfg, keys, id, Rng::stream(seed, "proc",
          static_cast<std::uint64_t>(seq) * n + id),
          crypto::CostModel{}, std::move(hooks)));
    }
    for (ProcessId id = 0; id < n; ++id) {
      const Value v = (id % 2 == 0) ? Value::kOne : Value::kZero;  // divergent
      auditor.on_propose(id, v, rt.now());
      procs[id]->propose(v);
    }

    rt.run([&] { return decided >= n; }, timeout);

    const double ms = to_milliseconds(rt.now() - started);
    for (auto& p : procs) p->crash();  // closes this instance's ports
    const audit::AuditReport report =
        auditor.finish(std::nullopt, /*all_correct_decided=*/decided >= n);

    const bool ok = decided >= n && agreement && report.passed();
    if (ok) ++clean;
    if (decided < n) ++timeouts;
    violations += report.violations.size();
    std::printf("INSTANCE seq=%u decided=%u/%u value=%d ms=%.2f audit=%s\n",
                seq, decided, n,
                first_decision == Value::kOne ? 1
                : first_decision == Value::kZero ? 0 : -1,
                ms, report.passed() ? "clean" : "VIOLATED");
    if (!report.passed()) std::printf("%s", report.describe().c_str());
    std::fflush(stdout);
  }

  std::printf("soak: %u instances, %u clean, %llu timeouts, "
              "%llu audit violations\n",
              launched, clean, static_cast<unsigned long long>(timeouts),
              static_cast<unsigned long long>(violations));
  return (clean == launched && launched > 0) ? 0 : 1;
}
