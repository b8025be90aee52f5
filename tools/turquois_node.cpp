// turquois_node — one Turquois process on real sockets.
//
// Runs a single protocol process (the same translation unit the simulator
// executes) over runtime::UdpRuntime: UDP broadcast on localhost or a LAN,
// epoll-driven timers, wall-clock time. One OS process per protocol
// process; n terminals (or one script) make a consensus group.
//
//   terminal 1:  turquois_node --id 0 --n 4 --value 1
//   terminal 2:  turquois_node --id 1 --n 4 --value 0
//   ...          (ids 2 and 3 likewise; all share seed and base port)
//
// Every node with the same --seed derives the identical key infrastructure
// (the paper's pre-distributed symmetric keys), so no key exchange happens
// on the wire. Node i binds base-port + i; peers default to 127.0.0.1.
//
// Prints one PROPOSE line at start and one DECIDE line on decision —
// machine-readable, consumed by `turquois_soak --verify-logs` and the CI
// udp-smoke job. Exits 0 on decide (after --linger of helping laggards),
// 1 on timeout.
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "crypto/cost_model.hpp"
#include "harness/flags.hpp"
#include "runtime/udp_runtime.hpp"
#include "turquois/key_infra.hpp"
#include "turquois/process.hpp"

using namespace turq;
using namespace turq::harness;

int main(int argc, char** argv) {
  std::uint32_t id = std::numeric_limits<std::uint32_t>::max();  // required
  std::uint32_t n = 0;
  Value value = Value::kOne;
  std::uint16_t base_port = 42000;
  std::string hosts = "127.0.0.1";
  std::uint64_t seed = 2010;
  SimDuration tick = 10 * kMillisecond;
  SimDuration timeout = 30 * kSecond;
  SimDuration linger = 2 * kSecond;

  const Flags flags = {
      flag("--id", "<0..n-1>", "this node's process id (required)", id),
      flag("--n", "<4..128>", "group size (required)", n),
      {"--value", "0|1", "proposal (default 1)",
       [&](std::string_view v) {
         value = unsigned_flag("--value", v, 1) ? Value::kOne : Value::kZero;
       },
       {}},
      flag("--base-port", "<P>", "node i binds P+i (default 42000)",
           base_port),
      flag("--host", "<H>",
           "peers' IPv4 address, one shared address or a comma-list of n "
           "(default 127.0.0.1); 255.255.255.255 = LAN broadcast",
           hosts),
      flag("--seed", "<S>",
           "shared key-setup seed; must match on every node (default 2010)",
           seed),
      flag("--tick", "<dur>", "T1 tick interval (default 10ms)", tick,
           kMillisecond),
      flag("--timeout", "<dur>", "give up if undecided (default 30s)", timeout,
           kSecond),
      flag("--linger", "<dur>",
           "keep broadcasting after deciding so laggards can catch up "
           "(default 2s)",
           linger, kSecond),
  };
  const char* const synopsis = "--id I --n N [options]";
  parse_flags(argc, argv, flags, synopsis);
  if (n < 4 || id >= n) usage(argv[0], flags, synopsis);

  turquois::Config cfg = turquois::Config::for_group(n);
  cfg.tick_interval = tick;
  cfg.tick_jitter = tick / 5;
  cfg.validate();

  // Pre-distributed keys: every node derives the same infrastructure from
  // the shared seed — the real-socket analogue of the trusted setup.
  Rng key_rng = Rng::stream(seed, "keys", 0);
  const turquois::KeyInfrastructure keys =
      turquois::KeyInfrastructure::setup(cfg, key_rng);

  // One shared host for all peers, or a comma-list of exactly n.
  std::vector<runtime::UdpEndpoint> peers;
  {
    const std::vector<std::string> parts = split_list(hosts);
    if (parts.size() != 1 && parts.size() != n) {
      std::fprintf(stderr, "--host wants one address or exactly n\n");
      return 2;
    }
    for (std::uint32_t j = 0; j < n; ++j) {
      peers.push_back(runtime::UdpEndpoint{
          .host = parts.size() == 1 ? parts[0] : parts[j],
          .port = static_cast<std::uint16_t>(base_port + j)});
    }
  }

  runtime::UdpRuntime rt(seed ^ static_cast<std::uint64_t>(id));
  auto& port = rt.open_port(static_cast<ProcessId>(id),
                            static_cast<std::uint16_t>(base_port + id));
  rt.set_peers(std::move(peers));

  SimTime decided_at = -1;
  turquois::ProcessHooks hooks;
  hooks.on_decide = [&](Value v, turquois::Phase phase, SimTime at) {
    decided_at = at;
    std::printf("DECIDE node=%lld value=%d phase=%llu at_ms=%.3f\n",
                static_cast<long long>(id), v == Value::kOne ? 1 : 0,
                static_cast<unsigned long long>(phase), to_milliseconds(at));
    std::fflush(stdout);
  };

  const crypto::CostModel costs;  // the process keeps a reference
  turquois::Process proc(rt, port, cfg, keys, static_cast<ProcessId>(id),
                         Rng::stream(seed, "proc",
                                     static_cast<std::uint64_t>(id)),
                         costs, std::move(hooks));

  std::printf("PROPOSE node=%lld value=%d at_ms=%.3f\n",
              static_cast<long long>(id), value == Value::kOne ? 1 : 0,
              to_milliseconds(rt.now()));
  std::fflush(stdout);
  proc.propose(value);

  // Run until decided + linger (deciders keep ticking, feeding laggards'
  // catch-up rules), or until the timeout.
  rt.run(
      [&] { return decided_at >= 0 && rt.now() >= decided_at + linger; },
      timeout);

  if (decided_at < 0) {
    std::fprintf(stderr, "node %lld: no decision within %.1fs\n",
                 static_cast<long long>(id),
                 static_cast<double>(timeout) / kSecond);
    return 1;
  }
  std::fprintf(stderr,
               "node %lld: decided %d in %.3f ms (%llu datagrams heard)\n",
               static_cast<long long>(id),
               proc.decision() == Value::kOne ? 1 : 0,
               to_milliseconds(decided_at),
               static_cast<unsigned long long>(rt.datagrams_received()));
  return 0;
}
