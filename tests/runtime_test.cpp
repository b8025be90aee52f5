// Tests for the runtime layer: the shared duration-flag grammar, the
// SimRuntime adapter's 1:1 forwarding, the UdpRuntime timer wheel and
// socket loop, cross-runtime equivalence of one consensus instance (the
// same protocol translation unit deciding identically over the
// deterministic simulator and real UDP loopback sockets), and the
// sim-adapter golden: BENCH_table1_failure_free.json must stay
// byte-identical now that every Process runs behind runtime::Runtime.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "audit/audit.hpp"
#include "common/rng.hpp"
#include "crypto/cost_model.hpp"
#include "harness/experiment.hpp"
#include "harness/flags.hpp"
#include "harness/report.hpp"
#include "harness/table.hpp"
#include "runtime/receive_buffer.hpp"
#include "runtime/sim_runtime.hpp"
#include "runtime/udp_runtime.hpp"
#include "sim/cpu.hpp"
#include "sim/simulator.hpp"
#include "turquois/key_infra.hpp"
#include "turquois/process.hpp"

namespace turq {
namespace {

// ------------------------------------------------------- parse_duration ---

TEST(ParseDuration, BareNumberTakesDefaultUnit) {
  using harness::parse_duration;
  EXPECT_EQ(parse_duration("120", kSecond), 120 * kSecond);
  EXPECT_EQ(parse_duration("10", kMillisecond), 10 * kMillisecond);
  EXPECT_EQ(parse_duration("0", kSecond), 0);
}

TEST(ParseDuration, SuffixesOverrideDefaultUnit) {
  using harness::parse_duration;
  EXPECT_EQ(parse_duration("250ms", kSecond), 250 * kMillisecond);
  EXPECT_EQ(parse_duration("3s", kMillisecond), 3 * kSecond);
  EXPECT_EQ(parse_duration("10us", kSecond), 10 * kMicrosecond);
  EXPECT_EQ(parse_duration("50ns", kSecond), SimDuration{50});
  EXPECT_EQ(parse_duration("2m", kSecond), 120 * kSecond);
  EXPECT_EQ(parse_duration("1h", kSecond), 3600 * kSecond);
}

TEST(ParseDuration, FractionsWork) {
  using harness::parse_duration;
  EXPECT_EQ(parse_duration("1.5s", kSecond), kSecond + 500 * kMillisecond);
  EXPECT_EQ(parse_duration("0.25ms", kMillisecond), 250 * kMicrosecond);
  EXPECT_EQ(parse_duration("2.5", kMillisecond),
            2 * kMillisecond + 500 * kMicrosecond);
}

TEST(ParseDuration, RejectsGarbage) {
  using harness::parse_duration;
  EXPECT_FALSE(parse_duration("", kSecond).has_value());
  EXPECT_FALSE(parse_duration("abc", kSecond).has_value());
  EXPECT_FALSE(parse_duration("-3s", kSecond).has_value());
  EXPECT_FALSE(parse_duration("10sec", kSecond).has_value());
  EXPECT_FALSE(parse_duration("10 ms", kSecond).has_value());
  EXPECT_FALSE(parse_duration("nan", kSecond).has_value());
  EXPECT_FALSE(parse_duration("1e300", kSecond).has_value());  // overflow
}

TEST(ParseDuration, UnsignedIsStrict) {
  using harness::parse_unsigned;
  EXPECT_EQ(parse_unsigned("0"), 0u);
  EXPECT_EQ(parse_unsigned("128"), 128u);
  EXPECT_EQ(parse_unsigned("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(parse_unsigned("65535", 65535), 65535u);
  EXPECT_FALSE(parse_unsigned("65536", 65535).has_value());  // range
  EXPECT_FALSE(parse_unsigned("18446744073709551616").has_value());
  EXPECT_FALSE(parse_unsigned("").has_value());
  EXPECT_FALSE(parse_unsigned("-1").has_value());  // no sign on a count
  EXPECT_FALSE(parse_unsigned("+4").has_value());
  EXPECT_FALSE(parse_unsigned("4x").has_value());  // trailing garbage
  EXPECT_FALSE(parse_unsigned(" 4").has_value());
  EXPECT_FALSE(parse_unsigned("4.0").has_value());
}

TEST(ParseDuration, DoubleIsStrict) {
  using harness::parse_double;
  EXPECT_EQ(parse_double("0.05"), 0.05);
  EXPECT_EQ(parse_double("2e6"), 2e6);
  EXPECT_EQ(parse_double("150"), 150.0);
  EXPECT_EQ(parse_double("-1.5"), -1.5);  // range checks belong to validate()
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("0.0x").has_value());
  EXPECT_FALSE(parse_double("1,5").has_value());
  EXPECT_FALSE(parse_double("inf").has_value());
  EXPECT_FALSE(parse_double("nan").has_value());
  EXPECT_FALSE(parse_double("1e999").has_value());  // out of range
}

// ----------------------------------------------------------- SimRuntime ---

TEST(ReceiveBuffer, ReplaysCopiesInArrivalOrderThenAdmits) {
  runtime::ReceiveBuffer inbox;
  Bytes first = {1, 2};
  EXPECT_FALSE(inbox.admit(3, first));
  EXPECT_FALSE(inbox.admit(1, Bytes{9}));
  first[0] = 7;  // the buffer holds its own copy
  std::vector<std::pair<ProcessId, Bytes>> seen;
  inbox.start([&](ProcessId src, BytesView payload) {
    seen.emplace_back(src, Bytes(payload.begin(), payload.end()));
  });
  const std::vector<std::pair<ProcessId, Bytes>> want = {{3, {1, 2}},
                                                         {1, {9}}};
  EXPECT_EQ(seen, want);
  EXPECT_TRUE(inbox.admit(2, Bytes{5}));
  inbox.halt();
  EXPECT_FALSE(inbox.admit(2, Bytes{5}));
}

TEST(ReceiveBuffer, HaltBeforeStartDropsEverything) {
  runtime::ReceiveBuffer inbox;
  EXPECT_FALSE(inbox.admit(0, Bytes{1}));
  inbox.halt();
  std::size_t replayed = 0;
  inbox.start([&](ProcessId, BytesView) { ++replayed; });
  EXPECT_EQ(replayed, 0u);
  EXPECT_FALSE(inbox.admit(0, Bytes{1}));
}

TEST(SimRuntime, ForwardsClockTimersAndRng) {
  sim::Simulator sim;
  sim::VirtualCpu cpu(sim);
  runtime::SimRuntime rt(sim, cpu, Rng(42));

  EXPECT_EQ(rt.now(), sim.now());

  std::vector<int> fired;
  const runtime::TimerId a =
      rt.schedule(5 * kMillisecond, [&] { fired.push_back(1); });
  const runtime::TimerId b =
      rt.schedule(2 * kMillisecond, [&] { fired.push_back(2); });
  EXPECT_NE(a, runtime::kInvalidTimer);
  EXPECT_NE(b, runtime::kInvalidTimer);
  rt.cancel(a);  // forwarded to sim.cancel: must never fire

  sim.run_until(kSecond);
  EXPECT_EQ(fired, std::vector<int>({2}));
  EXPECT_EQ(sim.now(), rt.now());

  // Identical derivation path as calling Rng::derive directly.
  Rng direct = Rng(42).derive("tag", 7);
  Rng via = rt.derive_rng("tag", 7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(direct.next(), via.next());
}

TEST(SimRuntime, ChargeAdvancesBusyCpuLikeDirectCalls) {
  sim::Simulator sim;
  sim::VirtualCpu direct_cpu(sim);
  sim::VirtualCpu adapted_cpu(sim);
  runtime::SimRuntime rt(sim, adapted_cpu);

  SimTime direct_done = -1;
  SimTime adapted_done = -1;
  direct_cpu.charge(3 * kMicrosecond);
  rt.charge(3 * kMicrosecond);
  direct_cpu.execute(2 * kMicrosecond, [&] { direct_done = sim.now(); });
  rt.execute(2 * kMicrosecond, [&] { adapted_done = sim.now(); });
  sim.run_until(kSecond);
  EXPECT_GE(direct_done, 0);
  EXPECT_EQ(direct_done, adapted_done);
}

// ----------------------------------------------------------- UdpRuntime ---

TEST(UdpRuntime, TimersFireInOrderAndCancelWorks) {
  runtime::UdpRuntime rt(1);
  std::vector<int> fired;
  rt.schedule(20 * kMillisecond, [&] { fired.push_back(3); });
  const runtime::TimerId victim =
      rt.schedule(10 * kMillisecond, [&] { fired.push_back(9); });
  rt.schedule(5 * kMillisecond, [&] { fired.push_back(1); });
  rt.schedule(15 * kMillisecond, [&] { fired.push_back(2); });
  rt.cancel(victim);
  EXPECT_EQ(rt.timers_pending(), 3u);

  rt.run([&] { return fired.size() >= 3; }, kSecond);
  EXPECT_EQ(fired, std::vector<int>({1, 2, 3}));
  EXPECT_EQ(rt.timers_pending(), 0u);
}

TEST(UdpRuntime, ClockIsMonotonicAndChargeIsFree) {
  runtime::UdpRuntime rt(1);
  const SimTime t0 = rt.now();
  rt.charge(10 * kSecond);  // kNone policy: must not burn wall clock
  bool done = false;
  rt.execute(10 * kSecond, [&] { done = true; });  // completes synchronously
  EXPECT_TRUE(done);
  const SimTime t1 = rt.now();
  EXPECT_GE(t1, t0);
  EXPECT_LT(t1 - t0, kSecond);  // nowhere near the 20 modeled seconds
}

TEST(UdpRuntime, LoopbackBroadcastReachesEveryPortIncludingSender) {
  runtime::UdpRuntime rt(7);
  std::vector<runtime::UdpRuntime::UdpPort*> ports;
  std::vector<runtime::UdpEndpoint> peers;
  for (ProcessId id = 0; id < 3; ++id) {
    auto& port = rt.open_port(id, 0);
    ports.push_back(&port);
    peers.push_back(runtime::UdpEndpoint{.host = "127.0.0.1",
                                         .port = port.local_port()});
  }
  rt.set_peers(std::move(peers));

  std::vector<std::pair<ProcessId, ProcessId>> got;  // (receiver, sender)
  for (ProcessId id = 0; id < 3; ++id) {
    ports[id]->set_handler([&, id](ProcessId src, BytesView payload) {
      ASSERT_EQ(payload.size(), 2u);
      got.emplace_back(id, src);
    });
  }
  ports[1]->send(net::FramedPayload::copy_of(Bytes{0xAB, 0xCD}));
  rt.run([&] { return got.size() >= 3; }, 5 * kSecond);

  ASSERT_EQ(got.size(), 3u);  // all three ports, sender included
  for (const auto& [receiver, sender] : got) EXPECT_EQ(sender, 1u);
}

// Regression: a multi-datagram burst queued behind one epoll readiness
// event must be drained in a single wakeup. A drain that reads one datagram
// per readiness would delay queued frames by a full poll cycle each (and
// starve timers under sustained bursts): with the whole burst already
// sitting in the socket buffers before run() starts, such a drain would
// report one wakeup per datagram instead of one per socket.
TEST(UdpRuntime, BroadcastBurstDrainsInOneWakeupPerSocket) {
  constexpr std::uint32_t kBurst = 8;
  runtime::UdpRuntime rt(11);
  std::vector<runtime::UdpRuntime::UdpPort*> ports;
  std::vector<runtime::UdpEndpoint> peers;
  for (ProcessId id = 0; id < 2; ++id) {
    auto& port = rt.open_port(id, 0);
    ports.push_back(&port);
    peers.push_back(runtime::UdpEndpoint{.host = "127.0.0.1",
                                         .port = port.local_port()});
  }
  rt.set_peers(std::move(peers));

  std::vector<std::uint64_t> got(2, 0);
  for (ProcessId id = 0; id < 2; ++id) {
    ports[id]->set_handler([&, id](ProcessId src, BytesView payload) {
      ASSERT_EQ(src, 0u);
      ASSERT_EQ(payload.size(), 1u);
      ++got[id];
    });
  }
  // The burst lands in the kernel socket buffers before the loop ever
  // polls: sends are synchronous sendto() calls.
  for (std::uint32_t i = 0; i < kBurst; ++i) {
    ports[0]->send(
        net::FramedPayload::copy_of(Bytes{static_cast<std::uint8_t>(i)}));
  }
  ASSERT_EQ(rt.socket_wakeups(), 0u);

  rt.run([&] { return got[0] >= kBurst && got[1] >= kBurst; }, 5 * kSecond);

  ASSERT_EQ(got[0], kBurst);  // loopback delivery included
  ASSERT_EQ(got[1], kBurst);
  EXPECT_EQ(rt.datagrams_received(), 2 * kBurst);
  // One drain per socket read the whole burst.
  EXPECT_EQ(rt.socket_wakeups(), 2u);
}

TEST(UdpRuntime, SendsThePayloadWithoutItsHeaderRoom) {
  // A FramedPayload ends in room for the modelled UDP/IP headers; on a
  // real socket the kernel writes those, so only the payload may go out.
  // A plain socket among the peers sees the runtime's 4-byte frame header
  // and the payload, nothing more; both ports receive the payload bytes.
  runtime::UdpRuntime rt(12);
  std::vector<runtime::UdpRuntime::UdpPort*> ports;
  std::vector<runtime::UdpEndpoint> peers;
  for (ProcessId id = 0; id < 2; ++id) {
    auto& port = rt.open_port(id, 0);
    ports.push_back(&port);
    peers.push_back(runtime::UdpEndpoint{.host = "127.0.0.1",
                                         .port = port.local_port()});
  }
  const int wire = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  ASSERT_GE(wire, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(wire, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(wire, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  peers.push_back(runtime::UdpEndpoint{.host = "127.0.0.1",
                                       .port = ntohs(addr.sin_port)});
  rt.set_peers(std::move(peers));

  Bytes payload(100);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 29 + 3);
  }
  std::vector<Bytes> got(2);
  for (ProcessId id = 0; id < 2; ++id) {
    ports[id]->set_handler([&, id](ProcessId src, BytesView p) {
      EXPECT_EQ(src, 1u);
      got[id].assign(p.begin(), p.end());
    });
  }
  ports[1]->send(net::FramedPayload::copy_of(payload));
  rt.run([&] { return !got[0].empty() && !got[1].empty(); }, 5 * kSecond);
  EXPECT_EQ(got[0], payload);
  EXPECT_EQ(got[1], payload);  // loopback included

  std::uint8_t buf[512];
  const ssize_t n = ::recv(wire, buf, sizeof(buf), 0);
  ::close(wire);
  EXPECT_EQ(n, static_cast<ssize_t>(4 + payload.size()));
  EXPECT_TRUE(n > 4 && std::equal(payload.begin(), payload.end(), buf + 4));
}

// ---------------------------------------------- cross-runtime equivalence --

/// One consensus instance, n=4, unanimous kOne proposals, over real UDP
/// loopback sockets. Returns the unanimous decision value.
Value decide_over_udp(std::uint32_t n) {
  turquois::Config cfg = turquois::Config::for_group(n);
  cfg.tick_interval = 5 * kMillisecond;
  cfg.tick_jitter = kMillisecond;

  Rng key_rng = Rng::stream(99, "keys", 0);
  const turquois::KeyInfrastructure keys =
      turquois::KeyInfrastructure::setup(cfg, key_rng);

  runtime::UdpRuntime rt(99);
  std::vector<runtime::UdpRuntime::UdpPort*> ports;
  std::vector<runtime::UdpEndpoint> peers;
  for (ProcessId id = 0; id < n; ++id) {
    auto& port = rt.open_port(id, 0);
    ports.push_back(&port);
    peers.push_back(runtime::UdpEndpoint{.host = "127.0.0.1",
                                         .port = port.local_port()});
  }
  rt.set_peers(std::move(peers));

  audit::ConsensusAuditor auditor(
      audit::AuditConfig{.n = n, .f = cfg.f, .k = cfg.k, .phase_bound = 0});
  std::uint32_t decided = 0;
  std::vector<Value> decisions(n, Value::kBottom);
  // Processes keep a reference to their cost model: it must outlive them.
  const crypto::CostModel costs;
  std::vector<std::unique_ptr<turquois::Process>> procs;
  for (ProcessId id = 0; id < n; ++id) {
    turquois::ProcessHooks hooks;
    hooks.on_decide = [&, id](Value v, turquois::Phase phase, SimTime at) {
      auditor.on_decide(id, v, phase, at);
      decisions[id] = v;
      ++decided;
    };
    hooks.on_phase = [&, id](turquois::Phase phase, SimTime at) {
      auditor.on_phase(id, phase, at);
    };
    procs.push_back(std::make_unique<turquois::Process>(
        rt, *ports[id], cfg, keys, id, Rng::stream(99, "proc", id), costs,
        std::move(hooks)));
  }
  for (ProcessId id = 0; id < n; ++id) {
    auditor.on_propose(id, Value::kOne, rt.now());
    procs[id]->propose(Value::kOne);
  }
  rt.run([&] { return decided >= n; }, 30 * kSecond);

  EXPECT_EQ(decided, n) << "UDP instance timed out";
  const audit::AuditReport report =
      auditor.finish(std::nullopt, decided >= n);
  EXPECT_TRUE(report.passed()) << report.describe();
  for (auto& p : procs) p->crash();
  for (ProcessId id = 1; id < n; ++id) {
    EXPECT_EQ(decisions[id], decisions[0]) << "disagreement over UDP";
  }
  return decisions[0];
}

TEST(CrossRuntime, SimAndUdpLoopbackReachTheSameDecision) {
  // Same Config (n=4, f=1, k=3), same unanimous kOne proposals. The sim
  // deployment and the real-socket deployment must both decide kOne with
  // the auditor clean — the protocol core cannot tell its runtimes apart.
  harness::ScenarioConfig sim_cfg;
  sim_cfg.n = 4;
  sim_cfg.distribution = harness::ProposalDist::kUnanimous;
  sim_cfg.repetitions = 2;
  sim_cfg.seed = 99;
  const harness::ScenarioResult sim_result = harness::run_scenario(sim_cfg);
  EXPECT_EQ(sim_result.safety_violations, 0u);
  EXPECT_EQ(sim_result.failed_runs, 0u);
  const harness::RunResult one = harness::run_once(sim_cfg, 0);
  ASSERT_TRUE(one.decision.has_value());
  EXPECT_EQ(*one.decision, Value::kOne);

  EXPECT_EQ(decide_over_udp(4), Value::kOne);
}

// ------------------------------------------------- sim-adapter golden -----

std::string strip_environment(const std::string& json) {
  std::string out;
  std::istringstream in(json);
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"environment\"") == std::string::npos) out += line + "\n";
  }
  return out;
}

TEST(SimAdapterGolden, Table1StaysByteIdenticalThroughRuntimePort) {
  // The committed BENCH_table1_failure_free.json predates the Runtime
  // interface: it was produced by processes holding raw Simulator /
  // VirtualCpu references. Re-running the quick grid through the ported
  // stack (Process -> runtime::SimRuntime -> Simulator) must reproduce it
  // byte for byte modulo the environment line.
  std::ifstream golden_in(TABLE1_GOLDEN_FILE, std::ios::binary);
  ASSERT_TRUE(golden_in) << "missing golden " << TABLE1_GOLDEN_FILE;
  std::ostringstream golden_bytes;
  golden_bytes << golden_in.rdbuf();

  harness::TableSpec spec;
  spec.group_sizes = {4, 7, 10};  // the --quick preset
  harness::ScenarioConfig base;
  base.repetitions = 10;
  base.seed = 2010;
  base.jobs = 1;

  harness::BenchReport report;
  report.name = "table1_failure_free";
  report.seed = base.seed;
  report.jobs = 1;
  for (const harness::ScenarioResult& r : harness::run_table(spec, base)) {
    report.cells.push_back(harness::make_cell(r));
  }
  EXPECT_EQ(strip_environment(golden_bytes.str()),
            strip_environment(harness::to_json(report)));
}

}  // namespace
}  // namespace turq
