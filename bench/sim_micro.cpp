// Microbenchmark for the three hot paths of the simulation stack:
//
//   events/sec   — Simulator schedule/execute throughput on a
//                  self-perpetuating event chain with a cancel-heavy side
//                  load (exercises the slot arena, the tombstone counter,
//                  and heap compaction);
//   frames/sec   — Medium broadcast delivery throughput (one shared frame
//                  fanned out to every attached receiver);
//   verifies/sec — memoized one-time-signature validation throughput
//                  (VerifyMemo over a realistic (sender, phase, value) mix).
//
// The binary also proves the zero-allocation claim of DESIGN.md §10: this
// translation unit replaces the global allocator with a counting wrapper,
// and the events benchmark asserts that its steady-state measured region
// performs ZERO heap allocations (after a warmup that grows the arena and
// heap vectors to steady-state capacity). A non-zero count is a hard
// failure (exit 1), so CI catches any allocation regression on the hot
// path, not just a throughput drop.
//
// Usage: sim_micro [--quick] [--json PATH]
//
// The JSON report (schema "turquois-sim-micro/1") carries the three
// throughput numbers plus the steady-state allocation count; throughput is
// machine-dependent (documented in the "environment" sense), while
// steady_state_allocs is exact and must stay 0. tools/check_perf.sh
// compares events_per_sec against a committed baseline in CI.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include "common/rng.hpp"
#include "net/medium.hpp"
#include "sim/simulator.hpp"
#include "turquois/config.hpp"
#include "turquois/key_infra.hpp"
#include "turquois/message.hpp"
#include "turquois/validation.hpp"

// ---------------------------------------------------------------------------
// Counting allocator. The benchmark is single-threaded, so a plain counter
// is enough; all global forms route through these two.
// ---------------------------------------------------------------------------

namespace {
std::uint64_t g_alloc_count = 0;

void* counted_alloc(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_alloc_count;
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace turq {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// ---------------------------------------------------------------------------
// events/sec — self-perpetuating chain + cancel side load.
// ---------------------------------------------------------------------------

struct EventBench {
  double events_per_sec = 0.0;
  std::uint64_t events_executed = 0;
  std::uint64_t steady_state_allocs = 0;
};

// Each fire() executes one event, cancels the previous decoy (tombstoning
// it), schedules a fresh decoy, and reschedules itself — so every iteration
// exercises schedule ×2, cancel ×1, execute ×1, and periodic compaction.
struct Ticker {
  sim::Simulator& sim;
  std::uint64_t remaining;
  sim::EventId decoy = sim::kInvalidEvent;

  void fire() {
    if (decoy != sim::kInvalidEvent) sim.cancel(decoy);
    if (--remaining == 0) return;
    decoy = sim.schedule(1000 * kMicrosecond, [] {});
    sim.schedule(10 * kMicrosecond, [this] { fire(); });
  }
};

EventBench bench_events(std::uint64_t iters) {
  sim::Simulator sim;
  Ticker ticker{.sim = sim, .remaining = iters / 10 + 2};

  // Warmup: grow the slot arena and the heap vector to steady-state
  // capacity, and let compaction reach its periodic regime.
  sim.schedule(0, [&ticker] { ticker.fire(); });
  sim.run_until(kSecond * 100000);

  const std::uint64_t executed_before = sim.events_executed();
  const std::uint64_t allocs_before = g_alloc_count;
  ticker.remaining = iters;
  ticker.decoy = sim::kInvalidEvent;
  const auto start = std::chrono::steady_clock::now();
  sim.schedule(0, [&ticker] { ticker.fire(); });
  sim.run_until(kSecond * 100000000);
  const double elapsed = seconds_since(start);

  EventBench out;
  out.events_executed = sim.events_executed() - executed_before;
  out.steady_state_allocs = g_alloc_count - allocs_before;
  out.events_per_sec = static_cast<double>(out.events_executed) / elapsed;
  return out;
}

// ---------------------------------------------------------------------------
// frames/sec — broadcast fan-out through the shared-frame Medium.
// ---------------------------------------------------------------------------

struct FrameBench {
  double frames_per_sec = 0.0;  // deliveries (src, frame) → receiver per sec
  std::uint64_t deliveries = 0;
};

FrameBench bench_frames(std::uint64_t frames) {
  constexpr ProcessId kNodes = 8;
  sim::Simulator sim;
  net::Medium medium(sim, net::MediumConfig{}, Rng::stream(7, "medium", 0));

  std::uint64_t delivered = 0;
  for (ProcessId id = 0; id < kNodes; ++id) {
    medium.attach(id, [&delivered](ProcessId, BytesView payload, bool) {
      delivered += payload.empty() ? 0 : 1;
    });
  }

  const Bytes payload(120, 0xAB);
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < frames; ++i) {
    // One frame per round trip: send, then drain, so replace_queued never
    // coalesces and every frame reaches every other node exactly once.
    medium.send_broadcast(static_cast<ProcessId>(i % kNodes), payload);
    sim.run_until(sim.now() + kSecond);
  }
  const double elapsed = seconds_since(start);

  FrameBench out;
  out.deliveries = delivered;
  out.frames_per_sec = static_cast<double>(delivered) / elapsed;
  return out;
}

// ---------------------------------------------------------------------------
// verifies/sec — memoized one-time-signature checks.
// ---------------------------------------------------------------------------

struct VerifyBench {
  double verifies_per_sec = 0.0;
  std::uint64_t checks = 0;
  std::uint64_t memo_misses = 0;
};

VerifyBench bench_verifies(std::uint64_t rounds) {
  turquois::Config cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.k = 3;
  cfg.phases_per_epoch = 32;
  Rng rng = Rng::stream(7, "keys", 0);
  const auto keys = turquois::KeyInfrastructure::setup(cfg, rng);

  // The working set a process re-validates while waiting for a quorum:
  // every sender × a window of phases × both binary values.
  std::vector<turquois::Message> mix;
  for (ProcessId sender = 0; sender < cfg.n; ++sender) {
    for (crypto::Phase phase = 1; phase <= 8; ++phase) {
      for (const Value v : {Value::kZero, Value::kOne}) {
        const BytesView sk = keys.chain(sender).secret_key(phase, v);
        mix.push_back(turquois::Message{
            .sender = sender,
            .phase = phase,
            .value = v,
            .status = Status::kUndecided,
            .from_coin = false,
            .auth_sk = Bytes(sk.begin(), sk.end())});
      }
    }
  }

  turquois::VerifyMemo memo;
  std::uint64_t ok = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t r = 0; r < rounds; ++r) {
    for (const turquois::Message& m : mix) {
      ok += memo.check(keys, cfg, m) ? 1 : 0;
    }
  }
  const double elapsed = seconds_since(start);

  VerifyBench out;
  out.checks = rounds * mix.size();
  out.memo_misses = memo.misses();
  out.verifies_per_sec = static_cast<double>(out.checks) / elapsed;
  if (ok != out.checks) {
    std::fprintf(stderr, "sim_micro: verify mix unexpectedly rejected\n");
    std::exit(1);
  }
  return out;
}

int run(int argc, char** argv) {
  bool quick = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--json PATH]\n", argv[0]);
      return 2;
    }
  }

  const std::uint64_t event_iters = quick ? 2'000'000 : 20'000'000;
  const std::uint64_t frame_iters = quick ? 100'000 : 1'000'000;
  const std::uint64_t verify_rounds = quick ? 20'000 : 200'000;

  const auto started = std::chrono::steady_clock::now();
  const EventBench ev = bench_events(event_iters);
  const FrameBench fr = bench_frames(frame_iters);
  const VerifyBench vf = bench_verifies(verify_rounds);
  const double wall = seconds_since(started);

  std::printf("sim_micro (%s)\n", quick ? "quick" : "full");
  std::printf("  events:   %12.0f /s  (%llu executed, %llu steady-state allocs)\n",
              ev.events_per_sec,
              static_cast<unsigned long long>(ev.events_executed),
              static_cast<unsigned long long>(ev.steady_state_allocs));
  std::printf("  frames:   %12.0f /s  (%llu deliveries)\n", fr.frames_per_sec,
              static_cast<unsigned long long>(fr.deliveries));
  std::printf("  verifies: %12.0f /s  (%llu checks, %llu memo misses)\n",
              vf.verifies_per_sec, static_cast<unsigned long long>(vf.checks),
              static_cast<unsigned long long>(vf.memo_misses));
  std::fprintf(stderr, "wall-clock: %.2f s\n", wall);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "sim_micro: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"schema\": \"turquois-sim-micro/1\",\n"
                 "  \"name\": \"sim_micro\",\n"
                 "  \"quick\": %s,\n"
                 "  \"metrics\": {\n"
                 "    \"events_per_sec\": %.1f,\n"
                 "    \"events_executed\": %llu,\n"
                 "    \"steady_state_allocs\": %llu,\n"
                 "    \"frames_per_sec\": %.1f,\n"
                 "    \"frame_deliveries\": %llu,\n"
                 "    \"verifies_per_sec\": %.1f,\n"
                 "    \"verify_checks\": %llu,\n"
                 "    \"verify_memo_misses\": %llu\n"
                 "  },\n"
                 "  \"environment\": {\"wall_clock_seconds\": %.3f}\n"
                 "}\n",
                 quick ? "true" : "false", ev.events_per_sec,
                 static_cast<unsigned long long>(ev.events_executed),
                 static_cast<unsigned long long>(ev.steady_state_allocs),
                 fr.frames_per_sec,
                 static_cast<unsigned long long>(fr.deliveries),
                 vf.verifies_per_sec,
                 static_cast<unsigned long long>(vf.checks),
                 static_cast<unsigned long long>(vf.memo_misses), wall);
    std::fclose(f);
    std::fprintf(stderr, "json report: %s\n", json_path.c_str());
  }

  if (ev.steady_state_allocs != 0) {
    std::fprintf(stderr,
                 "sim_micro: FAIL — %llu heap allocations in the steady-state "
                 "schedule/execute loop (expected 0)\n",
                 static_cast<unsigned long long>(ev.steady_state_allocs));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace turq

int main(int argc, char** argv) { return turq::run(argc, argv); }
