// Microbenchmark for the three hot paths of the simulation stack:
//
//   sim_events_per_wall_s — Simulator schedule/execute throughput on a
//                  self-perpetuating event chain with a cancel-heavy side
//                  load (exercises the slot arena, the tombstone counter,
//                  and heap compaction);
//   deliveries_per_wall_s — Medium broadcast delivery throughput (one
//                  shared frame fanned out to every attached receiver);
//   verifies_per_wall_s — memoized one-time-signature validation throughput
//                  (VerifyMemo over a realistic (sender, phase, value) mix).
//
// The binary also proves the zero-allocation claim of DESIGN.md §10: this
// translation unit replaces the global allocator with a counting wrapper,
// and the events benchmark counts the heap allocations of its steady-state
// measured region (after a warmup that grows the arena and heap vectors to
// steady-state capacity). The report declares that count with a ceiling of
// zero, and a broken ceiling is a hard failure (exit 1), so CI catches any
// allocation regression on the hot path, not just a throughput drop.
//
// Usage: sim_micro [--quick] [--json PATH]  (a turquois-perf/1 report,
// gated against the committed BENCH_sim_micro.json by tools/check_perf.py)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "common/rng.hpp"
#include "harness/flags.hpp"
#include "harness/report.hpp"
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

using harness::PerfReport;
using harness::seconds_since;
using enum harness::Better;
using enum harness::Domain;

// ---------------------------------------------------------------------------
// sim_events_per_wall_s — self-perpetuating chain + cancel side load.
// ---------------------------------------------------------------------------

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

void bench_events(std::uint64_t iters, PerfReport& report) {
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
  const std::uint64_t allocs = g_alloc_count - allocs_before;
  const std::uint64_t executed = sim.events_executed() - executed_before;

  report.add("sim_events_per_wall_s", executed / elapsed, "1/s", kHost, kHigher)
      .max_drop = harness::kThroughputMaxDrop;
  report.add("events_executed", executed, "count", kSim, kLower);
  report.add("steady_state_allocs", allocs, "count", kHost, kLower).limit = 0;
}

// ---------------------------------------------------------------------------
// deliveries_per_wall_s — broadcast fan-out through the shared-frame Medium.
// ---------------------------------------------------------------------------

void bench_frames(std::uint64_t frames, PerfReport& report) {
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

  // A delivery is one (source, frame) reaching one receiver.
  report.add("deliveries_per_wall_s", delivered / elapsed, "1/s", kHost,
             kHigher);
  report.add("frame_deliveries", delivered, "count", kSim, kHigher);
}

// ---------------------------------------------------------------------------
// verifies_per_wall_s — memoized one-time-signature checks.
// ---------------------------------------------------------------------------

void bench_verifies(std::uint64_t rounds, PerfReport& report) {
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

  const std::uint64_t checks = rounds * mix.size();
  if (ok != checks) {
    std::fprintf(stderr, "sim_micro: verify mix unexpectedly rejected\n");
    std::exit(1);
  }
  report.add("verifies_per_wall_s", checks / elapsed, "1/s", kHost, kHigher);
  report.add("verify_checks", checks, "count", kHost, kLower);
  report.add("verify_memo_misses", memo.misses(), "count", kHost, kLower);
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

  const std::uint64_t event_iters = quick ? 2'000'000 : 20'000'000;
  const std::uint64_t frame_iters = quick ? 100'000 : 1'000'000;
  const std::uint64_t verify_rounds = quick ? 20'000 : 200'000;

  PerfReport report;
  report.name = "sim_micro";
  report.quick = quick;
  const auto started = std::chrono::steady_clock::now();
  bench_events(event_iters, report);
  bench_frames(frame_iters, report);
  bench_verifies(verify_rounds, report);
  report.wall_seconds = seconds_since(started);

  harness::print_metrics(report);
  std::fprintf(stderr, "wall-clock: %.2f s\n", *report.wall_seconds);
  return harness::finish_perf_report(report, json_path);
}

}  // namespace
}  // namespace turq

int main(int argc, char** argv) { return turq::run(argc, argv); }
