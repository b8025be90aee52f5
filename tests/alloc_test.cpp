// Allocation regression tests for the Turquois message path and the
// reliable channel.
//
// Copying, decoding and storing messages sits on every broadcast and every
// delivery, so it must not touch the heap beyond the few allocations the
// data structures need: a Message is trivially copyable (its revealed key
// is stored inline), a decoded datagram owns one vector, and a View phase
// book that already exists absorbs inserts in place.
//
// This binary replaces the global allocator with a counting wrapper (the
// pattern bench/sim_micro.cpp uses) and counts the allocations inside each
// measured region. It also tracks the bytes the heap holds live (as
// malloc_usable_size reports them) and their peak, so a test can bound how
// much a whole run keeps at once. The tests are single-threaded, so plain
// counters are enough.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/cost_model.hpp"
#include "harness/experiment.hpp"
#include "net/medium.hpp"
#include "net/reliable_channel.hpp"
#include "sim/cpu.hpp"
#include "service/service.hpp"
#include "sim/simulator.hpp"
#include "turquois/message.hpp"
#include "turquois/process.hpp"
#include "turquois/view.hpp"

namespace {
std::uint64_t g_allocs = 0;
std::uint64_t g_live_bytes = 0;
std::uint64_t g_peak_live_bytes = 0;

void* counted_alloc(std::size_t size) noexcept {
  ++g_allocs;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr) {
    g_live_bytes += malloc_usable_size(p);
    g_peak_live_bytes = std::max(g_peak_live_bytes, g_live_bytes);
  }
  return p;
}

void* counted_alloc_or_throw(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}

void counted_free(void* p) noexcept {
  if (p != nullptr) g_live_bytes -= malloc_usable_size(p);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc_or_throw(size); }
void* operator new[](std::size_t size) { return counted_alloc_or_throw(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace turq::turquois {
namespace {

/// Allocations made by `fn`.
template <typename Fn>
std::uint64_t allocations_in(Fn&& fn) {
  const std::uint64_t before = g_allocs;
  fn();
  return g_allocs - before;
}

/// The most heap `fn` held live at once, beyond what was live before it.
template <typename Fn>
std::uint64_t peak_live_bytes_in(Fn&& fn) {
  const std::uint64_t before = g_live_bytes;
  g_peak_live_bytes = before;
  fn();
  return g_peak_live_bytes - before;
}

Message keyed(ProcessId sender, Phase phase, Value v) {
  return Message{.sender = sender,
                 .phase = phase,
                 .value = v,
                 .status = Status::kUndecided,
                 .from_coin = false,
                 .auth_sk = Bytes(AuthKey::kMaxBytes,
                                  static_cast<std::uint8_t>(sender))};
}

TEST(Allocations, CounterSeesHeapAllocations) {
  // Guards the tests below against a counter that never counts.
  EXPECT_EQ(allocations_in([] { Bytes b(64, 1); EXPECT_EQ(b.size(), 64u); }),
            1u);
}

TEST(Allocations, CopyingAMessageAllocatesNothing) {
  const Message m = keyed(3, 7, Value::kOne);
  std::vector<Message> sink;
  sink.reserve(16);
  EXPECT_EQ(allocations_in([&] {
              for (int i = 0; i < 16; ++i) sink.push_back(m);
              Message assigned;
              assigned = sink.back();
              EXPECT_EQ(assigned, m);
            }),
            0u);
  EXPECT_EQ(sink.front().auth_sk, m.auth_sk);
}

TEST(Allocations, DecodingAFullDatagramAllocatesOnlyItsJustification) {
  Datagram d;
  d.main = keyed(0, 9, Value::kZero);
  for (std::size_t i = 0; i < Process::kMaxAttachments; ++i) {
    d.justification.push_back(
        keyed(static_cast<ProcessId>(i), 8, Value::kZero));
  }
  const net::FramedPayload enc = d.encode();
  std::optional<Datagram> decoded;
  EXPECT_EQ(allocations_in([&] { decoded = Datagram::decode(enc.payload()); }),
            1u);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->main, d.main);
  ASSERT_EQ(decoded->justification.size(), Process::kMaxAttachments);
  EXPECT_EQ(decoded->justification.back(), d.justification.back());
}

TEST(Allocations, InsertingIntoAnExistingPhaseBookAllocatesNothing) {
  constexpr ProcessId n = 64;
  std::vector<Message> phase1;
  std::vector<Message> phase2;
  for (ProcessId s = 0; s < n; ++s) {
    phase1.push_back(keyed(s, 1, Value::kOne));
    phase2.push_back(keyed(s, 2, Value::kZero));
  }
  Message equivocation = phase1[5];
  equivocation.value = Value::kZero;

  View view;
  // The widest sender first sizes the phase-1 book's slot array to n.
  ASSERT_TRUE(view.insert(phase1[n - 1]));
  EXPECT_EQ(allocations_in([&] {
              for (ProcessId s = 0; s + 1 < n; ++s) {
                EXPECT_TRUE(view.insert(phase1[s]));
              }
              EXPECT_FALSE(view.insert(equivocation));
            }),
            0u);
  EXPECT_EQ(view.count_phase(1), n);

  // A later phase's book starts n wide, so only its creation allocates.
  ASSERT_TRUE(view.insert(phase2[0]));
  EXPECT_EQ(allocations_in([&] {
              for (ProcessId s = 1; s < n; ++s) {
                EXPECT_TRUE(view.insert(phase2[s]));
              }
            }),
            0u);
  EXPECT_EQ(view.count_phase_value(2, Value::kZero), n);
}

TEST(Allocations, SameInstantLaneReusesItsCapacity) {
  // Each tick fans out a burst of same-instant events (the medium's
  // deliveries), one of which chains another same-instant event and one
  // of which is cancelled. Once a first run of ticks has grown the slot
  // arena, heap and lane, more ticks allocate nothing.
  sim::Simulator sim;
  int remaining = 0;
  std::uint64_t fired = 0;
  std::vector<sim::EventId> burst(64);
  struct Tick {
    sim::Simulator* sim;
    int* remaining;
    std::uint64_t* fired;
    std::vector<sim::EventId>* burst;
    void operator()() const {
      for (std::size_t i = 0; i < burst->size(); ++i) {
        (*burst)[i] = sim->schedule(0, [s = sim, f = fired, i] {
          ++*f;
          if (i == 0) s->schedule(0, [f] { ++*f; });
        });
      }
      sim->cancel((*burst)[7]);
      if (--*remaining > 0) sim->schedule(10, *this);
    }
  };
  const Tick tick{&sim, &remaining, &fired, &burst};
  remaining = 100;
  sim.schedule(10, tick);
  sim.run();
  const std::uint64_t warm = fired;
  remaining = 1000;
  EXPECT_EQ(allocations_in([&] {
              sim.schedule(10, tick);
              sim.run();
            }),
            0u);
  EXPECT_EQ(fired - warm, 1000u * 64u);
  EXPECT_EQ(sim.queue_entries(), 0u);
}

TEST(Allocations, LiveBytesFollowAllocationAndRelease) {
  // Guards the bound below against a live-byte counter that never moves.
  const std::uint64_t peak = peak_live_bytes_in([] {
    std::vector<std::uint8_t> big(1 << 20, 1);
    EXPECT_EQ(big.back(), 1);
  });
  EXPECT_GE(peak, 1u << 20);
  const std::uint64_t before = g_live_bytes;
  { const std::vector<std::uint8_t> gone(4096, 2); }
  EXPECT_EQ(g_live_bytes, before);
}

TEST(Allocations, ServiceHeapIsBoundedByTheWindowNotTheRequestCount) {
  // A service repetition keeps about W instances live (plus those whose
  // CPUs are still draining), with their processes, pools and key batches,
  // however many requests it commits. Eight times the requests may add
  // only the per-request bookkeeping (latency samples, arrival stamps).
  harness::ScenarioConfig cfg;
  cfg.n = 4;
  cfg.seed = 7;
  cfg.service.enabled = true;
  cfg.service.pipeline_depth = 4;
  cfg.service.batch = 4;
  cfg.service.offered_load = 4000.0;
  const auto peak_at = [&](std::uint64_t requests) {
    cfg.service.total_requests = requests;
    return peak_live_bytes_in([&] {
      const harness::RunResult run = service::run_service_once(cfg, 0);
      ASSERT_TRUE(run.service.has_value());
      EXPECT_EQ(run.service->committed, requests);
    });
  };
  const std::uint64_t small = peak_at(128);
  const std::uint64_t large = peak_at(1024);
  EXPECT_GT(small, 0u);
  EXPECT_LE(static_cast<double>(large), 1.5 * static_cast<double>(small))
      << "peak live heap " << small << " B at 128 requests, " << large
      << " B at 1024";
}

TEST(Allocations, TcpSteadyStateAllocatesOnlyItsFrames) {
  // An authenticated pair over a lossless medium, both directions busy.
  // Once a first burst has sized every buffer, a burst of small messages
  // allocates nothing per message. Per frame, the channel allocates the
  // frame buffer and the medium the shared payload around it; the medium's
  // per-node frame queue (a std::deque) also takes a block now and then as
  // it cycles, well under one per frame. So 3 per frame is a bound that one
  // more allocation per segment, or any per message, breaks.
  sim::Simulator sim;
  net::Medium medium(sim, net::MediumConfig{}, Rng(3));
  const crypto::CostModel costs;
  net::TcpConfig cfg;
  cfg.authenticate = true;
  std::vector<std::unique_ptr<sim::VirtualCpu>> cpus;
  std::vector<std::unique_ptr<net::TcpHost>> hosts;
  std::uint64_t delivered = 0;
  for (ProcessId id = 0; id < 2; ++id) {
    cpus.push_back(std::make_unique<sim::VirtualCpu>(sim));
    hosts.push_back(std::make_unique<net::TcpHost>(sim, medium, id, cfg,
                                                   cpus.back().get(), &costs));
    hosts.back()->set_peer_key(1 - id, Bytes(32, 0x5A));
    hosts.back()->set_handler([&](ProcessId, BytesView m) {
      delivered += m.size();
    });
  }
  Bytes framed;
  constexpr std::size_t kBurst = 400;
  for (std::size_t i = 0; i < kBurst; ++i) {
    net::TcpHost::append_framed(framed, Bytes(12, static_cast<std::uint8_t>(i)));
  }
  const Bytes single(12, 0xAB);
  const auto burst = [&] {
    for (ProcessId id = 0; id < 2; ++id) {
      hosts[id]->send_framed(1 - id, framed, kBurst);
      hosts[id]->send(1 - id, single);
      hosts[id]->send(id, single);  // loopback
    }
    sim.run();
  };
  burst();
  const std::uint64_t frames_before = medium.stats().unicast_frames;
  const std::uint64_t delivered_before = delivered;
  const std::uint64_t allocs = allocations_in(burst);
  const std::uint64_t frames = medium.stats().unicast_frames - frames_before;
  EXPECT_EQ(delivered - delivered_before, 2 * (kBurst + 2) * 12);
  EXPECT_GT(frames, 0u);
  EXPECT_LE(allocs, 3 * frames) << frames << " frames";
}

}  // namespace
}  // namespace turq::turquois
