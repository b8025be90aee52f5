// Allocation regression tests for the Turquois message path.
//
// Copying, decoding and storing messages sits on every broadcast and every
// delivery, so it must not touch the heap beyond the few allocations the
// data structures need: a Message is trivially copyable (its revealed key
// is stored inline), a decoded datagram owns one vector, and a View phase
// book that already exists absorbs inserts in place.
//
// This binary replaces the global allocator with a counting wrapper (the
// pattern bench/sim_micro.cpp uses) and counts the allocations inside each
// measured region. The tests are single-threaded, so a plain counter is
// enough.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "common/bytes.hpp"
#include "turquois/message.hpp"
#include "turquois/process.hpp"
#include "turquois/view.hpp"

namespace {
std::uint64_t g_allocs = 0;

void* counted_alloc(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
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
  const Bytes enc = d.encode();
  std::optional<Datagram> decoded;
  EXPECT_EQ(allocations_in([&] { decoded = Datagram::decode(enc); }), 1u);
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

}  // namespace
}  // namespace turq::turquois
