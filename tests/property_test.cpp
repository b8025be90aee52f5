// Property-based tests: randomized inputs against structural invariants.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "net/medium.hpp"
#include "sim/simulator.hpp"
#include "turquois/config.hpp"
#include "turquois/message.hpp"
#include "turquois/view.hpp"

namespace turq {
namespace {

// ------------------------------------------------------------- view fuzz

class ViewFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ViewFuzz, CountsAlwaysConsistent) {
  Rng rng(GetParam());
  turquois::View view;
  std::map<std::pair<ProcessId, turquois::Phase>, Value> reference;

  for (int i = 0; i < 2000; ++i) {
    turquois::Message m;
    m.sender = static_cast<ProcessId>(rng.uniform(16));
    m.phase = static_cast<turquois::Phase>(1 + rng.uniform(30));
    m.value = static_cast<Value>(rng.uniform(3));
    m.status = rng.coin() ? Status::kDecided : Status::kUndecided;
    const bool inserted = view.insert(m);
    const bool fresh = reference.emplace(std::pair{m.sender, m.phase}, m.value)
                           .second;
    EXPECT_EQ(inserted, fresh);
  }

  // Reference recount must match every View query.
  EXPECT_EQ(view.size(), reference.size());
  for (turquois::Phase phase = 1; phase <= 31; ++phase) {
    std::size_t total = 0;
    std::size_t per_value[3] = {};
    for (const auto& [key, v] : reference) {
      if (key.second != phase) continue;
      ++total;
      ++per_value[static_cast<std::size_t>(v)];
    }
    EXPECT_EQ(view.count_phase(phase), total) << "phase " << phase;
    for (int v = 0; v < 3; ++v) {
      EXPECT_EQ(view.count_phase_value(phase, static_cast<Value>(v)),
                per_value[v]);
    }
  }

  // highest_phase_message matches the reference maximum.
  turquois::Phase max_phase = 0;
  for (const auto& [key, v] : reference) {
    max_phase = std::max(max_phase, key.second);
  }
  if (max_phase > 0) {
    ASSERT_NE(view.highest_phase_message(), nullptr);
    EXPECT_EQ(view.highest_phase_message()->phase, max_phase);
  }
}

TEST_P(ViewFuzz, WideSendersExtremePhasesAndDecidedMixes) {
  // Stresses the paths the n<=16 fuzz above never reaches: sender ids
  // across both 64-bit words of the SenderSet that count_phase_at_least
  // unions, phases at the max_phase end of the range, and kDecided/
  // from_coin header mixes (which must not affect any count).
  Rng rng(GetParam());
  turquois::View view;
  std::map<std::pair<ProcessId, turquois::Phase>, Value> reference;
  constexpr turquois::Phase kMaxPhase = 100000;

  for (int i = 0; i < 2000; ++i) {
    turquois::Message m;
    m.sender = static_cast<ProcessId>(rng.uniform(128));  // 0..127
    // Half the inserts cluster at the top of the phase range.
    m.phase = rng.coin()
                  ? static_cast<turquois::Phase>(1 + rng.uniform(8))
                  : static_cast<turquois::Phase>(kMaxPhase - rng.uniform(8));
    m.value = static_cast<Value>(rng.uniform(3));
    m.status = rng.coin() ? Status::kDecided : Status::kUndecided;
    m.from_coin = rng.coin();
    const bool inserted = view.insert(m);
    const bool fresh =
        reference.emplace(std::pair{m.sender, m.phase}, m.value).second;
    EXPECT_EQ(inserted, fresh);
  }

  EXPECT_EQ(view.size(), reference.size());
  for (const turquois::Phase phase :
       {turquois::Phase{1}, turquois::Phase{8}, kMaxPhase - 7, kMaxPhase}) {
    std::size_t total = 0;
    std::size_t per_value[3] = {};
    for (const auto& [key, v] : reference) {
      if (key.second != phase) continue;
      ++total;
      ++per_value[static_cast<std::size_t>(v)];
    }
    EXPECT_EQ(view.count_phase(phase), total) << "phase " << phase;
    for (int v = 0; v < 3; ++v) {
      EXPECT_EQ(view.count_phase_value(phase, static_cast<Value>(v)),
                per_value[v]);
    }
  }

  // count_phase_at_least must agree with a reference distinct-sender scan,
  // with senders below and above 64.
  for (const turquois::Phase cutoff :
       {turquois::Phase{1}, turquois::Phase{5}, kMaxPhase - 7, kMaxPhase}) {
    std::set<ProcessId> senders;
    for (const auto& [key, v] : reference) {
      if (key.second >= cutoff) senders.insert(key.first);
    }
    EXPECT_EQ(view.count_phase_at_least(cutoff), senders.size())
        << "cutoff " << cutoff;
  }
}

TEST_P(ViewFuzz, HighestPointerSurvivesCopyMoveClearInterleavings) {
  // The view's copies and moves are the defaulted ones: a copy must be
  // independent of its source, and moves/clears must keep the
  // highest-phase message coherent. Hammer random interleavings of
  // insert / copy-construct / copy-assign / move / clear and compare the
  // highest-phase message against a reference after every step.
  Rng rng(GetParam());
  turquois::View view;
  std::map<std::pair<ProcessId, turquois::Phase>, Value> reference;

  const auto check = [](const turquois::View& v,
                        const std::map<std::pair<ProcessId, turquois::Phase>,
                                       Value>& ref) {
    turquois::Phase max_phase = 0;
    ProcessId min_sender = 0;
    for (const auto& [key, value] : ref) {
      if (key.second > max_phase) {
        max_phase = key.second;
        min_sender = key.first;
      } else if (key.second == max_phase && key.first < min_sender) {
        min_sender = key.first;
      }
    }
    if (max_phase == 0) {
      EXPECT_EQ(v.highest_phase_message(), nullptr);
      return;
    }
    ASSERT_NE(v.highest_phase_message(), nullptr);
    EXPECT_EQ(v.highest_phase_message()->phase, max_phase);
    EXPECT_EQ(v.highest_phase_message()->sender, min_sender);
  };

  for (int step = 0; step < 600; ++step) {
    switch (rng.uniform(10)) {
      case 0: {  // copy-construct, then mutate the source: the copy
                 // must not see the source's insert.
        turquois::View copy(view);
        auto ref_copy = reference;
        turquois::Message m;
        m.sender = static_cast<ProcessId>(rng.uniform(70));
        m.phase = static_cast<turquois::Phase>(1 + rng.uniform(40));
        m.value = Value::kOne;
        view.insert(m);
        reference.emplace(std::pair{m.sender, m.phase}, m.value);
        check(copy, ref_copy);
        view = copy;  // copy-assign back (drops the extra insert)
        reference = std::move(ref_copy);
        break;
      }
      case 1: {  // move through a temporary
        turquois::View moved(std::move(view));
        view = std::move(moved);
        break;
      }
      case 2: {  // self-assignment must be a no-op
        turquois::View& self = view;
        view = self;
        break;
      }
      case 3: {
        if (rng.uniform(4) == 0) {  // occasional full reset
          view.clear();
          reference.clear();
        }
        break;
      }
      default: {  // plain insert (most common op)
        turquois::Message m;
        m.sender = static_cast<ProcessId>(rng.uniform(70));
        m.phase = static_cast<turquois::Phase>(1 + rng.uniform(40));
        m.value = static_cast<Value>(rng.uniform(3));
        m.status = rng.coin() ? Status::kDecided : Status::kUndecided;
        view.insert(m);
        reference.emplace(std::pair{m.sender, m.phase}, m.value);
        break;
      }
    }
    check(view, reference);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ViewFuzz,
                         ::testing::Range<std::uint64_t>(0, 6));

// ------------------------------------------------------------ codec fuzz

class CodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecFuzz, RandomBytesNeverCrashAndNeverFalselyDecode) {
  Rng rng(GetParam());
  for (int i = 0; i < 5000; ++i) {
    Bytes junk(rng.uniform(200));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    // Must not crash; a successful decode must re-encode consistently.
    const auto d = turquois::Datagram::decode(junk);
    if (d.has_value()) {
      const auto round2 = turquois::Datagram::decode(d->encode());
      ASSERT_TRUE(round2.has_value());
      EXPECT_EQ(round2->main, d->main);
    }
  }
}

TEST_P(CodecFuzz, TruncationsOfValidDatagramsFailCleanly) {
  Rng rng(GetParam());
  turquois::Datagram d;
  d.main = turquois::Message{.sender = 3,
                             .phase = 7,
                             .value = Value::kOne,
                             .status = Status::kUndecided,
                             .from_coin = false,
                             .auth_sk = Bytes(32, 0x42)};
  for (int j = 0; j < 3; ++j) {
    d.justification.push_back(d.main);
    d.justification.back().sender = static_cast<ProcessId>(j);
  }
  const Bytes enc = d.encode();
  for (std::size_t cut = 0; cut < enc.size(); ++cut) {
    const Bytes prefix(enc.begin(), enc.begin() + static_cast<long>(cut));
    const auto decoded = turquois::Datagram::decode(prefix);
    // Any prefix that decodes must decode to a self-consistent datagram;
    // most must fail. Never crash.
    if (decoded.has_value()) {
      EXPECT_LE(decoded->justification.size(), d.justification.size());
    }
  }
}

TEST_P(CodecFuzz, BitFlipsOfValidDatagramsNeverAbort) {
  Rng rng(GetParam());
  turquois::Datagram d;
  d.main = turquois::Message{.sender = 3,
                             .phase = 6,
                             .value = Value::kBottom,
                             .status = Status::kUndecided,
                             .from_coin = false,
                             .auth_sk = Bytes(32, 0x5A)};
  for (int j = 0; j < 4; ++j) {
    d.justification.push_back(d.main);
    d.justification.back().sender = static_cast<ProcessId>(j);
    d.justification.back().auth_sk =
        Bytes(static_cast<std::size_t>(8 * j), 0x11);
  }
  const Bytes enc = d.encode();
  for (int i = 0; i < 5000; ++i) {
    Bytes flipped = enc;
    const std::uint64_t flips = 1 + rng.uniform(4);
    for (std::uint64_t k = 0; k < flips; ++k) {
      flipped[rng.uniform(flipped.size())] ^=
          static_cast<std::uint8_t>(1u << rng.uniform(8));
    }
    // A flip in a length field may claim any key size; the decoder must
    // fail cleanly or yield a datagram that re-encodes to the same bytes.
    const auto decoded = turquois::Datagram::decode(flipped);
    if (!decoded.has_value()) continue;
    EXPECT_LE(decoded->main.auth_sk.size(), turquois::AuthKey::kMaxBytes);
    for (const turquois::Message& m : decoded->justification) {
      EXPECT_LE(m.auth_sk.size(), turquois::AuthKey::kMaxBytes);
    }
    if (decoded->encode().size() == flipped.size()) {
      EXPECT_EQ(decoded->encode(), flipped);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz,
                         ::testing::Range<std::uint64_t>(10, 14));

/// A datagram whose main message claims a `key_len`-byte key and carries
/// `present` key bytes, followed by `attachments` copies of the same core
/// (hand-encoded: Message::encode_core cannot write an oversized key).
Bytes datagram_with_key_field(std::uint32_t key_len, std::size_t present,
                              std::uint16_t attachments = 0) {
  const auto core = [&](Writer& w) {
    w.u32(1);  // sender
    w.u32(4);  // phase
    w.u8(static_cast<std::uint8_t>(Value::kOne));
    w.u8(static_cast<std::uint8_t>(Status::kUndecided));
    w.u8(0);  // from_coin
    w.u32(key_len);
    for (std::size_t i = 0; i < present; ++i) {
      w.u8(static_cast<std::uint8_t>(0xC0 + i));
    }
  };
  Writer w;
  w.u8(0x54);  // datagram tag
  core(w);
  w.u16(attachments);
  for (std::uint16_t i = 0; i < attachments; ++i) core(w);
  return w.take();
}

TEST(CodecKeyLength, KeysUpTo32BytesRoundTripLongerOnesAreRejected) {
  for (std::uint32_t len = 0; len <= 33; ++len) {
    for (const std::uint16_t attachments :
         {std::uint16_t{0}, std::uint16_t{2}}) {
      const Bytes enc = datagram_with_key_field(len, len, attachments);
      const auto decoded = turquois::Datagram::decode(enc);
      if (len > turquois::AuthKey::kMaxBytes) {
        EXPECT_FALSE(decoded.has_value()) << "key length " << len;
        continue;
      }
      ASSERT_TRUE(decoded.has_value()) << "key length " << len;
      ASSERT_EQ(decoded->main.auth_sk.size(), len);
      for (std::uint32_t i = 0; i < len; ++i) {
        EXPECT_EQ(decoded->main.auth_sk.data()[i], 0xC0 + i);
      }
      ASSERT_EQ(decoded->justification.size(), attachments);
      for (const turquois::Message& m : decoded->justification) {
        EXPECT_EQ(m, decoded->main);
      }
      EXPECT_EQ(decoded->encode(), enc) << "key length " << len;
    }
  }
  // Oversized keys are rejected whether or not their bytes are present,
  // and a length no buffer can satisfy fails cleanly.
  EXPECT_FALSE(turquois::Datagram::decode(datagram_with_key_field(64, 64)));
  EXPECT_FALSE(turquois::Datagram::decode(datagram_with_key_field(64, 8)));
  EXPECT_FALSE(
      turquois::Datagram::decode(datagram_with_key_field(0xFFFFFFFFu, 32)));
  EXPECT_FALSE(
      turquois::Datagram::decode(datagram_with_key_field(0xFFFFFFFFu, 0, 3)));
  // One oversized attachment makes the whole datagram malformed.
  Bytes mixed = datagram_with_key_field(32, 32, 1);
  const std::size_t attached_len_at = mixed.size() - 32 - 4;
  mixed[attached_len_at] = 33;
  mixed.push_back(0xEE);
  EXPECT_FALSE(turquois::Datagram::decode(mixed).has_value());
}

// ------------------------------------------------------ medium invariants

class MediumConservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MediumConservation, DeliveriesPlusOmissionsMatchExpectations) {
  // For every broadcast frame that survives the MAC, each of the other n-1
  // attached receivers either gets it or is counted as an omission.
  Rng seed_rng(GetParam());
  sim::Simulator sim;
  net::Medium medium(sim, net::MediumConfig{}, Rng(GetParam()));
  constexpr std::uint32_t kNodes = 6;
  std::uint64_t received = 0;
  for (ProcessId id = 0; id < kNodes; ++id) {
    medium.attach(id, [&received](ProcessId, BytesView, bool) { ++received; });
  }
  net::IidLoss loss(0.3, Rng(GetParam() + 1));
  medium.set_fault_injector(&loss);

  // Staggered broadcasts (no collisions: one sender at a time).
  for (int i = 0; i < 50; ++i) {
    sim.schedule(i * 10 * kMillisecond, [&medium, i] {
      medium.send_broadcast(static_cast<ProcessId>(i % kNodes), Bytes(20, 1));
    });
  }
  sim.run();

  const auto& s = medium.stats();
  EXPECT_EQ(s.collisions, 0u);
  EXPECT_EQ(s.broadcast_frames, 50u);
  EXPECT_EQ(s.deliveries + s.omissions, 50u * (kNodes - 1));
  EXPECT_EQ(received, s.deliveries);
  // 30% loss: omissions in a sane band around 75 of 250.
  EXPECT_GT(s.omissions, 30u);
  EXPECT_LT(s.omissions, 130u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MediumConservation,
                         ::testing::Range<std::uint64_t>(20, 26));

// --------------------------------------------------- sigma bound structure

TEST(SigmaBound, MonotoneInKAndT) {
  using turquois::sigma_bound;
  // More required deciders -> tighter tolerance to omissions (k term) but
  // the dominant (n-k) product shrinks; at fixed t the bound decreases in k.
  for (std::uint32_t n = 4; n <= 16; ++n) {
    const std::uint32_t f = (n - 1) / 3;
    for (std::uint32_t k = (n + f) / 2 + 1; k + 1 <= n - f; ++k) {
      EXPECT_GE(sigma_bound(n, k, 0), sigma_bound(n, k + 1, 0) - 1)
          << "n=" << n << " k=" << k;
    }
    // Actually-faulty processes reduce the tolerable omissions.
    const std::uint32_t k = n - f;
    for (std::uint32_t t = 0; t < f; ++t) {
      EXPECT_GE(sigma_bound(n, k, t), sigma_bound(n, k, t + 1))
          << "n=" << n << " t=" << t;
    }
  }
}

TEST(SigmaBound, PaperExampleValues) {
  // Spot values derivable by hand from σ = ceil((n-t)/2)(n-k-t) + k - 2.
  EXPECT_EQ(turquois::sigma_bound(4, 3, 0), 3);
  EXPECT_EQ(turquois::sigma_bound(7, 5, 0), 11);
  EXPECT_EQ(turquois::sigma_bound(10, 7, 0), 20);
  EXPECT_EQ(turquois::sigma_bound(16, 11, 0), 49);
}

}  // namespace
}  // namespace turq
