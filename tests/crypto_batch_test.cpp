// Equivalence tests for the SHA-256 kernels (sha256_batch.hpp, and the
// Sha256 context the same pin steers) against published vectors and the
// portable kernel: NIST CAVP short-message vectors, FIPS 180 and RFC 4231
// vectors, random lengths straddling block boundaries, every length to 130
// bytes in every group size to 9, incremental context updates at every
// split point, batched HMAC, batched OTS, and the batched key-chain
// generator. Every test runs under each forced implementation
// (scalar-lanes, AVX2, SHA-NI) and under whatever kAuto resolves to; a
// forced kernel this CPU lacks skips its cases.
#include <gtest/gtest.h>

#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/hmac.hpp"
#include "crypto/onetime_sig.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_batch.hpp"

namespace turq::crypto {
namespace {

class Sha256BatchTest : public ::testing::TestWithParam<Sha256Impl> {
 protected:
  void SetUp() override {
    sha256_batch_force_impl(GetParam());
    if (GetParam() != Sha256Impl::kAuto &&
        sha256_batch_resolved_impl() != GetParam()) {
      GTEST_SKIP() << to_string(GetParam()) << " not available, resolves to "
                   << to_string(sha256_batch_resolved_impl());
    }
  }
  void TearDown() override { sha256_batch_force_impl(Sha256Impl::kAuto); }

  /// Runs `fn` with the portable kernels pinned, then restores the pin.
  template <typename Fn>
  auto portable(Fn fn) {
    sha256_batch_force_impl(Sha256Impl::kScalarLanes);
    auto result = fn();
    sha256_batch_force_impl(GetParam());
    return result;
  }
};

// NIST CAVP SHA256ShortMsg.rsp excerpts (msg hex, digest hex).
struct CavpVector {
  const char* msg;
  const char* digest;
};

constexpr CavpVector kCavp[] = {
    {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
    {"d3", "28969cdfa74a12c82f3bad960b0b000aca2ac329deea5c2328ebc6f2ba9802c1"},
    {"11af", "5ca7133fa735326081558ac312c620eeca9970d1e70a4b95533d956f072d1f98"},
    {"b4190e", "dff2e73091f6c05e528896c4c831b9448653dc2ff043528f6769437bc7b975c2"},
    {"74ba2521", "b16aa56be3880d18cd41e68384cf1ec8c17680c45a02b1575dc1518923ae8b0e"},
    {"c299209682", "f0887fe961c9cd3beab957e8222494abb969b1ce4c6557976df8b0f6d20e9166"},
    {"e1dc724d5621", "eca0a060b489636225b4fa64d267dabbe44273067ac679f20820bddc6b6a90ac"},
    {"06e076f5a442d5", "3fd877e27450e6bbd5d74bb82f9870c64c66e109418baa8e6bbcff355e287926"},
    {"5738c929c4f4ccb6", "963bb88f27f512777aab6c8b1a02c70ec0ad651d428f870036e1917120fb48bf"},
    {"3334c58075d3f4139e", "078da3d77ed43bd3037a433fd0341855023793f9afd08b4b08ea1e5597ceef20"},
    {"0a27847cdc98bd6f62220b046edd762b",
     "80c25ec1600587e7f28b18b1b18e3cdc89928e39cab3bc25e4d4a4c139bcedc4"},
    {"c98c8e55a0afe5d49d4ea24b8f4d6161454d7e2f8857e3c934d213a17541b21f",
     "16d6a457ec595d6413f2906e30354ff11b309c8dce9d2b35ad4551611950a15c"},
};

TEST_P(Sha256BatchTest, CavpVectors) {
  std::vector<Bytes> msgs;
  std::vector<BytesView> views;
  for (const auto& v : kCavp) msgs.push_back(from_hex(v.msg));
  for (const auto& m : msgs) views.emplace_back(m);
  std::vector<Digest> out(views.size());
  sha256_batch(views.data(), views.size(), out.data());
  for (std::size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(to_hex(digest_bytes(out[i])), kCavp[i].digest) << "i=" << i;
    EXPECT_EQ(out[i], Sha256::hash(views[i])) << "i=" << i;
  }
}

TEST_P(Sha256BatchTest, Fips180AndRfc4231Vectors) {
  EXPECT_EQ(to_hex(digest_bytes(Sha256::hash(std::string_view("abc")))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      to_hex(digest_bytes(Sha256::hash(std::string_view(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  Sha256 ctx;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(to_hex(digest_bytes(ctx.finalize())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");

  // RFC 4231 cases 1, 2 and 6 (key longer than a block), through the
  // context and the batch path.
  const Bytes key1(20, 0x0b);
  const Bytes key6(131, 0xaa);
  const HmacKey keys[] = {HmacKey(key1), HmacKey(as_bytes("Jefe")),
                          HmacKey(key6)};
  const Bytes msgs[] = {
      to_bytes("Hi There"), to_bytes("what do ya want for nothing?"),
      to_bytes("Test Using Larger Than Block-Size Key - Hash Key First")};
  const char* const want[] = {
      "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"};
  HmacJob jobs[3];
  for (int i = 0; i < 3; ++i) jobs[i] = {.key = &keys[i], .message = msgs[i]};
  Digest batched[3];
  hmac_sha256_batch(jobs, 3, batched);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(to_hex(digest_bytes(keys[i].mac(msgs[i]))), want[i]) << i;
    EXPECT_EQ(to_hex(digest_bytes(batched[i])), want[i]) << i;
  }
}

TEST_P(Sha256BatchTest, ContextMatchesPortableOneShot) {
  Rng rng(0xc0ffeeu);
  Bytes data(300);
  for (auto& c : data) c = static_cast<std::uint8_t>(rng.next());
  const auto prefix = [&](std::size_t len) {
    return BytesView(data.data(), len);
  };
  const std::vector<Digest> want = portable([&] {
    std::vector<Digest> d;
    for (std::size_t len = 0; len <= data.size(); ++len) {
      d.push_back(Sha256::hash(prefix(len)));
    }
    return d;
  });

  // Every length 0..300, one-shot and fed in uneven chunks (1, 2, 3, ...
  // bytes) so the buffered tail and multi-block updates both run.
  for (std::size_t len = 0; len <= data.size(); ++len) {
    EXPECT_EQ(Sha256::hash(prefix(len)), want[len]) << "len=" << len;
    Sha256 ctx;
    for (std::size_t at = 0, step = 1; at < len; at += step, ++step) {
      ctx.update(BytesView(data.data() + at, std::min(step, len - at)));
    }
    EXPECT_EQ(ctx.finalize(), want[len]) << "chunked len=" << len;
  }
  // Every split point of the lengths around the padding boundaries.
  for (const std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    for (std::size_t split = 0; split <= len; ++split) {
      Sha256 ctx;
      ctx.update(BytesView(data.data(), split));
      ctx.update(BytesView(data.data() + split, len - split));
      EXPECT_EQ(ctx.finalize(), want[len]) << "len=" << len
                                           << " split=" << split;
    }
  }
}

TEST_P(Sha256BatchTest, RandomLengthsStraddlingBlockBoundaries) {
  Rng rng(0x5eedu);
  std::vector<Bytes> msgs;
  // Deliberately hit every interesting padding regime: 55/56/57 (one- vs
  // two-block tail), exact multiples of 64, and random lengths up to 4 KiB.
  for (const std::size_t len : {0u, 1u, 54u, 55u, 56u, 57u, 63u, 64u, 65u,
                                119u, 120u, 121u, 127u, 128u, 129u}) {
    Bytes b(len);
    for (auto& c : b) c = static_cast<std::uint8_t>(rng.next());
    msgs.push_back(std::move(b));
  }
  for (int i = 0; i < 40; ++i) {
    Bytes b(rng.next() % 4096);
    for (auto& c : b) c = static_cast<std::uint8_t>(rng.next());
    msgs.push_back(std::move(b));
  }
  std::vector<BytesView> views(msgs.begin(), msgs.end());
  std::vector<Digest> out(views.size());
  sha256_batch(views.data(), views.size(), out.data());
  for (std::size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(out[i], Sha256::hash(views[i]))
        << "len=" << views[i].size() << " i=" << i;
  }
}

TEST_P(Sha256BatchTest, EveryPartialGroupSize) {
  // Counts 0..17 cover empty, every partial lane group, and 2+ full sweeps.
  for (std::size_t count = 0; count <= 2 * kSha256Lanes + 1; ++count) {
    std::vector<Bytes> msgs;
    for (std::size_t i = 0; i < count; ++i) {
      msgs.emplace_back(i * 17 + 3, static_cast<std::uint8_t>(i));
    }
    std::vector<BytesView> views(msgs.begin(), msgs.end());
    std::vector<Digest> out(count);
    sha256_batch(views.data(), count, out.data());
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(out[i], Sha256::hash(views[i]))
          << "count=" << count << " i=" << i;
    }
  }
}

TEST_P(Sha256BatchTest, EveryLengthToTwoBlocksInEveryGroupSize) {
  // Lengths 0..130 cover one-, two- and three-block paddings, with the
  // 55/56 (length field spills into a second block) and 64/128 (a whole
  // padding block) edges. Group sizes 1..9 cover a lone lane, odd and even
  // pairings of equal-length neighbours, and a second group. Every third
  // lane is one byte longer, so some neighbours cannot pair.
  Rng rng(0x1e57u);
  Bytes pool(2 * 131 * 9);
  for (auto& c : pool) c = static_cast<std::uint8_t>(rng.next());
  for (std::size_t len = 0; len <= 130; ++len) {
    for (std::size_t group = 1; group <= 9; ++group) {
      std::vector<BytesView> views;
      for (std::size_t i = 0; i < group; ++i) {
        views.push_back(BytesView(pool).subspan(i * 2 * 131,
                                                len + (i % 3 == 2 ? 1 : 0)));
      }
      const std::vector<Digest> want = portable([&] {
        std::vector<Digest> d;
        for (const BytesView v : views) d.push_back(Sha256::hash(v));
        return d;
      });
      std::vector<Digest> out(group);
      sha256_batch(views.data(), group, out.data());
      for (std::size_t i = 0; i < group; ++i) {
        ASSERT_EQ(out[i], want[i]) << "len=" << views[i].size()
                                   << " group=" << group << " i=" << i;
      }
    }
  }
}

TEST_P(Sha256BatchTest, OtsBatchAtEveryLengthAndGroupSize) {
  // Genuine 32-byte keys interleaved with revealed keys of every length
  // 0..130: each verdict must match the scalar check, which hashes with
  // Sha256::hash, in groups of every size 1..9.
  Rng rng(0x07a5u);
  const OneTimeKeyChain chain = OneTimeKeyChain::generate(0, 1, 9, rng);
  const VerificationKeyArray& vks = chain.public_keys();
  Bytes pool(131);
  for (auto& c : pool) c = static_cast<std::uint8_t>(rng.next());
  for (std::size_t len = 0; len <= 130; ++len) {
    for (std::size_t group = 1; group <= 9; ++group) {
      std::vector<OtsCheck> checks;
      for (std::size_t i = 0; i < group; ++i) {
        const Phase phase = static_cast<Phase>(1 + i);
        const BytesView sk = i % 2 == 0
                                 ? chain.secret_key(phase, Value::kOne)
                                 : BytesView(pool).first(len);
        checks.push_back({&vks, phase, Value::kOne, sk});
      }
      std::vector<std::uint8_t> got(group, 0xFF);
      ots_verify_batch(checks.data(), group,
                       reinterpret_cast<bool*>(got.data()));
      for (std::size_t i = 0; i < group; ++i) {
        const bool want = portable([&] {
          return ots_verify(vks, checks[i].phase, checks[i].v,
                            checks[i].revealed_sk);
        });
        ASSERT_EQ(static_cast<bool>(got[i]), want)
            << "len=" << checks[i].revealed_sk.size() << " group=" << group
            << " i=" << i;
        if (i % 2 == 0) {
          EXPECT_TRUE(want);
        }
      }
    }
  }
}

TEST_P(Sha256BatchTest, ResumeMatchesScalarFromBlockBoundary) {
  Rng rng(0xabcdu);
  Bytes stream(64 * 3 + 37);
  for (auto& c : stream) c = static_cast<std::uint8_t>(rng.next());
  for (const std::size_t prefix : {64u, 128u, 192u}) {
    Sha256 ctx;
    ctx.update(BytesView(stream.data(), prefix));
    Sha256Resume lane{.state = ctx.state_words(),
                      .prefix_len = ctx.bytes_absorbed(),
                      .data = BytesView(stream.data() + prefix,
                                        stream.size() - prefix)};
    Digest out;
    sha256_batch_resume(&lane, 1, &out);
    EXPECT_EQ(out, Sha256::hash(stream)) << "prefix=" << prefix;
  }
}

TEST_P(Sha256BatchTest, EqualLengthNeighboursMatchPortable) {
  // Equal-length neighbours may be hashed side by side (SHA-NI pairs); an
  // odd count leaves one lane alone, and the resume prefixes differ.
  Rng rng(0x9a1fu);
  for (const std::size_t len :
       {0u, 1u, 32u, 55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u, 300u}) {
    std::vector<Bytes> streams;
    std::vector<Sha256Resume> lanes;
    for (std::size_t i = 0; i < 5; ++i) {
      const std::size_t prefix = 64 * (1 + i % 2);
      Bytes b(prefix + len);
      for (auto& c : b) c = static_cast<std::uint8_t>(rng.next());
      streams.push_back(std::move(b));
    }
    for (const Bytes& b : streams) {
      const std::size_t prefix = b.size() - len;
      Sha256 ctx;
      ctx.update(BytesView(b.data(), prefix));
      lanes.push_back({.state = ctx.state_words(),
                       .prefix_len = prefix,
                       .data = BytesView(b.data() + prefix, len)});
    }
    const std::vector<Digest> want = portable([&] {
      std::vector<Digest> d;
      for (const Bytes& b : streams) d.push_back(Sha256::hash(b));
      return d;
    });
    std::vector<Digest> out(lanes.size());
    sha256_batch_resume(lanes.data(), lanes.size(), out.data());
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      EXPECT_EQ(out[i], want[i]) << "len=" << len << " i=" << i;
    }
  }
}

TEST_P(Sha256BatchTest, HmacBatchMatchesScalar) {
  Rng rng(0x77u);
  std::vector<HmacKey> keys;
  std::vector<Bytes> msgs;
  for (int i = 0; i < 11; ++i) {
    Bytes k(16 + i * 7);
    for (auto& c : k) c = static_cast<std::uint8_t>(rng.next());
    keys.emplace_back(BytesView(k));
    Bytes m(rng.next() % 300);
    for (auto& c : m) c = static_cast<std::uint8_t>(rng.next());
    msgs.push_back(std::move(m));
  }
  std::vector<HmacJob> jobs(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    jobs[i] = {.key = &keys[i], .message = msgs[i]};
  }
  const std::vector<Digest> want = portable([&] {
    std::vector<Digest> d;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      d.push_back(keys[i].mac(msgs[i]));
    }
    return d;
  });
  std::vector<Digest> out(jobs.size());
  hmac_sha256_batch(jobs.data(), jobs.size(), out.data());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(out[i], want[i]) << "i=" << i;
    EXPECT_EQ(keys[i].mac(msgs[i]), want[i]) << "i=" << i;
  }
}

TEST_P(Sha256BatchTest, OtsBatchMatchesScalar) {
  Rng rng(0x1234u);
  const OneTimeKeyChain chain = OneTimeKeyChain::generate(0, 1, 9, rng);
  const VerificationKeyArray& vks = chain.public_keys();
  std::vector<OtsCheck> checks;
  std::vector<Bytes> tampered;
  tampered.reserve(32);
  for (Phase phase = 1; phase <= 9; ++phase) {
    for (const Value v : {Value::kZero, Value::kOne, Value::kBottom}) {
      if (!ots_value_allowed(phase, v)) continue;
      const BytesView sk = chain.secret_key(phase, v);
      checks.push_back({&vks, phase, v, sk});
      // A tampered secret and a phase/value mismatch must both fail.
      tampered.emplace_back(sk.begin(), sk.end());
      tampered.back()[0] ^= 1;
      checks.push_back({&vks, phase, v, tampered.back()});
    }
  }
  checks.push_back({&vks, 99, Value::kZero, chain.secret_key(1, Value::kZero)});
  checks.push_back({nullptr, 1, Value::kZero, {}});

  std::vector<bool> expected;
  for (const OtsCheck& c : checks) {
    expected.push_back(c.vk_array != nullptr &&
                       ots_verify(*c.vk_array, c.phase, c.v, c.revealed_sk));
  }
  std::vector<std::uint8_t> got(checks.size(), 0xFF);
  ots_verify_batch(checks.data(), checks.size(),
                   reinterpret_cast<bool*>(got.data()));
  for (std::size_t i = 0; i < checks.size(); ++i) {
    EXPECT_EQ(static_cast<bool>(got[i]), expected[i]) << "i=" << i;
  }
}

TEST_P(Sha256BatchTest, KeyChainGenerationIsImplIndependent) {
  // Key bytes and VKs must not depend on which compressor derived them —
  // the scalar reference is OneTimeKeyChain under the other impl plus
  // direct scalar hashing of each secret.
  Rng rng_a(42), rng_b(42);
  const OneTimeKeyChain a = OneTimeKeyChain::generate(3, 1, 12, rng_a);
  sha256_batch_force_impl(Sha256Impl::kScalarLanes);
  const OneTimeKeyChain b = OneTimeKeyChain::generate(3, 1, 12, rng_b);
  EXPECT_EQ(rng_a.next(), rng_b.next());  // identical stream consumption
  for (Phase phase = 1; phase <= 12; ++phase) {
    for (const Value v : {Value::kZero, Value::kOne, Value::kBottom}) {
      if (!ots_value_allowed(phase, v)) continue;
      EXPECT_EQ(to_hex(a.secret_key(phase, v)),
                to_hex(b.secret_key(phase, v)));
      const Digest vk = Sha256::hash(a.secret_key(phase, v));
      EXPECT_EQ(to_hex(a.public_keys().key(phase, v)),
                to_hex(BytesView(vk.data(), vk.size())));
    }
  }
  EXPECT_EQ(a.public_keys(), b.public_keys());
}

INSTANTIATE_TEST_SUITE_P(
    Impls, Sha256BatchTest,
    ::testing::Values(Sha256Impl::kScalarLanes, Sha256Impl::kAvx2,
                      Sha256Impl::kShaNi, Sha256Impl::kAuto),
    [](const ::testing::TestParamInfo<Sha256Impl>& pinfo) {
      switch (pinfo.param) {
        case Sha256Impl::kScalarLanes: return "ScalarLanes";
        case Sha256Impl::kAvx2: return "Avx2";
        case Sha256Impl::kShaNi: return "ShaNi";
        case Sha256Impl::kAuto: break;
      }
      return "Auto";
    });

TEST(Sha256Batch, ForcedAvx2ResolvesSomewhere) {
  sha256_batch_force_impl(Sha256Impl::kAvx2);
  const Sha256Impl got = sha256_batch_resolved_impl();
  EXPECT_TRUE(got == Sha256Impl::kAvx2 || got == Sha256Impl::kScalarLanes);
  sha256_batch_force_impl(Sha256Impl::kAuto);
  EXPECT_NE(sha256_batch_resolved_impl(), Sha256Impl::kAuto);
}

TEST(Sha256Batch, ForcedShaNiFallsBackOneStep) {
  sha256_batch_force_impl(Sha256Impl::kShaNi);
  const Sha256Impl got = sha256_batch_resolved_impl();
  sha256_batch_force_impl(Sha256Impl::kAvx2);
  const Sha256Impl avx2 = sha256_batch_resolved_impl();
  sha256_batch_force_impl(Sha256Impl::kAuto);
  // Without SHA-NI, kShaNi lands where kAvx2 does; kAuto picks the best.
  EXPECT_TRUE(got == Sha256Impl::kShaNi || got == avx2);
  EXPECT_EQ(sha256_batch_resolved_impl(), got);
}

}  // namespace
}  // namespace turq::crypto
