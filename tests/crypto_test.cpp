// Unit tests for the cryptographic substrate.
#include <gtest/gtest.h>

#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "crypto/hmac.hpp"
#include "crypto/modmath.hpp"
#include "crypto/onetime_sig.hpp"
#include "crypto/sha256.hpp"
#include "crypto/shamir.hpp"
#include "crypto/threshold.hpp"
#include "crypto/toy_rsa.hpp"

namespace turq::crypto {
namespace {

// ----------------------------------------------------------------- SHA-256

TEST(Sha256, Fips180EmptyString) {
  EXPECT_EQ(to_hex(digest_bytes(Sha256::hash(std::string_view("")))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Fips180Abc) {
  EXPECT_EQ(to_hex(digest_bytes(Sha256::hash(std::string_view("abc")))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, Fips180TwoBlockMessage) {
  EXPECT_EQ(
      to_hex(digest_bytes(Sha256::hash(std::string_view(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 ctx;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(to_hex(digest_bytes(ctx.finalize())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const Bytes data = to_bytes("the quick brown fox jumps over the lazy dog");
  Sha256 ctx;
  for (const std::uint8_t b : data) ctx.update(BytesView(&b, 1));
  EXPECT_EQ(ctx.finalize(), Sha256::hash(data));
}

TEST(Sha256, BoundaryLengths) {
  // Exercise every padding branch around the block boundary.
  for (const std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 128u}) {
    const Bytes data(len, 0x5A);
    Sha256 ctx;
    ctx.update(BytesView(data.data(), len / 2));
    ctx.update(BytesView(data.data() + len / 2, len - len / 2));
    EXPECT_EQ(ctx.finalize(), Sha256::hash(data)) << "len=" << len;
  }
}

// -------------------------------------------------------------------- HMAC

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(digest_bytes(hmac_sha256(key, as_bytes("Hi There")))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(to_hex(digest_bytes(hmac_sha256(
                as_bytes("Jefe"), as_bytes("what do ya want for nothing?")))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231LongKey) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(
      to_hex(digest_bytes(hmac_sha256(
          key, as_bytes("Test Using Larger Than Block-Size Key - Hash Key First")))),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, VerifyRejectsTamperedMac) {
  const Bytes key(32, 0x42);
  const Bytes msg = to_bytes("segment payload");
  Digest mac = hmac_sha256(key, msg);
  EXPECT_TRUE(hmac_verify(key, msg, mac));
  mac[7] ^= 1;
  EXPECT_FALSE(hmac_verify(key, msg, mac));
}

TEST(Hmac, VerifyRejectsWrongKey) {
  const Bytes key(32, 0x42);
  const Bytes other(32, 0x43);
  const Bytes msg = to_bytes("segment payload");
  EXPECT_FALSE(hmac_verify(other, msg, hmac_sha256(key, msg)));
}

// ------------------------------------------------------------------- bytes

TEST(Bytes, HexRoundTrip) {
  const Bytes data = {0x00, 0x01, 0xde, 0xad, 0xbe, 0xef, 0xff};
  EXPECT_EQ(from_hex(to_hex(data)), data);
}

TEST(Bytes, FromHexRejectsMalformed) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);   // odd length
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);    // non-hex
}

TEST(Bytes, ConstantTimeEqual) {
  const Bytes a = {1, 2, 3};
  const Bytes b = {1, 2, 3};
  const Bytes c = {1, 2, 4};
  EXPECT_TRUE(constant_time_equal(a, b));
  EXPECT_FALSE(constant_time_equal(a, c));
  EXPECT_FALSE(constant_time_equal(a, BytesView(a.data(), 2)));
}

// ----------------------------------------------------------------- modmath

TEST(ModMath, PowmodKnownValues) {
  EXPECT_EQ(powmod(2, 10, 1000), 24u);
  EXPECT_EQ(powmod(3, 0, 7), 1u);
  EXPECT_EQ(powmod(0, 5, 7), 0u);
  // Fermat: a^(p-1) = 1 mod p.
  EXPECT_EQ(powmod(12345, 1000000006, 1000000007ULL), 1u);
}

TEST(ModMath, MulmodNoOverflow) {
  const std::uint64_t big = 0xFFFFFFFFFFFFFFC5ULL;
  EXPECT_EQ(mulmod(big - 1, big - 1, big), 1u);
}

TEST(ModMath, ModinvInvertsAndDetectsNonInvertible) {
  EXPECT_EQ(modinv(3, 7), 5u);  // 3*5 = 15 = 1 mod 7
  EXPECT_EQ(mulmod(modinv(123456789, 1000000007), 123456789, 1000000007), 1u);
  EXPECT_EQ(modinv(6, 9), 0u);  // gcd = 3
}

TEST(ModMath, MillerRabinKnownPrimesAndComposites) {
  EXPECT_TRUE(is_prime_u64(2));
  EXPECT_TRUE(is_prime_u64(1000000007ULL));
  EXPECT_TRUE(is_prime_u64(18446744073709551557ULL));  // largest 64-bit prime
  EXPECT_FALSE(is_prime_u64(1));
  EXPECT_FALSE(is_prime_u64(561));          // Carmichael number
  EXPECT_FALSE(is_prime_u64(3215031751ULL));  // strong pseudoprime to 2,3,5,7
  EXPECT_FALSE(is_prime_u64(1000000007ULL * 3));
}

TEST(ModMath, RandomPrimeHasRequestedBits) {
  Rng rng(5);
  for (const int bits : {16, 24, 31}) {
    const std::uint64_t p = random_prime(rng, bits);
    EXPECT_TRUE(is_prime_u64(p));
    EXPECT_GE(p, 1ULL << (bits - 1));
    EXPECT_LT(p, 1ULL << bits);
  }
}

TEST(ModMath, SafePrimeStructure) {
  Rng rng(5);
  const std::uint64_t p = random_safe_prime(rng, 32);
  EXPECT_TRUE(is_prime_u64(p));
  EXPECT_TRUE(is_prime_u64((p - 1) / 2));
}

// ----------------------------------------------------------------- toy RSA

TEST(ToyRsa, SignVerifyRoundTrip) {
  Rng rng(11);
  const RsaKeyPair key = rsa_generate(rng);
  const Bytes msg = to_bytes("verification key array");
  const std::uint64_t sig = rsa_sign(key, msg);
  EXPECT_TRUE(rsa_verify(key.pub, msg, sig));
}

TEST(ToyRsa, RejectsWrongMessage) {
  Rng rng(11);
  const RsaKeyPair key = rsa_generate(rng);
  const std::uint64_t sig = rsa_sign(key, to_bytes("original"));
  EXPECT_FALSE(rsa_verify(key.pub, to_bytes("forged"), sig));
}

TEST(ToyRsa, RejectsWrongKeyAndGarbageSig) {
  Rng rng(11);
  const RsaKeyPair a = rsa_generate(rng);
  const RsaKeyPair b = rsa_generate(rng);
  const Bytes msg = to_bytes("message");
  EXPECT_FALSE(rsa_verify(b.pub, msg, rsa_sign(a, msg)));
  EXPECT_FALSE(rsa_verify(a.pub, msg, 12345));
  EXPECT_FALSE(rsa_verify(a.pub, msg, a.pub.n + 5));  // out of range
}

TEST(ToyRsa, DigestFormMatchesMessageForm) {
  Rng rng(11);
  const RsaKeyPair key = rsa_generate(rng);
  const Bytes msg = to_bytes("verification key array");
  const Digest digest = Sha256::hash(msg);
  EXPECT_EQ(rsa_sign_digest(key, digest), rsa_sign(key, msg));
  EXPECT_TRUE(rsa_verify_digest(key.pub, digest, rsa_sign(key, msg)));
}

TEST(ToyRsa, DigestVerifyRejectsTamperingAndBadKeys) {
  Rng rng(11);
  const RsaKeyPair key = rsa_generate(rng);
  const Digest digest = Sha256::hash(to_bytes("verification key array"));
  const std::uint64_t sig = rsa_sign_digest(key, digest);
  ASSERT_TRUE(rsa_verify_digest(key.pub, digest, sig));

  // One flipped bit inside the leading 8 bytes the toy representative reads.
  Digest flipped = digest;
  flipped[0] ^= 1;
  EXPECT_FALSE(rsa_verify_digest(key.pub, flipped, sig));
  // sig + n is congruent to a valid signature but out of range.
  EXPECT_FALSE(rsa_verify_digest(key.pub, digest, sig + key.pub.n));
  EXPECT_FALSE(rsa_verify_digest(RsaPublicKey{.n = 0, .e = key.pub.e}, digest,
                                 sig));
}

// ------------------------------------------------------------------- group

TEST(Group, ParametersAreConsistent) {
  const Group g = Group::generate(0xABCD);
  EXPECT_TRUE(is_prime_u64(g.p()));
  EXPECT_TRUE(is_prime_u64(g.q()));
  EXPECT_EQ(g.p(), 2 * g.q() + 1);
  EXPECT_TRUE(g.is_element(g.g()));
  EXPECT_EQ(powmod(g.g(), g.q(), g.p()), 1u);  // order divides q
}

TEST(Group, HashToGroupLandsInSubgroup) {
  const Group g = Group::generate(0xABCD);
  for (int i = 0; i < 16; ++i) {
    Writer w;
    w.u32(static_cast<std::uint32_t>(i));
    EXPECT_TRUE(g.is_element(g.hash_to_group(w.data())));
  }
}

TEST(Group, DeterministicFromSeed) {
  const Group a = Group::generate(7);
  const Group b = Group::generate(7);
  EXPECT_EQ(a.p(), b.p());
  EXPECT_EQ(a.g(), b.g());
}

// ------------------------------------------------------------------ Shamir

TEST(Shamir, ReconstructFromAnyThresholdSubset) {
  Rng rng(3);
  const std::uint64_t q = 2305843009213693951ULL;  // 2^61 - 1, prime
  const std::uint64_t secret = 123456789;
  const auto shares = shamir_deal(secret, 7, 3, q, rng);
  EXPECT_EQ(shamir_reconstruct({shares[0], shares[3], shares[6]}, q), secret);
  EXPECT_EQ(shamir_reconstruct({shares[5], shares[1], shares[2]}, q), secret);
  EXPECT_EQ(shamir_reconstruct({shares[2], shares[4], shares[5], shares[6]}, q),
            secret);
}

TEST(Shamir, BelowThresholdIsWrong) {
  Rng rng(3);
  const std::uint64_t q = 2305843009213693951ULL;
  const std::uint64_t secret = 42;
  const auto shares = shamir_deal(secret, 5, 3, q, rng);
  // Lagrange over 2 points of a degree-2 polynomial: astronomically
  // unlikely to hit the secret.
  EXPECT_NE(shamir_reconstruct({shares[0], shares[1]}, q), secret);
}

TEST(Shamir, LagrangeCoefficientsSumEvaluation) {
  // With threshold 1 the polynomial is constant: every share equals the
  // secret and every lagrange coefficient is 1.
  Rng rng(3);
  const std::uint64_t q = 1000000007;
  const auto shares = shamir_deal(99, 4, 1, q, rng);
  for (const Share& s : shares) EXPECT_EQ(s.value, 99u);
}

// -------------------------------------------------------------- threshold

class ThresholdTest : public ::testing::Test {
 protected:
  Rng rng_{17};
  ThresholdScheme scheme_ = ThresholdScheme::deal(7, 3, 0x5161, rng_);
  Bytes name_ = to_bytes("coin|4");
};

TEST_F(ThresholdTest, SharesVerify) {
  for (std::uint32_t party = 0; party < 7; ++party) {
    const auto share = scheme_.generate_share(party, name_, rng_);
    EXPECT_TRUE(scheme_.verify_share(name_, share)) << "party " << party;
  }
}

TEST_F(ThresholdTest, TamperedShareRejected) {
  auto share = scheme_.generate_share(2, name_, rng_);
  share.sigma = scheme_.group().mul(share.sigma, scheme_.group().g());
  EXPECT_FALSE(scheme_.verify_share(name_, share));
}

TEST_F(ThresholdTest, ShareForOtherNameRejected) {
  const auto share = scheme_.generate_share(2, name_, rng_);
  EXPECT_FALSE(scheme_.verify_share(to_bytes("coin|5"), share));
}

TEST_F(ThresholdTest, WrongPartyIdRejected) {
  auto share = scheme_.generate_share(2, name_, rng_);
  share.party = 3;
  EXPECT_FALSE(scheme_.verify_share(name_, share));
}

TEST_F(ThresholdTest, CombineIsSubsetIndependent) {
  std::vector<ThresholdShare> a, b;
  for (const std::uint32_t p : {0u, 2u, 4u}) {
    a.push_back(scheme_.generate_share(p, name_, rng_));
  }
  for (const std::uint32_t p : {1u, 5u, 6u}) {
    b.push_back(scheme_.generate_share(p, name_, rng_));
  }
  const auto ca = scheme_.combine(name_, a);
  const auto cb = scheme_.combine(name_, b);
  ASSERT_TRUE(ca.has_value());
  ASSERT_TRUE(cb.has_value());
  EXPECT_EQ(*ca, *cb);  // uniqueness of the combined value
  // And it equals x^s computed with the master secret.
  const std::uint64_t x = scheme_.group().hash_to_group(name_);
  EXPECT_EQ(*ca, scheme_.group().exp(x, scheme_.secret_for_testing()));
}

TEST_F(ThresholdTest, CombineNeedsThreshold) {
  std::vector<ThresholdShare> shares = {
      scheme_.generate_share(0, name_, rng_),
      scheme_.generate_share(1, name_, rng_)};
  EXPECT_FALSE(scheme_.combine(name_, shares).has_value());
  // Duplicates do not count toward the threshold.
  shares.push_back(scheme_.generate_share(1, name_, rng_));
  EXPECT_FALSE(scheme_.combine(name_, shares).has_value());
}

TEST_F(ThresholdTest, CoinBitIsDeterministicPerName) {
  std::vector<ThresholdShare> shares;
  for (const std::uint32_t p : {0u, 1u, 2u}) {
    shares.push_back(scheme_.generate_share(p, name_, rng_));
  }
  const auto combined = scheme_.combine(name_, shares);
  ASSERT_TRUE(combined.has_value());
  EXPECT_EQ(scheme_.coin_bit(name_, *combined),
            scheme_.coin_bit(name_, *combined));
}

TEST_F(ThresholdTest, CoinBitsVaryAcrossNames) {
  // Over many rounds, both coin outcomes must occur (unpredictability).
  int ones = 0;
  for (std::uint32_t round = 0; round < 64; ++round) {
    Writer w;
    // Sized up front: appending the round to an exactly-full buffer trips
    // a GCC 12 -Wstringop-overflow false positive in the inlined growth.
    w.reserve(4 + 4 + 4);
    w.str("coin");
    w.u32(round);
    std::vector<ThresholdShare> shares;
    for (const std::uint32_t p : {0u, 1u, 2u}) {
      shares.push_back(scheme_.generate_share(p, w.data(), rng_));
    }
    const auto combined = scheme_.combine(w.data(), shares);
    ASSERT_TRUE(combined.has_value());
    ones += scheme_.coin_bit(w.data(), *combined) ? 1 : 0;
  }
  EXPECT_GT(ones, 10);
  EXPECT_LT(ones, 54);
}

TEST_F(ThresholdTest, VerifyCombinedDetectsMismatch) {
  std::vector<ThresholdShare> shares;
  for (const std::uint32_t p : {0u, 1u, 2u}) {
    shares.push_back(scheme_.generate_share(p, name_, rng_));
  }
  const auto combined = scheme_.combine(name_, shares);
  ASSERT_TRUE(combined.has_value());
  EXPECT_TRUE(scheme_.verify_combined(name_, *combined, shares));
  EXPECT_FALSE(scheme_.verify_combined(name_, *combined + 1, shares));
}

// ------------------------------------------------- one-time hash signatures

TEST(OneTimeSig, VerifyAcceptsGenuineReveals) {
  Rng rng(23);
  const auto chain = OneTimeKeyChain::generate(4, 1, 12, rng);
  for (Phase phase = 1; phase <= 12; ++phase) {
    for (const Value v : {Value::kZero, Value::kOne, Value::kBottom}) {
      if (!ots_value_allowed(phase, v)) continue;
      EXPECT_TRUE(ots_verify(chain.public_keys(), phase, v,
                             chain.secret_key(phase, v)))
          << "phase " << phase << " value " << to_string(v);
    }
  }
}

TEST(OneTimeSig, BottomOnlyInDecidePhases) {
  EXPECT_FALSE(ots_value_allowed(1, Value::kBottom));
  EXPECT_FALSE(ots_value_allowed(2, Value::kBottom));
  EXPECT_TRUE(ots_value_allowed(3, Value::kBottom));
  EXPECT_TRUE(ots_value_allowed(6, Value::kBottom));
  EXPECT_TRUE(ots_value_allowed(4, Value::kZero));
}

TEST(OneTimeSig, RevealForOtherSlotRejected) {
  Rng rng(23);
  const auto chain = OneTimeKeyChain::generate(4, 1, 12, rng);
  // Key for (5, 1) does not authenticate (5, 0) or (6, 1).
  const BytesView sk = chain.secret_key(5, Value::kOne);
  EXPECT_FALSE(ots_verify(chain.public_keys(), 5, Value::kZero, sk));
  EXPECT_FALSE(ots_verify(chain.public_keys(), 6, Value::kOne, sk));
}

TEST(OneTimeSig, GarbageAndOutOfRangeRejected) {
  Rng rng(23);
  const auto chain = OneTimeKeyChain::generate(4, 1, 12, rng);
  EXPECT_FALSE(ots_verify(chain.public_keys(), 5, Value::kOne, Bytes(32, 0)));
  EXPECT_FALSE(ots_verify(chain.public_keys(), 13, Value::kOne,
                          chain.secret_key(12, Value::kOne)));
}

TEST(OneTimeSig, DistinctProcessesHaveDistinctKeys) {
  Rng rng(23);
  Rng rng2 = rng.derive("other", 1);
  const auto a = OneTimeKeyChain::generate(0, 1, 6, rng);
  const auto b = OneTimeKeyChain::generate(1, 1, 6, rng2);
  EXPECT_FALSE(
      ots_verify(b.public_keys(), 2, Value::kOne, a.secret_key(2, Value::kOne)));
}

TEST(OneTimeSig, SignedKeyArrayRoundTrip) {
  Rng rng(29);
  const auto chain = OneTimeKeyChain::generate(2, 1, 6, rng);
  const RsaKeyPair rsa = rsa_generate(rng);
  const SignedKeyArray signed_keys = sign_key_array(chain.public_keys(), rsa);
  EXPECT_TRUE(verify_key_array(signed_keys, rsa.pub));

  Rng rng2(31);
  const RsaKeyPair other = rsa_generate(rng2);
  EXPECT_FALSE(verify_key_array(signed_keys, other.pub));
}

TEST(OneTimeSig, SignedKeyArrayRejectsAlteredDigest) {
  Rng rng(29);
  const auto chain = OneTimeKeyChain::generate(2, 1, 6, rng);
  const RsaKeyPair rsa = rsa_generate(rng);
  const SignedKeyArray signed_keys = sign_key_array(chain.public_keys(), rsa);
  ASSERT_TRUE(verify_key_array(signed_keys, rsa.pub));

  // The same array with the VK of (4, 1) altered keeps the signature.
  std::vector<Digest> keys;
  for (Phase phase = 1; phase <= 6; ++phase) {
    for (const Value v : {Value::kZero, Value::kOne, Value::kBottom}) {
      if (!ots_value_allowed(phase, v)) continue;
      keys.push_back(chain.public_keys().key(phase, v));
      if (phase == 4 && v == Value::kOne) keys.back()[5] ^= 0x80;
    }
  }
  const SignedKeyArray altered{
      .keys = VerificationKeyArray(2, 1, std::move(keys)),
      .signature = signed_keys.signature};
  ASSERT_NE(altered.keys.serialize(), signed_keys.keys.serialize());
  EXPECT_FALSE(verify_key_array(altered, rsa.pub));
}

TEST(OneTimeSig, EpochCoverage) {
  Rng rng(23);
  const auto chain = OneTimeKeyChain::generate(0, 10, 5, rng);
  EXPECT_FALSE(chain.covers(9));
  EXPECT_TRUE(chain.covers(10));
  EXPECT_TRUE(chain.covers(14));
  EXPECT_FALSE(chain.covers(15));
}

}  // namespace
}  // namespace turq::crypto
