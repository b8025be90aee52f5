#include "crypto/onetime_sig.hpp"

#include <algorithm>
#include <cstring>

#include "common/assert.hpp"
#include "common/serialize.hpp"
#include "crypto/sha256_batch.hpp"

namespace turq::crypto {

namespace {
constexpr std::size_t kSecretKeyLen = 32;  // h bytes, matching SHA-256 output
/// Messages per sha256_batch call where the views and digests sit on the
/// stack: eight 8-lane groups, so no heap buffer is needed.
constexpr std::size_t kSweep = 64;

bool is_decide_phase(Phase phase) { return phase % 3 == 0; }
}  // namespace

bool ots_value_allowed(Phase phase, Value v) {
  if (v == Value::kBottom) return is_decide_phase(phase);
  return true;
}

VerificationKeyArray::VerificationKeyArray(ProcessId owner, Phase first_phase,
                                           Phase num_phases)
    : owner_(owner), first_phase_(first_phase), num_phases_(num_phases) {
  TURQ_ASSERT(first_phase_ >= 1 && num_phases_ >= 1);
  const std::size_t keys = slots();
  Writer w;
  w.reserve(kHeaderSize + keys * kSha256DigestSize);
  w.u32(owner_);
  w.u32(first_phase_);
  w.u32(static_cast<std::uint32_t>(keys));
  bytes_ = w.take();
  bytes_.resize(kHeaderSize + keys * kSha256DigestSize);
}

bool VerificationKeyArray::covers(Phase phase) const {
  return phase >= first_phase_ && phase - first_phase_ < num_phases_;
}

// Every phase holds slots 0 and 1; DECIDE phases (φ ≡ 0 mod 3) add ⊥. So
// the slots before phase φ are two per earlier phase plus one per DECIDE
// phase in [first_phase, φ).
std::size_t VerificationKeyArray::index_of(Phase phase, Value v) const {
  TURQ_ASSERT(covers(phase));
  TURQ_ASSERT_MSG(ots_value_allowed(phase, v),
                  "no one-time key for this (phase, value)");
  const std::size_t base =
      2 * std::size_t{phase - first_phase_} + (phase - 1) / 3 -
      (first_phase_ - 1) / 3;
  return base + static_cast<std::size_t>(v);  // kZero=0, kOne=1, kBottom=2
}

std::size_t VerificationKeyArray::slots() const {
  const Phase end = first_phase_ + num_phases_;
  return 2 * std::size_t{num_phases_} + (end - 1) / 3 - (first_phase_ - 1) / 3;
}

BytesView VerificationKeyArray::key(Phase phase, Value v) const {
  return BytesView(bytes_).subspan(
      kHeaderSize + index_of(phase, v) * kSha256DigestSize, kSha256DigestSize);
}

OneTimeKeyChain OneTimeKeyChain::generate(ProcessId owner, Phase first_phase,
                                          Phase num_phases, Rng& rng) {
  OneTimeKeyChain chain;
  chain.public_keys_ = VerificationKeyArray(owner, first_phase, num_phases);
  const std::size_t slots = chain.public_keys_.slots();
  // Draw every secret, then derive the VKs in batched sweeps straight into
  // the array's key bytes; hashing never touches the stream. The draws run
  // on a local copy of the generator: a store through a byte pointer may
  // alias anything, so drawing through the reference would reload and
  // store its state for every byte.
  chain.secrets_.resize(slots * kSecretKeyLen);
  Rng draws = rng;
  for (auto& byte : chain.secrets_) {
    byte = static_cast<std::uint8_t>(draws.next());
  }
  rng = draws;
  BytesView views[kSweep];
  Digest vks[kSweep];
  std::uint8_t* out =
      chain.public_keys_.bytes_.data() + VerificationKeyArray::kHeaderSize;
  for (std::size_t done = 0; done < slots; done += kSweep) {
    const std::size_t count = std::min(kSweep, slots - done);
    for (std::size_t i = 0; i < count; ++i) {
      views[i] = BytesView(chain.secrets_)
                     .subspan((done + i) * kSecretKeyLen, kSecretKeyLen);
    }
    sha256_batch(views, count, vks);
    for (std::size_t i = 0; i < count; ++i) {
      std::memcpy(out + (done + i) * kSha256DigestSize, vks[i].data(),
                  kSha256DigestSize);
    }
  }
  return chain;
}

BytesView OneTimeKeyChain::secret_key(Phase phase, Value v) const {
  return BytesView(secrets_).subspan(
      public_keys_.index_of(phase, v) * kSecretKeyLen, kSecretKeyLen);
}

bool ots_verify(const VerificationKeyArray& vk_array, Phase phase, Value v,
                BytesView revealed_sk) {
  if (!vk_array.covers(phase) || !ots_value_allowed(phase, v)) return false;
  const Digest computed = Sha256::hash(revealed_sk);
  return constant_time_equal(BytesView(computed.data(), computed.size()),
                             vk_array.key(phase, v));
}

void ots_verify_batch(const OtsCheck* checks, std::size_t count, bool* out) {
  BytesView msgs[kSweep];
  Digest digests[kSweep];
  for (std::size_t done = 0; done < count; done += kSweep) {
    const std::size_t n = std::min(kSweep, count - done);
    for (std::size_t i = 0; i < n; ++i) msgs[i] = checks[done + i].revealed_sk;
    sha256_batch(msgs, n, digests);
    for (std::size_t i = 0; i < n; ++i) {
      const OtsCheck& c = checks[done + i];
      out[done + i] =
          c.vk_array != nullptr && c.vk_array->covers(c.phase) &&
          ots_value_allowed(c.phase, c.v) &&
          constant_time_equal(BytesView(digests[i].data(), digests[i].size()),
                              c.vk_array->key(c.phase, c.v));
    }
  }
}

std::uint64_t sign_key_array(const VerificationKeyArray& keys,
                             const RsaKeyPair& rsa) {
  return rsa_sign(rsa, keys.serialize());
}

bool verify_key_array(const VerificationKeyArray& keys, std::uint64_t signature,
                      const RsaPublicKey& rsa_pub) {
  return rsa_verify(rsa_pub, keys.serialize(), signature);
}

}  // namespace turq::crypto
