#include "crypto/onetime_sig.hpp"

#include <vector>

#include "common/assert.hpp"
#include "common/serialize.hpp"
#include "crypto/sha256_batch.hpp"

namespace turq::crypto {

namespace {
constexpr std::size_t kSecretKeyLen = 32;  // h bytes, matching SHA-256 output

bool is_decide_phase(Phase phase) { return phase % 3 == 0; }
}  // namespace

bool ots_value_allowed(Phase phase, Value v) {
  if (v == Value::kBottom) return is_decide_phase(phase);
  return true;
}

std::size_t VerificationKeyArray::slots_for_phase(Phase phase) {
  return is_decide_phase(phase) ? 3 : 2;  // {0,1} plus ⊥ in DECIDE phases
}

VerificationKeyArray::VerificationKeyArray(ProcessId owner, Phase first_phase,
                                           std::vector<Digest> keys)
    : owner_(owner), first_phase_(first_phase), keys_(std::move(keys)) {
  TURQ_ASSERT(first_phase_ >= 1);
  // Rebuild the per-phase offsets from the slot layout.
  std::size_t off = 0;
  Phase phase = first_phase_;
  while (off < keys_.size()) {
    phase_off_.push_back(off);
    off += slots_for_phase(phase);
    ++phase;
  }
  TURQ_ASSERT_MSG(off == keys_.size(), "key vector does not tile into phases");
}

Phase VerificationKeyArray::num_phases() const {
  return static_cast<Phase>(phase_off_.size());
}

bool VerificationKeyArray::covers(Phase phase) const {
  return phase >= first_phase_ && phase < first_phase_ + num_phases();
}

std::size_t VerificationKeyArray::index_of(Phase phase, Value v) const {
  TURQ_ASSERT(covers(phase));
  TURQ_ASSERT_MSG(ots_value_allowed(phase, v),
                  "no one-time key for this (phase, value)");
  const std::size_t base = phase_off_[phase - first_phase_];
  return base + static_cast<std::size_t>(v);  // kZero=0, kOne=1, kBottom=2
}

const Digest& VerificationKeyArray::key(Phase phase, Value v) const {
  return keys_[index_of(phase, v)];
}

Bytes VerificationKeyArray::serialize() const {
  Writer w;
  w.reserve(4 + 4 + 4 + keys_.size() * kSha256DigestSize);
  w.u32(owner_);
  w.u32(first_phase_);
  w.u32(static_cast<std::uint32_t>(keys_.size()));
  for (const Digest& d : keys_) w.raw(BytesView(d.data(), d.size()));
  return w.take();
}

OneTimeKeyChain OneTimeKeyChain::generate(ProcessId owner, Phase first_phase,
                                          Phase num_phases, Rng& rng) {
  TURQ_ASSERT(first_phase >= 1 && num_phases >= 1);
  std::size_t slots = 0;
  for (Phase phase = first_phase; phase < first_phase + num_phases; ++phase) {
    slots += VerificationKeyArray::slots_for_phase(phase);
  }
  // Draw every secret, then derive all VKs in one batched sweep; hashing
  // never touches the stream.
  OneTimeKeyChain chain;
  chain.secrets_.resize(slots * kSecretKeyLen);
  for (auto& byte : chain.secrets_) {
    byte = static_cast<std::uint8_t>(rng.next());
  }
  std::vector<BytesView> views(slots);
  for (std::size_t i = 0; i < slots; ++i) {
    views[i] =
        BytesView(chain.secrets_).subspan(i * kSecretKeyLen, kSecretKeyLen);
  }
  std::vector<Digest> vks(slots);
  sha256_batch(views.data(), views.size(), vks.data());
  chain.public_keys_ = VerificationKeyArray(owner, first_phase, std::move(vks));
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
  const Digest& expected = vk_array.key(phase, v);
  return constant_time_equal(BytesView(computed.data(), computed.size()),
                             BytesView(expected.data(), expected.size()));
}

void ots_verify_batch(const OtsCheck* checks, std::size_t count, bool* out) {
  if (count == 0) return;
  std::vector<BytesView> msgs(count);
  for (std::size_t i = 0; i < count; ++i) msgs[i] = checks[i].revealed_sk;
  std::vector<Digest> digests(count);
  sha256_batch(msgs.data(), count, digests.data());
  for (std::size_t i = 0; i < count; ++i) {
    const OtsCheck& c = checks[i];
    if (c.vk_array == nullptr || !c.vk_array->covers(c.phase) ||
        !ots_value_allowed(c.phase, c.v)) {
      out[i] = false;
      continue;
    }
    const Digest& expected = c.vk_array->key(c.phase, c.v);
    out[i] = constant_time_equal(
        BytesView(digests[i].data(), digests[i].size()),
        BytesView(expected.data(), expected.size()));
  }
}

SignedKeyArray sign_key_array(const VerificationKeyArray& keys,
                              const RsaKeyPair& rsa) {
  return SignedKeyArray{.keys = keys,
                        .signature = rsa_sign(rsa, keys.serialize())};
}

bool verify_key_array(const SignedKeyArray& signed_keys,
                      const RsaPublicKey& rsa_pub) {
  return rsa_verify(rsa_pub, signed_keys.keys.serialize(),
                    signed_keys.signature);
}

}  // namespace turq::crypto
