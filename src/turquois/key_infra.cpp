#include "turquois/key_infra.hpp"

#include "common/assert.hpp"
#include "crypto/sha256_batch.hpp"

namespace turq::turquois {

namespace {

// Serializes every array and hashes them all in one batched sweep:
// digests[i] == Sha256::hash(arrays[i]->serialize()).
std::vector<crypto::Digest> hash_serialized(
    const std::vector<const crypto::VerificationKeyArray*>& arrays) {
  std::vector<Bytes> payloads(arrays.size());
  std::vector<BytesView> views(arrays.size());
  for (std::size_t i = 0; i < arrays.size(); ++i) {
    payloads[i] = arrays[i]->serialize();
    views[i] = payloads[i];
  }
  std::vector<crypto::Digest> digests(arrays.size());
  crypto::sha256_batch(views.data(), views.size(), digests.data());
  return digests;
}

}  // namespace

KeyInfrastructure KeyInfrastructure::setup(const Config& cfg, Rng& rng) {
  return std::move(setup_batch(cfg, rng, 1).front());
}

std::vector<KeyInfrastructure> KeyInfrastructure::setup_batch(
    const Config& cfg, Rng& rng, std::uint32_t instances) {
  TURQ_ASSERT(instances >= 1);
  std::vector<KeyInfrastructure> out(instances);
  for (auto& infra : out) {
    infra.chains_.reserve(cfg.n);
    infra.signed_arrays_.reserve(cfg.n);
    infra.rsa_publics_.reserve(cfg.n);
  }

  std::vector<crypto::RsaKeyPair> rsa_keys;
  rsa_keys.reserve(cfg.n);
  for (ProcessId id = 0; id < cfg.n; ++id) {
    // One RSA pair per process per batch: the paper's trapdoor key belongs
    // to the process, so it signs every instance's VK array.
    Rng rsa_rng = rng.derive("rsa", id);
    rsa_keys.push_back(crypto::rsa_generate(rsa_rng));

    // The instances' chains of one process are drawn one after another
    // from one stream, so every instance gets disjoint secrets (a revealed
    // SK must never sign in a sibling instance).
    Rng chain_rng = rng.derive("ots-chain", id);
    for (KeyInfrastructure& infra : out) {
      infra.chains_.push_back(crypto::OneTimeKeyChain::generate(
          id, /*first_phase=*/1, cfg.phases_per_epoch, chain_rng));
      infra.rsa_publics_.push_back(rsa_keys.back().pub);
      // Signed below. Allocating the stored copy before the transient
      // serializations keeps those on top of the heap, where freeing them
      // leaves no hole for the run's allocations to fragment.
      infra.signed_arrays_.push_back(
          crypto::SignedKeyArray{.keys = infra.chains_.back().public_keys()});
    }
  }

  // Sign all n × instances VK arrays from one batched hash sweep.
  std::vector<const crypto::VerificationKeyArray*> arrays;
  arrays.reserve(out.size() * cfg.n);
  for (const KeyInfrastructure& infra : out) {
    for (const auto& chain : infra.chains_) arrays.push_back(&chain.public_keys());
  }
  const std::vector<crypto::Digest> to_sign = hash_serialized(arrays);
  for (std::size_t i = 0; i < arrays.size(); ++i) {
    out[i / cfg.n].signed_arrays_[i % cfg.n].signature =
        crypto::rsa_sign_digest(rsa_keys[i % cfg.n], to_sign[i]);
  }

  // The paper's receivers verify each array's signature on arrival; setup
  // performs the same check once. It re-serializes and re-hashes the
  // *stored* arrays in a sweep of its own rather than trusting the signing
  // digests, so it checks the bytes each process will read.
  for (std::size_t i = 0; i < arrays.size(); ++i) {
    arrays[i] = &out[i / cfg.n].signed_arrays_[i % cfg.n].keys;
  }
  const std::vector<crypto::Digest> to_verify = hash_serialized(arrays);
  for (std::size_t i = 0; i < arrays.size(); ++i) {
    const KeyInfrastructure& infra = out[i / cfg.n];
    const ProcessId id = static_cast<ProcessId>(i % cfg.n);
    TURQ_ASSERT(crypto::rsa_verify_digest(infra.rsa_publics_[id], to_verify[i],
                                          infra.signed_arrays_[id].signature));
  }
  return out;
}

}  // namespace turq::turquois
