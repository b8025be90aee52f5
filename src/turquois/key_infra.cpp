#include "turquois/key_infra.hpp"

#include "common/assert.hpp"
#include "crypto/sha256_batch.hpp"

namespace turq::turquois {

KeyInfrastructure KeyInfrastructure::setup(const Config& cfg, Rng& rng) {
  return std::move(setup_batch(cfg, rng, 1).front());
}

std::vector<KeyInfrastructure> KeyInfrastructure::setup_batch(
    const Config& cfg, Rng& rng, std::uint32_t instances) {
  TURQ_ASSERT(instances >= 1);
  std::vector<KeyInfrastructure> out(instances);
  for (auto& infra : out) {
    infra.chains_.reserve(cfg.n);
    infra.signatures_.reserve(cfg.n);
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
    }
  }

  // Sign all n × instances VK arrays from one batched sweep over their
  // canonical bytes, hashed in place.
  std::vector<BytesView> payloads;
  payloads.reserve(out.size() * cfg.n);
  for (const KeyInfrastructure& infra : out) {
    for (ProcessId id = 0; id < cfg.n; ++id) {
      payloads.push_back(infra.verification_keys(id).serialize());
    }
  }
  std::vector<crypto::Digest> digests(payloads.size());
  crypto::sha256_batch(payloads.data(), payloads.size(), digests.data());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    out[i / cfg.n].signatures_.push_back(
        crypto::rsa_sign_digest(rsa_keys[i % cfg.n], digests[i]));
  }

  // The paper's receivers verify each array's signature on arrival; setup
  // performs the same check once. It hashes the stored arrays again in a
  // sweep of its own rather than trusting the signing digests, so it checks
  // the bytes each process will read.
  crypto::sha256_batch(payloads.data(), payloads.size(), digests.data());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    const KeyInfrastructure& infra = out[i / cfg.n];
    const ProcessId id = static_cast<ProcessId>(i % cfg.n);
    TURQ_ASSERT(crypto::rsa_verify_digest(infra.rsa_publics_[id], digests[i],
                                          infra.signatures_[id]));
  }
  return out;
}

}  // namespace turq::turquois
