#include "turquois/key_infra.hpp"

#include <map>
#include <mutex>
#include <tuple>

#include "common/assert.hpp"
#include "crypto/sha256_batch.hpp"

namespace turq::turquois {

namespace {

/// Signs every array with its owner's RSA key from one batched sweep over
/// the stored bytes, then checks each signature as the paper's receivers do
/// on arrival. The check hashes the arrays again in a sweep of its own
/// rather than trusting the signing digests, so it checks the bytes each
/// process will read. A failure aborts the run.
std::vector<std::uint64_t> sign_and_verify(
    const std::vector<const crypto::VerificationKeyArray*>& arrays,
    const std::vector<crypto::RsaKeyPair>& rsa) {
  std::vector<BytesView> payloads;
  payloads.reserve(arrays.size());
  for (const crypto::VerificationKeyArray* a : arrays) {
    payloads.push_back(a->serialize());
  }
  std::vector<crypto::Digest> digests(payloads.size());
  std::vector<std::uint64_t> signatures(payloads.size());
  crypto::sha256_batch(payloads.data(), payloads.size(), digests.data());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    signatures[i] =
        crypto::rsa_sign_digest(rsa[arrays[i]->owner()], digests[i]);
  }
  crypto::sha256_batch(payloads.data(), payloads.size(), digests.data());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    TURQ_ASSERT(crypto::rsa_verify_digest(rsa[arrays[i]->owner()].pub,
                                          digests[i], signatures[i]));
  }
  return signatures;
}

}  // namespace

struct KeyInfrastructure::Batch {
  /// One RSA pair per process: the paper's trapdoor key belongs to the
  /// process, so it signs every instance's VK arrays in every epoch.
  std::vector<crypto::RsaKeyPair> rsa;
  std::mutex mu;
  /// Keyed (instance, id, epoch). Map nodes never move, so a reference
  /// handed out under the mutex stays valid, and its bytes are never
  /// written again.
  std::map<std::tuple<std::uint32_t, ProcessId, std::uint32_t>, Epoch> epochs;
};

const crypto::RsaPublicKey& KeyInfrastructure::rsa_public(ProcessId id) const {
  return batch_->rsa[id].pub;
}

KeyInfrastructure KeyInfrastructure::setup(const Config& cfg, Rng& rng) {
  return std::move(setup_batch(cfg, rng, 1).front());
}

std::vector<KeyInfrastructure> KeyInfrastructure::setup_batch(
    const Config& cfg, Rng& rng, std::uint32_t instances) {
  TURQ_ASSERT(instances >= 1);
  TURQ_ASSERT(cfg.phases_per_epoch >= 1);
  const auto batch = std::make_shared<Batch>();
  batch->rsa.reserve(cfg.n);
  std::vector<KeyInfrastructure> out(instances);
  for (std::uint32_t i = 0; i < instances; ++i) {
    KeyInfrastructure& infra = out[i];
    infra.chains_.reserve(cfg.n);
    infra.batch_ = batch;
    infra.root_ = rng;
    infra.instance_ = i;
    infra.phases_per_epoch_ = cfg.phases_per_epoch;
    infra.max_phase_ = cfg.max_phase;
  }

  for (ProcessId id = 0; id < cfg.n; ++id) {
    Rng rsa_rng = rng.derive("rsa", id);
    batch->rsa.push_back(crypto::rsa_generate(rsa_rng));

    // The instances' chains of one process are drawn one after another
    // from one stream, so every instance gets disjoint secrets (a revealed
    // SK must never sign in a sibling instance).
    Rng chain_rng = rng.derive("ots-chain", id);
    for (KeyInfrastructure& infra : out) {
      infra.chains_.push_back(crypto::OneTimeKeyChain::generate(
          id, /*first_phase=*/1, cfg.phases_per_epoch, chain_rng));
    }
  }

  // Sign and check all n × instances VK arrays in two batched sweeps.
  std::vector<const crypto::VerificationKeyArray*> arrays;
  arrays.reserve(out.size() * cfg.n);
  for (const KeyInfrastructure& infra : out) {
    for (ProcessId id = 0; id < cfg.n; ++id) {
      arrays.push_back(&infra.verification_keys(id));
    }
  }
  const std::vector<std::uint64_t> signatures =
      sign_and_verify(arrays, batch->rsa);
  for (std::uint32_t i = 0; i < instances; ++i) {
    out[i].signatures_.assign(signatures.begin() + i * cfg.n,
                              signatures.begin() + (i + 1) * cfg.n);
  }
  return out;
}

const KeyInfrastructure::Epoch& KeyInfrastructure::later(
    ProcessId id, std::uint32_t epoch) const {
  TURQ_ASSERT(id < n() && epoch >= 1);
  const std::uint64_t first = std::uint64_t{epoch} * phases_per_epoch_ + 1;
  TURQ_ASSERT_MSG(first <= max_phase_, "no process signs past max_phase");
  std::lock_guard<std::mutex> lock(batch_->mu);
  const auto [it, built] =
      batch_->epochs.try_emplace({instance_, id, epoch});
  if (built) {
    // The same draws, hashes and RSA steps as setup_batch gives epoch 0,
    // from a stream of this (process, instance, epoch) alone.
    Rng chain_rng = root_.derive("ots-epoch", id)
                        .derive("instance", instance_)
                        .derive("epoch", epoch);
    it->second.chain = crypto::OneTimeKeyChain::generate(
        id, static_cast<crypto::Phase>(first), phases_per_epoch_, chain_rng);
    it->second.signature =
        sign_and_verify({&it->second.chain.public_keys()}, batch_->rsa).front();
  }
  return it->second;
}

}  // namespace turq::turquois
