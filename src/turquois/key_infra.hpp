// Key infrastructure for Turquois (§6.1's key-exchange procedure).
//
// A trusted setup — modeling the paper's offline distribution of public
// keys and the first VK array — generates, for each process, an RSA key
// pair and a one-time key chain for the first `phases_per_epoch` phases
// (epoch 0), signs the VK arrays, and hands every process the full set of
// verified VK arrays. Byzantine processes hold real keys too (they are
// insiders).
//
// A run that goes past epoch 0 rolls over: the first time a process signs,
// or a receiver verifies, a phase of a later epoch, the infrastructure
// builds that process's chain for that epoch exactly as the setup built
// epoch 0 (draw, hash, RSA-sign, RSA-verify). The rollover stands for the
// paper's in-run exchange of the next VK array and costs no simulated time,
// as the offline setup costs none.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "crypto/onetime_sig.hpp"
#include "crypto/toy_rsa.hpp"
#include "turquois/config.hpp"

namespace turq::turquois {

class KeyInfrastructure {
 public:
  /// Runs the trusted setup for `cfg.n` processes: setup_batch(cfg, rng, 1).
  static KeyInfrastructure setup(const Config& cfg, Rng& rng);

  /// One trusted-setup pass covering `instances` concurrent consensus
  /// instances (the service layer's pipelining batch). Every instance gets
  /// its own DISJOINT one-time secrets — a revealed SK must never
  /// authenticate a (phase, value) of another instance: per process, the
  /// `instances` epoch-0 chains are drawn one after another from one
  /// stream, each hashed to verification keys in an 8-way sha256_batch
  /// sweep. The batch amortizes the RSA step: one key pair per process
  /// signs every instance's VK arrays (the paper's trapdoor key is per
  /// process, not per consensus run), all n × instances epoch-0 arrays are
  /// hashed for signing in one sweep, and the check hashes the stored
  /// arrays again in a second sweep. Each array's storage is its canonical
  /// serialization, so both sweeps hash it in place. Epoch-0 keys depend
  /// only on streams derived from `rng` ("ots-chain", id and "rsa", id),
  /// and a later epoch's secrets on the stream ("ots-epoch", id) →
  /// ("instance", i) → ("epoch", e), so every (instance, epoch) is disjoint
  /// and its bytes do not depend on who asks for it first. setup_batch
  /// never advances `rng`. Returns one infrastructure per instance.
  static std::vector<KeyInfrastructure> setup_batch(const Config& cfg,
                                                    Rng& rng,
                                                    std::uint32_t instances);

  /// The epoch whose chain covers `phase` (>= 1): phases
  /// (e·m, (e+1)·m] for m = Config::phases_per_epoch.
  [[nodiscard]] std::uint32_t epoch_of(crypto::Phase phase) const {
    return (phase - 1) / phases_per_epoch_;
  }

  /// A process's own secret chain for `epoch`, built on first use.
  [[nodiscard]] const crypto::OneTimeKeyChain& chain(
      ProcessId id, std::uint32_t epoch = 0) const {
    return epoch == 0 ? chains_[id] : later(id, epoch).chain;
  }

  /// The secret `id` reveals when it broadcasts (phase, v): phase within
  /// max_phase, v in the phase's signing domain.
  [[nodiscard]] BytesView secret_key(ProcessId id, crypto::Phase phase,
                                     Value v) const {
    return chain(id, epoch_of(phase)).secret_key(phase, v);
  }

  /// The verified VK array of any process for epoch 0 (distribution + RSA
  /// verification already happened during setup, as the paper does
  /// offline). It is the array the owner's chain holds: one copy per
  /// process and instance.
  [[nodiscard]] const crypto::VerificationKeyArray& verification_keys(
      ProcessId id) const {
    return chains_[id].public_keys();
  }

  /// The verified VK array that covers `phase`, rolling over to its epoch
  /// on first use. A phase inside epoch 0 takes no lock. Phase 0 and
  /// phases past max_phase, which no process signs, get the epoch-0 array:
  /// it does not cover them, so they fail verification.
  [[nodiscard]] const crypto::VerificationKeyArray& verification_keys(
      ProcessId id, crypto::Phase phase) const {
    if (phase <= phases_per_epoch_ || phase > max_phase_) {
      return chains_[id].public_keys();
    }
    return later(id, epoch_of(phase)).chain.public_keys();
  }

  /// The owner's RSA signature over its VK array for `epoch`.
  [[nodiscard]] std::uint64_t signature(ProcessId id,
                                        std::uint32_t epoch = 0) const {
    return epoch == 0 ? signatures_[id] : later(id, epoch).signature;
  }

  [[nodiscard]] const crypto::RsaPublicKey& rsa_public(ProcessId id) const;

  [[nodiscard]] std::uint32_t n() const {
    return static_cast<std::uint32_t>(chains_.size());
  }

 private:
  struct Epoch {
    crypto::OneTimeKeyChain chain;
    std::uint64_t signature = 0;
  };
  /// What the instances of one setup_batch share: each process's RSA pair
  /// and the later epochs built so far, behind one mutex (in the .cpp).
  struct Batch;

  /// Epoch `epoch` (>= 1) of `id`, built under the batch's mutex the first
  /// time any thread asks for it; never moved or freed afterwards.
  const Epoch& later(ProcessId id, std::uint32_t epoch) const;

  std::vector<crypto::OneTimeKeyChain> chains_;  // epoch 0, per process
  std::vector<std::uint64_t> signatures_;        // epoch 0, per process
  std::shared_ptr<Batch> batch_;
  Rng root_;  // the setup's generator, root of the rollover streams
  std::uint32_t instance_ = 0;
  std::uint32_t phases_per_epoch_ = kPhasesPerEpoch;
  std::uint32_t max_phase_ = 0;
};

}  // namespace turq::turquois
