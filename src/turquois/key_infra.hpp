// Key infrastructure for Turquois (§6.1's key-exchange procedure).
//
// A trusted setup — modeling the paper's offline distribution of public
// keys and the first VK array — generates, for each process, an RSA key
// pair and a one-time key chain for `phases_per_epoch` phases, signs the
// VK arrays, and hands every process the full set of verified VK arrays.
// Byzantine processes hold real keys too (they are insiders).
#pragma once

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
  /// `instances` chains are drawn one after another from one stream, each
  /// hashed to verification keys in an 8-way sha256_batch sweep. The batch
  /// amortizes the RSA step: one key pair per process signs every
  /// instance's VK array (the paper's trapdoor key is per process, not per
  /// consensus run), all n × instances VK arrays are hashed for signing in
  /// one sweep, and the check hashes the stored arrays again in a second
  /// sweep. Each array's storage is its canonical serialization, so both
  /// sweeps hash it in place. Keys depend only on streams derived from
  /// `rng` ("ots-chain", id and "rsa", id), which setup_batch never
  /// advances. Returns one infrastructure per instance.
  static std::vector<KeyInfrastructure> setup_batch(const Config& cfg,
                                                    Rng& rng,
                                                    std::uint32_t instances);

  /// A process's own secret chain.
  [[nodiscard]] const crypto::OneTimeKeyChain& chain(ProcessId id) const {
    return chains_[id];
  }

  /// The verified VK array of any process (distribution + RSA verification
  /// already happened during setup, as the paper does offline). It is the
  /// array the owner's chain holds: one copy per process and instance.
  [[nodiscard]] const crypto::VerificationKeyArray& verification_keys(
      ProcessId id) const {
    return chains_[id].public_keys();
  }

  /// The owner's RSA signature over verification_keys(id).
  [[nodiscard]] std::uint64_t signature(ProcessId id) const {
    return signatures_[id];
  }

  [[nodiscard]] const crypto::RsaPublicKey& rsa_public(ProcessId id) const {
    return rsa_publics_[id];
  }

  [[nodiscard]] std::uint32_t n() const {
    return static_cast<std::uint32_t>(chains_.size());
  }

 private:
  std::vector<crypto::OneTimeKeyChain> chains_;
  std::vector<std::uint64_t> signatures_;
  std::vector<crypto::RsaPublicKey> rsa_publics_;
};

}  // namespace turq::turquois
