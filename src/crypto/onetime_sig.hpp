// One-time hash-based message signatures (paper §6.1).
//
// For each phase φ and proposal value v ∈ {0, 1, ⊥}, a process holds a
// random secret key SK[φ][v]; the corresponding verification key is
// VK[φ][v] = H(SK[φ][v]). Broadcasting ⟨i, φ, v, status⟩ reveals SK[φ][v];
// receivers check H(SK) == VK[φ][v]. This authenticates (φ, v) with a single
// hash — no public-key cryptography on the critical path. The VK array
// itself is signed once with the trapdoor function F (toy RSA here) and
// distributed out of band before the run.
//
// Per the paper's footnote, SK[φ][⊥] exists only for φ (mod 3) = 0, the
// only phases in which ⊥ is an acceptable proposal value.
//
// Batch contract: ots_verify_batch() and the key-chain generator route their
// hashes through the 8-way compressor (sha256_batch.hpp). Results are bit-
// identical to the scalar calls — same verdicts, same key bytes, same RNG
// stream consumption — so batching is purely a host-time (simulator wall
// clock) optimization; virtual-time charging stays per-verification via
// crypto::CostModel (see sha256.hpp for the two-time-domain rules).
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "crypto/sha256.hpp"
#include "crypto/toy_rsa.hpp"

namespace turq::crypto {

/// Phase numbers are 1-based, matching the protocol (φ ≥ 1).
using Phase = std::uint32_t;

/// True iff value v is in the signing domain for phase φ.
bool ots_value_allowed(Phase phase, Value v);

/// Public verification-key array for one process and one key-exchange epoch,
/// covering phases [first_phase, first_phase + num_phases).
///
/// The array's storage is its canonical serialization, the bytes the RSA
/// signature covers: a 12-byte header (owner, first phase and key count, each
/// a little-endian u32), then the 32-byte keys in [phase][value] order. A
/// phase's slot block starts at an offset computed from the slot layout, so
/// serialize() is a view and signing hashes the stored bytes in place.
class VerificationKeyArray {
 public:
  static constexpr std::size_t kHeaderSize = 12;

  VerificationKeyArray() = default;

  [[nodiscard]] ProcessId owner() const { return owner_; }
  [[nodiscard]] Phase first_phase() const { return first_phase_; }
  [[nodiscard]] Phase num_phases() const { return num_phases_; }
  [[nodiscard]] bool covers(Phase phase) const;

  /// The 32-byte verification key for (phase, value); phase must be covered
  /// and the value allowed for that phase.
  [[nodiscard]] BytesView key(Phase phase, Value v) const;

  /// Canonical serialization (what the RSA signature covers): a view of
  /// this array's storage.
  [[nodiscard]] BytesView serialize() const { return bytes_; }

  bool operator==(const VerificationKeyArray&) const = default;

 private:
  friend class OneTimeKeyChain;
  /// An array of zeroed keys with its header written.
  VerificationKeyArray(ProcessId owner, Phase first_phase, Phase num_phases);
  [[nodiscard]] std::size_t index_of(Phase phase, Value v) const;
  [[nodiscard]] std::size_t slots() const;

  ProcessId owner_ = kInvalidProcess;
  Phase first_phase_ = 1;
  Phase num_phases_ = 0;
  Bytes bytes_;  // header, then the keys flattened [phase][value]
};

/// A process's private side: the SK array plus the matching public array.
/// The secrets sit in one flat buffer, 32 bytes per slot in the VK array's
/// [phase][value] layout.
class OneTimeKeyChain {
 public:
  /// Generates keys for phases [first_phase, first_phase + num_phases).
  static OneTimeKeyChain generate(ProcessId owner, Phase first_phase,
                                  Phase num_phases, Rng& rng);

  [[nodiscard]] ProcessId owner() const { return public_keys_.owner(); }
  [[nodiscard]] bool covers(Phase phase) const { return public_keys_.covers(phase); }

  /// The secret key revealed when broadcasting (phase, value): a view of
  /// 32 bytes into this chain's buffer, valid as long as the chain lives.
  /// Copy it out to keep it longer.
  [[nodiscard]] BytesView secret_key(Phase phase, Value v) const;

  [[nodiscard]] const VerificationKeyArray& public_keys() const {
    return public_keys_;
  }

 private:
  Bytes secrets_;  // 32 bytes per slot, same layout as the VK array
  VerificationKeyArray public_keys_;
};

/// Checks that `revealed_sk` authenticates (phase, value) under `vk_array`.
bool ots_verify(const VerificationKeyArray& vk_array, Phase phase, Value v,
                BytesView revealed_sk);

/// One pending verification for ots_verify_batch. The referenced VK array
/// and key bytes must outlive the call.
struct OtsCheck {
  const VerificationKeyArray* vk_array = nullptr;
  Phase phase = 0;
  Value v = Value::kZero;
  BytesView revealed_sk;
};

/// Batched ots_verify: out[i] == ots_verify(*checks[i].vk_array, …) for
/// every i and any count. The revealed-key hashes run 8 per compression
/// sweep; profitable from 2 checks up (see sha256_batch.hpp for lane rules).
void ots_verify_batch(const OtsCheck* checks, std::size_t count, bool* out);

/// The owner's RSA signature over a VK array's canonical bytes (the
/// key-exchange payload is the array plus this signature).
std::uint64_t sign_key_array(const VerificationKeyArray& keys,
                             const RsaKeyPair& rsa);

bool verify_key_array(const VerificationKeyArray& keys, std::uint64_t signature,
                      const RsaPublicKey& rsa_pub);

}  // namespace turq::crypto
