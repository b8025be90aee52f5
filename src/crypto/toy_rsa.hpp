// Toy RSA signatures (small modulus, real math).
//
// The paper signs each process's verification-key array VK_i with a
// trapdoor one-way function F (RSA) and a per-process key pair. We implement
// genuine RSA over a ~62-bit modulus: keygen via Miller–Rabin primes,
// sign = H(m) mod n raised to d, verify = signature raised to e. The CPU
// cost of *production-size* RSA (1024-bit on the paper's Pentium III) is
// charged by the simulator's cost model, not by this code's wall-clock.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"

namespace turq::crypto {

struct RsaPublicKey {
  std::uint64_t n = 0;  // modulus
  std::uint64_t e = 0;  // public exponent
};

struct RsaKeyPair {
  RsaPublicKey pub;
  std::uint64_t d = 0;  // private exponent
};

/// Generates a key pair with a modulus of roughly 2*prime_bits bits.
RsaKeyPair rsa_generate(Rng& rng, int prime_bits = 31);

/// Signature = (H(message) mod n) ^ d mod n, full-domain-hash style.
/// Equals rsa_sign_digest(key, Sha256::hash(message)).
std::uint64_t rsa_sign(const RsaKeyPair& key, BytesView message);

/// Verify sig^e mod n == H(message) mod n.
/// Equals rsa_verify_digest(pub, Sha256::hash(message), sig).
bool rsa_verify(const RsaPublicKey& pub, BytesView message, std::uint64_t sig);

/// The signing step for an already computed H(message), so that callers
/// holding many messages can hash them in one batched sweep
/// (sha256_batch.hpp) and sign the digests.
std::uint64_t rsa_sign_digest(const RsaKeyPair& key, const Digest& digest);

/// The verification step for an already computed H(message). Rejects a
/// signature >= n and a key with n == 0.
bool rsa_verify_digest(const RsaPublicKey& pub, const Digest& digest,
                       std::uint64_t sig);

}  // namespace turq::crypto
