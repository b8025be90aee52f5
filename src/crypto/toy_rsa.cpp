#include "crypto/toy_rsa.hpp"

#include "common/assert.hpp"
#include "crypto/modmath.hpp"
#include "crypto/sha256.hpp"

namespace turq::crypto {

namespace {
std::uint64_t message_representative(const Digest& digest, std::uint64_t n) {
  std::uint64_t h = digest_to_u64(digest) % n;
  if (h < 2) h = 2;  // avoid the trivial fixed points 0 and 1
  return h;
}
}  // namespace

RsaKeyPair rsa_generate(Rng& rng, int prime_bits) {
  TURQ_ASSERT(prime_bits >= 16 && prime_bits <= 31);
  constexpr std::uint64_t kE = 65537;
  for (;;) {
    const std::uint64_t p = random_prime(rng, prime_bits);
    const std::uint64_t q = random_prime(rng, prime_bits);
    if (p == q) continue;
    const std::uint64_t n = p * q;
    const std::uint64_t lambda = (p - 1) / gcd_u64(p - 1, q - 1) * (q - 1);
    if (gcd_u64(kE, lambda) != 1) continue;
    const std::uint64_t d = modinv(kE, lambda);
    if (d == 0) continue;
    return RsaKeyPair{.pub = {.n = n, .e = kE}, .d = d};
  }
}

std::uint64_t rsa_sign(const RsaKeyPair& key, BytesView message) {
  return rsa_sign_digest(key, Sha256::hash(message));
}

bool rsa_verify(const RsaPublicKey& pub, BytesView message, std::uint64_t sig) {
  return rsa_verify_digest(pub, Sha256::hash(message), sig);
}

std::uint64_t rsa_sign_digest(const RsaKeyPair& key, const Digest& digest) {
  const std::uint64_t h = message_representative(digest, key.pub.n);
  return powmod(h, key.d, key.pub.n);
}

bool rsa_verify_digest(const RsaPublicKey& pub, const Digest& digest,
                       std::uint64_t sig) {
  if (pub.n == 0 || sig >= pub.n) return false;
  const std::uint64_t h = message_representative(digest, pub.n);
  return powmod(sig, pub.e, pub.n) == h;
}

}  // namespace turq::crypto
