#include "crypto/modmath.hpp"

#include "common/assert.hpp"

namespace turq::crypto {

std::uint64_t modinv(std::uint64_t a, std::uint64_t m) {
  // Extended Euclid on signed 128-bit accumulators.
  __int128 t = 0, new_t = 1;
  __int128 r = m, new_r = a % m;
  while (new_r != 0) {
    const __int128 q = r / new_r;
    const __int128 tmp_t = t - q * new_t;
    t = new_t;
    new_t = tmp_t;
    const __int128 tmp_r = r - q * new_r;
    r = new_r;
    new_r = tmp_r;
  }
  if (r != 1) return 0;  // not invertible
  if (t < 0) t += m;
  return static_cast<std::uint64_t>(t);
}

namespace {

/// One Miller–Rabin round: false iff base `a` proves n = d * 2^r + 1
/// composite. `mul` is (x * y) mod n.
template <typename MulMod>
bool miller_rabin_witness(std::uint64_t n, std::uint64_t a, std::uint64_t d,
                          int r, MulMod mul) {
  std::uint64_t x = 1;
  for (std::uint64_t base = a % n, e = d; e > 0; e >>= 1) {
    if (e & 1) x = mul(x, base);
    base = mul(base, base);
  }
  if (x == 1 || x == n - 1) return true;
  for (int i = 0; i < r - 1; ++i) {
    x = mul(x, x);
    if (x == n - 1) return true;
  }
  return false;
}

}  // namespace

bool is_prime_u64(std::uint64_t n) {
  if (n < 2) return false;
  for (const std::uint64_t p : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL,
                                19ULL, 23ULL, 29ULL, 31ULL, 37ULL}) {
    if (n == p) return true;
    if (n % p == 0) return false;
  }
  // Write n-1 = d * 2^r with d odd.
  std::uint64_t d = n - 1;
  int r = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++r;
  }
  if (n < (1ULL << 32)) {
    // Bases {2, 7, 61} are exact below 4 759 123 141 (Jaeschke 1993), and
    // below 2^32 every product of two residues fits in 64 bits. The toy-RSA
    // primes all land here.
    const auto mul = [n](std::uint64_t x, std::uint64_t y) {
      return x * y % n;
    };
    for (const std::uint64_t a : {2ULL, 7ULL, 61ULL}) {
      if (a % n == 0) continue;  // n = 61: prime, and no witness to itself
      if (!miller_rabin_witness(n, a, d, r, mul)) return false;
    }
    return true;
  }
  const auto mul = [n](std::uint64_t x, std::uint64_t y) {
    return mulmod(x, y, n);
  };
  for (const std::uint64_t a : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL,
                                19ULL, 23ULL, 29ULL, 31ULL, 37ULL}) {
    if (!miller_rabin_witness(n, a, d, r, mul)) return false;
  }
  return true;
}

std::uint64_t random_prime(Rng& rng, int bits) {
  TURQ_ASSERT(bits >= 8 && bits <= 63);
  const std::uint64_t top = 1ULL << (bits - 1);
  for (;;) {
    std::uint64_t candidate = top | rng.uniform(top) | 1ULL;
    if (is_prime_u64(candidate)) return candidate;
  }
}

std::uint64_t random_safe_prime(Rng& rng, int bits) {
  TURQ_ASSERT(bits >= 10 && bits <= 63);
  for (;;) {
    const std::uint64_t q = random_prime(rng, bits - 1);
    const std::uint64_t p = 2 * q + 1;
    if (is_prime_u64(p)) return p;
  }
}

}  // namespace turq::crypto
