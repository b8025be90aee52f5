// 64-bit modular arithmetic, primality testing, and prime generation.
//
// Foundation for the toy-RSA signatures (key-exchange signing in Turquois)
// and the Schnorr subgroup used by the ABBA threshold coin. Parameters are
// deliberately small (≤ 64 bits) — the math is faithful, the security margin
// is not; CPU cost of production-size operations is charged separately by
// the simulator's virtual-CPU model.
#pragma once

#include <cstdint>

#include "common/rng.hpp"

namespace turq::crypto {

/// (a * b) mod m without overflow.
constexpr std::uint64_t mulmod(std::uint64_t a, std::uint64_t b, std::uint64_t m) {
  return static_cast<std::uint64_t>(
      (static_cast<__uint128_t>(a) * b) % m);
}

/// (base ^ exp) mod m by square-and-multiply.
constexpr std::uint64_t powmod(std::uint64_t base, std::uint64_t exp,
                               std::uint64_t m) {
  std::uint64_t result = 1 % m;
  base %= m;
  while (exp > 0) {
    if (exp & 1) result = mulmod(result, base, m);
    base = mulmod(base, base, m);
    exp >>= 1;
  }
  return result;
}

/// Greatest common divisor.
constexpr std::uint64_t gcd_u64(std::uint64_t a, std::uint64_t b) {
  while (b != 0) {
    const std::uint64_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}

/// Modular inverse of a mod m (m need not be prime but gcd(a,m) must be 1).
/// Returns 0 if no inverse exists.
std::uint64_t modinv(std::uint64_t a, std::uint64_t m);

/// Deterministic Miller–Rabin, exact for all 64-bit integers: witness set
/// {2,7,61} with 64-bit products below 2^32, and
/// {2,3,5,7,11,13,17,19,23,29,31,37} with 128-bit products above.
bool is_prime_u64(std::uint64_t n);

/// Random prime with exactly `bits` bits (top bit set), bits in [8, 63].
std::uint64_t random_prime(Rng& rng, int bits);

/// Random safe prime p = 2q + 1 (q also prime) with exactly `bits` bits.
/// Returns p; q is (p-1)/2.
std::uint64_t random_safe_prime(Rng& rng, int bits);

}  // namespace turq::crypto
