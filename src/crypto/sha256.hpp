// SHA-256 (FIPS 180-4), implemented from scratch.
//
// This is the hash H used by the paper's one-time signature scheme
// (VK[phase][value] = H(SK[phase][value])), by HMAC channel authentication
// for the Bracha baseline, and as the random oracle of the ABBA threshold
// coin. Verified against the FIPS test vectors in tests/crypto_test.cpp.
//
// Two time domains touch this code and must not be confused:
//
//   * Host time — how long the simulator process spends computing a digest.
//     The scalar context here and the 8-way batched compressor in
//     sha256_batch.hpp are interchangeable ways to spend it; batching only
//     makes the *simulator* faster.
//   * Virtual time — what a simulated node is charged for a hash, set by
//     crypto::CostModel and burned on a VirtualCpu. Charges are always
//     per-operation: batching N verifications host-side still charges N
//     individual ots_verify() costs in virtual time, so simulated latencies,
//     schedules, and every downstream statistic are unchanged.
//
// Block kernel: every whole 64-byte block goes through one internal kernel
// (sha256_k.hpp), chosen once at runtime. On CPUs with the SHA extensions
// (SHA-NI) it runs sha256rnds2/msg1/msg2, compiled with a function-level
// target attribute so the binary stays generic; elsewhere it runs portable
// rounds. update() hands all of its whole blocks to one kernel call. Both
// kernels produce identical digests; sha256_batch_force_impl() pins which
// one runs (SHA-NI under kShaNi, portable under any other impl).
//
// When a caller has independent digests to compute on the host, prefer
// sha256_batch() (see sha256_batch.hpp for implementation selection).
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace turq::crypto {

constexpr std::size_t kSha256DigestSize = 32;
constexpr std::size_t kSha256BlockSize = 64;

using Digest = std::array<std::uint8_t, kSha256DigestSize>;

/// Incremental SHA-256 context.
class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();
  void update(BytesView data);
  void update(std::string_view s) { update(as_bytes(s)); }

  /// Finalizes and returns the digest. The context must be reset() before
  /// further use.
  Digest finalize();

  /// One-shot convenience.
  static Digest hash(BytesView data);
  static Digest hash(std::string_view s) { return hash(as_bytes(s)); }

  /// Compression state after the bytes absorbed so far, exposed for the
  /// batched resume path (sha256_batch_resume). Only meaningful when the
  /// context sits exactly on a block boundary (bytes_absorbed() % 64 == 0),
  /// as the HMAC pad states always do; otherwise the buffered tail is not
  /// reflected here.
  const std::array<std::uint32_t, 8>& state_words() const { return state_; }

  /// Total bytes absorbed via update() since the last reset().
  std::uint64_t bytes_absorbed() const { return total_len_; }

 private:
  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, kSha256BlockSize> buffer_{};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// Digest as a Bytes vector (for serialization convenience).
Bytes digest_bytes(const Digest& d);

/// Digest truncated to a u64 (for hash-to-field / coin extraction).
std::uint64_t digest_to_u64(const Digest& d);

}  // namespace turq::crypto
