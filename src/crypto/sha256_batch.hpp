// Batched SHA-256 (FIPS 180-4): many independent digests per call.
//
// Three kernels sit behind one entry point, resolved at *runtime* from
// cpuid (kAuto tries them in this order):
//
//   * kShaNi — the CPU's SHA extensions. Lanes run through the scalar
//     block kernel (sha256_k.hpp) in order, eight at a time: whole blocks
//     are hashed in place, and the eight padded tails are assembled before
//     the first block is compressed. Equal-length neighbours go two at a
//     time through an interleaved kernel, which hides the round
//     instruction's latency. Per message this matches or beats an
//     8-lane AVX2 sweep at any count, and it never idles lanes when a call
//     brings one or two messages.
//   * kAvx2 — 8-way message-parallel: the working state is held transposed,
//     each state word one __m256i holding all 8 lanes (one lane per
//     message). For x86 hosts with AVX2 but no SHA-NI (e.g. Cascade Lake).
//   * kScalarLanes — the same 8-way sweep in portable lane-interleaved C++:
//     uint32_t[8] arrays with the lane index innermost, which compilers
//     auto-vectorize to whatever SIMD width the target offers. Always built.
//
// The SHA-NI and AVX2 bodies are compiled with function-level target
// attributes, so the rest of the binary stays generic.
//
// Lane counts: the batch APIs take any count. The 8-way kernels process 8
// messages per sweep; a final partial group still compresses 8 lanes (idle
// lanes chew a dummy block whose result is discarded), and lanes of
// different lengths pad and finish on their own schedules while longer
// lanes drain. Callers simply hand over whatever they have.
//
// Host-time vs virtual-time: everything here is a WALL-CLOCK optimization
// only. Digests are bit-identical to Sha256::hash() per message, and the
// simulator's virtual-time crypto costs (crypto::CostModel) keep charging
// every hash individually — batching models a faster simulator host, not a
// faster simulated node. See cost_model.hpp for the split.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace turq::crypto {

/// Messages per 8-way compression sweep (the AVX2 register width in 32-bit
/// lanes).
inline constexpr std::size_t kSha256Lanes = 8;

enum class Sha256Impl {
  kAuto,         ///< resolve at runtime: SHA-NI, then AVX2, then scalar lanes
  kScalarLanes,  ///< portable lane-interleaved C++ (auto-vectorizable)
  kAvx2,         ///< one YMM register per state word, 8 lanes each
  kShaNi,        ///< SHA extensions, one or two lanes at a time
};

[[nodiscard]] const char* to_string(Sha256Impl impl);

/// The implementation kAuto resolves to on this machine.
[[nodiscard]] Sha256Impl sha256_batch_resolved_impl();

/// Pins the implementation (equivalence tests, A/B benchmarks). Requesting
/// a kernel the CPU lacks silently falls back one step (kShaNi to kAvx2,
/// kAvx2 to kScalarLanes) — the caller can confirm with
/// sha256_batch_resolved_impl(). The pin also governs the Sha256 context:
/// it runs SHA-NI when the pin resolves to kShaNi and the portable kernel
/// otherwise, so tests reach every kernel on one machine. Not thread-safe:
/// set once before any worker threads hash.
void sha256_batch_force_impl(Sha256Impl impl);

/// Hashes `count` independent messages. out[i] == Sha256::hash(msgs[i])
/// bit for bit, for every i and any count (including 0 and non-multiples
/// of 8).
void sha256_batch(const BytesView* msgs, std::size_t count, Digest* out);

/// One resumable lane: `state` is the compression state after absorbing
/// `prefix_len` bytes (must be a multiple of 64 — i.e. the context sat on a
/// block boundary, as the HMAC pad states always do), `data` the remaining
/// suffix. The lane's digest covers the full prefix_len + data stream.
struct Sha256Resume {
  std::array<std::uint32_t, 8> state;
  std::uint64_t prefix_len = 0;
  BytesView data;
};

/// Batched finalize-from-state. out[i] equals the digest a scalar Sha256
/// would produce after absorbing lanes[i]'s full stream. This is the HMAC
/// fast path: both the inner and the outer hash resume from a pre-absorbed
/// 64-byte pad block (crypto::HmacKey), so a MAC costs two batched sweeps.
void sha256_batch_resume(const Sha256Resume* lanes, std::size_t count,
                         Digest* out);

}  // namespace turq::crypto
