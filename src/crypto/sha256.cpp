#include "crypto/sha256.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "common/assert.hpp"
#include "crypto/sha256_k.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TURQ_SHA256_BUILD_SHA_NI 1
#include <immintrin.h>
#else
#define TURQ_SHA256_BUILD_SHA_NI 0
#endif

namespace turq::crypto {

namespace {

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

using BlockFn = void (*)(std::uint32_t*, const std::uint8_t*, std::size_t);
using PairFn = void (*)(std::uint32_t*, const std::uint8_t*, std::uint32_t*,
                        const std::uint8_t*, std::size_t);

void compress_portable(std::uint32_t* state, const std::uint8_t* data,
                       std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, data += kSha256BlockSize) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(data[i * 4]) << 24) |
             (static_cast<std::uint32_t>(data[i * 4 + 1]) << 16) |
             (static_cast<std::uint32_t>(data[i * 4 + 2]) << 8) |
             static_cast<std::uint32_t>(data[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kSha256K[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if TURQ_SHA256_BUILD_SHA_NI

// Four rounds: `msg` holds W[t..t+3], `k` points at K[t..t+3]. Each
// sha256rnds2 runs two rounds and returns the new ABEF; the old ABEF is then
// the new CDGH, so the two registers swap roles between the halves.
__attribute__((target("sha,sse4.1,ssse3"))) inline void rounds4(
    __m128i& abef, __m128i& cdgh, __m128i msg, const std::uint32_t* k) {
  const __m128i wk =
      _mm_add_epi32(msg, _mm_loadu_si128(reinterpret_cast<const __m128i*>(k)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

// W[t..t+3] from the four previous schedule vectors (w0 oldest).
__attribute__((target("sha,sse4.1,ssse3"))) inline __m128i schedule4(
    __m128i w0, __m128i w1, __m128i w2, __m128i w3) {
  return _mm_sha256msg2_epu32(
      _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4)),
      w3);
}

// Runs `L` independent streams of `nblocks` blocks each. With two streams
// the rounds of one fill the sha256rnds2 latency of the other.
template <int L>
__attribute__((target("sha,sse4.1,ssse3"))) inline void compress_sha_ni_lanes(
    std::uint32_t* const (&state)[L], const std::uint8_t* const (&data)[L],
    std::size_t nblocks) {
  // Big-endian word loads: reverse the bytes inside each 32-bit lane.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  // The instructions keep the state as ABEF and CDGH (A and C in the top
  // lane); state[] is A..H in order.
  __m128i abef[L];
  __m128i cdgh[L];
  for (int l = 0; l < L; ++l) {
    const __m128i dcba = _mm_shuffle_epi32(
        _mm_loadu_si128(reinterpret_cast<__m128i*>(state[l])), 0xB1);
    const __m128i hgfe = _mm_shuffle_epi32(
        _mm_loadu_si128(reinterpret_cast<__m128i*>(state[l] + 4)), 0x1B);
    abef[l] = _mm_alignr_epi8(dcba, hgfe, 8);
    cdgh[l] = _mm_blend_epi16(hgfe, dcba, 0xF0);
  }

  for (std::size_t b = 0; b < nblocks; ++b) {
    __m128i abef_in[L];
    __m128i cdgh_in[L];
    // Unrolled so the schedule vectors stay in registers.
    __m128i w[L][4];
    for (int l = 0; l < L; ++l) {
      abef_in[l] = abef[l];
      cdgh_in[l] = cdgh[l];
    }
#pragma GCC unroll 4
    for (int i = 0; i < 4; ++i) {
      for (int l = 0; l < L; ++l) {
        w[l][i] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                data[l] + b * kSha256BlockSize + 16 * i)),
            bswap);
        rounds4(abef[l], cdgh[l], w[l][i], kSha256K + 4 * i);
      }
    }
#pragma GCC unroll 12
    for (int i = 4; i < 16; ++i) {
      for (int l = 0; l < L; ++l) {
        w[l][i & 3] = schedule4(w[l][i & 3], w[l][(i + 1) & 3],
                                w[l][(i + 2) & 3], w[l][(i + 3) & 3]);
        rounds4(abef[l], cdgh[l], w[l][i & 3], kSha256K + 4 * i);
      }
    }
    for (int l = 0; l < L; ++l) {
      abef[l] = _mm_add_epi32(abef[l], abef_in[l]);
      cdgh[l] = _mm_add_epi32(cdgh[l], cdgh_in[l]);
    }
  }

  for (int l = 0; l < L; ++l) {
    const __m128i feba = _mm_shuffle_epi32(abef[l], 0x1B);
    const __m128i dchg = _mm_shuffle_epi32(cdgh[l], 0xB1);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state[l]),
                     _mm_blend_epi16(feba, dchg, 0xF0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state[l] + 4),
                     _mm_alignr_epi8(dchg, feba, 8));
  }
}

__attribute__((target("sha,sse4.1,ssse3"))) void compress_sha_ni(
    std::uint32_t* state, const std::uint8_t* data, std::size_t nblocks) {
  compress_sha_ni_lanes<1>({state}, {data}, nblocks);
}

__attribute__((target("sha,sse4.1,ssse3"))) void compress_pair_sha_ni(
    std::uint32_t* state_a, const std::uint8_t* data_a, std::uint32_t* state_b,
    const std::uint8_t* data_b, std::size_t nblocks) {
  compress_sha_ni_lanes<2>({state_a, state_b}, {data_a, data_b}, nblocks);
}

#endif  // TURQ_SHA256_BUILD_SHA_NI

void compress_pair_portable(std::uint32_t* state_a, const std::uint8_t* data_a,
                            std::uint32_t* state_b, const std::uint8_t* data_b,
                            std::size_t nblocks) {
  compress_portable(state_a, data_a, nblocks);
  compress_portable(state_b, data_b, nblocks);
}

struct Kernel {
  BlockFn blocks;
  PairFn pair;
};

constexpr Kernel kPortable{&compress_portable, &compress_pair_portable};
#if TURQ_SHA256_BUILD_SHA_NI
constexpr Kernel kShaNi{&compress_sha_ni, &compress_pair_sha_ni};
#endif

const Kernel* kernel_for(bool sha_ni) {
#if TURQ_SHA256_BUILD_SHA_NI
  if (sha_ni && sha256_cpu_has_sha_ni()) return &kShaNi;
#else
  (void)sha_ni;
#endif
  return &kPortable;
}

/// The selected kernel. The first use picks SHA-NI whenever the CPU has it
/// (a function-local static, so hashing during static initialization is
/// safe); sha256_select_sha_ni() overrides it. Relaxed loads compile to
/// plain moves.
std::atomic<const Kernel*>& kernel_slot() {
  static std::atomic<const Kernel*> slot{kernel_for(true)};
  return slot;
}

const Kernel& kernel() {
  return *kernel_slot().load(std::memory_order_relaxed);
}

/// Writes `tail` (fewer than 64 bytes) and the FIPS 180-4 padding for a
/// `total_len`-byte stream into `block`: 0x80, zeros to 56 mod 64, then the
/// 64-bit big-endian bit length. Returns the block count, 1 or 2. Each
/// block is zeroed at a fixed size, which compiles to a few wide stores
/// instead of a call per message.
std::size_t pad_tail(std::uint8_t (&block)[2 * kSha256BlockSize],
                     BytesView tail, std::uint64_t total_len) {
  const std::size_t nblocks = tail.size() < 56 ? 1 : 2;
  std::memset(block, 0, kSha256BlockSize);
  if (nblocks == 2) std::memset(block + kSha256BlockSize, 0, kSha256BlockSize);
  if (!tail.empty()) std::memcpy(block, tail.data(), tail.size());
  block[tail.size()] = 0x80;
  const std::uint64_t bit_len = __builtin_bswap64(total_len * 8);
  std::memcpy(block + nblocks * kSha256BlockSize - 8, &bit_len, 8);
  return nblocks;
}

Digest digest_of(const std::uint32_t* state) {
  Digest out;
  for (int i = 0; i < 8; ++i) {
    const std::uint32_t word = __builtin_bswap32(state[i]);
    std::memcpy(out.data() + 4 * i, &word, 4);
  }
  return out;
}

/// Absorbs `tail` plus padding into `state` and returns the digest.
Digest finish(std::uint32_t* state, BytesView tail, std::uint64_t total_len) {
  std::uint8_t block[2 * kSha256BlockSize];
  kernel().blocks(state, block, pad_tail(block, tail, total_len));
  return digest_of(state);
}

}  // namespace

bool sha256_cpu_has_sha_ni() {
#if TURQ_SHA256_BUILD_SHA_NI
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1") &&
           __builtin_cpu_supports("ssse3");
  }();
  return has;
#else
  return false;
#endif
}

void sha256_select_sha_ni(bool sha_ni) {
  kernel_slot().store(kernel_for(sha_ni), std::memory_order_relaxed);
}

void sha256_compress_blocks(std::uint32_t state[8], const std::uint8_t* data,
                            std::size_t nblocks) {
  kernel().blocks(state, data, nblocks);
}

Digest sha256_resume(const Sha256Resume& lane) {
  TURQ_ASSERT_MSG(lane.prefix_len % kSha256BlockSize == 0,
                  "resume state must sit on a block boundary");
  std::array<std::uint32_t, 8> state = lane.state;
  const std::size_t whole = lane.data.size() / kSha256BlockSize;
  if (whole > 0) kernel().blocks(state.data(), lane.data.data(), whole);
  return finish(state.data(), lane.data.subspan(whole * kSha256BlockSize),
                lane.prefix_len + lane.data.size());
}

void sha256_resume_group(const Sha256Resume* lanes, std::size_t count,
                         Digest* out) {
  TURQ_ASSERT(count <= kSha256Lanes);
  // Every tail is padded before the first block is compressed, so the
  // kernel's wide loads of a tail do not follow right behind the narrower
  // stores that assembled it (such a load waits for those stores to drain).
  std::uint32_t state[kSha256Lanes][8];
  std::uint8_t tail[kSha256Lanes][2 * kSha256BlockSize];
  std::size_t tail_blocks[kSha256Lanes];
  for (std::size_t l = 0; l < count; ++l) {
    const Sha256Resume& lane = lanes[l];
    TURQ_ASSERT_MSG(lane.prefix_len % kSha256BlockSize == 0,
                    "resume state must sit on a block boundary");
    std::copy(lane.state.begin(), lane.state.end(), state[l]);
    const std::size_t whole = lane.data.size() / kSha256BlockSize;
    tail_blocks[l] =
        pad_tail(tail[l], lane.data.subspan(whole * kSha256BlockSize),
                 lane.prefix_len + lane.data.size());
  }
  const Kernel& k = kernel();
  for (std::size_t l = 0; l < count;) {
    const BytesView data = lanes[l].data;
    const std::size_t whole = data.size() / kSha256BlockSize;
    if (l + 1 < count && lanes[l + 1].data.size() == data.size()) {
      if (whole > 0) {
        k.pair(state[l], data.data(), state[l + 1], lanes[l + 1].data.data(),
               whole);
      }
      k.pair(state[l], tail[l], state[l + 1], tail[l + 1], tail_blocks[l]);
      l += 2;
    } else {
      if (whole > 0) k.blocks(state[l], data.data(), whole);
      k.blocks(state[l], tail[l], tail_blocks[l]);
      l += 1;
    }
  }
  for (std::size_t l = 0; l < count; ++l) out[l] = digest_of(state[l]);
}

void Sha256::reset() {
  for (int i = 0; i < 8; ++i) state_[i] = kSha256Init[i];
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha256::update(BytesView data) {
  total_len_ += data.size();
  std::size_t offset = 0;
  // Fill a partial buffer first.
  if (buffer_len_ > 0) {
    const std::size_t take =
        std::min(data.size(), kSha256BlockSize - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ < kSha256BlockSize) return;
    sha256_compress_blocks(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  // Whole blocks straight from the input, in one kernel call.
  const std::size_t whole = (data.size() - offset) / kSha256BlockSize;
  if (whole > 0) {
    sha256_compress_blocks(state_.data(), data.data() + offset, whole);
    offset += whole * kSha256BlockSize;
  }
  // Stash the tail.
  buffer_len_ = data.size() - offset;
  if (buffer_len_ > 0) {
    std::memcpy(buffer_.data(), data.data() + offset, buffer_len_);
  }
}

Digest Sha256::finalize() {
  const Digest out = finish(state_.data(),
                            BytesView(buffer_.data(), buffer_len_), total_len_);
  buffer_len_ = 0;
  return out;
}

Digest Sha256::hash(BytesView data) {
  Sha256Resume lane{.state = {}, .prefix_len = 0, .data = data};
  std::copy(std::begin(kSha256Init), std::end(kSha256Init),
            lane.state.begin());
  return sha256_resume(lane);
}

Bytes digest_bytes(const Digest& d) { return Bytes(d.begin(), d.end()); }

std::uint64_t digest_to_u64(const Digest& d) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | d[i];
  return v;
}

}  // namespace turq::crypto
