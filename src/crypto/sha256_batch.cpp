#include "crypto/sha256_batch.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "common/assert.hpp"
#include "crypto/sha256_k.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TURQ_SHA256_BUILD_AVX2 1
#include <immintrin.h>
#else
#define TURQ_SHA256_BUILD_AVX2 0
#endif

namespace turq::crypto {

namespace {

/// Transposed working state: s[word][lane]. Kept 32-byte aligned so the
/// AVX2 path can use full-width loads/stores directly on the rows.
struct alignas(32) LaneState {
  std::uint32_t s[8][kSha256Lanes];
};

/// All-zero dummy block idle lanes compress while active lanes drain.
constexpr std::uint8_t kDummyBlock[kSha256BlockSize] = {};

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

inline std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

// ------------------------------------------------------ scalar-lane path --

// One compression sweep over 8 blocks. Lane l's state absorbs blocks[l]
// only when bit l of `active` is set; idle lanes run the rounds (keeping
// the loop branch-free and vectorizable) but skip the final feed-forward,
// leaving their state untouched.
void compress8_scalar(LaneState& st, const std::uint8_t* const blocks[8],
                      unsigned active) {
  std::uint32_t w[64][kSha256Lanes];
  for (int i = 0; i < 16; ++i) {
    for (std::size_t l = 0; l < kSha256Lanes; ++l) {
      w[i][l] = load_be32(blocks[l] + i * 4);
    }
  }
  for (int i = 16; i < 64; ++i) {
    for (std::size_t l = 0; l < kSha256Lanes; ++l) {
      const std::uint32_t s0 = rotr(w[i - 15][l], 7) ^ rotr(w[i - 15][l], 18) ^
                               (w[i - 15][l] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2][l], 17) ^ rotr(w[i - 2][l], 19) ^
                               (w[i - 2][l] >> 10);
      w[i][l] = w[i - 16][l] + s0 + w[i - 7][l] + s1;
    }
  }

  std::uint32_t v[8][kSha256Lanes];
  std::memcpy(v, st.s, sizeof(v));

  for (int i = 0; i < 64; ++i) {
    std::uint32_t t1[kSha256Lanes];
    std::uint32_t t2[kSha256Lanes];
    for (std::size_t l = 0; l < kSha256Lanes; ++l) {
      const std::uint32_t e = v[4][l];
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & v[5][l]) ^ (~e & v[6][l]);
      t1[l] = v[7][l] + s1 + ch + kSha256K[i] + w[i][l];
      const std::uint32_t a = v[0][l];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & v[1][l]) ^ (a & v[2][l]) ^
                                (v[1][l] & v[2][l]);
      t2[l] = s0 + maj;
    }
    for (std::size_t l = 0; l < kSha256Lanes; ++l) {
      v[7][l] = v[6][l];
      v[6][l] = v[5][l];
      v[5][l] = v[4][l];
      v[4][l] = v[3][l] + t1[l];
      v[3][l] = v[2][l];
      v[2][l] = v[1][l];
      v[1][l] = v[0][l];
      v[0][l] = t1[l] + t2[l];
    }
  }

  for (int i = 0; i < 8; ++i) {
    for (std::size_t l = 0; l < kSha256Lanes; ++l) {
      if (active & (1u << l)) st.s[i][l] += v[i][l];
    }
  }
}

// -------------------------------------------------------------- AVX2 path --

#if TURQ_SHA256_BUILD_AVX2

__attribute__((target("avx2"))) inline __m256i rotr_v(__m256i x, int n) {
  return _mm256_or_si256(_mm256_srli_epi32(x, n), _mm256_slli_epi32(x, 32 - n));
}

__attribute__((target("avx2"))) void compress8_avx2(
    LaneState& st, const std::uint8_t* const blocks[8], unsigned active) {
  __m256i w[64];
  for (int i = 0; i < 16; ++i) {
    // Transposed gather: word i of every lane's block, big-endian. The
    // lowest set_epi32 operand lands in lane 0.
    w[i] = _mm256_set_epi32(
        static_cast<int>(load_be32(blocks[7] + i * 4)),
        static_cast<int>(load_be32(blocks[6] + i * 4)),
        static_cast<int>(load_be32(blocks[5] + i * 4)),
        static_cast<int>(load_be32(blocks[4] + i * 4)),
        static_cast<int>(load_be32(blocks[3] + i * 4)),
        static_cast<int>(load_be32(blocks[2] + i * 4)),
        static_cast<int>(load_be32(blocks[1] + i * 4)),
        static_cast<int>(load_be32(blocks[0] + i * 4)));
  }
  for (int i = 16; i < 64; ++i) {
    const __m256i w15 = w[i - 15];
    const __m256i w2 = w[i - 2];
    const __m256i s0 = _mm256_xor_si256(
        _mm256_xor_si256(rotr_v(w15, 7), rotr_v(w15, 18)),
        _mm256_srli_epi32(w15, 3));
    const __m256i s1 = _mm256_xor_si256(
        _mm256_xor_si256(rotr_v(w2, 17), rotr_v(w2, 19)),
        _mm256_srli_epi32(w2, 10));
    w[i] = _mm256_add_epi32(_mm256_add_epi32(w[i - 16], s0),
                            _mm256_add_epi32(w[i - 7], s1));
  }

  __m256i a = _mm256_load_si256(reinterpret_cast<const __m256i*>(st.s[0]));
  __m256i b = _mm256_load_si256(reinterpret_cast<const __m256i*>(st.s[1]));
  __m256i c = _mm256_load_si256(reinterpret_cast<const __m256i*>(st.s[2]));
  __m256i d = _mm256_load_si256(reinterpret_cast<const __m256i*>(st.s[3]));
  __m256i e = _mm256_load_si256(reinterpret_cast<const __m256i*>(st.s[4]));
  __m256i f = _mm256_load_si256(reinterpret_cast<const __m256i*>(st.s[5]));
  __m256i g = _mm256_load_si256(reinterpret_cast<const __m256i*>(st.s[6]));
  __m256i h = _mm256_load_si256(reinterpret_cast<const __m256i*>(st.s[7]));

  for (int i = 0; i < 64; ++i) {
    const __m256i s1 = _mm256_xor_si256(
        _mm256_xor_si256(rotr_v(e, 6), rotr_v(e, 11)), rotr_v(e, 25));
    const __m256i ch = _mm256_xor_si256(_mm256_and_si256(e, f),
                                        _mm256_andnot_si256(e, g));
    const __m256i t1 = _mm256_add_epi32(
        _mm256_add_epi32(_mm256_add_epi32(h, s1), _mm256_add_epi32(ch, w[i])),
        _mm256_set1_epi32(static_cast<int>(kSha256K[i])));
    const __m256i s0 = _mm256_xor_si256(
        _mm256_xor_si256(rotr_v(a, 2), rotr_v(a, 13)), rotr_v(a, 22));
    const __m256i maj = _mm256_xor_si256(
        _mm256_xor_si256(_mm256_and_si256(a, b), _mm256_and_si256(a, c)),
        _mm256_and_si256(b, c));
    const __m256i t2 = _mm256_add_epi32(s0, maj);
    h = g;
    g = f;
    f = e;
    e = _mm256_add_epi32(d, t1);
    d = c;
    c = b;
    b = a;
    a = _mm256_add_epi32(t1, t2);
  }

  // Feed-forward, masked so idle lanes keep their state untouched.
  const __m256i lane_bits = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  const __m256i mask = _mm256_cmpeq_epi32(
      _mm256_and_si256(_mm256_set1_epi32(static_cast<int>(active)), lane_bits),
      lane_bits);
  const __m256i vs[8] = {a, b, c, d, e, f, g, h};
  for (int i = 0; i < 8; ++i) {
    auto* row = reinterpret_cast<__m256i*>(st.s[i]);
    const __m256i old = _mm256_load_si256(row);
    const __m256i fed = _mm256_add_epi32(old, vs[i]);
    _mm256_store_si256(row, _mm256_blendv_epi8(old, fed, mask));
  }
}

bool cpu_has_avx2() { return __builtin_cpu_supports("avx2") != 0; }

#else

bool cpu_has_avx2() { return false; }

#endif  // TURQ_SHA256_BUILD_AVX2

// ------------------------------------------------------------- dispatch ----

Sha256Impl g_forced = Sha256Impl::kAuto;

using CompressFn = void (*)(LaneState&, const std::uint8_t* const[8],
                            unsigned);

// kAuto tries SHA-NI, then AVX2, then the scalar lanes; a forced impl the
// CPU lacks falls back one step down the same order.
Sha256Impl resolve(Sha256Impl impl) {
  if (impl == Sha256Impl::kAuto || impl == Sha256Impl::kShaNi) {
    if (sha256_cpu_has_sha_ni()) return Sha256Impl::kShaNi;
    impl = Sha256Impl::kAvx2;
  }
  if (impl == Sha256Impl::kAvx2 && !cpu_has_avx2()) {
    return Sha256Impl::kScalarLanes;
  }
  return impl;
}

// ------------------------------------------------------------ lane driver --

/// Number of 64-byte blocks lane data of `len` bytes expands to, including
/// the 0x80 + length padding.
std::size_t padded_blocks(std::size_t len) { return (len + 9 + 63) / 64; }

/// Assembles block `b` of a lane whose suffix is `data` after `prefix_len`
/// pre-absorbed bytes, when the block is not a whole in-place slice of
/// `data`. Standard FIPS 180-4 padding: 0x80 right after the data, zeros,
/// and the total bit length in the final 8 bytes of the last block.
void assemble_tail_block(std::uint8_t out[kSha256BlockSize], BytesView data,
                         std::uint64_t prefix_len, std::size_t b,
                         std::size_t blocks) {
  std::memset(out, 0, kSha256BlockSize);
  const std::size_t start = b * kSha256BlockSize;
  if (data.size() > start) {
    std::memcpy(out, data.data() + start, data.size() - start);
  }
  if (b == data.size() / kSha256BlockSize) {
    out[data.size() - start] = 0x80;
  }
  if (b == blocks - 1) {
    const std::uint64_t bit_len = (prefix_len + data.size()) * 8;
    for (int i = 0; i < 8; ++i) {
      out[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
    }
  }
}

void run_group(CompressFn compress, const Sha256Resume* lanes,
               std::size_t count, Digest* out) {
  LaneState st;
  std::size_t blocks[kSha256Lanes] = {};
  std::size_t max_blocks = 0;
  for (std::size_t l = 0; l < kSha256Lanes; ++l) {
    const bool live = l < count;
    for (int i = 0; i < 8; ++i) {
      st.s[i][l] = live ? lanes[l].state[i] : kSha256Init[i];
    }
    if (live) {
      TURQ_ASSERT_MSG(lanes[l].prefix_len % kSha256BlockSize == 0,
                      "resume state must sit on a block boundary");
      blocks[l] = padded_blocks(lanes[l].data.size());
      max_blocks = std::max(max_blocks, blocks[l]);
    }
  }

  std::uint8_t tail[kSha256Lanes][kSha256BlockSize];
  for (std::size_t b = 0; b < max_blocks; ++b) {
    const std::uint8_t* ptrs[kSha256Lanes];
    unsigned active = 0;
    for (std::size_t l = 0; l < kSha256Lanes; ++l) {
      if (l >= count || b >= blocks[l]) {
        ptrs[l] = kDummyBlock;
        continue;
      }
      active |= 1u << l;
      const BytesView data = lanes[l].data;
      if ((b + 1) * kSha256BlockSize <= data.size()) {
        ptrs[l] = data.data() + b * kSha256BlockSize;
      } else {
        assemble_tail_block(tail[l], data, lanes[l].prefix_len, b, blocks[l]);
        ptrs[l] = tail[l];
      }
    }
    compress(st, ptrs, active);
  }

  for (std::size_t l = 0; l < count; ++l) {
    for (int i = 0; i < 8; ++i) {
      const std::uint32_t v = st.s[i][l];
      out[l][i * 4] = static_cast<std::uint8_t>(v >> 24);
      out[l][i * 4 + 1] = static_cast<std::uint8_t>(v >> 16);
      out[l][i * 4 + 2] = static_cast<std::uint8_t>(v >> 8);
      out[l][i * 4 + 3] = static_cast<std::uint8_t>(v);
    }
  }
}

/// Up to kSha256Lanes lanes through the resolved kernel: the SHA-NI block
/// kernel a lane or two at a time, or one 8-way sweep.
void hash_group(Sha256Impl impl, const Sha256Resume* lanes, std::size_t count,
                Digest* out) {
  switch (impl) {
    case Sha256Impl::kShaNi:
      sha256_resume_group(lanes, count, out);
      return;
#if TURQ_SHA256_BUILD_AVX2
    case Sha256Impl::kAvx2:
      run_group(&compress8_avx2, lanes, count, out);
      return;
#endif
    default:
      run_group(&compress8_scalar, lanes, count, out);
      return;
  }
}

}  // namespace

const char* to_string(Sha256Impl impl) {
  switch (impl) {
    case Sha256Impl::kAuto: return "auto";
    case Sha256Impl::kScalarLanes: return "scalar-lanes";
    case Sha256Impl::kAvx2: return "avx2";
    case Sha256Impl::kShaNi: return "sha-ni";
  }
  return "?";
}

Sha256Impl sha256_batch_resolved_impl() { return resolve(g_forced); }

void sha256_batch_force_impl(Sha256Impl impl) {
  g_forced = impl;
  sha256_select_sha_ni(resolve(impl) == Sha256Impl::kShaNi);
}

void sha256_batch_resume(const Sha256Resume* lanes, std::size_t count,
                         Digest* out) {
  const Sha256Impl impl = resolve(g_forced);
  for (std::size_t done = 0; done < count; done += kSha256Lanes) {
    hash_group(impl, lanes + done, std::min(kSha256Lanes, count - done),
               out + done);
  }
}

void sha256_batch(const BytesView* msgs, std::size_t count, Digest* out) {
  const Sha256Impl impl = resolve(g_forced);
  Sha256Resume lanes[kSha256Lanes];
  for (Sha256Resume& lane : lanes) {
    std::copy(std::begin(kSha256Init), std::end(kSha256Init),
              lane.state.begin());
  }
  for (std::size_t done = 0; done < count; done += kSha256Lanes) {
    const std::size_t group = std::min(kSha256Lanes, count - done);
    for (std::size_t l = 0; l < group; ++l) lanes[l].data = msgs[done + l];
    hash_group(impl, lanes, group, out + done);
  }
}

}  // namespace turq::crypto
