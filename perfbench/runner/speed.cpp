#include "speed.hpp"

#include <algorithm>
#include <array>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Samples are due this often while repetitions run.
constexpr auto kInterval = std::chrono::milliseconds(10);

constexpr std::array<std::uint32_t, 64> kRound = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

/// The probe's work: 256 SHA-256 compressions chained through the state.
std::uint64_t probe_work() {
  std::array<std::uint32_t, 8> h = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                    0xa54ff53a, 0x510e527f, 0x9b05688c,
                                    0x1f83d9ab, 0x5be0cd19};
  for (std::uint32_t block = 0; block < 256; ++block) {
    std::array<std::uint32_t, 64> w{};
    for (std::uint32_t i = 0; i < 16; ++i) w[i] = block * 16 + i + h[i & 7];
    for (std::size_t i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    auto [a, b, c, d, e, f, g, k] = h;
    for (std::size_t i = 0; i < 64; ++i) {
      const std::uint32_t t1 = k + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) +
                               ((e & f) ^ (~e & g)) + kRound[i] + w[i];
      const std::uint32_t t2 = (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) +
                               ((a & b) ^ (a & c) ^ (b & c));
      k = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    const std::array<std::uint32_t, 8> out = {a, b, c, d, e, f, g, k};
    for (std::size_t i = 0; i < 8; ++i) h[i] += out[i];
  }
  return (std::uint64_t{h[0]} << 32) | h[7];
}

}  // namespace

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t m = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[m] : 0.5 * (xs[m - 1] + xs[m]);
}

void SpeedProbe::sample() {
  const auto t = Clock::now();
  sink_ += probe_work();
  last_ = Clock::now();
  samples_.push_back(std::chrono::duration<double>(last_ - t).count());
}

void SpeedProbe::sample_if_due() {
  if (samples_.empty() || Clock::now() - last_ >= kInterval) sample();
}

double SpeedProbe::scale(std::size_t mark) const {
  if (samples_.empty()) return 1.0;
  const std::size_t lo = mark >= 2 ? mark - 2 : 0;
  const std::size_t hi = std::min(samples_.size(), mark + 2);
  return kReferenceSeconds /
         median(std::vector<double>(samples_.begin() + static_cast<std::ptrdiff_t>(lo),
                                    samples_.begin() + static_cast<std::ptrdiff_t>(hi)));
}

double SpeedProbe::median_seconds() const {
  return median(samples_);
}

}  // namespace perfbench
