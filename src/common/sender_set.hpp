// Fixed-capacity bitset over process ids, sized for the largest group the
// protocol layer supports (n <= 128). Replaces the raw uint64_t sender
// bitmasks that capped deployments at n = 64; two words keep it trivially
// copyable, allocation-free, and as cheap to merge as the old masks.
#pragma once

#include <cstdint>

#include "common/assert.hpp"

namespace turq {

class SenderSet {
 public:
  static constexpr std::uint32_t kCapacity = 128;

  constexpr SenderSet() = default;

  constexpr void insert(std::uint32_t id) {
    TURQ_ASSERT_MSG(id < kCapacity, "sender bitset requires n <= 128");
    words_[id >> 6] |= 1ULL << (id & 63);
  }

  [[nodiscard]] constexpr bool contains(std::uint32_t id) const {
    return id < kCapacity && (words_[id >> 6] >> (id & 63)) & 1;
  }

  /// Number of distinct ids inserted.
  [[nodiscard]] std::uint32_t count() const {
    return static_cast<std::uint32_t>(__builtin_popcountll(words_[0]) +
                                      __builtin_popcountll(words_[1]));
  }

  /// The smallest member >= `from`, or kCapacity when there is none.
  /// `for (id = s.next(0); id < kCapacity; id = s.next(id + 1))` visits the
  /// members in ascending order.
  [[nodiscard]] std::uint32_t next(std::uint32_t from) const {
    for (std::uint32_t w = from >> 6; w < 2; ++w) {
      const std::uint64_t bits =
          w == (from >> 6) ? words_[w] & (~0ULL << (from & 63)) : words_[w];
      if (bits != 0) {
        return (w << 6) + static_cast<std::uint32_t>(__builtin_ctzll(bits));
      }
    }
    return kCapacity;
  }

  [[nodiscard]] constexpr bool empty() const {
    return (words_[0] | words_[1]) == 0;
  }

  constexpr SenderSet& operator|=(const SenderSet& o) {
    words_[0] |= o.words_[0];
    words_[1] |= o.words_[1];
    return *this;
  }

  /// The members of this set that are not in `o`.
  [[nodiscard]] constexpr SenderSet operator-(const SenderSet& o) const {
    SenderSet out;
    out.words_[0] = words_[0] & ~o.words_[0];
    out.words_[1] = words_[1] & ~o.words_[1];
    return out;
  }

  constexpr bool operator==(const SenderSet& o) const = default;

 private:
  std::uint64_t words_[2] = {0, 0};
};

}  // namespace turq
