#include "crypto/hmac.hpp"

#include <vector>

#include "crypto/sha256_batch.hpp"
#include "crypto/sha256_k.hpp"

namespace turq::crypto {

HmacKey::HmacKey(BytesView key) {
  std::array<std::uint8_t, kSha256BlockSize> k_pad{};
  if (key.size() > kSha256BlockSize) {
    const Digest kh = Sha256::hash(key);
    std::copy(kh.begin(), kh.end(), k_pad.begin());
  } else {
    std::copy(key.begin(), key.end(), k_pad.begin());
  }

  std::array<std::uint8_t, kSha256BlockSize> pad{};
  for (std::size_t i = 0; i < kSha256BlockSize; ++i) {
    pad[i] = static_cast<std::uint8_t>(k_pad[i] ^ 0x36);
  }
  inner_.update(BytesView(pad.data(), pad.size()));
  for (std::size_t i = 0; i < kSha256BlockSize; ++i) {
    pad[i] = static_cast<std::uint8_t>(k_pad[i] ^ 0x5c);
  }
  outer_.update(BytesView(pad.data(), pad.size()));
}

Digest HmacKey::mac(BytesView message) const {
  // Resume both hashes from their pre-absorbed pad states.
  const Digest inner_digest =
      sha256_resume({.state = inner_.state_words(),
                     .prefix_len = inner_.bytes_absorbed(),
                     .data = message});
  return sha256_resume(
      {.state = outer_.state_words(),
       .prefix_len = outer_.bytes_absorbed(),
       .data = BytesView(inner_digest.data(), inner_digest.size())});
}

bool HmacKey::verify(BytesView message, const Digest& expected) const {
  const Digest got = mac(message);
  return constant_time_equal(BytesView(got.data(), got.size()),
                             BytesView(expected.data(), expected.size()));
}

void hmac_sha256_batch(const HmacJob* jobs, std::size_t count, Digest* out) {
  if (count == 0) return;
  // Pass 1: inner digests, each lane resuming from its key's ipad state.
  std::vector<Sha256Resume> lanes(count);
  std::vector<Digest> inner(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Sha256& st = jobs[i].key->inner_state();
    lanes[i].state = st.state_words();
    lanes[i].prefix_len = st.bytes_absorbed();
    lanes[i].data = jobs[i].message;
  }
  sha256_batch_resume(lanes.data(), count, inner.data());
  // Pass 2: outer digests over the inner ones.
  for (std::size_t i = 0; i < count; ++i) {
    const Sha256& st = jobs[i].key->outer_state();
    lanes[i].state = st.state_words();
    lanes[i].prefix_len = st.bytes_absorbed();
    lanes[i].data = BytesView(inner[i].data(), inner[i].size());
  }
  sha256_batch_resume(lanes.data(), count, out);
}

Digest hmac_sha256(BytesView key, BytesView message) {
  return HmacKey(key).mac(message);
}

bool hmac_verify(BytesView key, BytesView message, const Digest& mac) {
  return HmacKey(key).verify(message, mac);
}

}  // namespace turq::crypto
