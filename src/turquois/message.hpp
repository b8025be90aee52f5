// Turquois wire messages ⟨i, φ, v, status⟩ and their codec.
//
// Beyond the tuple in Algorithm 1, a message carries:
//   * from_coin — whether v was obtained from a coin flip (needed by the
//     validation rule for CONVERGE-phase proposal values, §6.2);
//   * auth_sk — the revealed one-time secret key SK[φ][v] (§6.1);
//   * justification — optional appended messages for explicit semantic
//     validation (§6.2). Justification messages never nest.
//
// A Message owns no heap memory: the revealed key sits inline in an AuthKey
// (a 32-byte array plus a length), so copying a message is a memcpy. That
// matters because every layer copies them — a justified re-broadcast carries
// up to 42, each receiver decodes them, the view stores them. The decoder
// rejects a revealed key longer than 32 bytes as malformed: VK = H(SK) is
// computed over a 32-byte SK, so no longer key can ever verify.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/assert.hpp"
#include "common/bytes.hpp"
#include "common/serialize.hpp"
#include "common/types.hpp"
#include "crypto/onetime_sig.hpp"

namespace turq::turquois {

using crypto::Phase;

/// A revealed one-time secret key, stored inline: up to kMaxBytes bytes
/// plus a length. Reads like a byte span (implicit BytesView, data/size,
/// begin/end); bytes past size() are always zero, so two keys compare by
/// their first size() bytes.
class AuthKey {
 public:
  /// The one-time secret keys are 32 bytes (onetime_sig.hpp).
  static constexpr std::size_t kMaxBytes = 32;

  AuthKey() = default;
  AuthKey(BytesView bytes) {  // NOLINT(google-explicit-constructor)
    assign(bytes.begin(), bytes.end());
  }
  AuthKey(const Bytes& bytes)  // NOLINT(google-explicit-constructor)
      : AuthKey(BytesView(bytes)) {}

  /// Replaces the contents; at most kMaxBytes bytes.
  template <typename It>
  void assign(It first, It last) {
    const auto n = static_cast<std::size_t>(std::distance(first, last));
    TURQ_ASSERT_MSG(n <= kMaxBytes, "one-time keys are at most 32 bytes");
    bytes_.fill(0);
    std::copy(first, last, bytes_.begin());
    size_ = static_cast<std::uint8_t>(n);
  }

  operator BytesView() const {  // NOLINT(google-explicit-constructor)
    return {bytes_.data(), size_};
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const std::uint8_t* data() const { return bytes_.data(); }
  [[nodiscard]] const std::uint8_t* begin() const { return bytes_.data(); }
  [[nodiscard]] const std::uint8_t* end() const {
    return bytes_.data() + size_;
  }
  /// The last byte (tests flip it to forge a key); the key must be non-empty.
  [[nodiscard]] std::uint8_t& back() {
    TURQ_ASSERT(size_ > 0);
    return bytes_[size_ - 1];
  }

  bool operator==(const AuthKey& other) const {
    return size_ == other.size_ && bytes_ == other.bytes_;
  }

 private:
  std::array<std::uint8_t, kMaxBytes> bytes_{};
  std::uint8_t size_ = 0;
};

struct Message {
  ProcessId sender = kInvalidProcess;
  Phase phase = 1;
  Value value = Value::kZero;
  Status status = Status::kUndecided;
  bool from_coin = false;
  AuthKey auth_sk;  // revealed SK[phase][value]

  /// Serializes the core fields (no justification) — the unit attached as
  /// justification inside other messages.
  void encode_core(Writer& w) const;

  /// The fixed part of encode_core(): sender, phase, value, status,
  /// from_coin and the key's length prefix — the size of a core with an
  /// empty key.
  static constexpr std::size_t kCoreHeaderBytes = 4 + 4 + 1 + 1 + 1 + 4;

  /// Exact number of bytes encode_core() appends.
  [[nodiscard]] std::size_t encoded_core_size() const {
    return kCoreHeaderBytes + auth_sk.size();
  }
  /// Reads one core into `out`, overwriting every field; false on a
  /// truncated field, an out-of-range enum byte, phase 0, or a revealed key
  /// longer than AuthKey::kMaxBytes (`out` is then unspecified).
  static bool decode_core(Reader& r, Message& out);

  bool operator==(const Message& other) const {
    return sender == other.sender && phase == other.phase &&
           value == other.value && status == other.status &&
           from_coin == other.from_coin && auth_sk == other.auth_sk;
  }
};

// Copies of a message are plain memcpys; a heap-owning field would put an
// allocation back on every decode, view insert and justification pick.
static_assert(std::is_trivially_copyable_v<Message>);

/// A full datagram: the main message plus its justification set.
struct Datagram {
  Message main;
  std::vector<Message> justification;

  [[nodiscard]] Bytes encode() const;
  /// Decodes every message in place into the returned datagram; the
  /// justification vector is its only allocation.
  static std::optional<Datagram> decode(BytesView bytes);

  bool operator==(const Datagram&) const = default;
};

}  // namespace turq::turquois
