// Byte-buffer helpers: hex encoding, constant-time compare, conversions.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace turq {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;
/// An immutable buffer shared by reference: one encoded payload handed from
/// its producer down to every consumer (and re-sent) without a copy.
using SharedBytes = std::shared_ptr<const Bytes>;

/// Hex-encode a byte span ("deadbeef" style, lowercase).
std::string to_hex(BytesView data);

/// Decode a hex string; throws std::invalid_argument on malformed input.
Bytes from_hex(std::string_view hex);

/// Constant-time equality (for comparing MACs / hash values).
bool constant_time_equal(BytesView a, BytesView b);

/// View the raw bytes of a string.
inline BytesView as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// Copy a string's bytes into a Bytes buffer.
inline Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

}  // namespace turq
