// Bounds-checked little-endian binary serialization.
//
// Wire formats in this repository (protocol messages, key arrays, frames)
// are written with Writer and parsed with Reader. Reader never reads past
// the end of its buffer; malformed input yields a clean failure instead of
// undefined behaviour, which matters because Byzantine nodes may craft
// arbitrary byte strings. Reader::bytes_view() and raw_view() borrow a
// field instead of copying it, for hot decoders that keep no heap state.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>

#include "common/bytes.hpp"

namespace turq {

class Writer {
 public:
  Writer() = default;

  /// Pre-sizes the buffer for `extra` more bytes beyond what is already
  /// written. Encoders whose size is known up front call this once so the
  /// append path never reallocates mid-message.
  void reserve(std::size_t extra) { buf_.reserve(buf_.size() + extra); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }

  /// Length-prefixed byte string (u32 length).
  void bytes(BytesView data) {
    u32(static_cast<std::uint32_t>(data.size()));
    raw(data);
  }

  /// Raw bytes, no length prefix.
  void raw(BytesView data) { buf_.insert(buf_.end(), data.begin(), data.end()); }

  /// Length-prefixed UTF-8 string.
  void str(std::string_view s) { bytes(as_bytes(s)); }

  [[nodiscard]] const Bytes& data() const { return buf_; }
  [[nodiscard]] Bytes take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  Bytes buf_;
};

/// Stores `v` little-endian at `out` (sizeof(T) bytes, as Writer lays it
/// out) and returns the byte after it: for fixed-size encoders that fill a
/// buffer in place instead of appending to a Writer.
template <typename T>
std::uint8_t* put_le(std::uint8_t* out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  return out + sizeof(T);
}

/// Reader over a borrowed buffer. All accessors return std::nullopt once any
/// read has failed; check ok() or the individual optionals.
class Reader {
 public:
  explicit Reader(BytesView data) : data_(data) {}

  std::optional<std::uint8_t> u8() { return read_le<std::uint8_t>(); }
  std::optional<std::uint16_t> u16() { return read_le<std::uint16_t>(); }
  std::optional<std::uint32_t> u32() { return read_le<std::uint32_t>(); }
  std::optional<std::uint64_t> u64() { return read_le<std::uint64_t>(); }
  std::optional<std::int64_t> i64() {
    auto v = read_le<std::uint64_t>();
    if (!v) return std::nullopt;
    return static_cast<std::int64_t>(*v);
  }

  /// Length-prefixed byte string.
  std::optional<Bytes> bytes() {
    const auto view = bytes_view();
    if (!view) return std::nullopt;
    return Bytes(view->begin(), view->end());
  }

  /// Length-prefixed byte string, borrowed: the span points into the
  /// Reader's buffer and lives as long as that buffer does. Decoders that
  /// copy the bytes into a fixed-size field read through this and skip the
  /// heap copy bytes() makes.
  std::optional<BytesView> bytes_view() {
    const auto len = u32();
    if (!len || remaining() < *len) {
      failed_ = true;
      return std::nullopt;
    }
    const BytesView out = data_.subspan(pos_, *len);
    pos_ += *len;
    return out;
  }

  std::optional<std::string> str() {
    auto b = bytes();
    if (!b) return std::nullopt;
    return std::string(b->begin(), b->end());
  }

  /// Raw fixed-size read.
  std::optional<Bytes> raw(std::size_t len) {
    if (remaining() < len) {
      failed_ = true;
      return std::nullopt;
    }
    Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
              data_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
    pos_ += len;
    return out;
  }

  /// Raw fixed-size read, borrowed like bytes_view(): one bounds check for
  /// a whole fixed-layout header, which the caller then parses in place.
  std::optional<BytesView> raw_view(std::size_t len) {
    if (remaining() < len) {
      failed_ = true;
      return std::nullopt;
    }
    const BytesView out = data_.subspan(pos_, len);
    pos_ += len;
    return out;
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool ok() const { return !failed_; }
  [[nodiscard]] bool at_end() const { return pos_ == data_.size(); }

 private:
  template <typename T>
  std::optional<T> read_le() {
    if (remaining() < sizeof(T)) {
      failed_ = true;
      return std::nullopt;
    }
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }

  BytesView data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace turq
