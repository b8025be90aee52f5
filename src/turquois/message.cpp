#include "turquois/message.hpp"

#include <cstring>

namespace turq::turquois {

namespace {
constexpr std::uint8_t kDatagramTag = 0x54;  // 'T'

std::uint32_t load_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}
}  // namespace

std::uint8_t* Message::encode_core(std::uint8_t* out) const {
  out = put_le(out, sender);
  out = put_le(out, phase);
  *out++ = static_cast<std::uint8_t>(value);
  *out++ = static_cast<std::uint8_t>(status);
  *out++ = from_coin ? 1 : 0;
  const std::size_t key = auth_sk.size();
  out = put_le(out, static_cast<std::uint32_t>(key));
  // Revealed keys are almost always full length, and a copy of constant
  // size is two vector moves where a variable one becomes a rep movs.
  if (key == AuthKey::kMaxBytes) {
    std::memcpy(out, auth_sk.data(), AuthKey::kMaxBytes);
  } else {
    std::memcpy(out, auth_sk.data(), key);
  }
  return out + key;
}

bool Message::decode_core(Reader& r, Message& out) {
  const auto header = r.raw_view(kCoreHeaderBytes);
  if (!header) return false;
  const std::uint8_t* h = header->data();
  const std::uint32_t phase_raw = load_u32(h + 4);
  const std::uint8_t value_raw = h[8];
  const std::uint8_t status_raw = h[9];
  const std::uint8_t coin_raw = h[10];
  const std::uint32_t key_len = load_u32(h + 11);
  if (value_raw > 2 || status_raw > 1 || coin_raw > 1 || phase_raw == 0 ||
      key_len > AuthKey::kMaxBytes) {
    return false;
  }
  const auto key = r.raw_view(key_len);
  if (!key) return false;
  out.sender = load_u32(h);
  out.phase = phase_raw;
  out.value = static_cast<Value>(value_raw);
  out.status = static_cast<Status>(status_raw);
  out.from_coin = coin_raw == 1;
  out.auth_sk.assign(key->begin(), key->end());
  return true;
}

net::FramedPayload Datagram::encode() const {
  std::size_t total = 1 + main.encoded_core_size() + 2;
  for (const Message& m : justification) total += m.encoded_core_size();
  // Zero-initialised, so the header room behind the payload is opaque zeros.
  Bytes frame(total + net::kUdpIpOverhead);
  std::uint8_t* out = frame.data();
  *out++ = kDatagramTag;
  out = main.encode_core(out);
  out = put_le(out, static_cast<std::uint16_t>(justification.size()));
  for (const Message& m : justification) out = m.encode_core(out);
  TURQ_ASSERT(out == frame.data() + total);
  return net::FramedPayload(std::move(frame));
}

std::optional<Datagram> Datagram::decode(BytesView bytes) {
  Reader r(bytes);
  const auto tag = r.u8();
  if (!tag || *tag != kDatagramTag) return std::nullopt;
  std::optional<Datagram> d(std::in_place);
  if (!Message::decode_core(r, d->main)) return std::nullopt;
  const auto count = r.u16();
  if (!count) return std::nullopt;
  // Every core takes at least kCoreHeaderBytes, so a count the remaining
  // bytes cannot hold is malformed before any attachment is read; past
  // this check the one reservation is never exceeded.
  if (*count > r.remaining() / Message::kCoreHeaderBytes) {
    return std::nullopt;
  }
  d->justification.reserve(*count);
  for (std::uint16_t i = 0; i < *count; ++i) {
    if (!Message::decode_core(r, d->justification.emplace_back())) {
      return std::nullopt;
    }
  }
  return d;
}

}  // namespace turq::turquois
