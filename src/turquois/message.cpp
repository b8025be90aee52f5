#include "turquois/message.hpp"

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

void Message::encode_core(Writer& w) const {
  w.u32(sender);
  w.u32(phase);
  w.u8(static_cast<std::uint8_t>(value));
  w.u8(static_cast<std::uint8_t>(status));
  w.u8(from_coin ? 1 : 0);
  w.bytes(auth_sk);
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

Bytes Datagram::encode() const {
  Writer w;
  std::size_t total = 1 + 2 + main.encoded_core_size();
  for (const Message& m : justification) total += m.encoded_core_size();
  w.reserve(total);
  w.u8(kDatagramTag);
  main.encode_core(w);
  w.u16(static_cast<std::uint16_t>(justification.size()));
  for (const Message& m : justification) m.encode_core(w);
  return w.take();
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
