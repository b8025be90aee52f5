#include "turquois/message.hpp"

#include <algorithm>

namespace turq::turquois {

namespace {
constexpr std::uint8_t kDatagramTag = 0x54;  // 'T'
/// encode_core() of a message with an empty key.
constexpr std::size_t kMinCoreBytes = 4 + 4 + 1 + 1 + 1 + 4;

std::optional<Value> decode_value(std::uint8_t raw) {
  if (raw > 2) return std::nullopt;
  return static_cast<Value>(raw);
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

std::optional<Message> Message::decode_core(Reader& r) {
  const auto sender = r.u32();
  const auto phase = r.u32();
  const auto value_raw = r.u8();
  const auto status_raw = r.u8();
  const auto coin_raw = r.u8();
  const auto sk = r.bytes_view();
  if (!sender || !phase || !value_raw || !status_raw || !coin_raw || !sk) {
    return std::nullopt;
  }
  const auto value = decode_value(*value_raw);
  if (!value || *status_raw > 1 || *coin_raw > 1 || *phase == 0 ||
      sk->size() > AuthKey::kMaxBytes) {
    return std::nullopt;
  }
  return Message{.sender = *sender,
                 .phase = *phase,
                 .value = *value,
                 .status = static_cast<Status>(*status_raw),
                 .from_coin = *coin_raw == 1,
                 .auth_sk = *sk};
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
  auto main = Message::decode_core(r);
  if (!main) return std::nullopt;
  const auto count = r.u16();
  if (!count) return std::nullopt;
  Datagram d{.main = *main, .justification = {}};
  // One allocation for the whole set, capped by what the remaining bytes
  // could hold so a forged count cannot reserve more than the frame carries.
  d.justification.reserve(
      std::min<std::size_t>(*count, r.remaining() / kMinCoreBytes));
  for (std::uint16_t i = 0; i < *count; ++i) {
    const auto m = Message::decode_core(r);
    if (!m) return std::nullopt;
    d.justification.push_back(*m);
  }
  return d;
}

}  // namespace turq::turquois
