// Turquois wire messages ⟨i, φ, v, status⟩ and their codec.
//
// Beyond the tuple in Algorithm 1, a message carries:
//   * from_coin — whether v was obtained from a coin flip (needed by the
//     validation rule for CONVERGE-phase proposal values, §6.2);
//   * auth_sk — the revealed one-time secret key SK[φ][v] (§6.1);
//   * justification — optional appended messages for explicit semantic
//     validation (§6.2). Justification messages never nest.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/serialize.hpp"
#include "common/types.hpp"
#include "crypto/onetime_sig.hpp"

namespace turq::turquois {

using crypto::Phase;

struct Message {
  ProcessId sender = kInvalidProcess;
  Phase phase = 1;
  Value value = Value::kZero;
  Status status = Status::kUndecided;
  bool from_coin = false;
  Bytes auth_sk;  // revealed SK[phase][value]

  /// Serializes the core fields (no justification) — the unit attached as
  /// justification inside other messages.
  void encode_core(Writer& w) const;

  /// Exact number of bytes encode_core() appends.
  [[nodiscard]] std::size_t encoded_core_size() const {
    return 4 + 4 + 1 + 1 + 1 + 4 + auth_sk.size();
  }
  static std::optional<Message> decode_core(Reader& r);

  bool operator==(const Message& other) const {
    return sender == other.sender && phase == other.phase &&
           value == other.value && status == other.status &&
           from_coin == other.from_coin && auth_sk == other.auth_sk;
  }
};

/// A full datagram: the main message plus its justification set.
struct Datagram {
  Message main;
  std::vector<Message> justification;

  [[nodiscard]] Bytes encode() const;
  static std::optional<Datagram> decode(BytesView bytes);
};

}  // namespace turq::turquois
