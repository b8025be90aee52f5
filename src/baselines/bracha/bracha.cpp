#include "baselines/bracha/bracha.hpp"

#include <array>
#include <bit>
#include <utility>

#include "common/assert.hpp"
#include "common/serialize.hpp"

namespace turq::bracha {

namespace {
/// Rounds a decided process keeps initiating after its decision round.
constexpr std::uint32_t kLingerRounds = 2;
}  // namespace

Process::Process(runtime::Runtime& rt, net::TcpHost& transport,
                 const Config& config, ProcessId id, Rng rng,
                 const crypto::CostModel& /*costs: HMAC is charged by TcpHost*/,
                 Strategy strategy, ProcessHooks hooks)
    : transport_(transport),
      cfg_(config),
      id_(id),
      outbox_(rt, transport, config.n),
      steps_(rt, id, config.n, config.f, rng, strategy, std::move(hooks),
             {.keep_initiating =
                  [this] {
                    // Done helping: stop initiating new rounds.
                    return !steps_.decided() ||
                           steps_.position().round <=
                               steps_.decided_round() + kLingerRounds;
                  },
              .send = [this] { rbc_broadcast(); }}) {
  TURQ_ASSERT_MSG(cfg_.n <= SenderSet::kCapacity,
                  "bracha tallies require n <= SenderSet::kCapacity");
  transport_.set_handler([this](ProcessId src, BytesView payload) {
    on_message(src, payload);
  });
}

void Process::propose(Value initial) {
  TURQ_ASSERT_MSG(!running_, "propose() may be called once");
  running_ = true;
  steps_.start(initial);
  // Drain messages buffered before the start signal (modeled OS buffer).
  std::vector<std::pair<ProcessId, Bytes>> queued;
  queued.swap(prestart_);
  for (auto& [src, payload] : queued) on_message(src, payload);
}

void Process::crash() {
  running_ = false;
  halted_ = true;
  prestart_.clear();
  outbox_.close();
  transport_.close();
}

void Process::rbc_broadcast() {
  ++stats_.rbc_broadcasts;
  const StepKey at = steps_.position();
  send_to_all(at.round, at.step, kInitial, id_, steps_.claim());
}

void Process::send_to_all(std::uint32_t round, std::uint8_t step,
                          std::uint8_t kind, ProcessId origin, StepValue sv) {
  // round u32, step, kind, origin u32, value, flag: 12 bytes, little-endian.
  std::array<std::uint8_t, 12> message{};
  std::uint8_t* at = put_le(message.data(), round);
  *at++ = step;
  *at++ = kind;
  at = put_le(at, origin);
  *at++ = static_cast<std::uint8_t>(sv.value);
  *at = sv.flag ? 1 : 0;
  stats_.messages_sent += cfg_.n;
  outbox_.send_to_all(message);
}

void Process::on_message(ProcessId src, BytesView payload) {
  if (halted_) return;
  if (!running_) {
    // OS buffer until propose().
    prestart_.emplace_back(src, Bytes(payload.begin(), payload.end()));
    return;
  }
  Reader r(payload);
  const auto round = r.u32();
  const auto step = r.u8();
  const auto kind = r.u8();
  const auto origin = r.u32();
  const auto value_raw = r.u8();
  const auto flag_raw = r.u8();
  if (!round || !step || !kind || !origin || !value_raw || !flag_raw) return;
  if (src >= cfg_.n || *origin >= cfg_.n || *value_raw > 1 || *flag_raw > 1) {
    return;
  }
  if (*step < 1 || *step > 3 || *round == 0) return;
  ++stats_.messages_received;

  const StepValue sv{.value = static_cast<Value>(*value_raw),
                     .flag = *flag_raw == 1};
  const std::size_t slot = 2 * std::size_t{*value_raw} + *flag_raw;
  RbcState& state = rbc_.at(*round, *step, *origin);

  switch (*kind) {
    case kInitial: {
      // Echo the first initial we see from this origin for this instance.
      if (src != *origin) return;  // initials must come from the origin
      if (!state.sent_echo) {
        state.sent_echo = true;
        send_to_all(*round, *step, kEcho, *origin, sv);
      }
      break;
    }
    case kEcho: {
      SenderSet& echoers = state.echoes[slot];
      if (echoers.contains(src)) return;
      echoers.insert(src);
      if (!state.sent_ready &&
          cfg_.exceeds_echo_threshold(echoers.count())) {
        state.sent_ready = true;
        send_to_all(*round, *step, kReady, *origin, sv);
      }
      break;
    }
    case kReady: {
      SenderSet& readiers = state.readies[slot];
      if (readiers.contains(src)) return;
      readiers.insert(src);
      // f+1 readies amplify into our own ready (if not yet sent).
      if (!state.sent_ready && readiers.count() >= cfg_.f + 1) {
        state.sent_ready = true;
        send_to_all(*round, *step, kReady, *origin, sv);
      }
      // 2f+1 readies deliver, once per instance.
      if (!state.delivered && readiers.count() >= 2 * cfg_.f + 1) {
        state.delivered = true;
        ++stats_.delivered;
        steps_.offer({.round = *round, .step = *step}, *origin, sv);
      }
      break;
    }
    default:
      return;
  }
}

Process::RbcState& Process::RbcTable::at(std::uint32_t round,
                                         std::uint8_t step, ProcessId origin) {
  TURQ_ASSERT(origin < 256);
  const std::uint64_t key = (std::uint64_t{round} << 16) |
                            (std::uint64_t{step} << 8) | origin;
  if (2 * (states_.size() + 1) > slots_.size()) grow();
  Slot& slot = slots_[probe(key)];
  if (slot.index == 0) {
    states_.emplace_back();
    slot = {.key = key, .index = static_cast<std::uint32_t>(states_.size())};
  }
  return states_[slot.index - 1];
}

std::size_t Process::RbcTable::probe(std::uint64_t key) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i =
      static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  while (slots_[i].index != 0 && slots_[i].key != key) i = (i + 1) & mask;
  return i;
}

void Process::RbcTable::grow() {
  constexpr std::size_t kInitialSlots = 64;
  std::vector<Slot> old = std::move(slots_);
  const std::size_t size = old.empty() ? kInitialSlots : 2 * old.size();
  slots_.assign(size, Slot{});
  shift_ = 64 - std::countr_zero(size);
  for (const Slot& s : old) {
    if (s.index != 0) slots_[probe(s.key)] = s;
  }
}

}  // namespace turq::bracha
