#include "baselines/bracha/bracha.hpp"

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
      outbox_(rt, transport),
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
  transport_.set_handler([this](ProcessId src, const Bytes& payload) {
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
  Writer w;
  w.u32(round);
  w.u8(step);
  w.u8(kind);
  w.u32(origin);
  w.u8(static_cast<std::uint8_t>(sv.value));
  w.u8(sv.flag ? 1 : 0);
  stats_.messages_sent += cfg_.n;
  outbox_.send_to_all(cfg_.n, w.take());
}

void Process::on_message(ProcessId src, const Bytes& payload) {
  if (halted_) return;
  if (!running_) {
    prestart_.emplace_back(src, payload);  // OS buffer until propose()
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

  const RbcKey key{.round = *round, .step = *step, .origin = *origin};
  const StepValue sv{.value = static_cast<Value>(*value_raw),
                     .flag = *flag_raw == 1};
  const std::size_t slot = 2 * std::size_t{*value_raw} + *flag_raw;
  RbcState& state = rbc_[key];

  switch (*kind) {
    case kInitial: {
      // Echo the first initial we see from this origin for this instance.
      if (src != *origin) return;  // initials must come from the origin
      if (!state.sent_echo) {
        state.sent_echo = true;
        send_to_all(key.round, key.step, kEcho, key.origin, sv);
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
        send_to_all(key.round, key.step, kReady, key.origin, sv);
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
        send_to_all(key.round, key.step, kReady, key.origin, sv);
      }
      // 2f+1 readies deliver, once per instance.
      if (!state.delivered && readiers.count() >= 2 * cfg_.f + 1) {
        state.delivered = true;
        ++stats_.delivered;
        steps_.offer({.round = key.round, .step = key.step}, key.origin, sv);
      }
      break;
    }
    default:
      return;
  }
}

}  // namespace turq::bracha
