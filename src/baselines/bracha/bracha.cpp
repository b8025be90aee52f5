#include "baselines/bracha/bracha.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "common/serialize.hpp"
#include "trace/trace.hpp"

namespace turq::bracha {

Process::Process(runtime::Runtime& rt, net::TcpHost& transport,
                 const Config& config, ProcessId id, Rng rng,
                 const crypto::CostModel& costs, Strategy strategy,
                 ProcessHooks hooks)
    : rt_(rt),
      transport_(transport),
      cfg_(config),
      id_(id),
      rng_(rng),
      costs_(costs),
      strategy_(strategy),
      on_decide_(std::move(hooks.on_decide)),
      on_round_(std::move(hooks.on_round)) {
  TURQ_ASSERT_MSG(cfg_.n <= SenderSet::kCapacity,
                  "bracha tallies require n <= SenderSet::kCapacity");
  transport_.set_handler([this](ProcessId src, const Bytes& payload) {
    on_message(src, payload);
  });
}

void Process::propose(Value initial) {
  TURQ_ASSERT(is_binary(initial));
  TURQ_ASSERT_MSG(!running_, "propose() may be called once");
  running_ = true;
  value_ = initial;
  flag_ = false;
  step_ = 1;
  TURQ_TRACE_EVENT(.at = rt_.now(), .category = trace::Category::kProtocol,
                   .kind = trace::Kind::kPropose, .process = id_,
                   .phase = round_,
                   .value = static_cast<std::int64_t>(initial));
  TURQ_TRACE_EVENT(.at = rt_.now(), .category = trace::Category::kProtocol,
                   .kind = trace::Kind::kRoundEnter, .process = id_,
                   .phase = round_, .value = step_);
  StepValue sv{.value = value_, .flag = false};
  if (strategy_ == Strategy::kValueInversion) sv.value = opposite(sv.value);
  rbc_broadcast(round_, step_, sv);
  // Drain messages buffered before the start signal (modeled OS buffer).
  std::vector<std::pair<ProcessId, Bytes>> queued;
  queued.swap(prestart_);
  for (auto& [src, payload] : queued) on_message(src, payload);
}

void Process::crash() {
  running_ = false;
  halted_ = true;
  prestart_.clear();
  transport_.close();
}

void Process::rbc_broadcast(std::uint32_t round, std::uint8_t step,
                            StepValue sv) {
  ++stats_.rbc_broadcasts;
  send_to_all(round, step, kInitial, id_, sv);
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
  const Bytes payload = w.take();
  for (ProcessId dst = 0; dst < cfg_.n; ++dst) {
    ++stats_.messages_sent;
    outbox_[dst].push_back(payload);
  }
  if (!flush_scheduled_) {
    // Flush at the end of the current event turn so every reaction to one
    // inbound segment (echoes/readies for several origins) shares segments.
    flush_scheduled_ = true;
    rt_.schedule(0, [this] { flush_outbox(); });
  }
}

void Process::flush_outbox() {
  flush_scheduled_ = false;
  if (!running_) {
    outbox_.clear();
    return;
  }
  std::map<ProcessId, std::vector<Bytes>> batch;
  batch.swap(outbox_);
  for (auto& [dst, messages] : batch) {
    transport_.send_many(dst, messages);
  }
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
      SenderSet& echoers = state.echoes[sv.tally_slot()];
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
      SenderSet& readiers = state.readies[sv.tally_slot()];
      if (readiers.contains(src)) return;
      readiers.insert(src);
      // f+1 readies amplify into our own ready (if not yet sent).
      if (!state.sent_ready && readiers.count() >= cfg_.f + 1) {
        state.sent_ready = true;
        send_to_all(key.round, key.step, kReady, key.origin, sv);
      }
      // 2f+1 readies deliver.
      if (!state.delivered && readiers.count() >= 2 * cfg_.f + 1) {
        state.delivered = true;
        ++stats_.delivered;
        on_rbc_deliver(key, sv);
      }
      break;
    }
    default:
      return;
  }
}

bool Process::claim_plausible(const RbcKey& key, const StepValue& sv) const {
  // Minimum lower-step support for the claim to be achievable by a correct
  // process (receiver-side, monotone — honest claims pass eventually).
  switch (key.step) {
    case 1:
      return true;  // any initial value is acceptable
    case 2: {
      // Claimed majority of some (n-f)-subset of step-1 messages.
      const std::size_t need = (cfg_.n - cfg_.f) / 2 + 1;
      return count_delivered(key.round, 1, sv.value, std::nullopt) >= need;
    }
    default: {
      if (sv.flag) {
        // A flagged value needs more than n/2 step-2 support.
        return 2 * count_delivered(key.round, 2, sv.value, std::nullopt) >
               cfg_.n;
      }
      // An unflagged step-3 value is a step-2 majority: some support must
      // exist.
      return count_delivered(key.round, 2, sv.value, std::nullopt) >= 1;
    }
  }
}

void Process::on_rbc_deliver(const RbcKey& key, StepValue sv) {
  buffered_.emplace_back(key, sv);
  reprocess_buffered();
}

void Process::reprocess_buffered() {
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto it = buffered_.begin(); it != buffered_.end();) {
      if (claim_plausible(it->first, it->second)) {
        accepted_[{it->first.round, it->first.step}][it->first.origin] =
            it->second;
        it = buffered_.erase(it);
        progress = true;
      } else {
        ++it;
      }
    }
    try_advance();
  }
}

std::size_t Process::count_delivered(std::uint32_t round, std::uint8_t step,
                                     Value v, std::optional<bool> flag) const {
  const auto it = accepted_.find({round, step});
  if (it == accepted_.end()) return 0;
  std::size_t count = 0;
  for (const auto& [origin, sv] : it->second) {
    if (sv.value != v) continue;
    if (flag.has_value() && sv.flag != *flag) continue;
    ++count;
  }
  return count;
}

void Process::try_advance() {
  for (;;) {
    if (step_ == 0 || step_ > 3) return;
    const auto it = accepted_.find({round_, step_});
    if (it == accepted_.end() || it->second.size() < cfg_.quorum()) return;

    const auto& messages = it->second;
    const std::size_t zeros = count_delivered(round_, step_, Value::kZero, {});
    const std::size_t ones = count_delivered(round_, step_, Value::kOne, {});

    std::uint8_t next_step = 0;
    switch (step_) {
      case 1: {
        value_ = zeros > ones ? Value::kZero : Value::kOne;
        flag_ = false;
        next_step = 2;
        break;
      }
      case 2: {
        flag_ = false;
        for (const Value v : {Value::kZero, Value::kOne}) {
          const std::size_t c = v == Value::kZero ? zeros : ones;
          if (2 * c > cfg_.n) {
            value_ = v;
            flag_ = true;
          }
        }
        if (!flag_) value_ = zeros > ones ? Value::kZero : Value::kOne;
        next_step = 3;
        break;
      }
      default: {  // step 3
        bool adopted = false;
        for (const Value v : {Value::kZero, Value::kOne}) {
          const std::size_t flagged = count_delivered(round_, 3, v, true);
          if (flagged >= 2 * cfg_.f + 1) {
            decide(v);
            value_ = v;
            adopted = true;
          } else if (flagged >= cfg_.f + 1) {
            value_ = v;
            adopted = true;
          }
        }
        if (!adopted) {
          ++stats_.coin_flips;
          value_ = binary_value(rng_.coin());
        }
        flag_ = false;
        round_ += 1;
        if (on_round_) on_round_(round_, rt_.now());
        next_step = 1;
        break;
      }
    }
    (void)messages;

    if (decision_.has_value() && round_ > decided_round_ + 2) {
      // Done helping: stop initiating new rounds (RBC echo/ready handling
      // for other processes' messages continues in on_message).
      step_ = 0;
      return;
    }

    step_ = next_step;
    TURQ_TRACE_EVENT(.at = rt_.now(), .category = trace::Category::kProtocol,
                     .kind = trace::Kind::kRoundEnter, .process = id_,
                     .phase = round_, .value = step_);
    StepValue sv{.value = value_, .flag = flag_};
    if (strategy_ == Strategy::kValueInversion) {
      // Paper §7.2: opposite value in steps 1 and 2; in step 3, the default
      // (unflagged) opposite value.
      sv.value = opposite(value_);
      if (step_ == 3) sv.flag = false;
    }
    rbc_broadcast(round_, step_, sv);
  }
}

void Process::decide(Value v) {
  if (decision_.has_value()) return;
  decision_ = v;
  decided_round_ = round_;
  TURQ_DEBUG("bracha p%u decided %s in round %u t=%.3fms", id_,
             to_string(v).c_str(), round_, to_milliseconds(rt_.now()));
  TURQ_TRACE_EVENT(.at = rt_.now(), .category = trace::Category::kProtocol,
                   .kind = trace::Kind::kDecide, .process = id_,
                   .phase = round_, .value = static_cast<std::int64_t>(v));
  if (on_decide_) on_decide_(v, round_, rt_.now());
}

}  // namespace turq::bracha
