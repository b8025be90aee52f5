#include "baselines/absmac/absmac.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "common/serialize.hpp"
#include "trace/trace.hpp"

namespace turq::absmac {

Process::Process(runtime::Runtime& rt, net::DatagramPort& port,
                 const Config& config, ProcessId id, Rng rng,
                 Strategy strategy, ProcessHooks hooks)
    : rt_(rt),
      port_(port),
      cfg_(config),
      id_(id),
      rng_(rng),
      strategy_(strategy),
      on_decide_(std::move(hooks.on_decide)),
      on_round_(std::move(hooks.on_round)) {
  port_.set_handler([this](ProcessId src, BytesView payload) {
    on_datagram(src, payload);
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
  broadcast_current(/*is_retransmit=*/false);
  arm_tick();
  // Drain messages buffered before the start signal (modeled OS buffer).
  std::vector<std::pair<ProcessId, Bytes>> queued;
  queued.swap(prestart_);
  for (auto& [src, payload] : queued) on_datagram(src, payload);
}

void Process::crash() {
  running_ = false;
  halted_ = true;
  prestart_.clear();
  rt_.cancel(tick_timer_);
  tick_timer_ = runtime::kInvalidTimer;
  port_.close();
}

void Process::broadcast_current(bool is_retransmit) {
  StepValue sv{.value = value_, .flag = flag_};
  if (strategy_ == Strategy::kValueInversion) {
    sv.value = opposite(sv.value);
    if (step_ == 3) sv.flag = false;
  }
  Writer w;
  w.u32(round_);
  w.u8(step_);
  w.u8(static_cast<std::uint8_t>(sv.value));
  w.u8(sv.flag ? 1 : 0);
  current_frame_ = std::make_shared<const Bytes>(w.take());
  sent_frames_[{.round = round_, .step = step_}] = current_frame_;
  ack_pending_ = true;
  ++stats_.messages_sent;
  if (is_retransmit) ++stats_.retransmits;
  port_.send(current_frame_);
}

void Process::maybe_help(const StepKey& behind) {
  const auto frame = sent_frames_.find(behind);
  if (frame == sent_frames_.end()) return;
  const auto last = helped_at_.find(behind);
  if (last != helped_at_.end() &&
      rt_.now() < last->second + cfg_.tick_interval) {
    return;  // rate limit: at most one repair per position per tick
  }
  helped_at_[behind] = rt_.now();
  ++stats_.messages_sent;
  ++stats_.help_responses;
  port_.send(frame->second);
}

void Process::arm_tick() {
  tick_timer_ =
      rt_.schedule(cfg_.tick_interval * backoff_, [this] { on_tick(); });
}

void Process::on_tick() {
  if (halted_ || !running_) return;
  if (ack_pending_) {
    // The previous frame has not cleared the channel within a tick: the
    // abstract MAC is reporting contention. Stretch the interval.
    ++stats_.contention_backoffs;
    backoff_ = std::min(backoff_ * 2, cfg_.backoff_cap);
  } else {
    backoff_ = 1;
  }
  // Retransmit the current (round, step) frame until the step advances —
  // the stand-in for the abstract MAC's eventual-delivery guarantee on a
  // medium with injected omissions.
  broadcast_current(/*is_retransmit=*/true);
  arm_tick();
}

void Process::on_datagram(ProcessId src, BytesView payload) {
  if (halted_) return;
  if (!running_) {
    prestart_.emplace_back(src, Bytes(payload.begin(), payload.end()));
    return;
  }
  if (src == id_) {
    // Loopback: the medium delivered our own frame after it actually
    // cleared the air — this IS the abstract-MAC ack.
    if (current_frame_ != nullptr &&
        std::equal(payload.begin(), payload.end(), current_frame_->begin(),
                   current_frame_->end())) {
      if (ack_pending_) {
        ack_pending_ = false;
        ++stats_.acks_observed;
        backoff_ = 1;  // prompt ack: the channel is clear again
      }
    }
    // Fall through: the sender's own broadcast counts toward quorums,
    // exactly like every other broadcast recipient.
  }
  Reader r(payload);
  const auto round = r.u32();
  const auto step = r.u8();
  const auto value_raw = r.u8();
  const auto flag_raw = r.u8();
  if (!round || !step || !value_raw || !flag_raw) return;
  if (*round == 0 || *step < 1 || *step > 3) return;
  if (*value_raw > 1 || *flag_raw > 1) return;
  ++stats_.messages_received;

  const StepKey key{.round = *round, .step = *step};
  const StepValue sv{.value = static_cast<Value>(*value_raw),
                     .flag = *flag_raw == 1};
  // A frame from a position we have already moved past means the sender is
  // still stuck there — likely missing a frame nobody retransmits anymore.
  // Re-send our own frame for that position (rate-limited).
  if (src != id_ && key < StepKey{.round = round_, .step = step_}) {
    maybe_help(key);
  }
  // First claim per (round, step, origin) wins; retransmissions and
  // equivocations alike are dropped here.
  const auto acc = accepted_.find(key);
  if (acc != accepted_.end() && acc->second.contains(src)) return;
  for (const auto& [bk, claim] : buffered_) {
    if (bk == key && claim.first == src) return;
  }
  buffered_.emplace_back(key, std::pair{src, sv});
  reprocess_buffered();
}

bool Process::claim_plausible(const StepKey& key, const StepValue& sv) const {
  // Minimum lower-step support for the claim to be achievable by a correct
  // process (receiver-side, monotone — honest claims pass eventually). The
  // abstract-MAC model has no attached proofs, so these local gates are
  // the only defence against fabricated step-2/step-3 claims.
  switch (key.step) {
    case 1:
      return true;  // any initial value is acceptable
    case 2: {
      // Claimed majority of some (n-f)-subset of step-1 messages.
      const std::size_t need = (cfg_.n - cfg_.f) / 2 + 1;
      return count_accepted(key.round, 1, sv.value, std::nullopt) >= need;
    }
    default: {
      if (sv.flag) {
        // A flagged value needs more than n/2 step-2 support.
        return 2 * count_accepted(key.round, 2, sv.value, std::nullopt) >
               cfg_.n;
      }
      // An unflagged step-3 value is a step-2 majority: some support must
      // exist.
      return count_accepted(key.round, 2, sv.value, std::nullopt) >= 1;
    }
  }
}

void Process::reprocess_buffered() {
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto it = buffered_.begin(); it != buffered_.end();) {
      if (claim_plausible(it->first, it->second.second)) {
        accepted_[it->first][it->second.first] = it->second.second;
        it = buffered_.erase(it);
        progress = true;
      } else {
        ++stats_.buffered_claims;
        ++it;
      }
    }
    try_advance();
  }
}

std::size_t Process::count_accepted(std::uint32_t round, std::uint8_t step,
                                    Value v, std::optional<bool> flag) const {
  const auto it = accepted_.find({.round = round, .step = step});
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
    if (step_ < 1 || step_ > 3) return;
    const auto it = accepted_.find({.round = round_, .step = step_});
    if (it == accepted_.end() || it->second.size() < cfg_.quorum()) return;

    const std::size_t zeros = count_accepted(round_, step_, Value::kZero, {});
    const std::size_t ones = count_accepted(round_, step_, Value::kOne, {});

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
          const std::size_t flagged = count_accepted(round_, 3, v, true);
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

    // A decided process keeps broadcasting — under injected omissions a
    // quiet decider's unretransmitted frames could strand a peer one
    // message short of a quorum forever. The harness stops the run once
    // every correct process has decided.
    step_ = next_step;
    TURQ_TRACE_EVENT(.at = rt_.now(), .category = trace::Category::kProtocol,
                     .kind = trace::Kind::kRoundEnter, .process = id_,
                     .phase = round_, .value = step_);
    backoff_ = 1;
    broadcast_current(/*is_retransmit=*/false);
  }
}

void Process::decide(Value v) {
  if (decision_.has_value()) return;
  decision_ = v;
  decided_round_ = round_;
  TURQ_DEBUG("absmac p%u decided %s in round %u t=%.3fms", id_,
             to_string(v).c_str(), round_, to_milliseconds(rt_.now()));
  TURQ_TRACE_EVENT(.at = rt_.now(), .category = trace::Category::kProtocol,
                   .kind = trace::Kind::kDecide, .process = id_,
                   .phase = round_, .value = static_cast<std::int64_t>(v));
  if (on_decide_) on_decide_(v, round_, rt_.now());
}

}  // namespace turq::absmac
