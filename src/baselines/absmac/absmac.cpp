#include "baselines/absmac/absmac.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "common/serialize.hpp"

namespace turq::absmac {

using bracha::StepValue;

Process::Process(runtime::Runtime& rt, net::DatagramPort& port,
                 const Config& config, ProcessId id, Rng rng,
                 Strategy strategy, ProcessHooks hooks)
    : rt_(rt),
      port_(port),
      cfg_(config),
      id_(id),
      steps_(rt, id, config.n, config.f, rng, strategy, std::move(hooks),
             {.keep_initiating = [] { return true; },  // never goes quiet
              .send =
                  [this] {
                    backoff_ = 1;
                    broadcast_current(/*is_retransmit=*/false);
                  }}) {
  port_.set_handler([this](ProcessId src, BytesView payload) {
    on_datagram(src, payload);
  });
}

void Process::propose(Value initial) {
  TURQ_ASSERT_MSG(!running_, "propose() may be called once");
  running_ = true;
  steps_.start(initial);
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
  const StepKey at = steps_.position();
  const StepValue sv = steps_.claim();
  // u32 round, u8 step, u8 value, u8 flag, then the UDP/IP header room.
  Bytes frame(4 + 3 + net::kUdpIpOverhead);
  std::uint8_t* out = put_le(frame.data(), at.round);
  out[0] = at.step;
  out[1] = static_cast<std::uint8_t>(sv.value);
  out[2] = sv.flag ? 1 : 0;
  current_frame_ = net::FramedPayload(std::move(frame));
  sent_frames_[at] = current_frame_;
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
    if (current_frame_ &&
        std::ranges::equal(payload, current_frame_.payload())) {
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
  if (src != id_ && key < steps_.position()) maybe_help(key);
  // First claim per (round, step, origin) wins; retransmissions and
  // equivocations alike are dropped by the step machine.
  steps_.offer(key, src, sv);
}

}  // namespace turq::absmac
