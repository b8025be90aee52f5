#include "baselines/bracha/step_machine.hpp"

#include <utility>

#include "common/assert.hpp"
#include "trace/trace.hpp"

namespace turq::bracha {

StepMachine::StepMachine(runtime::Runtime& rt, ProcessId id, std::uint32_t n,
                         std::uint32_t f, Rng rng, Strategy strategy,
                         ProcessHooks hooks, Spread spread)
    : rt_(rt),
      id_(id),
      n_(n),
      f_(f),
      rng_(rng),
      strategy_(strategy),
      decision_(std::move(hooks.on_decide)),
      on_round_(std::move(hooks.on_round)),
      spread_(std::move(spread)) {
  TURQ_ASSERT(f_ < n_);
}

void StepMachine::start(Value initial) {
  TURQ_ASSERT(is_binary(initial));
  TURQ_ASSERT_MSG(step_ == 0 && round_ == 1, "start() may be called once");
  value_ = initial;
  flag_ = false;
  step_ = 1;
  TURQ_TRACE_EVENT(.at = rt_.now(), .category = trace::Category::kProtocol,
                   .kind = trace::Kind::kPropose, .process = id_,
                   .phase = round_,
                   .value = static_cast<std::int64_t>(initial));
  enter();
}

StepValue StepMachine::claim() const {
  StepValue sv{.value = value_, .flag = flag_};
  if (strategy_ == Strategy::kValueInversion) {
    // Paper §7.2: opposite value in steps 1 and 2; in step 3, the default
    // (unflagged) opposite value.
    sv.value = opposite(sv.value);
    if (step_ == 3) sv.flag = false;
  }
  return sv;
}

void StepMachine::offer(StepKey at, ProcessId origin, StepValue sv) {
  const auto acc = accepted_.find(at);
  if (acc != accepted_.end() && acc->second.contains(origin)) return;
  for (const Claim& c : held_) {
    if (c.at == at && c.origin == origin) return;
  }
  held_.push_back({.at = at, .origin = origin, .sv = sv});
  release_held();
}

std::size_t StepMachine::support(StepKey at, Value v,
                                 std::optional<bool> flag) const {
  const auto it = accepted_.find(at);
  if (it == accepted_.end()) return 0;
  std::size_t count = 0;
  for (const auto& [origin, sv] : it->second) {
    if (sv.value != v) continue;
    if (flag.has_value() && sv.flag != *flag) continue;
    ++count;
  }
  return count;
}

bool StepMachine::plausible(const Claim& c) const {
  // Minimum lower-step support for the claim to be achievable by a correct
  // process (receiver-side, monotone — honest claims pass eventually).
  const auto below = [&c, this](std::uint8_t step) {
    return support({.round = c.at.round, .step = step}, c.sv.value);
  };
  switch (c.at.step) {
    case 1:
      return true;  // any initial value is acceptable
    case 2:
      // Claimed majority of some (n-f)-subset of step-1 claims.
      return below(1) >= (n_ - f_) / 2 + 1;
    default:
      // A flagged value needs more than n/2 step-2 support; an unflagged
      // one is a step-2 majority, so some support must exist.
      return c.sv.flag ? 2 * below(2) > n_ : below(2) >= 1;
  }
}

void StepMachine::release_held() {
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto it = held_.begin(); it != held_.end();) {
      if (plausible(*it)) {
        accepted_[it->at][it->origin] = it->sv;
        it = held_.erase(it);
        progress = true;
      } else {
        ++it;
      }
    }
    advance();
  }
}

void StepMachine::advance() {
  for (;;) {
    if (step_ < 1 || step_ > 3) return;
    const StepKey at = position();
    const auto it = accepted_.find(at);
    if (it == accepted_.end() || it->second.size() < n_ - f_) return;

    const std::size_t zeros = support(at, Value::kZero);
    const std::size_t ones = support(at, Value::kOne);
    // The one tie rule of both majorities: zeros == ones picks 1.
    const Value majority = zeros > ones ? Value::kZero : Value::kOne;

    std::uint8_t next_step = 0;
    switch (step_) {
      case 1:
        value_ = majority;
        flag_ = false;
        next_step = 2;
        break;
      case 2:
        flag_ = false;
        for (const Value v : {Value::kZero, Value::kOne}) {
          if (2 * (v == Value::kZero ? zeros : ones) > n_) {
            value_ = v;
            flag_ = true;
          }
        }
        if (!flag_) {
          // A split tally: no value is held by more than n/2.
          ++split_tallies_;
          value_ = majority;
        }
        next_step = 3;
        break;
      default: {  // step 3
        bool adopted = false;
        for (const Value v : {Value::kZero, Value::kOne}) {
          const std::size_t flagged = support(at, v, true);
          if (flagged >= 2 * f_ + 1) {
            decision_.decide(rt_, id_, v, round_);
            value_ = v;
            adopted = true;
          } else if (flagged >= f_ + 1) {
            value_ = v;
            adopted = true;
          }
        }
        if (!adopted) {
          ++coin_flips_;
          value_ = binary_value(rng_.coin());
        }
        flag_ = false;
        round_ += 1;
        if (on_round_) on_round_(round_, rt_.now());
        next_step = 1;
        break;
      }
    }

    if (!spread_.keep_initiating()) {
      step_ = 0;
      return;
    }
    step_ = next_step;
    enter();
  }
}

void StepMachine::enter() {
  TURQ_TRACE_EVENT(.at = rt_.now(), .category = trace::Category::kProtocol,
                   .kind = trace::Kind::kRoundEnter, .process = id_,
                   .phase = round_, .value = step_);
  spread_.send();
}

}  // namespace turq::bracha
