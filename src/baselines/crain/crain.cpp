#include "baselines/crain/crain.hpp"

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "common/serialize.hpp"
#include "trace/trace.hpp"

namespace turq::crain {

Process::Process(runtime::Runtime& rt, net::TcpHost& transport,
                 const Config& config, const Dealer& dealer, ProcessId id,
                 Rng rng, const crypto::CostModel& costs, Strategy strategy,
                 ProcessHooks hooks)
    : rt_(rt),
      transport_(transport),
      cfg_(config),
      dealer_(dealer),
      id_(id),
      rng_(rng),
      costs_(costs),
      strategy_(strategy),
      outbox_(rt, transport, config.n),
      decision_(std::move(hooks.on_decide)),
      on_round_(std::move(hooks.on_round)),
      coin_(rt, costs, dealer.coin, "crain-coin", id, stats_) {
  TURQ_ASSERT_MSG(cfg_.n <= SenderSet::kCapacity,
                  "crain tallies require n <= SenderSet::kCapacity");
  transport_.set_handler([this](ProcessId src, BytesView payload) {
    on_message(src, payload);
  });
}

void Process::propose(Value initial) {
  TURQ_ASSERT(is_binary(initial));
  TURQ_ASSERT_MSG(!running_, "propose() may be called once");
  running_ = true;
  est_ = initial;
  TURQ_TRACE_EVENT(.at = rt_.now(), .category = trace::Category::kProtocol,
                   .kind = trace::Kind::kPropose, .process = id_, .phase = 1,
                   .value = static_cast<std::int64_t>(initial));
  enter_round(1);
  // Messages that arrived before the start signal sat in the (modeled) OS
  // receive buffer; process them now.
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

void Process::broadcast(BytesView payload) {
  stats_.messages_sent += cfg_.n;
  outbox_.send_to_all(payload);
}

void Process::send_est(std::uint32_t round, Value v) {
  Writer w;
  w.u8(kEst);
  w.u32(round);
  w.u8(static_cast<std::uint8_t>(v));
  broadcast(w.take());
}

void Process::send_aux(std::uint32_t round, Value v) {
  Writer w;
  w.u8(kAux);
  w.u32(round);
  w.u8(static_cast<std::uint8_t>(v));
  broadcast(w.take());
}

void Process::send_coin_share(std::uint32_t round) {
  // The coin share is padded to the production size (the same modeling as
  // ABBA's); EST/AUX messages stay tiny — that asymmetry is Crain's
  // headline.
  const std::optional<crypto::ThresholdShare> share = coin_.reveal(round, rng_);
  if (!share.has_value()) return;
  broadcast(baselines::share_message(kCoinShare, round, 0, *share,
                                     baselines::kSharePadBytes));
}

void Process::enter_round(std::uint32_t round) {
  round_ = round;
  TURQ_TRACE_EVENT(.at = rt_.now(), .category = trace::Category::kProtocol,
                   .kind = trace::Kind::kRoundEnter, .process = id_,
                   .phase = round_);
  Value out = est_;
  if (strategy_ == Strategy::kValueInversion) out = opposite(out);
  state(round).est_broadcast[static_cast<std::size_t>(out)] = true;
  send_est(round, out);
}

void Process::on_message(ProcessId src, BytesView payload) {
  if (halted_) return;
  if (!running_) {
    // OS buffer until propose().
    prestart_.emplace_back(src, Bytes(payload.begin(), payload.end()));
    return;
  }
  if (src >= cfg_.n) return;  // not a group member
  Reader r(payload);
  const auto type = r.u8();
  const auto round = r.u32();
  const auto value_raw = r.u8();
  if (!type || !round || !value_raw) return;
  if (*round == 0) return;
  switch (*type) {
    case kEst:
    case kAux: {
      if (*value_raw > 1) return;
      ++stats_.messages_received;
      const Value v = static_cast<Value>(*value_raw);
      if (*type == kEst) {
        handle_est(src, *round, v);
      } else {
        handle_aux(src, *round, v);
      }
      return;
    }
    case kCoinShare: {
      const auto share = baselines::decode_share(r);
      if (!share || share->party != src) return;
      ++stats_.messages_received;
      // Verifying the coin share is the only cryptographic work a Crain
      // process ever does; charge it before the share counts.
      rt_.execute(costs_.threshold_share_verify(),
                  [this, round = *round, share = *share] {
                    if (!running_) return;
                    ++stats_.shares_verified;
                    if (!dealer_.coin.verify_share(coin_.name(round), share)) {
                      ++stats_.share_verify_failures;
                      return;  // garbage — cost already paid
                    }
                    if (coin_.add(round, share)) try_progress(round);
                  });
      return;
    }
    default:
      return;
  }
}

void Process::handle_est(ProcessId src, std::uint32_t round, Value v) {
  RoundState& st = state(round);
  const auto idx = static_cast<std::size_t>(v);
  SenderSet& senders = st.est_senders[idx];
  if (senders.contains(src)) return;
  senders.insert(src);
  // BV-broadcast amplification: f+1 distinct senders force our own
  // broadcast of v (a value with at least one correct backer reaches all).
  if (!st.est_broadcast[idx] &&
      senders.count() >= cfg_.bv_echo_threshold()) {
    st.est_broadcast[idx] = true;
    ++stats_.bv_echoes;
    send_est(round, v);
  }
  // 2f+1 distinct senders admit v into bin_values: at least one correct
  // process proposed it, so no Byzantine-only value ever gets in.
  if (!st.bin_values[idx] &&
      senders.count() >= cfg_.bv_deliver_threshold()) {
    st.bin_values[idx] = true;
    ++stats_.bin_admissions;
    if (!st.first_bin.has_value()) st.first_bin = v;
    try_progress(round);
  }
}

void Process::handle_aux(ProcessId src, std::uint32_t round, Value v) {
  RoundState& st = state(round);
  if (!st.aux_votes.emplace(src, v).second) return;
  try_progress(round);
}

void Process::try_progress(std::uint32_t round) {
  if (round != round_) return;  // only the current round can make progress
  RoundState& st = state(round);

  // Stage 1: first admitted bin value -> AUX broadcast.
  if (!st.aux_sent && st.first_bin.has_value()) {
    st.aux_sent = true;
    Value out = *st.first_bin;
    if (strategy_ == Strategy::kValueInversion) out = opposite(out);
    send_aux(round, out);
  }

  // Stage 2: n-f AUX votes whose values all lie inside bin_values freeze
  // `vals` and release our coin share. Votes outside bin_values are simply
  // not counted yet — bin_values only grows, so this is monotone and the
  // n-f correct AUX senders eventually satisfy it.
  if (st.aux_sent && !st.vals_mask.has_value()) {
    std::uint8_t mask = 0;
    std::size_t eligible = 0;
    for (const auto& [p, v] : st.aux_votes) {
      if (!st.bin_values[static_cast<std::size_t>(v)]) continue;
      ++eligible;
      mask |= v == Value::kZero ? 1 : 2;
    }
    if (eligible >= cfg_.quorum()) {
      st.vals_mask = mask;
      send_coin_share(round);
    }
  }

  // Stage 3: the combined common coin resolves the round.
  const std::optional<bool> coin_bit = coin_.value(round);
  if (st.vals_mask.has_value() && coin_bit.has_value() && !st.advanced) {
    st.advanced = true;
    ++stats_.coin_flips;
    const Value coin = binary_value(*coin_bit);
    if (*st.vals_mask == 1 || *st.vals_mask == 2) {
      const Value b = *st.vals_mask == 1 ? Value::kZero : Value::kOne;
      est_ = b;
      if (b == coin) decision_.decide(rt_, id_, b, round);
    } else {
      est_ = coin;
    }
    // A decided process keeps participating with est = decision — MMR-style
    // termination is probabilistic (everyone converges on est = b after the
    // deciding round and decides at the first coin == b), so going quiet
    // early could stall peers. The harness stops the run once every correct
    // process has decided.
    if (on_round_) on_round_(round + 1, rt_.now());
    enter_round(round + 1);
    try_progress(round_);
  }
}

}  // namespace turq::crain
