#include "baselines/crain/crain.hpp"

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "common/serialize.hpp"
#include "trace/trace.hpp"

namespace turq::crain {

namespace {
/// The toy threshold share is 28 wire bytes; pad the coin share to the
/// modeled production size (share + correctness proof), matching ABBA's
/// modeling so the coin cost is comparable across baselines. EST/AUX
/// messages stay tiny — that asymmetry is Crain's headline.
constexpr std::size_t kModeledShareBytes = 200;
constexpr std::size_t kSharePadBytes = kModeledShareBytes - 28;
}  // namespace

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
      on_decide_(std::move(hooks.on_decide)),
      on_round_(std::move(hooks.on_round)) {
  TURQ_ASSERT_MSG(cfg_.n <= SenderSet::kCapacity,
                  "crain tallies require n <= SenderSet::kCapacity");
  transport_.set_handler([this](ProcessId src, const Bytes& payload) {
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
  transport_.close();
}

Bytes Process::coin_name(std::uint32_t round) {
  Writer w;
  w.str("crain-coin");
  w.u32(round);
  return w.take();
}

void Process::broadcast(const Bytes& payload) {
  for (ProcessId dst = 0; dst < cfg_.n; ++dst) {
    ++stats_.messages_sent;
    outbox_[dst].push_back(payload);
  }
  if (!flush_scheduled_) {
    // Flush at the end of the current event turn so every reaction to one
    // inbound segment (EST echoes, AUX, coin share) shares segments.
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
  RoundState& st = state(round);
  if (st.coin_share_sent) return;
  st.coin_share_sent = true;
  ++stats_.shares_generated;
  rt_.charge(costs_.threshold_share_generate());
  const crypto::ThresholdShare share =
      dealer_.coin.generate_share(id_, coin_name(round), rng_);
  Writer w;
  w.u8(kCoinShare);
  w.u32(round);
  w.u8(0);
  w.u32(share.party);
  w.u64(share.sigma);
  w.u64(share.proof.challenge);
  w.u64(share.proof.response);
  w.bytes(Bytes(kSharePadBytes, 0));
  broadcast(w.take());
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

void Process::on_message(ProcessId src, const Bytes& payload) {
  if (halted_) return;
  if (!running_) {
    prestart_.emplace_back(src, payload);  // OS buffer until propose()
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
      const auto party = r.u32();
      const auto sigma = r.u64();
      const auto challenge = r.u64();
      const auto response = r.u64();
      if (!party || !sigma || !challenge || !response) return;
      if (*party != src) return;
      ++stats_.messages_received;
      const crypto::ThresholdShare share{
          .party = *party,
          .sigma = *sigma,
          .proof = {.challenge = *challenge, .response = *response}};
      // Verifying the coin share is the only cryptographic work a Crain
      // process ever does; charge it before the share counts.
      rt_.execute(costs_.threshold_share_verify(),
                  [this, src, round = *round, share] {
                    if (!running_) return;
                    ++stats_.shares_verified;
                    if (!dealer_.coin.verify_share(coin_name(round), share)) {
                      ++stats_.share_verify_failures;
                      return;  // garbage — cost already paid
                    }
                    handle_coin_share(src, round, share);
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

void Process::handle_coin_share(ProcessId /*src*/, std::uint32_t round,
                                const crypto::ThresholdShare& share) {
  RoundState& st = state(round);
  for (const auto& s : st.coin_shares) {
    if (s.party == share.party) return;
  }
  st.coin_shares.push_back(share);
  if (!st.coin_value.has_value() &&
      st.coin_shares.size() >= cfg_.coin_threshold()) {
    ++stats_.combines;
    rt_.charge(costs_.threshold_combine(cfg_.coin_threshold()));
    const Bytes name = coin_name(round);
    const auto combined = dealer_.coin.combine(name, st.coin_shares);
    TURQ_ASSERT(combined.has_value());
    st.coin_value = dealer_.coin.coin_bit(name, *combined);
  }
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
  if (st.vals_mask.has_value() && st.coin_value.has_value() && !st.advanced) {
    st.advanced = true;
    ++stats_.coin_flips;
    const Value coin = binary_value(*st.coin_value);
    if (*st.vals_mask == 1 || *st.vals_mask == 2) {
      const Value b = *st.vals_mask == 1 ? Value::kZero : Value::kOne;
      est_ = b;
      if (b == coin) decide(b, round);
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

void Process::decide(Value v, std::uint32_t round) {
  if (decision_.has_value()) return;
  decision_ = v;
  decided_round_ = round;
  TURQ_DEBUG("crain p%u decided %s in round %u t=%.3fms", id_,
             to_string(v).c_str(), round, to_milliseconds(rt_.now()));
  TURQ_TRACE_EVENT(.at = rt_.now(), .category = trace::Category::kProtocol,
                   .kind = trace::Kind::kDecide, .process = id_, .phase = round,
                   .value = static_cast<std::int64_t>(v));
  if (on_decide_) on_decide_(v, round, rt_.now());
}

}  // namespace turq::crain
