#include "baselines/abba/abba.hpp"

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "common/serialize.hpp"
#include "trace/trace.hpp"

namespace turq::abba {

namespace {
/// Rounds a decided process keeps participating in before going quiet —
/// enough for every correct process to reach its own decision.
constexpr std::uint32_t kLingerRounds = 3;

using baselines::kModeledShareBytes;
using baselines::kSharePadBytes;
/// Modeled wire size of a production (RSA-1024 class) combined signature.
constexpr std::size_t kSigBytes = 128;

Vote to_vote(Value v) { return v == Value::kOne ? Vote::kOne : Vote::kZero; }
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
      decision_(std::move(hooks.on_decide)),
      on_round_(std::move(hooks.on_round)),
      coin_(rt, costs, dealer.coin, "coin", id, stats_) {
  transport_.set_handler([this](ProcessId src, BytesView payload) {
    on_message(src, payload);
  });
}

void Process::propose(Value initial) {
  TURQ_ASSERT(is_binary(initial));
  TURQ_ASSERT_MSG(!running_, "propose() may be called once");
  running_ = true;
  TURQ_TRACE_EVENT(.at = rt_.now(), .category = trace::Category::kProtocol,
                   .kind = trace::Kind::kPropose, .process = id_, .phase = 1,
                   .value = static_cast<std::int64_t>(initial));
  TURQ_TRACE_EVENT(.at = rt_.now(), .category = trace::Category::kProtocol,
                   .kind = trace::Kind::kRoundEnter, .process = id_,
                   .phase = 1);
  send_prevote(1, to_vote(initial));
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

// ------------------------------------------------------------- statements --

Bytes Process::pv_name(std::uint32_t round, Vote b) {
  Writer w;
  w.str("pv");
  w.u32(round);
  w.u8(static_cast<std::uint8_t>(b));
  return w.take();
}

Bytes Process::mv_name(std::uint32_t round, Vote v) {
  Writer w;
  w.str("mv");
  w.u32(round);
  w.u8(static_cast<std::uint8_t>(v));
  return w.take();
}

// ------------------------------------------------------------------ wire --

crypto::ThresholdShare Process::make_share(BytesView name) {
  ++stats_.shares_generated;
  rt_.charge(costs_.threshold_share_generate());
  crypto::ThresholdShare share = dealer_.sig.generate_share(id_, name, rng_);
  if (strategy_ == Strategy::kInvalidCrypto) {
    // Structurally plausible garbage: correct processes pay the full
    // verification price before rejecting it (paper §7.2).
    share.sigma = rng_.next() % dealer_.sig.group().p();
    share.proof.challenge = rng_.next() % dealer_.sig.group().q();
    share.proof.response = rng_.next() % dealer_.sig.group().q();
  }
  return share;
}

void Process::broadcast(BytesView payload) {
  for (ProcessId dst = 0; dst < cfg_.n; ++dst) {
    ++stats_.messages_sent;
    transport_.send(dst, payload);
  }
}

void Process::send_prevote(std::uint32_t round, Vote b) {
  TURQ_ASSERT(b != Vote::kAbstain);
  const crypto::ThresholdShare share = make_share(pv_name(round, b));
  // Wire sizes model production RSA-1024 threshold artifacts: the toy
  // share is 28 bytes, a real Shoup share plus correctness proof ~200; a
  // combined signature ~128. Round-1 pre-votes need no justification;
  // later rounds carry the hard-lock or coin signature. Receivers charge
  // the verification price (see DESIGN.md on this simplification).
  const std::size_t just_size = kSharePadBytes + (round == 1 ? 0 : kSigBytes);
  broadcast(baselines::share_message(kPreVote, round,
                                     static_cast<std::uint8_t>(b), share,
                                     just_size));
}

void Process::send_mainvote(std::uint32_t round, Vote v) {
  const crypto::ThresholdShare share = make_share(mv_name(round, v));
  // Justification: combined signature on the pre-votes (binary value) or
  // two conflicting pre-vote shares with proofs (abstain).
  const std::size_t just_size =
      kSharePadBytes +
      (v == Vote::kAbstain ? 2 * kModeledShareBytes : kSigBytes);
  broadcast(baselines::share_message(kMainVote, round,
                                     static_cast<std::uint8_t>(v), share,
                                     just_size));
}

void Process::send_coin_share(std::uint32_t round) {
  std::optional<crypto::ThresholdShare> share = coin_.reveal(round, rng_);
  if (!share.has_value()) return;
  if (strategy_ == Strategy::kInvalidCrypto) {
    share->sigma = rng_.next() % dealer_.coin.group().p();
  }
  broadcast(
      baselines::share_message(kCoinShare, round, 0, *share, kSharePadBytes));
}

// --------------------------------------------------------------- receive --

void Process::on_message(ProcessId src, BytesView payload) {
  if (halted_) return;
  if (!running_) {
    // OS buffer until propose().
    prestart_.emplace_back(src, Bytes(payload.begin(), payload.end()));
    return;
  }
  Reader r(payload);
  const auto type = r.u8();
  const auto round = r.u32();
  const auto vote_raw = r.u8();
  auto share = baselines::decode_share(r);
  const auto justification = r.bytes_view();
  if (!type || !round || !vote_raw || !share || !justification) {
    TURQ_DEBUG("abba p%u: MALFORMED from=%u bytes=%zu", id_, src, payload.size());
    return;
  }
  if (*round == 0 || *vote_raw > 2 || share->party != src) {
    TURQ_DEBUG("abba p%u: BAD-FIELDS from=%u round=%u party=%u", id_, src,
               *round, share->party);
    return;
  }
  ++stats_.messages_received;

  // Verification is the expensive part: the vote's signature share, plus
  // the justification when one is required. Processing continues only after
  // the virtual CPU finishes that work.
  SimDuration cost = costs_.threshold_share_verify();
  const bool has_justification =
      (*type == kPreVote && *round > 1) || *type == kMainVote;
  if (has_justification) cost += costs_.threshold_sig_verify();

  rt_.execute(cost, [this, src, type = *type, round = *round,
                      vote_raw = *vote_raw, share = *share] {
    if (!running_) return;
    ++stats_.shares_verified;
    const Bytes name = type == kPreVote    ? pv_name(round, static_cast<Vote>(vote_raw))
                       : type == kMainVote ? mv_name(round, static_cast<Vote>(vote_raw))
                                           : coin_.name(round);
    const auto& scheme = type == kCoinShare ? dealer_.coin : dealer_.sig;
    if (!scheme.verify_share(name, share)) {
      ++stats_.share_verify_failures;
      TURQ_DEBUG("abba p%u: share verify FAILED type=%u round=%u from=%u", id_,
                 type, round, src);
      return;  // Byzantine garbage — cost already paid
    }
    switch (type) {
      case kPreVote:
        handle_prevote(src, round, static_cast<Vote>(vote_raw), share);
        break;
      case kMainVote:
        handle_mainvote(src, round, static_cast<Vote>(vote_raw), share);
        break;
      case kCoinShare:
        if (coin_.add(round, share)) try_progress(round);
        break;
      default:
        break;
    }
  });
}

void Process::handle_prevote(ProcessId src, std::uint32_t round, Vote b,
                             const crypto::ThresholdShare& /*share*/) {
  if (b == Vote::kAbstain) return;  // pre-votes are binary
  RoundState& st = state(round);
  if (!st.pre_votes.emplace(src, b).second) return;
  try_progress(round);
}

void Process::handle_mainvote(ProcessId src, std::uint32_t round, Vote v,
                              const crypto::ThresholdShare& /*share*/) {
  RoundState& st = state(round);
  if (!st.main_votes.emplace(src, v).second) return;
  try_progress(round);
}

// -------------------------------------------------------------- protocol --

void Process::try_progress(std::uint32_t round) {
  if (round != round_) return;
  RoundState& st = state(round);
  TURQ_TRACE("abba p%u r%u: pv=%zu mv=%zu voted=%d adv=%d t=%.2f", id_, round,
             st.pre_votes.size(), st.main_votes.size(), st.main_voted ? 1 : 0,
             st.advanced ? 1 : 0, to_milliseconds(rt_.now()));

  // Stage 1: enough pre-votes -> main-vote.
  if (!st.main_voted && st.pre_votes.size() >= cfg_.vote_quorum()) {
    st.main_voted = true;
    std::size_t zeros = 0, ones = 0;
    for (const auto& [p, b] : st.pre_votes) {
      (b == Vote::kZero ? zeros : ones) += 1;
    }
    Vote mv;
    if (zeros >= cfg_.vote_quorum()) {
      mv = Vote::kZero;
    } else if (ones >= cfg_.vote_quorum()) {
      mv = Vote::kOne;
    } else {
      mv = Vote::kAbstain;
    }
    if (mv != Vote::kAbstain) {
      // Combining the pre-vote shares produces the justifying signature.
      ++stats_.combines;
      rt_.charge(costs_.threshold_combine(cfg_.vote_quorum()));
    }
    send_mainvote(round, mv);
  }

  // Stage 2: enough main-votes -> decide / advance / coin.
  if (st.main_voted && !st.advanced &&
      st.main_votes.size() >= cfg_.vote_quorum()) {
    std::size_t count[3] = {0, 0, 0};
    for (const auto& [p, v] : st.main_votes) {
      count[static_cast<std::size_t>(v)] += 1;
    }

    std::optional<Vote> next;
    if (count[0] >= cfg_.vote_quorum()) {
      decision_.decide(rt_, id_, Value::kZero, round);
      next = Vote::kZero;
    } else if (count[1] >= cfg_.vote_quorum()) {
      decision_.decide(rt_, id_, Value::kOne, round);
      next = Vote::kOne;
    } else if (count[0] > 0) {
      next = Vote::kZero;  // hard pre-vote, justified by that main-vote
    } else if (count[1] > 0) {
      next = Vote::kOne;
    } else {
      // All abstain: the common coin chooses the next pre-vote.
      send_coin_share(round);
      const std::optional<bool> coin = coin_.value(round);
      if (!coin.has_value()) return;  // wait for f+1 shares
      ++stats_.coin_flips;
      next = *coin ? Vote::kOne : Vote::kZero;
    }

    st.advanced = true;
    // Always release the coin share at round end — others may be on the
    // all-abstain path and need f+1 shares.
    send_coin_share(round);

    if (decision_.has_value() &&
        round >= decision_.round() + kLingerRounds) {
      return;  // done helping; go quiet
    }
    round_ = round + 1;
    TURQ_TRACE_EVENT(.at = rt_.now(), .category = trace::Category::kProtocol,
                     .kind = trace::Kind::kRoundEnter, .process = id_,
                     .phase = round_);
    if (on_round_) on_round_(round_, rt_.now());
    send_prevote(round_, *next);
    try_progress(round_);
  }
}

}  // namespace turq::abba
