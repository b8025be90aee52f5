#include "turquois/process.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "trace/trace.hpp"
#include "turquois/exchange_pool.hpp"

namespace turq::turquois {

namespace {
/// Bound on the pending pool; beyond it the oldest-phase entries are cut.
constexpr std::size_t kMaxPending = 4096;
}  // namespace

Process::Process(runtime::Runtime& rt, net::DatagramPort& endpoint,
                 const Config& config, const KeyInfrastructure& keys,
                 ProcessId id, Rng rng, const crypto::CostModel& costs,
                 ProcessHooks hooks)
    : rt_(rt),
      endpoint_(endpoint),
      cfg_(config),
      keys_(keys),
      id_(id),
      rng_(rng),
      costs_(costs),
      exchange_pool_(hooks.exchange_pool),
      on_decide_(std::move(hooks.on_decide)),
      on_phase_(std::move(hooks.on_phase)),
      mutator_(std::move(hooks.mutate_outgoing)) {
  claimed_.resize(cfg_.n, 0);
  endpoint_.set_handler([this](ProcessId src, BytesView payload) {
    on_datagram(src, payload);
  });
}

Process::~Process() {
  // A live tick timer captures `this`; a real-time runtime may outlive the
  // process and must not fire into freed memory. (The sim never runs again
  // after its harness tears down, but cancelling is correct there too.)
  if (tick_timer_ != runtime::kInvalidTimer) {
    rt_.cancel(tick_timer_);
    tick_timer_ = runtime::kInvalidTimer;
  }
}

void Process::propose(Value initial) {
  TURQ_ASSERT_MSG(!proposed_, "propose() may be called once");
  TURQ_ASSERT_MSG(is_binary(initial), "proposals are binary");
  proposed_ = true;
  running_ = true;
  value_ = initial;
  TURQ_TRACE_EVENT(.at = rt_.now(), .category = trace::Category::kProtocol,
                   .kind = trace::Kind::kPropose, .process = id_,
                   .phase = phase_,
                   .value = static_cast<std::int64_t>(initial));
  TURQ_TRACE_EVENT(.at = rt_.now(), .category = trace::Category::kProtocol,
                   .kind = trace::Kind::kPhaseEnter, .process = id_,
                   .phase = phase_);
  if (on_phase_) on_phase_(phase_, rt_.now());
  broadcast_state();
  // Drain datagrams buffered before the start signal (modeled OS buffer).
  std::vector<std::pair<ProcessId, Bytes>> queued;
  queued.swap(prestart_);
  for (auto& [src, payload] : queued) on_datagram(src, payload);
}

void Process::crash() {
  TURQ_TRACE_EVENT(.at = rt_.now(), .category = trace::Category::kProtocol,
                   .kind = trace::Kind::kCrash, .process = id_,
                   .phase = phase_);
  running_ = false;
  halted_ = true;
  prestart_.clear();
  if (tick_timer_ != runtime::kInvalidTimer) {
    rt_.cancel(tick_timer_);
    tick_timer_ = runtime::kInvalidTimer;
  }
  endpoint_.close();
}

// ---------------------------------------------------------------- task T1 --

void Process::schedule_tick() {
  if (!running_) return;
  if (tick_timer_ != runtime::kInvalidTimer) rt_.cancel(tick_timer_);
  const SimDuration jitter =
      cfg_.tick_jitter > 0
          ? static_cast<SimDuration>(
                rng_.uniform(static_cast<std::uint64_t>(cfg_.tick_jitter)))
          : 0;
  tick_timer_ =
      rt_.schedule(cfg_.tick_interval + jitter, [this] { on_tick(); });
}

void Process::on_tick() {
  tick_timer_ = runtime::kInvalidTimer;
  if (!running_) return;
  broadcast_state();
}

void Process::broadcast_state() {
  // §6.2: try implicit validation first (small message); when forced to
  // re-broadcast the same state on the next tick, append the justification.
  // After several repeats (a genuine stall) escalate with phase-1 evidence,
  // which repairs receivers whose validation chains bottomed out.
  const auto state_key = std::make_tuple(phase_, value_, status_);
  const bool repeat = last_sent_.has_value() && *last_sent_ == state_key;
  repeat_count_ = repeat ? repeat_count_ + 1 : 0;
  const bool justify = repeat && cfg_.explicit_justification;
  const bool root_evidence = repeat_count_ >= 3;

  last_sent_ = state_key;
  ++stats_.broadcasts;
  rt_.charge(costs_.udp_send);

  const auto assemble = [&]() -> SharedBytes {
    Datagram& d = outgoing_;
    d.main = Message{.sender = id_,
                     .phase = phase_,
                     .value = value_,
                     .status = status_,
                     .from_coin = from_coin_,
                     .auth_sk = {}};
    d.justification.clear();
    if (justify) {
      const std::vector<Message>& picked = build_justification(root_evidence);
      d.justification.assign(picked.begin(), picked.end());
    }
    if (mutator_) mutator_(d.main);
    // Sign (reveal the one-time key) after any Byzantine mutation: insiders
    // hold real keys and can authenticate any value in the allowed domain.
    if (keys_.chain(id_).covers(d.main.phase) &&
        crypto::ots_value_allowed(d.main.phase, d.main.value)) {
      const BytesView sk =
          keys_.chain(id_).secret_key(d.main.phase, d.main.value);
      d.main.auth_sk.assign(sk.begin(), sk.end());
    }
    return std::make_shared<const Bytes>(d.encode());
  };

  SharedBytes encoded;
  if (justify && !mutator_) {
    // Stalled retransmissions re-send byte-identical justified payloads
    // whenever nothing the assembly reads has changed; skip the rebuild +
    // re-encode. (A mutator may consume randomness, so mutated broadcasts
    // always run the full path.)
    const BroadcastFingerprint fp = fingerprint(root_evidence);
    if (encoded_cache_.key == fp) {
      encoded = encoded_cache_.payload;
    } else {
      encoded = assemble();
      encoded_cache_ = {fp, encoded};
    }
  } else {
    encoded = assemble();
  }
  TURQ_TRACE_EVENT(.at = rt_.now(), .category = trace::Category::kProtocol,
                   .kind = trace::Kind::kStateBroadcast, .process = id_,
                   .phase = phase_,
                   .value = static_cast<std::int64_t>(value_),
                   .bytes = static_cast<std::uint32_t>(encoded->size()));
  trace::count("turquois.broadcasts");
  trace::observe("turquois.broadcast_phase",
                 {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 20, 30}, phase_);
  if (repeat) trace::count("turquois.retransmission_ticks");
  endpoint_.send(std::move(encoded));
  schedule_tick();
}

Process::BroadcastFingerprint Process::fingerprint(bool root_evidence) const {
  BroadcastFingerprint fp;
  fp.phase = phase_;
  fp.value = value_;
  fp.status = status_;
  fp.from_coin = from_coin_;
  fp.root_evidence = root_evidence;
  const auto count = [&](Phase p) { return p == 0 ? 0 : view_.count_phase(p); };
  // Every phase book build_justification can consult for this state.
  fp.phase_counts = {
      count(1),
      count(phase_ > 1 ? phase_ - 1 : 0),
      count(phase_ > 2 ? phase_ - 2 : 0),
      count(decide_phase_),
      count(SemanticValidator::highest_lock_phase_below(phase_)),
      count(SemanticValidator::highest_decide_phase_below(phase_)),
  };
  return fp;
}

const std::vector<Message>& Process::build_justification(
    bool with_root_evidence) const {
  const BroadcastFingerprint fp = fingerprint(with_root_evidence);
  if (just_cache_.key == fp) return just_cache_.messages;
  std::vector<const Message*>& out = just_cache_.candidates;
  out.clear();

  // Phase-1 evidence first (stall escalation only): every deeper
  // validation chain (⊥ values, undecided statuses, converge majorities)
  // bottoms out at phase-1 messages, which require no validation
  // themselves — re-attaching them repairs receivers that missed the
  // opening exchange and would otherwise be permanently unable to validate
  // legitimate ⊥ states.
  if (with_root_evidence && phase_ > 2) {
    view_.append_at(out, 1, Value::kZero, cfg_.half_quorum_size());
    view_.append_at(out, 1, Value::kOne, cfg_.half_quorum_size());
  }

  // Phase justification: a quorum at φ-1, or the message we jumped on.
  if (phase_ > 1) {
    if (cfg_.exceeds_quorum(view_.count_phase(phase_ - 1))) {
      view_.append_at(out, phase_ - 1, std::nullopt, cfg_.quorum_size());
    } else if (jump_source_.has_value()) {
      out.push_back(&*jump_source_);
    }
  }

  // Proposal-value justification, per the rule for this phase class.
  switch (phase_ % 3) {
    case 1:
      if (phase_ > 1) {
        if (from_coin_) {
          view_.append_at(out, phase_ - 1, Value::kBottom, cfg_.quorum_size());
        } else {
          view_.append_at(out, phase_ - 2, value_, cfg_.quorum_size());
        }
      }
      break;
    case 2:
      view_.append_at(out, phase_ - 1, value_, cfg_.half_quorum_size());
      break;
    default:  // phase_ % 3 == 0
      if (is_binary(value_)) {
        view_.append_at(out, phase_ - 1, value_, cfg_.quorum_size());
      } else {
        view_.append_at(out, phase_ - 2, Value::kZero, cfg_.half_quorum_size());
        view_.append_at(out, phase_ - 2, Value::kOne, cfg_.half_quorum_size());
      }
      break;
  }

  // Status justification.
  if (status_ == Status::kDecided && decide_phase_ >= 3) {
    view_.append_at(out, decide_phase_, value_, cfg_.quorum_size());
  } else if (status_ == Status::kUndecided && phase_ > 3) {
    const Phase lock = SemanticValidator::highest_lock_phase_below(phase_);
    view_.append_at(out, lock, Value::kZero, cfg_.half_quorum_size());
    view_.append_at(out, lock, Value::kOne, cfg_.half_quorum_size());
    // Direct evidence of a non-uniform DECIDE quorum (see validation.cpp).
    const Phase decide = SemanticValidator::highest_decide_phase_below(phase_);
    view_.append_at(out, decide, Value::kBottom, 1);
    view_.append_at(out, decide, Value::kZero, 1);
    view_.append_at(out, decide, Value::kOne, 1);
  }

  // Keep the first occurrence of each (sender, phase) in rule order, up to
  // the cap; justification messages never nest. The candidates span a
  // handful of phases, so one sender set per phase makes each check O(1).
  std::vector<std::pair<Phase, SenderSet>>& seen = just_cache_.seen;
  seen.clear();
  std::vector<Message>& picked = just_cache_.messages;
  picked.clear();
  for (const Message* m : out) {
    auto book = std::find_if(seen.begin(), seen.end(),
                             [&](const auto& s) { return s.first == m->phase; });
    if (book == seen.end()) book = seen.insert(seen.end(), {m->phase, {}});
    if (book->second.contains(m->sender)) continue;
    book->second.insert(m->sender);
    picked.push_back(*m);
    if (picked.size() == kMaxAttachments) break;
  }
  just_cache_.key = fp;
  return picked;
}

// ---------------------------------------------------------------- task T2 --

void Process::on_datagram(ProcessId src, BytesView payload) {
  if (halted_) return;
  if (!running_) {
    // OS buffer until propose(); the view dies with this call, so copy.
    prestart_.emplace_back(src, Bytes(payload.begin(), payload.end()));
    return;
  }
  // Decode, summarize and authenticate on the host: shared across all
  // receivers via the prepared-exchange pool when one is installed,
  // otherwise privately per delivery, with the per-message memo inside
  // ingest() (the A/B baseline the benches measure against). Verdicts and
  // summaries are pure functions of the payload bytes, so both paths drive
  // the identical protocol behaviour.
  const ExchangePool::Prepared* prep = nullptr;
  std::optional<Datagram> local;
  if (exchange_pool_ != nullptr) {
    prep = &exchange_pool_->acquire(src, payload);
    if (!prep->datagram.has_value()) return;  // malformed — Byzantine garbage
  } else {
    local = Datagram::decode(payload);
    if (!local) return;  // malformed — Byzantine garbage
  }
  const Datagram& decoded = prep ? *prep->datagram : *local;
  ++stats_.datagrams_received;

  // Authenticating each contained message costs one hash in *virtual* time
  // regardless of how the host computed the verdicts (each simulated node
  // hashes independently); charge the CPU and process once the virtual
  // verification work completes.
  const std::size_t contained = 1 + decoded.justification.size();
  const SimDuration cost =
      costs_.udp_recv +
      static_cast<SimDuration>(contained) * costs_.ots_verify();
  TURQ_TRACE_EVENT(.at = rt_.now(), .category = trace::Category::kCrypto,
                   .kind = trace::Kind::kCryptoOp, .process = id_,
                   .phase = phase_, .value = cost,
                   .bytes = static_cast<std::uint32_t>(contained));
  trace::observe("crypto.verify_us",
                 {10, 20, 50, 100, 200, 500, 1000, 2000, 5000},
                 static_cast<double>(cost) / 1000.0);
  // Both completions capture `this`, and the pooled one a pool entry (its
  // payload, datagram and verdicts). After crash() they return at once, but
  // they still run: an owner may destroy a crashed Process (and its pool)
  // only after its runtime has run every completion queued before the
  // crash. The service reclaims finished instances on that contract
  // (DESIGN.md §15).
  if (prep != nullptr) {
    rt_.execute(cost, [this, prep] {
      if (!running_) return;
      process_exchange(*prep->datagram, prep->summary, prep->auth);
    });
  } else {
    rt_.execute(cost, [this, d = std::move(*local)] {
      if (!running_) return;
      process_exchange(d, ExchangeSummary::of(d, cfg_), {});
    });
  }
}

void Process::process_exchange(const Datagram& d,
                               const ExchangeSummary& summary,
                               const std::vector<std::uint8_t>& auth) {
  // ingest() returns at its range and view gates for every message whose
  // (sender, phase) is out of range or already in V, and V does not change
  // while the messages are ingested. So subtracting V's senders per phase
  // up front leaves exactly the messages that get past those gates; the
  // rest are skipped, and a datagram with nothing new returns here. A
  // phase the summary could not list (overflow) leaves its messages to
  // ingest()'s own gates.
  std::array<SenderSet, ExchangeSummary::kMaxPhases> fresh;
  bool any_fresh = summary.overflow;
  for (std::size_t i = 0; i < summary.count; ++i) {
    fresh[i] = summary.senders[i] - view_.senders_at(summary.phases[i]);
    any_fresh = any_fresh || !fresh[i].empty();
  }
  if (!any_fresh) return;
  const auto candidate = [&](const Message& m) {
    for (std::size_t i = 0; i < summary.count; ++i) {
      if (summary.phases[i] == m.phase) return fresh[i].contains(m.sender);
    }
    return summary.overflow;  // out of range, or a phase beyond the list
  };
  // An empty `auth` means no pre-computed verdicts: every ingest falls
  // back to the per-message memo (the pool-less path).
  const auto verdict_at = [&](std::size_t i) -> int {
    return auth.empty() ? -1 : static_cast<int>(auth[i]);
  };
  bool pushed = false;
  for (std::size_t i = 0; i < d.justification.size(); ++i) {
    if (candidate(d.justification[i]) &&
        ingest(d.justification[i], verdict_at(i))) {
      pushed = true;
    }
  }
  if (candidate(d.main) && ingest(d.main, verdict_at(d.justification.size()))) {
    pushed = true;
  }
  // The fixpoint reads only V, pending_, claimed_ and corroboration_;
  // outside it those change only when ingest() stages a message, and every
  // fixpoint runs to completion. So with nothing newly pending it would
  // accept nothing: skip it and the transitions.
  if (!pushed) return;
  const Phase before = phase_;
  bool grew = drain_pending();
  while (grew) {
    const bool advanced = run_transitions();
    maybe_decide();
    // Transitions may make previously pending messages valid.
    grew = advanced && drain_pending();
  }
  // A phase change acts as an immediate clock tick (one broadcast even if
  // several phases cascaded).
  if (phase_ != before) broadcast_state();
}

bool Process::ingest(const Message& m, int pre_verdict) {
  if (m.sender >= cfg_.n || m.phase == 0 || m.phase > cfg_.max_phase) {
    return false;
  }
  if (view_.has(m.sender, m.phase)) return false;
  // Pending deduplication is by full content, not (sender, phase): the
  // status field is not covered by the one-time signature, so an attacker
  // can replay an honest message with a mutated status (§6.1 caveat). Both
  // variants must stay candidates; only a semantically valid one reaches V.
  const bool already_pending =
      std::any_of(pending_.begin(), pending_.end(),
                  [&](const Message& p) { return p == m; });
  if (already_pending) return false;
  const bool authentic_m = pre_verdict >= 0
                               ? pre_verdict != 0
                               : verify_memo_.check(keys_, cfg_, m);
  if (!authentic_m) {
    ++stats_.auth_failures;
    return false;
  }
  ++stats_.messages_authenticated;
  claimed_[m.sender] = std::max(claimed_[m.sender], m.phase);
  corroboration_[{m.phase, static_cast<std::uint8_t>(m.value)}].insert(
      m.sender);
  pending_.push_back(m);
  if (pending_.size() > kMaxPending) prune_pending();
  stats_.still_pending = std::max(stats_.still_pending,
                                  static_cast<std::uint64_t>(pending_.size()));
  return true;
}

bool Process::drain_pending() {
  bool any = false;
  bool progress = true;
  while (progress) {
    progress = false;
    const SemanticValidator validator(cfg_, view_, &claimed_, &corroboration_);
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (validator.valid(*it)) {
        if (view_.insert(*it)) {
          ++stats_.accepted;
          any = true;
        }
        it = pending_.erase(it);
        progress = true;
      } else {
        ++it;
      }
    }
    if (!progress && cfg_.decision_certificates) {
      progress = apply_decision_certificates();
      any = any || progress;
    }
  }
  return any;
}

bool Process::apply_decision_certificates() {
  // A quorum of authentic messages agreeing on (DECIDE phase, binary value)
  // is self-certifying: quorum intersection places a correct process that
  // validly reached that state inside any such set (DESIGN.md §5). Count
  // distinct senders across V and the pending pool, then admit the pending
  // members wholesale.
  bool inserted = false;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const Message& seed = pending_[i];
    if (seed.phase % 3 != 0 || !is_binary(seed.value)) continue;
    SenderSet senders;  // n <= SenderSet::kCapacity in all deployments here
    std::size_t count = view_.count_phase_value(seed.phase, seed.value);
    for (const Message& m : pending_) {
      if (m.phase != seed.phase || m.value != seed.value) continue;
      // The bitset is total: ingest() rejects sender >= cfg_.n and
      // Config::validate pins n <= 128, so no sender can silently skip the
      // view-presence check (harness::validate enforces the same ceiling
      // at the scenario boundary).
      if (!view_.has(m.sender, m.phase) && !senders.contains(m.sender)) {
        senders.insert(m.sender);
        ++count;
      }
    }
    if (!cfg_.exceeds_quorum(count)) continue;
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->phase == seed.phase && it->value == seed.value) {
        if (view_.insert(*it)) {
          ++stats_.accepted;
          inserted = true;
        }
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
    break;  // restart the fixpoint with the grown view
  }
  return inserted;
}

void Process::prune_pending() {
  // Drop entries far below the current phase; they can no longer matter.
  const Phase floor = phase_ > 6 ? phase_ - 6 : 1;
  std::erase_if(pending_, [&](const Message& m) { return m.phase < floor; });
  // Still oversized (e.g. a flood of future phases): drop the farthest.
  if (pending_.size() > kMaxPending) {
    std::sort(pending_.begin(), pending_.end(),
              [](const Message& a, const Message& b) { return a.phase < b.phase; });
    pending_.resize(kMaxPending / 2);
  }
}

bool Process::run_transitions() {
  bool changed_any = false;
  for (;;) {
    // Lines 10-18: adopt the state of a valid higher-phase message.
    const Message* highest = view_.highest_phase_message();
    if (highest != nullptr && highest->phase > phase_) {
      adopt(*highest);
      changed_any = true;
      continue;
    }
    // Lines 19-39: quorum of messages at the current phase.
    if (cfg_.exceeds_quorum(view_.count_phase(phase_))) {
      quorum_transition();
      changed_any = true;
      continue;
    }
    break;
  }
  return changed_any;
}

void Process::adopt(const Message& m) {
  ++stats_.phase_jumps;
  phase_ = m.phase;
  if (phase_ % 3 == 1 && m.from_coin && m.status != Status::kDecided) {
    // Line 12-13: a coin-derived value cannot be trusted from others
    // (Byzantine coins are not fair) — flip locally instead. A *decided*
    // message is exempt: its value is pinned by the decide-phase quorum the
    // validator demanded (validation.cpp catch-up rule), and re-flipping it
    // locally while inheriting status = decided below would let this
    // process decide a fresh coin toss — the opposite value with
    // probability 1/2, an agreement violation an insider can force by
    // stamping from_coin onto a decided broadcast (neither flag is covered
    // by the one-time signature). Found by turquois_fuzz; regression in
    // tests/turquois_protocol_test.cpp.
    ++stats_.coin_flips;
    value_ = binary_value(rng_.coin());
    from_coin_ = true;
    TURQ_TRACE_EVENT(.at = rt_.now(), .category = trace::Category::kProtocol,
                     .kind = trace::Kind::kCoinFlip, .process = id_,
                     .phase = phase_,
                     .value = static_cast<std::int64_t>(value_));
  } else {
    value_ = m.value;
    from_coin_ = m.from_coin;
  }
  status_ = m.status;
  jump_source_ = m;
  TURQ_TRACE_EVENT(.at = rt_.now(), .category = trace::Category::kProtocol,
                   .kind = trace::Kind::kPhaseEnter, .process = id_,
                   .phase = phase_, .value = 1);  // value=1: entered by jump
  if (on_phase_) on_phase_(phase_, rt_.now());
}

void Process::quorum_transition() {
  ++stats_.quorum_transitions;
  switch (phase_ % 3) {
    case 1: {  // CONVERGE (lines 20-21)
      value_ = view_.majority_value(phase_);
      from_coin_ = false;
      break;
    }
    case 2: {  // LOCK (lines 22-27)
      const auto locked = view_.binary_value_where(
          phase_, [&](std::size_t c) { return cfg_.exceeds_quorum(c); });
      value_ = locked.value_or(Value::kBottom);
      from_coin_ = false;
      break;
    }
    default: {  // DECIDE (lines 28-37)
      const auto winner = view_.binary_value_where(
          phase_, [&](std::size_t c) { return cfg_.exceeds_quorum(c); });
      if (winner.has_value()) {
        status_ = Status::kDecided;
        decide_phase_ = phase_;
      }
      const auto present = view_.binary_value_where(
          phase_, [](std::size_t c) { return c >= 1; });
      if (present.has_value()) {
        // Prefer the quorum value when both are nominally present (only
        // possible under validator edge cases; deterministic either way).
        value_ = winner.value_or(*present);
        from_coin_ = false;
      } else {
        ++stats_.coin_flips;
        value_ = binary_value(rng_.coin());
        from_coin_ = true;
        TURQ_TRACE_EVENT(.at = rt_.now(),
                         .category = trace::Category::kProtocol,
                         .kind = trace::Kind::kCoinFlip, .process = id_,
                         .phase = phase_,
                         .value = static_cast<std::int64_t>(value_));
      }
      break;
    }
  }
  phase_ += 1;  // line 38
  jump_source_.reset();
  TURQ_TRACE_EVENT(.at = rt_.now(), .category = trace::Category::kProtocol,
                   .kind = trace::Kind::kPhaseEnter, .process = id_,
                   .phase = phase_);
  if (on_phase_) on_phase_(phase_, rt_.now());
}

std::string Process::explain_pending() const {
  const SemanticValidator validator(cfg_, view_, &claimed_, &corroboration_);
  std::string out;
  for (const Message& m : pending_) {
    char line[176];
    std::snprintf(line, sizeof(line),
                  "  <s=%u phi=%u v=%s st=%s coin=%d> phase=%d value=%d "
                  "status=%d corr=%d\n",
                  m.sender, m.phase, to_string(m.value).c_str(),
                  to_string(m.status).c_str(), m.from_coin ? 1 : 0,
                  validator.phase_valid(m) ? 1 : 0,
                  validator.value_valid(m) ? 1 : 0,
                  validator.status_valid(m) ? 1 : 0,
                  validator.corroborated(m) ? 1 : 0);
    out += line;
  }
  return out;
}

void Process::maybe_decide() {
  // Lines 40-42, with the write-once decision variable.
  if (status_ != Status::kDecided || decision_.has_value()) return;
  TURQ_ASSERT_MSG(is_binary(value_), "decided on a non-binary value");
  decision_ = value_;
  TURQ_DEBUG("p%u decided %s at phase %u t=%.3fms", id_,
             to_string(value_).c_str(), phase_, to_milliseconds(rt_.now()));
  TURQ_TRACE_EVENT(.at = rt_.now(), .category = trace::Category::kProtocol,
                   .kind = trace::Kind::kDecide, .process = id_,
                   .phase = phase_,
                   .value = static_cast<std::int64_t>(*decision_));
  trace::observe("turquois.decide_phase", {3, 6, 9, 12, 15, 18, 24, 30},
                 phase_);
  if (on_decide_) on_decide_(*decision_, phase_, rt_.now());
}

}  // namespace turq::turquois
