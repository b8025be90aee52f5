// The Turquois process: Algorithm 1 of the paper.
//
// Two tasks drive the protocol:
//   T1 — on every local clock tick (10 ms by default, or immediately after a
//        phase change) broadcast ⟨i, φ_i, v_i, status_i⟩;
//   T2 — on message arrival, authenticate and semantically validate it
//        (pending messages are retried as V grows, which subsumes explicit
//        justification), then apply the state-transition rules:
//        jump to a higher phase carried by a valid message, or, with more
//        than (n+f)/2 messages at the current phase, run the
//        CONVERGE / LOCK / DECIDE transition and advance one phase.
//
// T1 mostly repeats itself: a stalled process re-broadcasts an unchanged,
// explicitly justified state every tick. Such a re-send hands the port the
// same shared payload object as the last one (see EncodedCache), so the
// layers below copy and hash each distinct payload once.
//
// A `mutate_outgoing` hook lets the adversary module install the paper's
// Byzantine strategies; the mutated message is re-signed with the process's
// own one-time keys (Byzantine processes are insiders and hold real keys).
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "crypto/cost_model.hpp"
#include "net/datagram_port.hpp"
#include "runtime/runtime.hpp"
#include "turquois/config.hpp"
#include "turquois/exchange_pool.hpp"
#include "turquois/key_infra.hpp"
#include "turquois/message.hpp"
#include "turquois/validation.hpp"
#include "turquois/view.hpp"

namespace turq::turquois {

/// Decision callback: value, the phase at which it was reached, sim time.
using DecideHandler = std::function<void(Value, Phase, SimTime)>;
/// Phase-entry callback: the phase entered (via propose, a quorum
/// transition, or a jump) and the sim time. Purely observational — used
/// by the consensus auditor; never steers protocol behaviour.
using PhaseHandler = std::function<void(Phase, SimTime)>;
/// Byzantine strategy hook, applied to every outgoing main message before
/// it is signed. Must keep (phase, value) inside the one-time key domain.
using Mutator = std::function<void(Message&)>;

/// Every observation/extension point a Process exposes, bundled so
/// construction states the full contract in one place. All fields
/// optional; default hooks observe nothing and mutate nothing.
struct ProcessHooks {
  DecideHandler on_decide;
  PhaseHandler on_phase;
  Mutator mutate_outgoing;
  /// Shares a per-repetition prepared-exchange cache (decode + batched
  /// authenticity, computed once per unique payload across all receivers).
  /// Optional; without it the process builds a private pool of its own.
  /// Verdicts are pure functions of the payload bytes, so the observable
  /// run is the same either way — see exchange_pool.hpp.
  ExchangePool* exchange_pool = nullptr;
};

class Process {
 public:
  using DecideHandler = turquois::DecideHandler;
  using PhaseHandler = turquois::PhaseHandler;
  using Mutator = turquois::Mutator;

  /// Most justification messages one datagram carries: keeps it within one
  /// MSDU (each attachment is ~47 bytes with its revealed key; the medium
  /// enforces the hard limit).
  static constexpr std::size_t kMaxAttachments = 42;

  /// Runtime-agnostic constructor: the process runs wherever `rt` ticks —
  /// the deterministic simulator (runtime::SimRuntime) or real sockets and
  /// wall-clock timers (runtime::UdpRuntime). `rt` and `endpoint` must
  /// outlive the process.
  Process(runtime::Runtime& rt, net::DatagramPort& endpoint,
          const Config& config, const KeyInfrastructure& keys, ProcessId id,
          Rng rng, const crypto::CostModel& costs, ProcessHooks hooks = {});

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  ~Process();

  /// Sets the initial proposal and starts task T1. May be called once.
  void propose(Value initial);

  /// Halts all activity (fail-stop).
  void crash();

  [[nodiscard]] ProcessId id() const { return id_; }
  [[nodiscard]] Phase phase() const { return phase_; }
  [[nodiscard]] Value value() const { return value_; }
  [[nodiscard]] Status status() const { return status_; }
  [[nodiscard]] bool decided() const { return decision_.has_value(); }
  [[nodiscard]] Value decision() const { return *decision_; }
  /// The DECIDE phase whose quorum produced the decision, or 0 when the
  /// decision was adopted from another process's kDecided message.
  [[nodiscard]] Phase decide_phase() const { return decide_phase_; }
  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] const View& view() const { return view_; }

  struct Stats {
    std::uint64_t broadcasts = 0;
    std::uint64_t datagrams_received = 0;
    std::uint64_t messages_authenticated = 0;
    std::uint64_t auth_failures = 0;
    std::uint64_t accepted = 0;           // moved into V
    std::uint64_t still_pending = 0;      // high-water mark of pending pool
    std::uint64_t quorum_transitions = 0;
    std::uint64_t phase_jumps = 0;
    std::uint64_t coin_flips = 0;
    bool operator==(const Stats&) const = default;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Human-readable dump of the pending pool and, per entry, which
  /// validation rule it currently passes (1) or fails (0), judged exactly as
  /// drain_pending() judges it: phase, value and status, plus `corr`, the
  /// corroboration rule that admits an undecided entry outright.
  [[nodiscard]] std::string explain_pending() const;

 private:
  // T1.
  void on_tick();
  void broadcast_state();
  void schedule_tick();

  // T2.
  void on_datagram(ProcessId src, BytesView payload);
  /// Stages `m` as pending after the dedup gates; true if it did.
  /// `authentic_m` is the pool's batch-computed authenticity verdict.
  bool ingest(const Message& m, bool authentic_m);
  /// The T2 body: ingest the contained messages that the entry's summary
  /// shows are new to V, then run the validation fixpoint + transitions if
  /// anything became pending.
  void process_exchange(const ExchangePool::Prepared& prep);
  bool drain_pending();                   // fixpoint; true if V grew
  bool apply_decision_certificates();     // collective quorum acceptance
  bool run_transitions();                 // lines 10-39; true if state changed
  void adopt(const Message& m);           // lines 11-17
  void quorum_transition();               // lines 20-38
  void maybe_decide();                    // lines 40-42
  void prune_pending();

  /// The attachments for a justified broadcast of the current state: the
  /// rule-ordered candidates, deduplicated by (sender, phase) and capped at
  /// kMaxAttachments. The reference stays valid until the next call.
  [[nodiscard]] const std::vector<Message>& build_justification(
      bool with_root_evidence) const;

  runtime::Runtime& rt_;
  net::DatagramPort& endpoint_;
  const Config& cfg_;
  const KeyInfrastructure& keys_;
  ProcessId id_;
  Rng rng_;
  const crypto::CostModel& costs_;

  // Algorithm state (lines 1-4).
  Phase phase_ = 1;
  Value value_ = Value::kZero;
  Status status_ = Status::kUndecided;
  bool from_coin_ = false;
  View view_;
  std::optional<Value> decision_;
  Phase decide_phase_ = 0;

  std::vector<Message> pending_;            // authentic, not yet semantically valid
  std::vector<Phase> claimed_;              // per-sender max authentic phase
  CorroborationIndex corroboration_;        // senders per (phase, value)
  std::unique_ptr<ExchangePool> own_pool_;  // when the hooks share none
  ExchangePool& exchange_pool_;             // decodes + verifies deliveries
  std::optional<Message> jump_source_;      // justification for a jumped phase
  bool running_ = false;
  bool halted_ = false;
  bool proposed_ = false;
  std::vector<std::pair<ProcessId, Bytes>> prestart_;
  runtime::TimerId tick_timer_ = runtime::kInvalidTimer;

  // Explicit-justification trigger: last broadcast state and how many
  // consecutive ticks re-sent it (escalation counter).
  std::optional<std::tuple<Phase, Value, Status>> last_sent_;
  std::uint32_t repeat_count_ = 0;

  // Memos for the broadcast path. A stalled process re-sends the same
  // justified state every tick, reassembling (and re-encoding) up to 42
  // attachments from fresh view scans each time — the single hottest host
  // cost at n=128. Both caches key on a *fingerprint* of exactly the view
  // state the assembly reads: the broadcast tuple plus the message count
  // of each phase book the justification rules consult (phase 1, φ-1,
  // φ-2, the decide phase, and the lock/decide phases below φ). Phase
  // books only grow, and every selection rule (quorum thresholds,
  // first-`want` picks in sender order) changes its output only when one
  // of those books gains a message — which bumps that book's count. The
  // jump_source_ and decide_phase_ inputs only ever change together with
  // phase or status, which the tuple already carries.
  struct BroadcastFingerprint {
    Phase phase = 0;
    Value value = Value::kZero;
    Status status = Status::kUndecided;
    bool from_coin = false;
    bool root_evidence = false;
    std::array<std::size_t, 6> phase_counts{};
    bool operator==(const BroadcastFingerprint&) const = default;
  };
  [[nodiscard]] BroadcastFingerprint fingerprint(bool root_evidence) const;

  struct JustificationCache {
    std::optional<BroadcastFingerprint> key;
    std::vector<Message> messages;
    // Scratch reused across rebuilds, so a rebuild allocates nothing once
    // the vectors have grown: the rule-ordered candidates (pointers into
    // the view, which is not mutated during assembly) and one sender set
    // per phase they span.
    std::vector<const Message*> candidates;
    std::vector<std::pair<Phase, SenderSet>> seen;
  };
  mutable JustificationCache just_cache_;
  /// The outgoing datagram, reused by every broadcast for its
  /// justification vector's capacity.
  Datagram outgoing_;

  // Whole-payload memo: when the fingerprint matches and no Byzantine
  // mutator is installed (a mutator may consume randomness, so it must
  // run every time), the previously encoded datagram is re-sent as the
  // same shared object. Covers justification assembly, signing, and
  // encoding; the endpoint below then reuses its padded frame, and the
  // exchange pool finds the entry through this sender's memo.
  struct EncodedCache {
    std::optional<BroadcastFingerprint> key;
    SharedBytes payload;
  };
  EncodedCache encoded_cache_;

  DecideHandler on_decide_;
  PhaseHandler on_phase_;
  Mutator mutator_;
  Stats stats_;
};

}  // namespace turq::turquois
