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
// explicitly justified state every tick. The justification rules are
// written once, as a list of view-book requests (justification_key()); the
// list with each book's size is the key of the one broadcast memo, and the
// attachments are picked from the same list. A re-send whose key matches
// hands the port the same framed buffer as the last one. Each new buffer a
// correct process encodes is published to its exchange pool with the
// datagram it came from, so receivers of the shared pool find the entry by
// the buffer's address and nobody decodes it.
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
  /// authenticity, computed once per unique payload across all receivers;
  /// correct senders publish their own payloads into it). Optional;
  /// without it the process builds a private pool of its own.
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
    /// Key epochs past the first that this process signed in: one per
    /// epoch its broadcasts rolled over into.
    std::uint64_t key_rollovers = 0;
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
  /// Per summary phase, the listed senders V does not hold yet; `any` is
  /// true when some contained message can get past ingest()'s range and
  /// view gates (an overflowed summary always counts as fresh).
  struct Freshness {
    std::array<SenderSet, ExchangeSummary::kMaxPhases> senders;
    bool any = false;
  };
  [[nodiscard]] Freshness fresh_senders(const ExchangeSummary& summary) const;
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

  /// One justification rule's request: up to `limit` messages of the view's
  /// phase-`phase` book (only those carrying `value`, if given) in sender
  /// order, and the book's size when the request was made. Phase 0 requests
  /// the jump source instead.
  struct BookRequest {
    Phase phase = 0;
    std::optional<Value> value;
    std::size_t limit = 0;
    std::size_t count = 0;
    bool operator==(const BookRequest&) const = default;
  };
  /// A broadcast of the current state: its tuple and the requests of the
  /// justification rules in rule order (none when it is not justified).
  /// Books only grow, so equal counts mean equal books; jump_source_ and
  /// decide_phase_ change only together with the phase. Equal keys
  /// therefore pick equal attachments and encode equal bytes.
  struct BroadcastKey {
    /// Root evidence 2, phase rule 1, value rule 2, undecided status 5.
    static constexpr std::size_t kMaxRequests = 10;
    Phase phase = 0;
    Value value = Value::kZero;
    Status status = Status::kUndecided;
    bool from_coin = false;
    bool root_evidence = false;
    std::array<BookRequest, kMaxRequests> requests{};
    std::size_t request_count = 0;
    bool operator==(const BroadcastKey&) const = default;
  };
  /// The justification rules: the only place that says which books a
  /// broadcast reads.
  [[nodiscard]] BroadcastKey justification_key(bool justify,
                                               bool root_evidence) const;
  /// The attachments `key` requests: the rule-ordered candidates,
  /// deduplicated by (sender, phase) and capped at kMaxAttachments.
  void pick(const BroadcastKey& key, std::vector<Message>& out);

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
  /// The latest key epoch this process has signed in.
  std::uint32_t signing_epoch_ = 0;

  // The broadcast memo. A stalled process re-sends the same justified
  // state every tick; while the key holds, the attachments are not picked
  // again, and a correct process re-sends the buffer it encoded last (the
  // endpoint airs it again and the exchange pool finds its entry by
  // address). A Byzantine mutator may consume randomness, so it still runs
  // on every broadcast, over the memoized picks.
  std::optional<BroadcastKey> memo_key_;
  net::FramedPayload memo_payload_;  // unset when a mutator is installed
  /// The outgoing datagram; its justification holds the memoized picks.
  Datagram outgoing_;
  // pick() scratch, reused so a pick allocates nothing once the vectors
  // have grown: the candidates (pointers into the view, which is not
  // mutated while picking) and one sender set per phase they span.
  std::vector<const Message*> candidates_;
  std::vector<std::pair<Phase, SenderSet>> seen_;

  DecideHandler on_decide_;
  PhaseHandler on_phase_;
  Mutator mutator_;
  Stats stats_;
};

}  // namespace turq::turquois
