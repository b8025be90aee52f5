// Experiment harness reproducing the paper's methodology (§7.2).
//
// A scenario is (protocol × group size × proposal distribution × fault
// load). Each repetition builds a fresh simulated deployment; processes
// start within a small window (the spread of the signaling machine's
// 1-byte UDP broadcast); per-process latency is the interval between that
// process's propose() and its decide. A scenario pools the latencies of
// all correct processes over all repetitions and reports mean ± 95% CI,
// exactly how the paper's tables are built.
//
// Repetitions are independent (run_once is pure in (cfg, rep_index)) and
// are executed by the scheduler in scheduler.hpp — sequentially or across
// a worker pool (ScenarioConfig::jobs) with bit-identical pooled results.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "audit/audit.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "crypto/cost_model.hpp"
#include "faultplan/plan.hpp"
#include "net/fault_injector.hpp"
#include "net/medium.hpp"
#include "net/reliable_channel.hpp"
#include "service/config.hpp"
#include "spatial/relay.hpp"
#include "spatial/topology.hpp"
#include "turquois/key_infra.hpp"

namespace turq::harness {

enum class Protocol { kTurquois, kBracha, kAbba, kCrain, kAbsMac };
enum class ProposalDist { kUnanimous, kDivergent };

/// Which outgoing-message strategy Byzantine Turquois processes run. The
/// paper's evaluation strategy (§7.2) is value inversion; the decided-coin
/// forge is the insider attack on the unsigned (status, from_coin) header
/// bits that turquois_fuzz surfaced (see adversary/strategies.hpp). Bracha
/// and ABBA ignore this knob — their strategies are enums in each baseline.
enum class TurquoisAttack { kValueInversion, kDecidedCoinForge };

std::string to_string(TurquoisAttack a);

std::string to_string(Protocol p);
std::string to_string(ProposalDist d);

/// Inverses of to_string for the CLI spellings.
[[nodiscard]] std::optional<ProposalDist> parse_dist(std::string_view text);
[[nodiscard]] std::optional<TurquoisAttack> parse_attack(
    std::string_view text);

struct ScenarioConfig {
  Protocol protocol = Protocol::kTurquois;
  /// Group size; must be >= 4 (the smallest group with f >= 1).
  std::uint32_t n = 4;
  ProposalDist distribution = ProposalDist::kUnanimous;

  /// The fault campaign. When set it fully describes the injected faults
  /// (ambient loss applies only through a kAmbient clause). Unset runs the
  /// canned failure-free plan. (The former FaultLoad alias is retired —
  /// use faultplan::canned_plan / faultplan::plan_from_name for the paper's
  /// three table campaigns.)
  std::optional<faultplan::FaultPlan> plan;
  /// Byzantine strategy for Turquois faulty processes (see TurquoisAttack).
  TurquoisAttack attack = TurquoisAttack::kValueInversion;

  /// Run the consensus auditor over every repetition (default on). The
  /// auditor is purely observational — it consumes no randomness and sends
  /// nothing — so enabling it never changes latencies, counters, or report
  /// bytes beyond the added "audit" object.
  bool audit = true;
  /// When > 0 and the repetition is σ-liveness-eligible, a correct process
  /// deciding at a phase above this bound is flagged as a liveness
  /// violation. 0 = deadline-only liveness checking.
  std::uint64_t audit_phase_bound = 0;
  /// Root seed. Everything a scenario does is a pure function of this seed
  /// (plus the config), including the parallel schedule's pooled output.
  std::uint64_t seed = 1;
  /// Number of independent repetitions to pool; must be >= 1.
  std::uint32_t repetitions = 50;

  /// Worker threads for the repetition scheduler: 1 = run sequentially on
  /// the calling thread (the default), 0 = auto-detect the hardware
  /// concurrency, N > 1 = a pool of N std::jthread workers. Has no effect
  /// on results: pooled statistics, table cells, JSON reports, and traces
  /// are bit-identical for any jobs value (see DESIGN.md §Experiment
  /// harness).
  std::uint32_t jobs = 1;

  /// Always 1: a repetition runs on one thread (DESIGN.md §14). The field
  /// remains only because perfbench/, which is frozen, assigns it;
  /// validate() rejects any other value.
  std::uint32_t intra_jobs = 1;
  /// Always true: every repetition shares one decode+verify per unique
  /// broadcast payload across its receivers (DESIGN.md §14). The field
  /// remains only because perfbench/, which is frozen, reads it;
  /// validate() rejects false.
  bool exchange_pool = true;

  /// Wall guard per repetition (simulated time).
  SimDuration run_timeout = 120 * kSecond;

  /// Spread of the start signal across processes.
  SimDuration start_spread = 2 * kMillisecond;

  /// Ambient iid frame loss on top of collisions (interference, fading).
  double loss_rate = 0.01;

  /// Bursty ambient loss (Gilbert-Elliott), modeling the correlated fade /
  /// interference episodes of a real 802.11b cell. Bursts are what give the
  /// fail-stop load its characteristic penalty and wide confidence
  /// intervals: with only n-f processes alive every quorum needs every
  /// survivor, so a bad-state episode stalls whole retransmission ticks.
  bool bursty_loss = true;
  net::GilbertElliott::Params burst_params{
      .mean_good_dwell = 800 * kMillisecond,
      .mean_bad_dwell = 60 * kMillisecond,
      .loss_good = 0.0,
      .loss_bad = 0.45};

  net::MediumConfig medium;
  crypto::CostModel costs;

  /// Spatial topology/mobility. The default (single-hop placement, or any
  /// placement with radius=inf) installs no spatial layer at all and runs
  /// the legacy everyone-hears-everyone medium byte-identically. When
  /// spatial.active(), σ tracking is forced on (plan.with_sigma()) and the
  /// medium's reachability losses feed the σ accountant.
  spatial::SpatialConfig spatial;
  /// Gossip relay knobs, used only when `spatial.active()` and
  /// `relay_enabled` (Turquois's broadcast endpoints route through a
  /// spatial::RelayFabric so multi-hop groups still see every state).
  /// The TCP baselines keep direct unicast either way — out of direct
  /// range their segments are simply lost (counted `unreachable`).
  spatial::RelayConfig relay;
  bool relay_enabled = true;

  /// Reliable-channel knobs for the baselines (authentication is forced on
  /// for Bracha and off for ABBA regardless of this field).
  net::TcpConfig tcp;

  /// Turquois-specific knobs.
  SimDuration tick_interval = 10 * kMillisecond;
  SimDuration tick_jitter = 2 * kMillisecond;

  /// Multi-instance consensus service (replicated queue + open-loop client
  /// workload; see service/service.hpp). Disabled by default — the flag
  /// only takes effect through service::run_service, never run_scenario,
  /// so plain scenarios are byte-identical with the service compiled in.
  service::ServiceConfig service;

  /// When set, every repetition runs under a trace::Tracer and flushes its
  /// event stream and metrics into this sink (one kRepBegin/kRepEnd-marked
  /// block per repetition). Not owned; must outlive the scenario.
  trace::Sink* trace_sink = nullptr;
  /// Also record one trace event per simulator dispatch (voluminous).
  bool trace_sim_events = false;
  /// When set, installed on every repetition's medium
  /// (net::Medium::BroadcastTap): sees each broadcast frame handed to it.
  /// Observational only; with jobs > 1 it runs on the worker threads.
  net::Medium::BroadcastTap broadcast_tap;

  /// Tolerated faults: f = floor((n-1)/3), the paper's resilience bound.
  [[nodiscard]] std::uint32_t f() const { return (n - 1) / 3; }
  /// Decision quorum: k = n - f processes must decide for k-consensus.
  [[nodiscard]] std::uint32_t k() const { return n - f(); }

  /// The plan this scenario actually runs: `plan` when set, otherwise the
  /// canned failure-free plan.
  [[nodiscard]] faultplan::FaultPlan effective_plan() const;
  /// Label for tables and report cells — the effective plan's name. Canned
  /// plans keep the legacy strings ("failure-free", "fail-stop",
  /// "Byzantine"), so legacy report bytes are unchanged.
  [[nodiscard]] std::string fault_label() const;
};

/// Checks a config for values that would silently run a degenerate
/// scenario. Returns a human-readable reason when invalid, std::nullopt
/// when the config is runnable. run_scenario() enforces this by throwing
/// std::invalid_argument; CLI front-ends call it directly to print a clear
/// error instead.
[[nodiscard]] std::optional<std::string> validate(const ScenarioConfig& cfg);

/// Outcome of one repetition.
struct RunResult {
  /// Every process in the correct set decided before the deadline.
  bool all_correct_decided = false;
  /// At least k = n - f processes decided (the k-consensus success bar).
  bool k_decided = false;
  /// No two correct processes decided different values.
  bool agreement_held = true;
  /// Under the unanimous load, nobody decided the non-proposed value.
  bool validity_held = true;
  /// The agreed value, when at least one correct process decided.
  std::optional<Value> decision;
  std::vector<double> latencies_ms;  // one per decided correct process
  net::MediumStats medium;           // channel counters for this repetition
  std::uint64_t app_messages = 0;    // protocol-level point-to-point sends
  /// Simulator events dispatched in this repetition (host work, not a
  /// paper quantity); bench/large_n gates it per decision. Reports do not
  /// print it.
  std::uint64_t sim_events = 0;
  /// Datagram::decode calls of the repetition's exchange pools (host work,
  /// the same on every host); bench/large_n gates it per decision. Reports
  /// do not print it.
  std::uint64_t datagram_decodes = 0;
  net::TcpHost::Stats tcp;           // summed over hosts (TCP transports)
  /// Per-round σ accounting; present iff the effective plan tracks σ
  /// (always the case for spatial scenarios).
  std::optional<faultplan::SigmaSummary> sigma;
  /// Consensus-property audit for this repetition; present iff
  /// ScenarioConfig::audit was set.
  std::optional<audit::AuditReport> audit;
  /// Topology/relay counters; present iff the scenario is spatial.
  std::optional<spatial::SpatialStats> spatial;
  /// Service-layer counters; present iff the repetition ran under
  /// service::run_service (latencies_ms then holds per-request
  /// arrival->commit latencies instead of per-process decision latencies).
  std::optional<service::RepSummary> service;
};

/// σ accounting pooled over a scenario's repetitions.
struct SigmaAggregate {
  std::int64_t bound = 0;              // per-round bound (same every rep)
  std::uint64_t rounds = 0;            // summed over repetitions
  std::uint64_t violating_rounds = 0;  // rounds with omissions > bound
  std::uint64_t omissions = 0;         // injected omissions, all reps
  std::uint64_t max_round_omissions = 0;  // worst single round of any rep
  std::uint32_t tracked_reps = 0;      // repetitions with σ data
  std::uint32_t eligible_reps = 0;     // reps with zero violating rounds

  /// The paper's predicate held for every repetition.
  [[nodiscard]] bool liveness_eligible() const {
    return tracked_reps > 0 && eligible_reps == tracked_reps;
  }
};

/// Pooled outcome of a scenario (one table cell).
struct ScenarioResult {
  ScenarioConfig config;
  /// Per-process decision latencies pooled over all completed repetitions,
  /// in repetition order — identical for any ScenarioConfig::jobs value.
  SampleStats latency_ms;
  std::uint32_t failed_runs = 0;     // repetitions missing decisions
  std::uint32_t safety_violations = 0;
  /// Protocol-level sends by correct processes, summed over completed
  /// repetitions — the message-complexity numerator of campaign tables.
  std::uint64_t app_messages = 0;
  /// Simulator events dispatched, summed over completed repetitions.
  std::uint64_t sim_events = 0;
  /// Exchange-pool datagram decodes, summed over completed repetitions.
  std::uint64_t datagram_decodes = 0;
  net::MediumStats medium_total;     // channel counters summed over reps
  /// Pooled σ accounting; present iff the effective plan tracks σ. Failed
  /// (timed-out) repetitions still contribute — a σ-violating stall is the
  /// data point the accounting exists for.
  std::optional<SigmaAggregate> sigma;
  /// Audit results pooled over every repetition (violating and timed-out
  /// reps included); present iff ScenarioConfig::audit was set.
  std::optional<audit::AuditAggregate> audit;
  /// Spatial counters summed over every repetition (timed-out ones
  /// included — partition metrics of a stalled run are the point);
  /// present iff the scenario is spatial.
  std::optional<spatial::SpatialStats> spatial_total;
  /// Service counters summed over every repetition (timed-out ones
  /// included); present iff the scenario ran under service::run_service,
  /// whose latency_ms then pools per-request arrival->commit latencies and
  /// whose audit counts audited instances rather than repetitions.
  std::optional<service::RepSummary> service_total;

  /// Mean pooled latency in milliseconds.
  [[nodiscard]] double mean() const { return latency_ms.mean(); }
  /// Half-width of the 95% confidence interval on the mean.
  [[nodiscard]] double ci95() const { return latency_ms.ci95_half_width(); }
};

/// Immutable setup shared by every repetition of a scenario: the Turquois
/// key infrastructure and the Bracha pairwise SA keys. Generating key
/// material is the dominant per-repetition setup cost (hundreds of SHA-256
/// key chains per process), and key BYTES never influence protocol
/// dynamics — only their structural relationships do (each revealed SK
/// hashes to its published VK; each SA key pair matches), and those hold
/// identically whichever stream minted them. So the scheduler builds this
/// once (from the repetition-0 stream) and shares it read-only across
/// workers; see DESIGN.md §10 for the full correctness argument. The ABBA
/// dealer is deliberately NOT here: its threshold-signature shares
/// determine the common-coin values, which do steer control flow.
struct ScenarioSetup {
  std::optional<turquois::KeyInfrastructure> turquois_keys;
  std::vector<std::vector<Bytes>> sa_keys;  // [a][b] == [b][a]
};

/// Builds the setup `run_once` would derive for repetition 0 of `cfg`.
[[nodiscard]] std::shared_ptr<const ScenarioSetup> make_scenario_setup(
    const ScenarioConfig& cfg);

/// Runs one repetition with the seed stream Rng::stream(cfg.seed, "rep",
/// rep_index). Pure in (cfg, rep_index): safe to call from any thread, for
/// any subset of indices, in any order.
RunResult run_once(const ScenarioConfig& cfg, std::uint64_t rep_index);

/// As above, reusing a hoisted `setup` (nullptr = derive everything from
/// the repetition stream, exactly the two-argument overload). All observable
/// results — latencies, counters, traces, reports — are identical either
/// way; only wall-clock differs.
RunResult run_once(const ScenarioConfig& cfg, std::uint64_t rep_index,
                   const ScenarioSetup* setup);

/// One row of the protocol registry (protocols.cpp): how a protocol is
/// named on the command line and in reports, and how one repetition of it
/// is deployed. Adding a protocol takes one Protocol value and one row.
struct ProtocolInfo {
  Protocol protocol;
  const char* flag;  ///< CLI spelling ("turquois")
  const char* name;  ///< display name in tables and reports ("Turquois")
  /// Honours ScenarioConfig::attack (the Turquois Byzantine strategies).
  bool byzantine_attacks;
  /// Builds and runs one repetition (run_once's body, under its tracer).
  RunResult (*run)(const ScenarioConfig& cfg, std::uint64_t rep_index,
                   const ScenarioSetup* setup);
  /// Fills the setup make_scenario_setup hoists out of the repetitions.
  void (*hoist)(const ScenarioConfig& cfg, ScenarioSetup& setup);
};

/// Every protocol, in Protocol order.
[[nodiscard]] std::span<const ProtocolInfo> protocols();
[[nodiscard]] const ProtocolInfo& protocol_info(Protocol p);
/// The protocol whose CLI flag is `flag`, if any.
[[nodiscard]] std::optional<Protocol> protocol_from_flag(std::string_view flag);
/// Every CLI flag joined by `sep` ("turquois|bracha|..."), for usage text.
[[nodiscard]] std::string protocol_flags(std::string_view sep);

/// Runs `body`, one repetition of `cfg`, under a fresh trace::Tracer when
/// cfg.trace_sink is set, and flushes it into the sink as one
/// kRepBegin/kRepEnd-marked block.
RunResult traced_repetition(const ScenarioConfig& cfg, std::uint64_t rep_index,
                            const std::function<RunResult()>& body);

/// Runs the full scenario and pools the results in repetition order.
/// cfg.jobs > 1 (or 0 = auto) fans the repetitions out across a worker
/// pool; the pooled result is bit-identical to the sequential run. Throws
/// std::invalid_argument when validate(cfg) reports a problem.
ScenarioResult run_scenario(const ScenarioConfig& cfg);

}  // namespace turq::harness
