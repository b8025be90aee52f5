// The deployment builder: one simulated repetition of any protocol.
//
// The paper's evaluation (§7.2) runs every protocol through the same cell:
// n processes on one 802.11b medium under one fault plan, started within a
// small window, each measured from its propose() to its decision. The
// builder splits that cell along the line its two users share:
//   - a Repetition is the world: the simulator, the medium, the fault plan
//     with its σ meter, the spatial layer and gossip relay, one virtual CPU
//     per node, the 1 ms-slice run loop, and the medium/σ/spatial side of
//     the outcome; its report() is the one place a repetition's counters
//     reach the trace;
//   - a ConsensusInstance is one run of consensus inside it: its auditor,
//     its start offsets, its decisions, and the verdicts on agreement,
//     validity and (for Turquois) quorum sanity.
// A Deployment is a Repetition running one instance: it adds the role split
// (the last f processes are faulty), each process's runtime and transport
// (a broadcast endpoint, through the relay when multi-hop, or a TCP host,
// authenticated with pairwise keys or not), fail-stop crashes and TCP
// disconnects, and the RunResult. A protocol descriptor (protocols.cpp)
// supplies only what differs: its transport, its key material, the
// role→strategy map and a post-run audit check. deploy<D>() joins the two.
// The pipelined service (service/service.cpp) is the builder's second
// user: one Repetition with up to W instances in flight.
//
// The order in which objects are built, streams are derived and events are
// scheduled is part of the determinism contract: every field of every
// protocol's and the service's RunResult is pinned by
// tests/golden/deployments.txt.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "audit/audit.hpp"
#include "harness/experiment.hpp"
#include "net/broadcast_endpoint.hpp"
#include "net/reliable_channel.hpp"
#include "runtime/sim_runtime.hpp"
#include "sim/cpu.hpp"
#include "sim/simulator.hpp"
#include "turquois/exchange_pool.hpp"

namespace turq::turquois {
class Process;
}  // namespace turq::turquois

namespace turq::harness {

/// How a protocol's processes reach each other.
enum class Transport : std::uint8_t {
  kBroadcast,         ///< net::BroadcastEndpoint (gossip relay if multi-hop)
  kTcp,               ///< net::TcpHost, unauthenticated
  kAuthenticatedTcp,  ///< net::TcpHost with pairwise HMAC keys (IPSec AH)
};

/// Pairwise HMAC keys (the pre-established security associations), derived
/// from `root`'s "sa-keys" stream.
[[nodiscard]] std::vector<std::vector<Bytes>> make_sa_keys(std::uint32_t n,
                                                           const Rng& root);

/// The world of one repetition, shared by everything that runs in it.
class Repetition {
 public:
  /// Builds the medium, the fault plan with its σ meter and the spatial
  /// layer of repetition `rep_index` of `cfg`, the gossip relay when the
  /// processes `transport` is broadcast and the scenario is multi-hop, and
  /// one virtual CPU per node.
  Repetition(const ScenarioConfig& cfg, std::uint64_t rep_index,
             Transport transport);

  const ScenarioConfig& cfg;
  /// The repetition's stream; only ever derive()d from.
  Rng root;
  /// Acquire-side exchange-pool counters summed over the repetition's
  /// pools, traced as exchange_pool.*; unset for the protocols without a
  /// pool (every baseline).
  std::optional<turquois::ExchangePool::Stats> exchange_pool;

  [[nodiscard]] const faultplan::FaultPlan& plan() const { return plan_; }
  [[nodiscard]] Transport transport() const { return transport_; }
  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] net::Medium& medium() { return *medium_; }
  /// What a broadcast endpoint attaches to: the relay when there is one,
  /// the medium otherwise.
  [[nodiscard]] net::BroadcastService& bus();
  /// Node `id`'s processor: crypto serializes on it whichever instance or
  /// transport it serves.
  [[nodiscard]] sim::VirtualCpu& cpu(ProcessId id) { return *cpus_[id]; }

  /// Runs the simulation in 1 ms slices. `step` runs before every slice
  /// and returns false to stop; the loop also stops at the deadline or
  /// when nothing is left to run.
  void run(const std::function<bool()>& step);
  /// Fills the medium, σ and spatial side of `result`.
  void measure(RunResult& result);
  /// Exports `result`'s counters to the ambient tracer under their trace
  /// names — medium.*, tcp.* (TCP transports), spatial.* and
  /// spatial.relay.* (multi-hop, with the relay), app.messages, sigma.*,
  /// audit.*, exchange_pool.* and service.* when present — and ends the
  /// repetition's trace block.
  void report(const RunResult& result);

 private:
  const faultplan::FaultPlan plan_;
  const std::uint64_t rep_index_;
  const Transport transport_;
  sim::Simulator sim_;
  std::unique_ptr<net::Medium> medium_;
  std::unique_ptr<spatial::Topology> topology_;  // set iff spatial.active()
  std::unique_ptr<spatial::RelayFabric> relay_;  // multi-hop broadcast only
  faultplan::BuiltPlan faults_;  // injector tree + optional σ meter
  std::vector<std::unique_ptr<sim::VirtualCpu>> cpus_;
};

/// One consensus instance: who proposed when, who decided what, and the
/// auditor that judges it.
class ConsensusInstance {
 public:
  /// Processes [0, deciders) are the ones expected to decide; only they
  /// are audited and counted.
  ConsensusInstance(const ScenarioConfig& cfg, ProcessId deciders);

  /// Draws `id`'s start offset from `start_rng`, records `now` plus it as
  /// `id`'s proposal time, tells the auditor, and returns that time.
  SimTime start(Rng& start_rng, ProcessId id, Value v, SimTime now);
  /// The decide hook of every process.
  void on_decide(ProcessId id, Value v, std::uint64_t phase, SimTime at);
  /// The auditor that observes `id`; null for non-deciders or when the
  /// scenario runs unaudited.
  [[nodiscard]] audit::ConsensusAuditor* auditor_for(ProcessId id) const;
  [[nodiscard]] std::size_t decided() const { return deciders_ - undecided_; }
  [[nodiscard]] bool all_decided() const { return undecided_ == 0; }

  /// Quorum sanity (Turquois): `p` must not have decided without a
  /// decide-phase quorum for its value in its final view.
  void check_decide_quorum(const turquois::Process& p,
                           const turquois::Config& tcfg);
  /// Clears `result`'s agreement and validity verdicts when the deciders
  /// disagree or, under a unanimous load (every proposal 1), when one
  /// decided 0. Returns the last decided value.
  std::optional<Value> judge(RunResult& result, bool unanimous) const;
  /// Each decided decider's propose→decide latency, in id order.
  [[nodiscard]] std::vector<double> latencies_ms() const;
  /// Closes the auditor's report; std::nullopt when unaudited.
  std::optional<audit::AuditReport> finish(
      const std::optional<faultplan::SigmaSummary>& sigma, bool all_decided);

 private:
  struct Decision {
    Value value;
    SimTime at;
  };

  const ProcessId deciders_;
  const SimDuration start_spread_;
  std::unique_ptr<audit::ConsensusAuditor> auditor_;
  std::vector<SimTime> start_at_;
  std::vector<std::optional<Decision>> decisions_;
  std::size_t undecided_;  // deciders yet to decide
};

/// A Repetition running one consensus instance: the deployment every
/// protocol's run_once builds.
class Deployment : public Repetition {
 public:
  /// Splits roles and builds repetition `rep_index` of `cfg` with its one
  /// consensus instance, then opens the shared `transport`: the gossip
  /// relay for multi-hop broadcast, or the pairwise keys (hoisted in
  /// `setup` or derived here) for authenticated TCP.
  Deployment(const ScenarioConfig& cfg, std::uint64_t rep_index,
             Transport transport, const ScenarioSetup* setup);

  [[nodiscard]] bool faulty(ProcessId id) const { return id >= first_faulty_; }
  /// Faulty under a Byzantine plan: runs the protocol's attack strategy.
  [[nodiscard]] bool byzantine(ProcessId id) const;
  /// The processes expected to decide, in id order.
  [[nodiscard]] const std::vector<ProcessId>& correct() const {
    return correct_;
  }
  [[nodiscard]] ConsensusInstance& instance() { return instance_; }

  /// Builds process `id`'s runtime and transport endpoint, in that order,
  /// and returns the runtime.
  runtime::Runtime& add_node(ProcessId id);
  [[nodiscard]] net::BroadcastEndpoint& endpoint(ProcessId id) {
    return *endpoints_[id];
  }
  [[nodiscard]] net::TcpHost& host(ProcessId id) { return *hosts_[id]; }

  /// Crashes the fail-stop processes (and cuts their TCP connections) and
  /// schedules every other process's proposal at its start offset.
  template <typename P>
  void start(const std::vector<std::unique_ptr<P>>& procs);
  /// The repetition's outcome. `app_messages` is the correct processes'
  /// protocol-level sends.
  RunResult collect(std::uint64_t app_messages);

 private:
  [[nodiscard]] Value proposal(ProcessId id) const;
  [[nodiscard]] bool crashed(ProcessId id) const;

  ProcessId first_faulty_;
  std::vector<ProcessId> correct_;
  ConsensusInstance instance_;

  std::vector<std::vector<Bytes>> local_sa_keys_;
  const std::vector<std::vector<Bytes>>* sa_keys_ = nullptr;
  std::vector<std::unique_ptr<runtime::SimRuntime>> runtimes_;
  std::vector<std::unique_ptr<net::BroadcastEndpoint>> endpoints_;
  std::vector<std::unique_ptr<net::TcpHost>> hosts_;
};

template <typename P>
void Deployment::start(const std::vector<std::unique_ptr<P>>& procs) {
  if (plan().role == faultplan::Role::kFailStop) {
    // Crashed-before-start processes never came up: surviving hosts have
    // no connection to them (no frames wasted on unreachable peers).
    for (const auto& host : hosts_) {
      for (ProcessId dead = first_faulty_; dead < cfg.n; ++dead) {
        host->disconnect_peer(dead);
      }
    }
  }
  Rng start_rng = root.derive("start", 0);
  for (ProcessId id = 0; id < cfg.n; ++id) {
    if (crashed(id)) {
      procs[id]->crash();
      continue;
    }
    const Value v = proposal(id);
    sim().schedule_at(instance_.start(start_rng, id, v, sim().now()),
                      [p = procs[id].get(), v] { p->propose(v); });
  }
}

/// The common shape of a protocol descriptor, with defaults for its
/// optional parts. A descriptor names its Process and Hooks types and its
/// Transport, builds one process (make) once its constructor has set up
/// the protocol config and key material, and may override the rest.
template <typename P, typename H, Transport T>
struct ProtocolDescriptor {
  using Process = P;
  using Hooks = H;
  static constexpr Transport kTransport = T;
  /// The hooks' phase (or round) callback, which feeds the auditor.
  static auto& phase_hook(Hooks& hooks) { return hooks.on_round; }
  /// Protocol-level sends, summed over correct processes as app_messages.
  static std::uint64_t sent(const Process& p) {
    return p.stats().messages_sent;
  }
  /// Adds key material to the hoisted setup, beyond the pairwise keys an
  /// authenticated TCP transport gets anyway.
  static void hoist(const ScenarioConfig&, Rng&, ScenarioSetup&) {}
  /// Post-run audit check over the protocol's processes.
  template <typename Procs>
  void audit(Deployment&, const Procs&) const {}
  /// The exchange pool the processes share, if any.
  [[nodiscard]] const turquois::ExchangePool* exchange_pool() const {
    return nullptr;
  }
};

/// A per-repetition dealer drawn from the repetition's "dealer" stream.
template <typename Dealer, typename Config>
Dealer deal(const Config& config, const Deployment& d) {
  Rng rng = d.root.derive("dealer", 0);
  return Dealer::setup(config, rng);
}

/// Runs repetition `rep_index` of `cfg` with protocol descriptor `D`.
template <typename D>
RunResult deploy(const ScenarioConfig& cfg, std::uint64_t rep_index,
                 const ScenarioSetup* setup) {
  Deployment d(cfg, rep_index, D::kTransport, setup);
  D protocol(d, setup);

  std::vector<std::unique_ptr<typename D::Process>> procs;
  for (ProcessId id = 0; id < cfg.n; ++id) {
    runtime::Runtime& rt = d.add_node(id);
    typename D::Hooks hooks;
    hooks.on_decide = [&d, id](Value v, auto phase, SimTime at) {
      d.instance().on_decide(id, v, phase, at);
    };
    if (audit::ConsensusAuditor* auditor = d.instance().auditor_for(id)) {
      D::phase_hook(hooks) = [id, auditor](auto phase, SimTime at) {
        auditor->on_phase(id, phase, at);
      };
    }
    procs.push_back(protocol.make(d, id, rt, std::move(hooks)));
  }
  d.start(procs);
  d.run([&d] { return !d.instance().all_decided(); });

  std::uint64_t sent = 0;
  for (const ProcessId id : d.correct()) sent += D::sent(*procs[id]);
  protocol.audit(d, procs);
  if (const turquois::ExchangePool* pool = protocol.exchange_pool()) {
    d.exchange_pool = pool->stats();
  }
  return d.collect(sent);
}

/// The setup make_scenario_setup hoists for descriptor `D`, derived from
/// the repetition-0 stream: repetition 0 under the hoisted path is byte
/// for byte the deployment the unhoisted path builds.
template <typename D>
void hoist(const ScenarioConfig& cfg, ScenarioSetup& setup) {
  Rng root = Rng::stream(cfg.seed, "rep", 0);
  if constexpr (D::kTransport == Transport::kAuthenticatedTcp) {
    setup.sa_keys = make_sa_keys(cfg.n, root);
  }
  D::hoist(cfg, root, setup);
}

}  // namespace turq::harness
