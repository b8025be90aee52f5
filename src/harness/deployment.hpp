// The deployment builder: one simulated repetition of any protocol.
//
// The paper's evaluation (§7.2) runs every protocol through the same cell:
// n processes on one 802.11b medium under one fault plan, started within a
// small window, each measured from its propose() to its decision. A
// Deployment does everything those runs share, once:
//   - the role split (the last f processes are faulty), the medium, the
//     fault plan with its σ meter, and the spatial layer;
//   - the consensus auditor and the hooks that feed it;
//   - each process's virtual CPU, runtime and transport: a broadcast
//     endpoint (through the gossip relay when multi-hop) or a TCP host,
//     authenticated with pairwise keys or not;
//   - fail-stop crashes and TCP disconnects, and the start offsets;
//   - the run loop, stopped by a count of outstanding decisions, and the
//     RunResult.
// A protocol descriptor (protocols.cpp) supplies only what differs: its
// transport, its key material, the role→strategy map, a post-run audit
// check and a stats hook. deploy<D>() joins the two.
//
// The order in which deploy() builds objects, derives streams and
// schedules events is part of the determinism contract: every field of
// every protocol's RunResult is pinned by tests/golden/deployments.txt.
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

class Deployment {
 public:
  /// Splits roles and builds the medium, fault plan and auditor for
  /// repetition `rep_index` of `cfg`, then opens the shared `transport`:
  /// the gossip relay for multi-hop broadcast, or the pairwise keys
  /// (hoisted in `setup` or derived here) for authenticated TCP.
  Deployment(const ScenarioConfig& cfg, std::uint64_t rep_index,
             Transport transport, const ScenarioSetup* setup);

  const ScenarioConfig& cfg;
  /// The repetition's stream; only ever derive()d from.
  Rng root;

  [[nodiscard]] bool faulty(ProcessId id) const { return id >= first_faulty_; }
  /// Faulty under a Byzantine plan: runs the protocol's attack strategy.
  [[nodiscard]] bool byzantine(ProcessId id) const;
  /// The processes expected to decide, in id order.
  [[nodiscard]] const std::vector<ProcessId>& correct() const {
    return correct_;
  }

  /// Builds process `id`'s virtual CPU, runtime and transport endpoint, in
  /// that order, and returns the runtime.
  runtime::Runtime& add_node(ProcessId id);
  [[nodiscard]] net::BroadcastEndpoint& endpoint(ProcessId id) {
    return *endpoints_[id];
  }
  [[nodiscard]] net::TcpHost& host(ProcessId id) { return *hosts_[id]; }

  /// The decide hook of every process.
  void on_decide(ProcessId id, Value v, std::uint64_t phase, SimTime at);
  /// The auditor that observes `id`; null for faulty processes or when the
  /// scenario runs unaudited.
  [[nodiscard]] audit::ConsensusAuditor* auditor_for(ProcessId id) const;

  /// Crashes the fail-stop processes (and cuts their TCP connections) and
  /// schedules every other process's proposal at its start offset.
  template <typename P>
  void start(const std::vector<std::unique_ptr<P>>& procs);
  /// Runs the simulation in 1 ms slices until every correct process has
  /// decided, the deadline passes, or nothing is left to run.
  void run();
  /// The repetition's outcome. `app_messages` is the correct processes'
  /// protocol-level sends; `audit_check` runs the protocol's post-run audit
  /// check before the auditor closes its report.
  RunResult collect(
      std::uint64_t app_messages,
      const std::function<void(audit::ConsensusAuditor&)>& audit_check);
  /// Adds the TCP hosts' counters to `result.tcp`.
  void add_tcp_totals(RunResult& result) const;

 private:
  struct Decision {
    Value value;
    SimTime at;
  };

  /// Draws `id`'s start offset, records it and tells the auditor.
  SimTime start_offset(Rng& start_rng, ProcessId id, Value v);
  [[nodiscard]] Value proposal(ProcessId id) const;
  [[nodiscard]] bool crashed(ProcessId id) const;

  const faultplan::FaultPlan plan_;
  const std::uint64_t rep_index_;
  ProcessId first_faulty_;
  std::vector<ProcessId> correct_;

  sim::Simulator sim_;
  std::unique_ptr<net::Medium> medium_;
  std::unique_ptr<spatial::Topology> topology_;  // set iff spatial.active()
  std::unique_ptr<spatial::RelayFabric> relay_;  // multi-hop broadcast only
  faultplan::BuiltPlan faults_;  // injector tree + optional σ meter
  std::unique_ptr<audit::ConsensusAuditor> auditor_;

  const Transport transport_;
  std::vector<std::vector<Bytes>> local_sa_keys_;
  const std::vector<std::vector<Bytes>>* sa_keys_ = nullptr;
  std::vector<std::unique_ptr<sim::VirtualCpu>> cpus_;
  std::vector<std::unique_ptr<runtime::SimRuntime>> runtimes_;
  std::vector<std::unique_ptr<net::BroadcastEndpoint>> endpoints_;
  std::vector<std::unique_ptr<net::TcpHost>> hosts_;

  std::vector<SimTime> start_at_;
  std::vector<std::optional<Decision>> decisions_;
  std::size_t undecided_;  // correct processes yet to decide
};

template <typename P>
void Deployment::start(const std::vector<std::unique_ptr<P>>& procs) {
  if (plan_.role == faultplan::Role::kFailStop) {
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
    sim_.schedule_at(start_offset(start_rng, id, v),
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
  void audit(const Deployment&, const Procs&, audit::ConsensusAuditor&) const {}
  /// Stats and trace hook, after the run is collected.
  void report(Deployment&, RunResult&) const {}
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
      d.on_decide(id, v, phase, at);
    };
    if (audit::ConsensusAuditor* auditor = d.auditor_for(id)) {
      D::phase_hook(hooks) = [id, auditor](auto phase, SimTime at) {
        auditor->on_phase(id, phase, at);
      };
    }
    procs.push_back(protocol.make(d, id, rt, std::move(hooks)));
  }
  d.start(procs);
  d.run();

  std::uint64_t sent = 0;
  for (const ProcessId id : d.correct()) sent += D::sent(*procs[id]);
  RunResult result = d.collect(sent, [&](audit::ConsensusAuditor& auditor) {
    protocol.audit(d, procs, auditor);
  });
  protocol.report(d, result);
  return result;
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
