#include "harness/deployment.hpp"

#include <algorithm>

#include "trace/trace.hpp"

namespace turq::harness {

std::vector<std::vector<Bytes>> make_sa_keys(std::uint32_t n,
                                             const Rng& root) {
  Rng key_rng = root.derive("sa-keys", 0);
  std::vector<std::vector<Bytes>> keys(n, std::vector<Bytes>(n));
  for (ProcessId a = 0; a < n; ++a) {
    for (ProcessId b = a; b < n; ++b) {
      Bytes key(32);
      for (auto& byte : key) byte = static_cast<std::uint8_t>(key_rng.next());
      keys[a][b] = key;
      keys[b][a] = std::move(key);
    }
  }
  return keys;
}

faultplan::BuildContext fault_context(const ScenarioConfig& cfg,
                                      const faultplan::FaultPlan& plan,
                                      const Rng& root) {
  faultplan::BuildContext ctx;
  ctx.n = cfg.n;
  ctx.f = cfg.f();
  ctx.k = cfg.k();
  ctx.t = plan.role == faultplan::Role::kNone ? 0 : cfg.f();
  ctx.ambient_loss_rate = cfg.loss_rate;
  ctx.ambient_bursts = cfg.bursty_loss;
  ctx.ambient_burst_params = cfg.burst_params;
  // σ accounting (and the adaptive adversary's budget window) is per
  // *communication round* — the span in which every process broadcasts once
  // (§5). One tick only fits a handful of frames on the serialized 802.11b
  // channel, so at larger n a full exchange spans several ticks; granting a
  // fresh σ budget every tick would hand the adversary a multiple of the
  // paper's per-round budget and let it starve liveness while the
  // accountant still reports the run σ-eligible (turquois_fuzz found
  // exactly that at n=16: permanent livelock labelled liveness-eligible).
  // 2 ms conservatively covers one justification-carrying broadcast frame.
  // An explicit sigma(round_ms=...) clause still overrides this default.
  constexpr SimDuration kFrameSlot = 2 * kMillisecond;
  const SimDuration exchange = static_cast<SimDuration>(cfg.n) * kFrameSlot;
  const SimDuration ticks_per_round =
      (exchange + cfg.tick_interval - 1) / cfg.tick_interval;
  ctx.round_duration =
      cfg.tick_interval * std::max<SimDuration>(SimDuration{1}, ticks_per_round);
  ctx.root = root;  // derive()d from only; stream-neutral for the rest
  return ctx;
}

Deployment::Deployment(const ScenarioConfig& config, std::uint64_t rep_index,
                       Transport transport, const ScenarioSetup* setup)
    : cfg(config),
      root(Rng::stream(config.seed, "rep", rep_index)),
      plan_(config.effective_plan()),
      rep_index_(rep_index),
      first_faulty_(plan_.role == faultplan::Role::kNone ? config.n
                                                         : config.n - config.f()),
      transport_(transport),
      start_at_(config.n, 0),
      decisions_(config.n),
      undecided_(first_faulty_) {
  // The last f processes take the faulty role, keeping the odd/even
  // proposal pattern of the survivors intact.
  for (ProcessId id = 0; id < first_faulty_; ++id) correct_.push_back(id);

  medium_ = std::make_unique<net::Medium>(sim_, cfg.medium,
                                          root.derive("medium", 0));
  const faultplan::BuildContext ctx = fault_context(cfg, plan_, root);
  // Spatial scenarios force σ tracking: reachability-induced omissions
  // must count against the per-round budget so a transient partition makes
  // the run liveness-ineligible instead of an auditor violation.
  faults_ = cfg.spatial.active() ? faultplan::build(plan_.with_sigma(), ctx)
                                 : faultplan::build(plan_, ctx);
  medium_->set_fault_injector(faults_.injector.get());
  if (cfg.spatial.active()) {
    topology_ = std::make_unique<spatial::Topology>(cfg.spatial, cfg.n,
                                                    root.derive("spatial", 0));
    medium_->set_spatial(topology_.get());
    if (faults_.sigma != nullptr) {
      medium_->set_unreachable_hook(
          [s = faults_.sigma](SimTime at) { s->record_omission(at); });
    }
  }

  if (cfg.audit) {
    audit::AuditConfig acfg;
    acfg.n = cfg.n;
    acfg.f = cfg.f();
    acfg.k = cfg.k();
    acfg.phase_bound = cfg.audit_phase_bound;
    auditor_ = std::make_unique<audit::ConsensusAuditor>(acfg);
  }

  if (transport == Transport::kBroadcast) {
    // Multi-hop endpoints route through the gossip relay so every frame
    // still reaches the whole group; the protocol above is none the wiser.
    if (cfg.spatial.active() && cfg.relay_enabled) {
      relay_ = std::make_unique<spatial::RelayFabric>(
          sim_, *medium_, cfg.relay, cfg.n, root.derive("relay", 0));
    }
  } else if (transport == Transport::kAuthenticatedTcp) {
    // make_sa_keys only derives a stream, so hoisting it is stream-neutral
    // for the rest of the repetition.
    if (setup == nullptr || setup->sa_keys.empty()) {
      local_sa_keys_ = make_sa_keys(cfg.n, root);
      sa_keys_ = &local_sa_keys_;
    } else {
      sa_keys_ = &setup->sa_keys;
    }
  }
}

bool Deployment::byzantine(ProcessId id) const {
  return faulty(id) && plan_.role == faultplan::Role::kByzantine;
}

bool Deployment::crashed(ProcessId id) const {
  return faulty(id) && plan_.role == faultplan::Role::kFailStop;
}

Value Deployment::proposal(ProcessId id) const {
  // The paper's unanimous load proposes 1 everywhere; the divergent load
  // has odd ids propose 1 and even ids propose 0.
  if (cfg.distribution == ProposalDist::kUnanimous) return Value::kOne;
  return (id % 2 == 1) ? Value::kOne : Value::kZero;
}

runtime::Runtime& Deployment::add_node(ProcessId id) {
  cpus_.push_back(std::make_unique<sim::VirtualCpu>(sim_));
  runtimes_.push_back(
      std::make_unique<runtime::SimRuntime>(sim_, *cpus_.back()));
  if (transport_ == Transport::kBroadcast) {
    net::BroadcastService* bus = medium_.get();
    if (relay_ != nullptr) bus = relay_.get();
    endpoints_.push_back(
        std::make_unique<net::BroadcastEndpoint>(sim_, *bus, id));
  } else {
    // The TCP baselines keep direct unicast even multi-hop: out of range
    // their segments are simply lost (counted `unreachable`).
    net::TcpConfig tcp = cfg.tcp;
    tcp.authenticate = transport_ == Transport::kAuthenticatedTcp;
    hosts_.push_back(std::make_unique<net::TcpHost>(
        sim_, *medium_, id, tcp, cpus_.back().get(), &cfg.costs));
    if (sa_keys_ != nullptr) {
      for (ProcessId peer = 0; peer < cfg.n; ++peer) {
        hosts_.back()->set_peer_key(peer, (*sa_keys_)[id][peer]);
      }
    }
  }
  return *runtimes_.back();
}

void Deployment::on_decide(ProcessId id, Value v, std::uint64_t phase,
                           SimTime at) {
  if (!decisions_[id].has_value() && !faulty(id)) --undecided_;
  decisions_[id] = Decision{v, at};
  if (audit::ConsensusAuditor* auditor = auditor_for(id)) {
    auditor->on_decide(id, v, phase, at);
  }
}

audit::ConsensusAuditor* Deployment::auditor_for(ProcessId id) const {
  return faulty(id) ? nullptr : auditor_.get();
}

SimTime Deployment::start_offset(Rng& start_rng, ProcessId id, Value v) {
  const auto offset = static_cast<SimDuration>(
      start_rng.uniform(static_cast<std::uint64_t>(cfg.start_spread) + 1));
  start_at_[id] = offset;
  if (audit::ConsensusAuditor* auditor = auditor_for(id)) {
    auditor->on_propose(id, v, offset);
  }
  return offset;
}

void Deployment::run() {
  const SimTime deadline = cfg.run_timeout;
  while (sim_.now() < deadline && undecided_ > 0) {
    const SimTime slice = std::min<SimTime>(deadline, sim_.now() + kMillisecond);
    if (sim_.run_until(slice) == 0 && sim_.idle()) break;
  }
}

RunResult Deployment::collect(
    std::uint64_t app_messages,
    const std::function<void(audit::ConsensusAuditor&)>& audit_check) {
  RunResult result;
  std::optional<Value> agreed;
  std::size_t decided_count = 0;
  result.all_correct_decided = true;
  for (const ProcessId id : correct_) {
    if (!decisions_[id].has_value()) {
      result.all_correct_decided = false;
      continue;
    }
    const Decision& d = *decisions_[id];
    ++decided_count;
    if (agreed.has_value() && *agreed != d.value) result.agreement_held = false;
    agreed = d.value;
    result.latencies_ms.push_back(to_milliseconds(d.at - start_at_[id]));
  }
  result.k_decided = decided_count >= cfg.k();
  result.decision = agreed;

  // Validity: under the unanimous load every correct process proposed 1.
  if (cfg.distribution == ProposalDist::kUnanimous && agreed.has_value() &&
      *agreed != Value::kOne) {
    result.validity_held = false;
  }

  result.medium = medium_->stats();
  result.app_messages = app_messages;
  if (faults_.sigma != nullptr) result.sigma = faults_.sigma->summary();
  if (topology_ != nullptr) {
    // Sample connectivity up to the end of the run so a quiet tail (e.g.
    // everyone decided, no frames moving) still contributes samples.
    topology_->advance(sim_.now());
    spatial::SpatialStats sp = topology_->stats();
    if (relay_ != nullptr) {
      const spatial::RelayFabric::Stats rs = relay_->stats();
      sp.relay_origin_frames = rs.origin_frames;
      sp.relay_forwards = rs.forwards;
      sp.relay_suppressed = rs.suppressed;
      sp.relay_duplicates = rs.duplicates;
      sp.relay_deliveries = rs.deliveries;
    }
    result.spatial = sp;
  }

  if (auditor_ != nullptr) {
    audit_check(*auditor_);
    result.audit = auditor_->finish(result.sigma, result.all_correct_decided);
  }

#if TURQ_TRACE_ENABLED
  if (trace::Tracer* t = trace::current()) {
    auto& m = t->metrics();
    m.merge(medium_->metrics());
    if (topology_ != nullptr) m.merge(topology_->metrics());
    if (relay_ != nullptr) m.merge(relay_->metrics());
    for (const auto& host : hosts_) m.merge(host->metrics());
    m.counter("app.messages").add(result.app_messages);
    if (result.sigma.has_value()) {
      const faultplan::SigmaSummary& s = *result.sigma;
      m.counter("sigma.tracked_reps").add(1);
      m.counter("sigma.bound").add(s.bound);
      m.counter("sigma.rounds").add(static_cast<std::int64_t>(s.rounds));
      m.counter("sigma.violating_rounds")
          .add(static_cast<std::int64_t>(s.violating_rounds));
      m.counter("sigma.omissions").add(static_cast<std::int64_t>(s.omissions));
      m.counter("sigma.eligible_reps").add(s.liveness_eligible() ? 1 : 0);
    }
    if (result.audit.has_value()) {
      m.counter("audit.checked_reps").add(1);
      m.counter("audit.violations")
          .add(static_cast<std::int64_t>(result.audit->violations.size()));
      m.counter("audit.violating_reps").add(result.audit->passed() ? 0 : 1);
      for (const audit::Violation& v : result.audit->violations) {
        m.counter(std::string("audit.") + audit::to_string(v.property)).add(1);
      }
    }
    t->emit(trace::TraceEvent{
        .at = sim_.now(), .category = trace::Category::kHarness,
        .kind = trace::Kind::kRepEnd,
        .value = static_cast<std::int64_t>(rep_index_)});
  }
#endif
  return result;
}

void Deployment::add_tcp_totals(RunResult& result) const {
  for (const auto& host : hosts_) {
    const net::TcpHost::Stats s = host->stats();
    result.tcp.messages_sent += s.messages_sent;
    result.tcp.segments_sent += s.segments_sent;
    result.tcp.segments_retransmitted += s.segments_retransmitted;
    result.tcp.rto_fires += s.rto_fires;
    result.tcp.fast_retransmits += s.fast_retransmits;
  }
}

}  // namespace turq::harness
