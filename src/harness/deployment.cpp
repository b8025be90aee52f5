#include "harness/deployment.hpp"

#include <algorithm>

#include "trace/trace.hpp"
#include "turquois/process.hpp"
#include "turquois/view.hpp"

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

namespace {

/// The fault-plan build context of one repetition of `cfg` running `plan`,
/// with `root` the repetition's stream. It sizes the σ accounting round.
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

}  // namespace

Repetition::Repetition(const ScenarioConfig& config, std::uint64_t rep_index,
                       bool relay)
    : cfg(config),
      root(Rng::stream(config.seed, "rep", rep_index)),
      plan_(config.effective_plan()),
      rep_index_(rep_index) {
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
    // Multi-hop endpoints route through the gossip relay so every frame
    // still reaches the whole group; the protocol above is none the wiser.
    if (relay && cfg.relay_enabled) {
      relay_ = std::make_unique<spatial::RelayFabric>(
          sim_, *medium_, cfg.relay, cfg.n, root.derive("relay", 0));
    }
  }
  for (ProcessId id = 0; id < cfg.n; ++id) {
    cpus_.push_back(std::make_unique<sim::VirtualCpu>(sim_));
  }
}

net::BroadcastService& Repetition::bus() {
  if (relay_ != nullptr) return *relay_;
  return *medium_;
}

void Repetition::run(const std::function<bool()>& step) {
  const SimTime deadline = cfg.run_timeout;
  while (step() && sim_.now() < deadline) {
    const SimTime slice = std::min<SimTime>(deadline, sim_.now() + kMillisecond);
    if (sim_.run_until(slice) == 0 && sim_.idle()) break;
  }
}

void Repetition::measure(RunResult& result) {
  result.medium = medium_->stats();
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
}

void Repetition::report([[maybe_unused]] const RunResult& result) {
#if TURQ_TRACE_ENABLED
  trace::Tracer* t = trace::current();
  if (t == nullptr) return;
  auto& m = t->metrics();
  m.merge(medium_->metrics());
  if (topology_ != nullptr) m.merge(topology_->metrics());
  if (relay_ != nullptr) m.merge(relay_->metrics());
  m.counter("app.messages").add(static_cast<std::int64_t>(result.app_messages));
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
  if (exchange_pool.has_value()) {
    // Measured in delivery order, so deterministic (ExchangePool::Stats).
    m.counter("exchange_pool.acquires")
        .add(static_cast<std::int64_t>(exchange_pool->acquires));
    m.counter("exchange_pool.hits")
        .add(static_cast<std::int64_t>(exchange_pool->shared_hits));
    m.counter("exchange_pool.misses")
        .add(static_cast<std::int64_t>(exchange_pool->misses()));
  }
  t->emit(trace::TraceEvent{
      .at = sim_.now(), .category = trace::Category::kHarness,
      .kind = trace::Kind::kRepEnd,
      .value = static_cast<std::int64_t>(rep_index_)});
#endif
}

ConsensusInstance::ConsensusInstance(const ScenarioConfig& cfg,
                                     ProcessId deciders)
    : deciders_(deciders),
      start_spread_(cfg.start_spread),
      start_at_(cfg.n, 0),
      decisions_(cfg.n),
      undecided_(deciders) {
  if (cfg.audit) {
    audit::AuditConfig acfg;
    acfg.n = cfg.n;
    acfg.f = cfg.f();
    acfg.k = cfg.k();
    acfg.phase_bound = cfg.audit_phase_bound;
    auditor_ = std::make_unique<audit::ConsensusAuditor>(acfg);
  }
}

SimTime ConsensusInstance::start(Rng& start_rng, ProcessId id, Value v,
                                 SimTime now) {
  const auto offset = static_cast<SimDuration>(start_rng.uniform(
      static_cast<std::uint64_t>(start_spread_) + 1));
  start_at_[id] = now + offset;
  if (audit::ConsensusAuditor* auditor = auditor_for(id)) {
    auditor->on_propose(id, v, start_at_[id]);
  }
  return start_at_[id];
}

void ConsensusInstance::on_decide(ProcessId id, Value v, std::uint64_t phase,
                                  SimTime at) {
  if (!decisions_[id].has_value() && id < deciders_) --undecided_;
  decisions_[id] = Decision{v, at};
  if (audit::ConsensusAuditor* auditor = auditor_for(id)) {
    auditor->on_decide(id, v, phase, at);
  }
}

audit::ConsensusAuditor* ConsensusInstance::auditor_for(ProcessId id) const {
  return id < deciders_ ? auditor_.get() : nullptr;
}

void ConsensusInstance::check_decide_quorum(const turquois::Process& p,
                                            const turquois::Config& tcfg) {
  if (auditor_ == nullptr || !p.decided() ||
      turquois::has_decide_quorum(p.view(), tcfg, p.decision())) {
    return;
  }
  auditor_->note_violation(
      audit::Property::kQuorumSanity, p.id(),
      "decided " + turq::to_string(p.decision()) +
          " without a decide-phase quorum for it in the final view");
}

std::optional<Value> ConsensusInstance::judge(RunResult& result,
                                              bool unanimous) const {
  std::optional<Value> agreed;
  for (ProcessId id = 0; id < deciders_; ++id) {
    if (!decisions_[id].has_value()) continue;
    const Value v = decisions_[id]->value;
    if (agreed.has_value() && *agreed != v) result.agreement_held = false;
    if (unanimous && v != Value::kOne) result.validity_held = false;
    agreed = v;
  }
  return agreed;
}

std::vector<double> ConsensusInstance::latencies_ms() const {
  std::vector<double> out;
  for (ProcessId id = 0; id < deciders_; ++id) {
    if (decisions_[id].has_value()) {
      out.push_back(to_milliseconds(decisions_[id]->at - start_at_[id]));
    }
  }
  return out;
}

std::optional<audit::AuditReport> ConsensusInstance::finish(
    const std::optional<faultplan::SigmaSummary>& sigma, bool all_decided) {
  if (auditor_ == nullptr) return std::nullopt;
  return auditor_->finish(sigma, all_decided);
}

Deployment::Deployment(const ScenarioConfig& config, std::uint64_t rep_index,
                       Transport transport, const ScenarioSetup* setup)
    : Repetition(config, rep_index, transport == Transport::kBroadcast),
      // The last f processes take the faulty role, keeping the odd/even
      // proposal pattern of the survivors intact.
      first_faulty_(plan().role == faultplan::Role::kNone
                        ? config.n
                        : config.n - config.f()),
      instance_(config, first_faulty_),
      transport_(transport) {
  for (ProcessId id = 0; id < first_faulty_; ++id) correct_.push_back(id);
  if (transport == Transport::kAuthenticatedTcp) {
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
  return faulty(id) && plan().role == faultplan::Role::kByzantine;
}

bool Deployment::crashed(ProcessId id) const {
  return faulty(id) && plan().role == faultplan::Role::kFailStop;
}

Value Deployment::proposal(ProcessId id) const {
  // The paper's unanimous load proposes 1 everywhere; the divergent load
  // has odd ids propose 1 and even ids propose 0.
  if (cfg.distribution == ProposalDist::kUnanimous) return Value::kOne;
  return (id % 2 == 1) ? Value::kOne : Value::kZero;
}

runtime::Runtime& Deployment::add_node(ProcessId id) {
  runtimes_.push_back(std::make_unique<runtime::SimRuntime>(sim(), cpu(id)));
  if (transport_ == Transport::kBroadcast) {
    endpoints_.push_back(
        std::make_unique<net::BroadcastEndpoint>(sim(), bus(), id));
  } else {
    // The TCP baselines keep direct unicast even multi-hop: out of range
    // their segments are simply lost (counted `unreachable`).
    net::TcpConfig tcp = cfg.tcp;
    tcp.authenticate = transport_ == Transport::kAuthenticatedTcp;
    hosts_.push_back(std::make_unique<net::TcpHost>(sim(), medium(), id, tcp,
                                                    &cpu(id), &cfg.costs));
    if (sa_keys_ != nullptr) {
      for (ProcessId peer = 0; peer < cfg.n; ++peer) {
        hosts_.back()->set_peer_key(peer, (*sa_keys_)[id][peer]);
      }
    }
  }
  return *runtimes_.back();
}

RunResult Deployment::collect(std::uint64_t app_messages) {
  RunResult result;
  result.all_correct_decided = instance_.all_decided();
  result.k_decided = instance_.decided() >= cfg.k();
  result.decision =
      instance_.judge(result, cfg.distribution == ProposalDist::kUnanimous);
  result.latencies_ms = instance_.latencies_ms();
  result.app_messages = app_messages;
  for (const auto& host : hosts_) result.tcp += host->stats();
  measure(result);
  result.audit = instance_.finish(result.sigma, result.all_correct_decided);
#if TURQ_TRACE_ENABLED
  if (trace::Tracer* t = trace::current()) {
    for (const auto& host : hosts_) t->metrics().merge(host->metrics());
  }
#endif
  report(result);
  return result;
}

}  // namespace turq::harness
