#include "harness/deployment.hpp"

#include <algorithm>
#include <string_view>

#include "trace/trace.hpp"
#include "turquois/process.hpp"
#include "turquois/validation.hpp"

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
                       Transport transport)
    : cfg(config),
      root(Rng::stream(config.seed, "rep", rep_index)),
      plan_(config.effective_plan()),
      rep_index_(rep_index),
      transport_(transport) {
  medium_ = std::make_unique<net::Medium>(sim_, cfg.medium,
                                          root.derive("medium", 0));
  if (cfg.broadcast_tap) medium_->set_broadcast_tap(cfg.broadcast_tap);
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
    if (transport_ == Transport::kBroadcast && cfg.relay_enabled) {
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
  result.sim_events = sim_.events_executed();
  if (exchange_pool.has_value()) {
    result.datagram_decodes = exchange_pool->decodes;
  }
  if (faults_.sigma != nullptr) result.sigma = faults_.sigma->summary();
  if (topology_ != nullptr) {
    // Sample connectivity up to the end of the run so a quiet tail (e.g.
    // everyone decided, no frames moving) still contributes samples.
    topology_->advance(sim_.now());
    result.spatial = topology_->stats();
    if (relay_ != nullptr) result.spatial->relay = relay_->stats();
  }
}

void Repetition::report([[maybe_unused]] const RunResult& result) {
#if TURQ_TRACE_ENABLED
  trace::Tracer* t = trace::current();
  if (t == nullptr) return;
  auto& m = t->metrics();
  const auto put = [&m](std::string_view name, std::uint64_t value) {
    m.counter(name).add(value);
  };
  const net::MediumStats& md = result.medium;
  put("medium.broadcast_frames", md.broadcast_frames);
  put("medium.unicast_frames", md.unicast_frames);
  put("medium.mac_retries", md.mac_retries);
  put("medium.collisions", md.collisions);
  put("medium.frames_collided", md.frames_collided);
  put("medium.unicast_drops", md.unicast_drops);
  put("medium.deliveries", md.deliveries);
  put("medium.omissions", md.omissions);
  put("medium.unreachable", md.unreachable);
  put("medium.hidden_terminal", md.hidden_terminal);
  put("medium.bytes_on_air", md.bytes_on_air);
  put("medium.airtime_ns", static_cast<std::uint64_t>(md.airtime));
  if (transport_ != Transport::kBroadcast) {
    // Summed over the hosts (Deployment::collect).
    const net::TcpHost::Stats& tcp = result.tcp;
    put("tcp.messages_sent", tcp.messages_sent);
    put("tcp.segments_sent", tcp.segments_sent);
    put("tcp.segments_retransmitted", tcp.segments_retransmitted);
    put("tcp.rto_fires", tcp.rto_fires);
    put("tcp.fast_retransmits", tcp.fast_retransmits);
    put("tcp.auth_failures", tcp.auth_failures);
  }
  if (result.spatial.has_value()) {
    const spatial::SpatialStats& sp = *result.spatial;
    put("spatial.samples", sp.samples);
    put("spatial.partition_events", sp.partition_events);
    put("spatial.partitioned_samples", sp.partitioned_samples);
    put("spatial.path_hops_sum", sp.path_hops_sum);
    put("spatial.path_pairs", sp.path_pairs);
    put("spatial.cs_domains_sum", sp.cs_domains_sum);
    if (relay_ != nullptr) {
      put("spatial.relay.origin_frames", sp.relay.origin_frames);
      put("spatial.relay.forwards", sp.relay.forwards);
      put("spatial.relay.suppressed", sp.relay.suppressed);
      put("spatial.relay.duplicates", sp.relay.duplicates);
      put("spatial.relay.deliveries", sp.relay.deliveries);
    }
  }
  put("app.messages", result.app_messages);
  if (result.sigma.has_value()) {
    const faultplan::SigmaSummary& s = *result.sigma;
    put("sigma.tracked_reps", 1);
    put("sigma.bound", static_cast<std::uint64_t>(s.bound));
    put("sigma.rounds", s.rounds);
    put("sigma.violating_rounds", s.violating_rounds);
    put("sigma.omissions", s.omissions);
    put("sigma.eligible_reps", s.liveness_eligible() ? 1 : 0);
  }
  if (result.audit.has_value()) {
    put("audit.checked_reps", 1);
    put("audit.violations", result.audit->violations.size());
    put("audit.violating_reps", result.audit->passed() ? 0 : 1);
    for (const audit::Violation& v : result.audit->violations) {
      put(std::string("audit.") + audit::to_string(v.property), 1);
    }
  }
  if (exchange_pool.has_value()) {
    // Measured in delivery order, so deterministic (ExchangePool::Stats).
    put("exchange_pool.acquires", exchange_pool->acquires);
    put("exchange_pool.hits", exchange_pool->shared_hits);
    put("exchange_pool.misses", exchange_pool->misses());
  }
  if (result.service.has_value()) {
    const service::RepSummary& sv = *result.service;
    put("service.arrivals", sv.arrivals);
    put("service.committed", sv.committed);
    put("service.rejected", sv.rejected);
    put("service.instances_launched", sv.instances_launched);
    put("service.instances_decided", sv.instances_decided);
    put("service.instances_failed", sv.instances_failed);
    put("service.key_batches", sv.key_batches);
    put("service.mux_frames", sv.mux_frames);
    put("service.mux_payloads", sv.mux_payloads);
    put("service.mux_splits", sv.mux_splits);
    put("service.mux_late_drops", sv.mux_late_drops);
    put("service.mux_superseded", sv.mux_superseded);
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
  if (auditor_ == nullptr || !p.decided()) return;
  const turquois::Message* top = p.view().highest_phase_message();
  if (top != nullptr &&
      turquois::has_decide_quorum(p.view(), tcfg, top->phase, p.decision())) {
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
    : Repetition(config, rep_index, transport),
      // The last f processes take the faulty role, keeping the odd/even
      // proposal pattern of the survivors intact.
      first_faulty_(plan().role == faultplan::Role::kNone
                        ? config.n
                        : config.n - config.f()),
      instance_(config, first_faulty_) {
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
  if (transport() == Transport::kBroadcast) {
    endpoints_.push_back(
        std::make_unique<net::BroadcastEndpoint>(sim(), bus(), id));
  } else {
    // The TCP baselines keep direct unicast even multi-hop: out of range
    // their segments are simply lost (counted `unreachable`).
    net::TcpConfig tcp = cfg.tcp;
    tcp.authenticate = transport() == Transport::kAuthenticatedTcp;
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
  report(result);
  return result;
}

}  // namespace turq::harness
