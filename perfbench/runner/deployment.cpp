#include "deployment.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>

#include "adversary/strategies.hpp"
#include "baselines/bracha/bracha.hpp"
#include "common/assert.hpp"
#include "net/broadcast_endpoint.hpp"
#include "net/reliable_channel.hpp"
#include "runtime/sim_runtime.hpp"
#include "sim/cpu.hpp"
#include "sim/simulator.hpp"
#include "turquois/exchange_pool.hpp"
#include "turquois/process.hpp"

namespace perfbench {

namespace {

using turq::ProcessId;
using turq::Rng;
using turq::SimDuration;
using turq::SimTime;
using turq::Value;
using turq::harness::ProposalDist;
using turq::harness::RunResult;
using turq::harness::ScenarioConfig;
namespace audit = turq::audit;
namespace faultplan = turq::faultplan;
namespace net = turq::net;
namespace runtime = turq::runtime;
namespace sim = turq::sim;
namespace turquois = turq::turquois;
namespace bracha = turq::bracha;

Value proposal_for(ProposalDist dist, ProcessId id) {
  if (dist == ProposalDist::kUnanimous) return Value::kOne;
  return (id % 2 == 1) ? Value::kOne : Value::kZero;
}

struct Deployment {
  sim::Simulator sim;
  std::unique_ptr<net::Medium> medium;
  faultplan::BuiltPlan faults;
  std::vector<std::unique_ptr<sim::VirtualCpu>> cpus;
  std::vector<std::unique_ptr<runtime::Runtime>> runtimes;
  std::vector<ProcessId> correct;
  std::vector<ProcessId> faulty;
  std::vector<std::function<bool()>> decided;
  std::vector<std::function<std::optional<Value>()>> decision;
  std::vector<std::function<std::uint64_t()>> sent;
  std::vector<SimTime> start_at;
  std::vector<std::optional<SimTime>> decide_at;
  std::unique_ptr<audit::ConsensusAuditor> auditor;
  std::function<void(audit::ConsensusAuditor&)> audit_finalize;
  Spans* spans = nullptr;
  ReplicaStats* stats = nullptr;

  [[nodiscard]] bool is_faulty(ProcessId id) const {
    return std::find(faulty.begin(), faulty.end(), id) != faulty.end();
  }

  /// The process's runtime: the plain adapter, or the timing decorator.
  runtime::Runtime& add_runtime() {
    if (spans != nullptr) {
      runtimes.push_back(
          std::make_unique<TimedRuntime>(sim, *cpus.back(), *spans));
    } else {
      runtimes.push_back(
          std::make_unique<runtime::SimRuntime>(sim, *cpus.back()));
    }
    return *runtimes.back();
  }

  void resize(std::uint32_t n) {
    decided.resize(n);
    decision.resize(n);
    sent.resize(n);
    start_at.resize(n, 0);
    decide_at.resize(n);
  }
};

void prepare(const ScenarioConfig& cfg, const faultplan::FaultPlan& plan,
             Deployment& d, Rng& root) {
  const std::uint32_t f = cfg.f();
  for (ProcessId id = 0; id < cfg.n; ++id) {
    if (plan.role != faultplan::Role::kNone && id >= cfg.n - f) {
      d.faulty.push_back(id);
    } else {
      d.correct.push_back(id);
    }
  }

  d.medium = std::make_unique<net::Medium>(d.sim, cfg.medium,
                                           root.derive("medium", 0));
  faultplan::BuildContext ctx;
  ctx.n = cfg.n;
  ctx.f = cfg.f();
  ctx.k = cfg.k();
  ctx.t = plan.role == faultplan::Role::kNone ? 0 : cfg.f();
  ctx.ambient_loss_rate = cfg.loss_rate;
  ctx.ambient_bursts = cfg.bursty_loss;
  ctx.ambient_burst_params = cfg.burst_params;
  constexpr SimDuration kFrameSlot = 2 * turq::kMillisecond;
  const SimDuration exchange = static_cast<SimDuration>(cfg.n) * kFrameSlot;
  const SimDuration ticks_per_round =
      (exchange + cfg.tick_interval - 1) / cfg.tick_interval;
  ctx.round_duration =
      cfg.tick_interval * std::max<SimDuration>(SimDuration{1}, ticks_per_round);
  ctx.root = root;
  d.faults = faultplan::build(plan, ctx);
  d.medium->set_fault_injector(d.faults.injector.get());

  if (cfg.audit) {
    audit::AuditConfig acfg;
    acfg.n = cfg.n;
    acfg.f = cfg.f();
    acfg.k = cfg.k();
    acfg.phase_bound = cfg.audit_phase_bound;
    d.auditor = std::make_unique<audit::ConsensusAuditor>(acfg);
  }
  d.resize(cfg.n);
}

/// Schedules every live process's proposal (or crashes it), drawing start
/// offsets from the repetition's "start" stream in id order.
template <typename Proc>
void start(const ScenarioConfig& cfg, const faultplan::FaultPlan& plan,
           Deployment& d, Rng& root,
           const std::vector<std::unique_ptr<Proc>>& procs) {
  Rng start_rng = root.derive("start", 0);
  for (ProcessId id = 0; id < cfg.n; ++id) {
    const bool faulty = d.is_faulty(id);
    if (faulty && plan.role == faultplan::Role::kFailStop) {
      procs[id]->crash();
      continue;
    }
    const auto offset = static_cast<SimDuration>(start_rng.uniform(
        static_cast<std::uint64_t>(cfg.start_spread) + 1));
    d.start_at[id] = offset;
    if (!faulty && d.auditor != nullptr) {
      d.auditor->on_propose(id, proposal_for(cfg.distribution, id), offset);
    }
    d.sim.schedule_at(offset, [p = procs[id].get(),
                               v = proposal_for(cfg.distribution, id)] {
      p->propose(v);
    });
  }
}

RunResult collect(const ScenarioConfig& cfg, Deployment& d) {
  RunResult result;
  const SimTime deadline = cfg.run_timeout;
  while (d.sim.now() < deadline) {
    bool all = true;
    for (const ProcessId id : d.correct) {
      if (d.decided[id]()) {
        if (!d.decide_at[id].has_value()) d.decide_at[id] = d.sim.now();
      } else {
        all = false;
      }
    }
    if (all) break;
    const SimTime slice =
        std::min<SimTime>(deadline, d.sim.now() + turq::kMillisecond);
    std::size_t ran = 0;
    {
      SpanScope span(d.spans, Layer::kSim);
      ran = d.sim.run_until(slice);
    }
    d.stats->sim_events += ran;
    if (ran == 0 && d.sim.idle()) break;
  }

  std::optional<Value> agreed;
  std::size_t decided_count = 0;
  result.all_correct_decided = true;
  for (const ProcessId id : d.correct) {
    if (!d.decided[id]()) {
      result.all_correct_decided = false;
      continue;
    }
    ++decided_count;
    const auto v = d.decision[id]();
    TURQ_ASSERT(v.has_value());
    if (agreed.has_value() && *agreed != *v) result.agreement_held = false;
    agreed = *v;
    const SimTime at = d.decide_at[id].value_or(d.sim.now());
    result.latencies_ms.push_back(turq::to_milliseconds(at - d.start_at[id]));
  }
  result.k_decided = decided_count >= cfg.k();
  result.decision = agreed;
  if (cfg.distribution == ProposalDist::kUnanimous && agreed.has_value() &&
      *agreed != Value::kOne) {
    result.validity_held = false;
  }

  result.medium = d.medium->stats();
  for (const ProcessId id : d.correct) result.app_messages += d.sent[id]();
  if (d.faults.sigma != nullptr) result.sigma = d.faults.sigma->summary();

  if (d.auditor != nullptr) {
    SpanScope span(d.spans, Layer::kAuditFinish);
    if (d.audit_finalize) d.audit_finalize(*d.auditor);
    result.audit = d.auditor->finish(result.sigma, result.all_correct_decided);
  }
  for (const auto& cpu : d.cpus) {
    d.stats->modelled_cpu_ns += static_cast<std::uint64_t>(cpu->total_busy());
  }

  return result;
}

RunResult run_turquois(const ScenarioConfig& cfg,
                       const faultplan::FaultPlan& plan, Rng root,
                       const turq::harness::ScenarioSetup& setup,
                       const ReplicaProbes& probes, Deployment& d) {
  prepare(cfg, plan, d, root);
  turquois::Config tcfg = turquois::Config::for_group(cfg.n);
  tcfg.tick_interval = cfg.tick_interval;
  tcfg.tick_jitter = cfg.tick_jitter;
  if (!setup.turquois_keys.has_value()) {
    throw std::invalid_argument("Turquois replica needs hoisted keys");
  }
  const turquois::KeyInfrastructure& keys = *setup.turquois_keys;

  std::unique_ptr<turquois::ExchangePool> exchange_pool;
  if (cfg.exchange_pool) {
    exchange_pool =
        std::make_unique<turquois::ExchangePool>(keys, tcfg, nullptr);
  }
  // Declared before the endpoints, which detach from it on destruction.
  std::optional<TimedBroadcastService> timed_bus;
  net::BroadcastService* bus = d.medium.get();
  if (probes.spans != nullptr) {
    timed_bus.emplace(*d.medium, *probes.spans, probes.frames);
    bus = &*timed_bus;
  }
  std::vector<std::unique_ptr<net::BroadcastEndpoint>> endpoints;
  std::vector<std::unique_ptr<turquois::Process>> procs;

  const bool fail_stop = plan.role == faultplan::Role::kFailStop;
  for (ProcessId id = 0; id < cfg.n; ++id) {
    d.cpus.push_back(std::make_unique<sim::VirtualCpu>(d.sim));
    runtime::Runtime& rt = d.add_runtime();
    endpoints.push_back(
        std::make_unique<net::BroadcastEndpoint>(d.sim, *bus, id));
    const bool correct = !d.is_faulty(id);
    audit::ConsensusAuditor* auditor = correct ? d.auditor.get() : nullptr;
    turquois::ProcessHooks hooks;
    hooks.exchange_pool = exchange_pool.get();
    hooks.on_decide = [&d, id, auditor](Value v, turquois::Phase phase,
                                        SimTime at) {
      SpanScope span(d.spans, Layer::kHook);
      d.decide_at[id] = at;
      if (auditor != nullptr) auditor->on_decide(id, v, phase, at);
    };
    if (auditor != nullptr) {
      hooks.on_phase = [&d, id, auditor](turquois::Phase phase, SimTime at) {
        SpanScope span(d.spans, Layer::kHook);
        auditor->on_phase(id, phase, at);
      };
    }
    if (!correct && !fail_stop) {
      hooks.mutate_outgoing =
          cfg.attack == turq::harness::TurquoisAttack::kDecidedCoinForge
              ? turq::adversary::turquois_decided_coin_forge()
              : turq::adversary::turquois_value_inversion();
    }
    procs.push_back(std::make_unique<turquois::Process>(
        rt, *endpoints.back(), tcfg, keys, id, root.derive("proc", id),
        cfg.costs, std::move(hooks)));
    auto* p = procs.back().get();
    d.decided[id] = [p] { return p->decided(); };
    d.decision[id] = [p]() -> std::optional<Value> {
      return p->decided() ? std::optional<Value>(p->decision()) : std::nullopt;
    };
    d.sent[id] = [p] { return p->stats().broadcasts; };
  }
  start(cfg, plan, d, root, procs);

  if (d.auditor != nullptr) {
    // The harness's decide-quorum view scan (quorum sanity).
    std::vector<turquois::Process*> raw;
    for (const auto& p : procs) raw.push_back(p.get());
    d.audit_finalize = [&d, tcfg, raw](audit::ConsensusAuditor& auditor) {
      for (const ProcessId id : d.correct) {
        const turquois::Process* p = raw[id];
        if (!p->decided()) continue;
        const Value v = p->decision();
        const turquois::Message* highest = p->view().highest_phase_message();
        bool evidence = false;
        if (highest != nullptr) {
          for (turquois::Phase dph = 3; dph <= highest->phase; dph += 3) {
            if (tcfg.exceeds_quorum(p->view().count_phase_value(dph, v))) {
              evidence = true;
              break;
            }
          }
        }
        if (!evidence) {
          auditor.note_violation(
              audit::Property::kQuorumSanity, id,
              "decided " + turq::to_string(v) +
                  " without a decide-phase quorum for it in the final view");
        }
      }
    };
  }

  return collect(cfg, d);
}

RunResult run_bracha(const ScenarioConfig& cfg,
                     const faultplan::FaultPlan& plan, Rng root,
                     const turq::harness::ScenarioSetup& setup,
                     Deployment& d) {
  prepare(cfg, plan, d, root);
  const bracha::Config bcfg = bracha::Config::for_group(cfg.n);
  net::TcpConfig tcp = cfg.tcp;
  tcp.authenticate = true;
  if (setup.sa_keys.empty()) {
    throw std::invalid_argument("Bracha replica needs hoisted SA keys");
  }

  std::vector<std::unique_ptr<net::TcpHost>> hosts;
  std::vector<std::unique_ptr<bracha::Process>> procs;
  for (ProcessId id = 0; id < cfg.n; ++id) {
    d.cpus.push_back(std::make_unique<sim::VirtualCpu>(d.sim));
    hosts.push_back(std::make_unique<net::TcpHost>(
        d.sim, *d.medium, id, tcp, d.cpus.back().get(), &cfg.costs));
    for (ProcessId peer = 0; peer < cfg.n; ++peer) {
      hosts.back()->set_peer_key(peer, setup.sa_keys[id][peer]);
    }
    const bool faulty = d.is_faulty(id);
    const auto strategy = (faulty && plan.role == faultplan::Role::kByzantine)
                              ? bracha::Strategy::kValueInversion
                              : bracha::Strategy::kHonest;
    audit::ConsensusAuditor* auditor = faulty ? nullptr : d.auditor.get();
    bracha::ProcessHooks hooks;
    hooks.on_decide = [&d, id, auditor](Value v, std::uint32_t round,
                                        SimTime at) {
      SpanScope span(d.spans, Layer::kHook);
      d.decide_at[id] = at;
      if (auditor != nullptr) auditor->on_decide(id, v, round, at);
    };
    if (auditor != nullptr) {
      hooks.on_round = [&d, id, auditor](std::uint32_t round, SimTime at) {
        SpanScope span(d.spans, Layer::kHook);
        auditor->on_phase(id, round, at);
      };
    }
    runtime::Runtime& rt = d.add_runtime();
    procs.push_back(std::make_unique<bracha::Process>(
        rt, *hosts.back(), bcfg, id, root.derive("proc", id), cfg.costs,
        strategy, std::move(hooks)));
    auto* p = procs.back().get();
    d.decided[id] = [p] { return p->decided(); };
    d.decision[id] = [p]() -> std::optional<Value> {
      return p->decided() ? std::optional<Value>(p->decision()) : std::nullopt;
    };
    d.sent[id] = [p] { return p->stats().messages_sent; };
  }
  if (plan.role == faultplan::Role::kFailStop) {
    for (ProcessId alive = 0; alive < cfg.n; ++alive) {
      for (const ProcessId dead : d.faulty) hosts[alive]->disconnect_peer(dead);
    }
  }
  start(cfg, plan, d, root, procs);

  RunResult result = collect(cfg, d);
  for (const auto& host : hosts) {
    const auto s = host->stats();
    result.tcp.messages_sent += s.messages_sent;
    result.tcp.segments_sent += s.segments_sent;
    result.tcp.segments_retransmitted += s.segments_retransmitted;
    result.tcp.rto_fires += s.rto_fires;
    result.tcp.fast_retransmits += s.fast_retransmits;
  }
  return result;
}

}  // namespace

RunResult run_replica(const ScenarioConfig& cfg, std::uint64_t rep,
                      const turq::harness::ScenarioSetup& setup,
                      const ReplicaProbes& probes, ReplicaStats& stats) {
  if (cfg.spatial.active()) {
    throw std::invalid_argument("the replica deployment is single-hop only");
  }
  const Rng root = Rng::stream(cfg.seed, "rep", rep);
  const faultplan::FaultPlan plan = cfg.effective_plan();
  Deployment d;
  d.spans = probes.spans;
  d.stats = &stats;
  switch (cfg.protocol) {
    case turq::harness::Protocol::kTurquois:
      return run_turquois(cfg, plan, root, setup, probes, d);
    case turq::harness::Protocol::kBracha:
      return run_bracha(cfg, plan, root, setup, d);
    default:
      throw std::invalid_argument("the replica runs Turquois and Bracha");
  }
}

}  // namespace perfbench
