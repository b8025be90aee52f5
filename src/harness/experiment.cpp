#include "harness/experiment.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "common/logging.hpp"
#include "harness/scheduler.hpp"
#include "trace/trace.hpp"

namespace turq::harness {

std::string to_string(ProposalDist d) {
  return d == ProposalDist::kUnanimous ? "unanimous" : "divergent";
}

std::string to_string(TurquoisAttack a) {
  switch (a) {
    case TurquoisAttack::kValueInversion: return "value-inversion";
    case TurquoisAttack::kDecidedCoinForge: return "decided-coin";
  }
  return "?";
}

std::optional<ProposalDist> parse_dist(std::string_view text) {
  for (const ProposalDist d :
       {ProposalDist::kUnanimous, ProposalDist::kDivergent}) {
    if (text == to_string(d)) return d;
  }
  return std::nullopt;
}

std::optional<TurquoisAttack> parse_attack(std::string_view text) {
  for (const TurquoisAttack a :
       {TurquoisAttack::kValueInversion, TurquoisAttack::kDecidedCoinForge}) {
    if (text == to_string(a)) return a;
  }
  return std::nullopt;
}

faultplan::FaultPlan ScenarioConfig::effective_plan() const {
  return plan.has_value()
             ? *plan
             : faultplan::canned_plan(faultplan::Role::kNone, "failure-free");
}

std::string ScenarioConfig::fault_label() const {
  return effective_plan().name;
}

std::optional<std::string> validate(const ScenarioConfig& cfg) {
  if (cfg.repetitions == 0) {
    return "repetitions must be >= 1 (a scenario with 0 repetitions has "
           "no samples to pool)";
  }
  if (cfg.n < 4) {
    return "group size n must be >= 4 (n = " + std::to_string(cfg.n) +
           " gives f = 0, which degenerates the Byzantine quorums)";
  }
  if (cfg.n > 128) {
    return "group size n must be <= 128 (n = " + std::to_string(cfg.n) +
           "; the Turquois hot path tracks senders in 128-bit bitsets)";
  }
  if (cfg.loss_rate < 0.0 || cfg.loss_rate > 1.0) {
    return "loss_rate must be a probability in [0, 1]";
  }
  if (cfg.run_timeout <= 0) {
    return "run_timeout must be > 0 (every repetition would miss its "
           "deadline at once)";
  }
  if (cfg.tick_interval <= 0) {
    return "tick_interval must be > 0 (the sigma round is a whole number "
           "of ticks)";
  }
  if (!(cfg.medium.broadcast_rate_bps > 0.0)) {
    return "medium broadcast rate must be > 0 bps (a frame would take "
           "forever on the air)";
  }
  if (cfg.intra_jobs != 1) {
    return "intra_jobs must be 1 (a repetition runs on one thread)";
  }
  if (!cfg.exchange_pool) {
    return "exchange_pool must be true (every Turquois delivery is decoded "
           "through a shared exchange pool)";
  }
  if (cfg.plan.has_value()) {
    if (const auto reason = cfg.plan->validate(cfg.n)) {
      return "fault plan: " + *reason;
    }
  }
  if (cfg.spatial.topology_set()) {
    const spatial::SpatialConfig& sp = cfg.spatial;
    if (!(sp.radius_m > 0.0)) {
      return "spatial: radius must be > 0 (use radius=inf for single-hop)";
    }
    if (!(sp.area_m > 0.0)) return "spatial: area side must be > 0";
    if (sp.cs_factor < 1.0) {
      return "spatial: carrier-sense factor must be >= 1 (sensing range "
             "cannot be shorter than delivery range)";
    }
    if (sp.fading_sigma_db < 0.0) {
      return "spatial: fading sigma must be >= 0 dB";
    }
    if (sp.mobility == spatial::Mobility::kWaypoint) {
      if (!(sp.speed_min_mps > 0.0) || sp.speed_max_mps < sp.speed_min_mps) {
        return "spatial: waypoint speeds need 0 < vmin <= vmax";
      }
    }
    if (sp.sample_interval == 0) {
      return "spatial: connectivity sample interval must be > 0";
    }
    if (cfg.relay_enabled) {
      if (cfg.relay.counter_threshold == 0) {
        return "relay: counter threshold must be >= 1";
      }
      if (cfg.relay.assess_max < cfg.relay.assess_min) {
        return "relay: assessment window needs assess_min <= assess_max";
      }
      if (cfg.relay.max_hops == 0) return "relay: max hops must be >= 1";
    }
  }
  return std::nullopt;
}

std::shared_ptr<const ScenarioSetup> make_scenario_setup(
    const ScenarioConfig& cfg) {
  auto setup = std::make_shared<ScenarioSetup>();
  protocol_info(cfg.protocol).hoist(cfg, *setup);
  return setup;
}

RunResult run_once(const ScenarioConfig& cfg, std::uint64_t rep_index) {
  return run_once(cfg, rep_index, nullptr);
}

RunResult run_once(const ScenarioConfig& cfg, std::uint64_t rep_index,
                   const ScenarioSetup* setup) {
  return traced_repetition(cfg, rep_index, [&] {
    return protocol_info(cfg.protocol).run(cfg, rep_index, setup);
  });
}

RunResult traced_repetition([[maybe_unused]] const ScenarioConfig& cfg,
                            [[maybe_unused]] std::uint64_t rep_index,
                            const std::function<RunResult()>& body) {
#if TURQ_TRACE_ENABLED
  // Each repetition gets a fresh tracer so the ring holds one run and the
  // sink receives one begin/end-marked block per repetition.
  std::optional<trace::Tracer> tracer;
  std::optional<trace::TraceScope> scope;
  if (cfg.trace_sink != nullptr) {
    trace::TracerOptions topt;
    topt.sim_events = cfg.trace_sim_events;
    tracer.emplace(topt);
    scope.emplace(&*tracer);
    tracer->emit(trace::TraceEvent{
        .at = 0, .category = trace::Category::kHarness,
        .kind = trace::Kind::kRepBegin,
        .value = static_cast<std::int64_t>(rep_index)});
  }
#endif

  RunResult result = body();

#if TURQ_TRACE_ENABLED
  if (tracer.has_value()) tracer->flush(*cfg.trace_sink);
#endif
  return result;
}

ScenarioResult pool_repetitions(const ScenarioConfig& cfg,
                                const std::vector<RepResult>& reps) {
  ScenarioResult result;
  result.config = cfg;
  // The scheduler returns repetitions ordered by index whatever cfg.jobs
  // is, so this merge — and everything derived from it — is deterministic.
  for (const RepResult& rep : reps) {
    if (rep.crashed) {
      TURQ_WARN("repetition %llu crashed: %s",
                static_cast<unsigned long long>(rep.rep_index),
                rep.error.c_str());
      ++result.failed_runs;
      continue;
    }
    const RunResult& run = rep.run;
    if (!run.agreement_held || !run.validity_held) ++result.safety_violations;
    // σ, audit and service counters are merged before the decided check: a
    // timed-out σ-violating or auditor-flagged repetition is exactly what
    // they exist to report.
    if (run.sigma.has_value()) {
      if (!result.sigma.has_value()) result.sigma.emplace();
      SigmaAggregate& agg = *result.sigma;
      const faultplan::SigmaSummary& s = *run.sigma;
      agg.bound = s.bound;
      agg.rounds += s.rounds;
      agg.violating_rounds += s.violating_rounds;
      agg.omissions += s.omissions;
      agg.max_round_omissions =
          std::max(agg.max_round_omissions, s.max_round_omissions);
      ++agg.tracked_reps;
      if (s.liveness_eligible()) ++agg.eligible_reps;
    }
    if (run.audit.has_value()) {
      if (!result.audit.has_value()) result.audit.emplace();
      if (run.service.has_value()) {
        result.audit->merge(*run.audit, run.service->audit_checked_instances,
                            run.service->audit_violating_instances);
      } else {
        result.audit->merge(*run.audit);
      }
    }
    if (run.service.has_value()) {
      if (!result.service_total.has_value()) result.service_total.emplace();
      *result.service_total += *run.service;
    }
    if (!run.all_correct_decided) {
      ++result.failed_runs;
      continue;
    }
    result.latency_ms.add_all(run.latencies_ms);
    result.app_messages += run.app_messages;
    result.sim_events += run.sim_events;
    result.datagram_decodes += run.datagram_decodes;
    result.medium_total += run.medium;
    if (run.spatial.has_value()) {
      if (!result.spatial_total.has_value()) result.spatial_total.emplace();
      *result.spatial_total += *run.spatial;
    }
  }
  return result;
}

ScenarioResult run_scenario(const ScenarioConfig& cfg) {
  if (const auto reason = validate(cfg)) {
    throw std::invalid_argument("invalid scenario: " + *reason);
  }
  return pool_repetitions(cfg, run_repetitions(cfg));
}

}  // namespace turq::harness
