#include "service/service.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "harness/scheduler.hpp"
#include "net/frame_mux.hpp"
#include "runtime/sim_runtime.hpp"
#include "sim/cpu.hpp"
#include "sim/simulator.hpp"
#include "sim/task_pool.hpp"
#include "trace/trace.hpp"
#include "turquois/exchange_pool.hpp"
#include "turquois/process.hpp"

namespace turq::service {

using harness::RunResult;
using harness::ScenarioConfig;

double commit_latency_ms(SimTime arrival, SimTime commit) {
  TURQ_ASSERT_MSG(commit >= arrival,
                  "commit cannot precede the request's arrival");
  return to_milliseconds(std::max<SimDuration>(commit - arrival, 1));
}

const char* to_string(Arrival a) {
  switch (a) {
    case Arrival::kPoisson: return "poisson";
    case Arrival::kBursty: return "bursty";
  }
  return "?";
}

namespace {

/// Exponential variate with the given rate (events per simulated second),
/// as a simulated duration. The workload generator's only randomness sink.
SimDuration exp_gap(Rng& rng, double rate_per_sec) {
  TURQ_ASSERT(rate_per_sec > 0.0);
  const double u = rng.uniform_double();  // [0, 1)
  const double seconds = -std::log1p(-u) / rate_per_sec;
  return static_cast<SimDuration>(seconds * static_cast<double>(kSecond));
}

/// Client arrival stream: plain Poisson, or Markov-modulated Poisson with
/// exponential dwells in a base and a burst state, normalized so the
/// long-run mean rate is offered_load either way.
class ArrivalGen {
 public:
  ArrivalGen(const ServiceConfig& svc, Rng rng)
      : svc_(svc), rng_(std::move(rng)) {
    // mean rate = base * ((1 - frac) + frac * factor)  =>  solve for base.
    const double boost =
        1.0 - svc.burst_fraction + svc.burst_fraction * svc.burst_factor;
    base_rate_ = svc.offered_load / boost;
    if (svc.arrival == Arrival::kBursty) {
      next_switch_ = exp_gap(rng_, to_rate(good_dwell()));
    }
  }

  /// The next arrival strictly after the previous one.
  SimTime next() {
    if (svc_.arrival == Arrival::kPoisson) {
      last_ += exp_gap(rng_, base_rate_);
      return last_;
    }
    // Bursty: walk dwell episodes until the drawn gap lands inside one.
    SimTime t = last_;
    for (;;) {
      const double rate =
          bursting_ ? base_rate_ * svc_.burst_factor : base_rate_;
      const SimDuration gap = exp_gap(rng_, rate);
      if (t + gap <= next_switch_) {
        last_ = t + gap;
        return last_;
      }
      t = next_switch_;
      bursting_ = !bursting_;
      next_switch_ =
          t + exp_gap(rng_, to_rate(bursting_ ? svc_.burst_dwell
                                              : good_dwell()));
    }
  }

 private:
  /// Base-state dwell length realizing burst_fraction of time bursting.
  [[nodiscard]] SimDuration good_dwell() const {
    const double f = std::clamp(svc_.burst_fraction, 1e-6, 1.0 - 1e-6);
    return static_cast<SimDuration>(
        static_cast<double>(svc_.burst_dwell) * (1.0 - f) / f);
  }
  static double to_rate(SimDuration mean) {
    return static_cast<double>(kSecond) / static_cast<double>(mean);
  }

  const ServiceConfig& svc_;
  Rng rng_;
  double base_rate_ = 1.0;
  bool bursting_ = false;
  SimTime last_ = 0;
  SimTime next_switch_ = 0;
};

/// One in-flight consensus instance: its processes, auditor, shared
/// prepared-exchange cache, and the batch of requests it is deciding.
struct Instance {
  std::uint32_t seq = 0;
  std::vector<std::unique_ptr<runtime::SimRuntime>> runtimes;
  std::vector<std::unique_ptr<turquois::Process>> procs;
  std::unique_ptr<turquois::ExchangePool> pool;
  std::unique_ptr<audit::ConsensusAuditor> auditor;
  std::vector<SimTime> request_arrivals;  // the admitted batch's stamps
  std::uint32_t decided_procs = 0;
  bool committed = false;
  bool finalized = false;
};

RunResult run_service_rep(const ScenarioConfig& cfg, std::uint64_t rep_index) {
  const ServiceConfig& svc = cfg.service;
  Rng root = Rng::stream(cfg.seed, "rep", rep_index);

  turquois::Config tcfg = turquois::Config::for_group(cfg.n);
  tcfg.tick_interval = cfg.tick_interval;
  tcfg.tick_jitter = cfg.tick_jitter;
  tcfg.phases_per_epoch = svc.phases_per_instance;

  sim::Simulator sim;
  net::Medium medium(sim, cfg.medium, root.derive("medium", 0));

  // Ambient channel faults, wired exactly as the single-instance harness
  // does it. validate_service pins the plan to the failure-free role, so
  // only the ambient clause injects.
  const faultplan::FaultPlan plan = cfg.effective_plan();
  faultplan::BuiltPlan faults =
      faultplan::build(plan, harness::fault_context(cfg, plan, root));
  medium.set_fault_injector(faults.injector.get());

  // Per physical node: one virtual CPU (crypto serializes on the node's
  // processor whichever instance it serves) and one frame mux (one radio —
  // all in-flight instances share its broadcast frames).
  net::FrameMuxConfig mux_cfg;
  mux_cfg.window = svc.mux_window;
  mux_cfg.max_payload_bytes =
      cfg.medium.max_frame_bytes - net::BroadcastEndpoint::kUdpIpOverhead;
  std::vector<std::unique_ptr<sim::VirtualCpu>> cpus;
  std::vector<std::unique_ptr<net::FrameMux>> muxes;
  for (ProcessId id = 0; id < cfg.n; ++id) {
    cpus.push_back(std::make_unique<sim::VirtualCpu>(sim));
    muxes.push_back(std::make_unique<net::FrameMux>(sim, medium, id, mux_cfg));
  }

  // Instance state is declared BEFORE the worker pool: teardown runs in
  // reverse, so the pool drains and joins (completing any in-flight
  // prefetch fill) while the ExchangePool entries and key material it
  // reads are still alive. For the same reason retired instances and spent
  // key batches stay allocated until the repetition ends.
  std::vector<std::vector<turquois::KeyInfrastructure>> key_batches;
  std::vector<std::unique_ptr<Instance>> instances;
  std::vector<std::uint32_t> active;  // seqs in flight, ascending
  std::unique_ptr<sim::TaskPool> intra_pool;
  if (sim::TaskPool::resolve(cfg.intra_jobs) > 1) {
    intra_pool =
        std::make_unique<sim::TaskPool>(sim::TaskPool::resolve(cfg.intra_jobs));
  }

  RunResult result;
  RepSummary sum;
  audit::AuditReport rep_audit;  // merged per-instance violations
  rep_audit.checked = cfg.audit;
  std::uint64_t pool_acquires = 0;
  std::uint64_t pool_hits = 0;

  // Open-loop client arrivals, stamped into the replicated queue (or
  // rejected at the admission bound). Generation is lazy — each arrival
  // event schedules the next — so large request counts don't
  // pre-materialize their event queue.
  std::deque<SimTime> queue;
  ArrivalGen gen(svc, root.derive("svc-arrivals", 0));
  std::function<void(SimTime)> schedule_arrival = [&](SimTime at) {
    sim.schedule_at(at, [&, at] {
      ++sum.arrivals;
      if (queue.size() >= svc.queue_capacity) {
        ++sum.rejected;
      } else {
        queue.push_back(at);
      }
      if (sum.arrivals < svc.total_requests) schedule_arrival(gen.next());
    });
  };
  schedule_arrival(gen.next());

  const std::uint32_t kb = svc.effective_key_batch();
  std::uint32_t next_seq = 0;

  auto launch = [&]() {
    const std::uint32_t seq = next_seq++;
    const std::uint32_t batch_index = seq / kb;
    if (batch_index >= key_batches.size()) {
      // One trusted-setup pass keys the next kb instances: one RNG draw
      // pass, one 8-way SHA-256 sweep, one RSA pair per process.
      Rng key_rng = root.derive("svc-keys", batch_index);
      key_batches.push_back(
          turquois::KeyInfrastructure::setup_batch(tcfg, key_rng, kb));
      ++sum.key_batches;
    }
    const turquois::KeyInfrastructure& infra =
        key_batches[batch_index][seq % kb];

    auto inst = std::make_unique<Instance>();
    Instance* raw = inst.get();
    raw->seq = seq;
    const std::size_t take = std::min<std::size_t>(svc.batch, queue.size());
    raw->request_arrivals.assign(queue.begin(),
                                 queue.begin() + static_cast<long>(take));
    queue.erase(queue.begin(), queue.begin() + static_cast<long>(take));
    if (cfg.audit) {
      audit::AuditConfig acfg;
      acfg.n = cfg.n;
      acfg.f = cfg.f();
      acfg.k = cfg.k();
      acfg.phase_bound = cfg.audit_phase_bound;
      raw->auditor = std::make_unique<audit::ConsensusAuditor>(acfg);
    }
    if (cfg.exchange_pool) {
      raw->pool = std::make_unique<turquois::ExchangePool>(infra, tcfg,
                                                           intra_pool.get());
    }

    // Every process proposes kOne: the servers all hold the replicated
    // batch, so admission is the unanimous load (Validity then pins the
    // decision to kOne).
    Rng start_rng = root.derive("svc-start", seq);
    for (ProcessId id = 0; id < cfg.n; ++id) {
      audit::ConsensusAuditor* auditor = raw->auditor.get();
      turquois::ProcessHooks hooks;
      hooks.exchange_pool = raw->pool.get();
      hooks.on_decide = [raw, id, auditor, &result, &sum,
                         k = cfg.k()](Value v, turquois::Phase phase,
                                      SimTime at) {
        if (auditor != nullptr) auditor->on_decide(id, v, phase, at);
        ++raw->decided_procs;
        if (!raw->committed && raw->decided_procs >= k) {
          // The k-th process decided: the slot's batch is committed. Stamp
          // each request's end-to-end latency.
          raw->committed = true;
          for (const SimTime arrival : raw->request_arrivals) {
            result.latencies_ms.push_back(commit_latency_ms(arrival, at));
          }
          sum.committed += raw->request_arrivals.size();
        }
      };
      if (auditor != nullptr) {
        hooks.on_phase = [id, auditor](turquois::Phase phase, SimTime at) {
          auditor->on_phase(id, phase, at);
        };
      }
      raw->runtimes.push_back(
          std::make_unique<runtime::SimRuntime>(sim, *cpus[id]));
      raw->procs.push_back(std::make_unique<turquois::Process>(
          *raw->runtimes.back(), muxes[id]->port(seq), tcfg, infra, id,
          root.derive("svc-proc",
                      static_cast<std::uint64_t>(seq) * cfg.n + id),
          cfg.costs, std::move(hooks)));
      turquois::Process* p = raw->procs.back().get();
      const auto offset = static_cast<SimDuration>(start_rng.uniform(
          static_cast<std::uint64_t>(cfg.start_spread) + 1));
      if (auditor != nullptr) {
        auditor->on_propose(id, Value::kOne, sim.now() + offset);
      }
      sim.schedule(offset, [p] { p->propose(Value::kOne); });
    }
    active.push_back(seq);
    instances.push_back(std::move(inst));
    ++sum.instances_launched;
  };

  auto finalize = [&](Instance& inst) {
    inst.finalized = true;
    ++sum.instances_decided;
    // Per-instance safety: Agreement across the instance's processes,
    // Validity against the unanimous kOne proposal.
    std::optional<Value> agreed;
    for (const auto& p : inst.procs) {
      if (!p->decided()) continue;
      if (agreed.has_value() && *agreed != p->decision()) {
        result.agreement_held = false;
      }
      agreed = p->decision();
      if (p->decision() != Value::kOne) result.validity_held = false;
    }
    if (inst.auditor != nullptr) {
      // Quorum sanity, the same view scan the harness runs.
      for (const auto& p : inst.procs) {
        if (!p->decided()) continue;
        const Value v = p->decision();
        if (!turquois::has_decide_quorum(p->view(), tcfg, v)) {
          inst.auditor->note_violation(
              audit::Property::kQuorumSanity, p->id(),
              "decided " + turq::to_string(v) +
                  " without a decide-phase quorum for it in the final view");
        }
      }
      // σ accounting is per repetition, not per instance, so each
      // instance's report skips the σ-liveness clause (finish with no
      // summary); the deadline verdict is true by construction — the
      // instance is finalized because all n processes decided.
      const audit::AuditReport report =
          inst.auditor->finish(std::nullopt, /*all_correct_decided=*/true);
      ++sum.audit_checked_instances;
      if (!report.passed()) ++sum.audit_violating_instances;
      for (const audit::Violation& v : report.violations) {
        rep_audit.violations.push_back(v);
      }
    }
    for (const auto& p : inst.procs) {
      result.app_messages += p->stats().broadcasts;
      p->crash();  // closes the instance port before the mux retires it
    }
    if (inst.pool != nullptr) {
      const turquois::ExchangePool::Stats& ps = inst.pool->stats();
      pool_acquires += ps.acquires;
      pool_hits += ps.shared_hits;
    }
    for (ProcessId id = 0; id < cfg.n; ++id) muxes[id]->retire(inst.seq);
  };

  // Drive loop (collect()'s shape): 1 ms slices; between slices finalize
  // fully decided instances, refill the pipeline window from the queue,
  // and test for completion. Refilling between slices quantizes launch
  // times to the slice boundary — deterministically.
  const SimTime deadline = cfg.run_timeout;
  for (;;) {
    for (std::size_t i = 0; i < active.size();) {
      Instance& inst = *instances[active[i]];
      if (!inst.finalized && inst.decided_procs >= cfg.n) {
        finalize(inst);
        active.erase(active.begin() + static_cast<long>(i));
      } else {
        ++i;
      }
    }
    while (active.size() < svc.pipeline_depth && !queue.empty()) launch();
    if (sum.arrivals >= svc.total_requests && queue.empty() &&
        active.empty()) {
      break;
    }
    if (sim.now() >= deadline) break;
    const SimTime slice = std::min<SimTime>(deadline, sim.now() + kMillisecond);
    if (sim.run_until(slice) == 0 && sim.idle()) break;
  }
  sum.finished_at = sim.now();
  sum.instances_failed = active.size();
  // One latency sample per committed request, none for rejected or still
  // in-flight ones: rejection happens before the queue, so a rejected
  // arrival can never reach an instance batch and be stamped.
  TURQ_ASSERT_MSG(result.latencies_ms.size() == sum.committed,
                  "latency samples must match committed requests 1:1");

  for (const auto& mux : muxes) {
    const net::FrameMux::Stats& ms = mux->stats();
    sum.mux_frames += ms.frames_sent;
    sum.mux_payloads += ms.payloads_sent;
    sum.mux_splits += ms.frame_splits;
    sum.mux_late_drops += ms.late_drops;
    sum.mux_superseded += ms.superseded;
  }

  result.all_correct_decided = sum.arrivals >= svc.total_requests &&
                               queue.empty() && sum.instances_failed == 0;
  result.k_decided = result.all_correct_decided;
  if (sum.committed > 0) result.decision = Value::kOne;
  result.medium = medium.stats();
  if (cfg.audit) result.audit = std::move(rep_audit);
  result.service = sum;

#if TURQ_TRACE_ENABLED
  if (trace::Tracer* t = trace::current()) {
    t->metrics().merge(medium.metrics());
    auto& m = t->metrics();
    m.counter("app.messages")
        .add(static_cast<std::int64_t>(result.app_messages));
    m.counter("service.arrivals").add(static_cast<std::int64_t>(sum.arrivals));
    m.counter("service.committed")
        .add(static_cast<std::int64_t>(sum.committed));
    m.counter("service.rejected").add(static_cast<std::int64_t>(sum.rejected));
    m.counter("service.instances_launched")
        .add(static_cast<std::int64_t>(sum.instances_launched));
    m.counter("service.instances_decided")
        .add(static_cast<std::int64_t>(sum.instances_decided));
    m.counter("service.instances_failed")
        .add(static_cast<std::int64_t>(sum.instances_failed));
    m.counter("service.key_batches")
        .add(static_cast<std::int64_t>(sum.key_batches));
    m.counter("service.mux_frames")
        .add(static_cast<std::int64_t>(sum.mux_frames));
    m.counter("service.mux_payloads")
        .add(static_cast<std::int64_t>(sum.mux_payloads));
    m.counter("service.mux_splits")
        .add(static_cast<std::int64_t>(sum.mux_splits));
    m.counter("service.mux_late_drops")
        .add(static_cast<std::int64_t>(sum.mux_late_drops));
    m.counter("service.mux_superseded")
        .add(static_cast<std::int64_t>(sum.mux_superseded));
    if (cfg.exchange_pool) {
      // Acquire-side counters only — deterministic at any --intra-jobs
      // (see ExchangePool::Stats), summed over this repetition's instances.
      m.counter("exchange_pool.acquires")
          .add(static_cast<std::int64_t>(pool_acquires));
      m.counter("exchange_pool.hits")
          .add(static_cast<std::int64_t>(pool_hits));
      m.counter("exchange_pool.misses")
          .add(static_cast<std::int64_t>(pool_acquires - pool_hits));
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
        .at = sim.now(), .category = trace::Category::kHarness,
        .kind = trace::Kind::kRepEnd,
        .value = static_cast<std::int64_t>(rep_index)});
  }
#endif
  return result;
}

}  // namespace

std::optional<std::string> validate_service(const ScenarioConfig& cfg) {
  const ServiceConfig& svc = cfg.service;
  if (!svc.enabled) return "service: ServiceConfig::enabled must be set";
  if (cfg.protocol != harness::Protocol::kTurquois) {
    return "service: only the Turquois protocol runs under the service layer";
  }
  if (svc.pipeline_depth == 0) return "service: pipeline depth W must be >= 1";
  if (svc.batch == 0) return "service: proposal batch B must be >= 1";
  if (!(svc.offered_load > 0.0)) {
    return "service: offered load must be > 0 requests per second";
  }
  if (svc.total_requests == 0) return "service: need total_requests >= 1";
  if (svc.queue_capacity == 0) return "service: queue capacity must be >= 1";
  if (svc.phases_per_instance < 6 || svc.phases_per_instance % 3 != 0) {
    return "service: phases_per_instance must be a multiple of 3 and >= 6 "
           "(chains must cover whole CONVERGE/LOCK/DECIDE cycles)";
  }
  if (svc.arrival == Arrival::kBursty) {
    if (!(svc.burst_factor >= 1.0)) return "service: burst factor must be >= 1";
    if (!(svc.burst_fraction > 0.0) || !(svc.burst_fraction < 1.0)) {
      return "service: burst fraction must be in (0, 1)";
    }
    if (svc.burst_dwell == 0) return "service: burst dwell must be > 0";
  }
  if (cfg.spatial.active()) {
    return "service: spatial topologies are not yet supported under the "
           "service layer";
  }
  const faultplan::FaultPlan plan = cfg.effective_plan();
  if (plan.role != faultplan::Role::kNone) {
    return "service: only the failure-free fault load is supported (got "
           "role-bearing plan '" +
           plan.name + "')";
  }
  return std::nullopt;
}

RunResult run_service_once(const ScenarioConfig& cfg, std::uint64_t rep_index) {
  return harness::traced_repetition(
      cfg, rep_index, [&] { return run_service_rep(cfg, rep_index); });
}

double ServiceScenarioResult::committed_per_sim_sec() const {
  const double secs =
      static_cast<double>(totals.finished_at) / static_cast<double>(kSecond);
  return secs > 0.0 ? static_cast<double>(totals.committed) / secs : 0.0;
}

double ServiceScenarioResult::instances_per_sim_sec() const {
  const double secs =
      static_cast<double>(totals.finished_at) / static_cast<double>(kSecond);
  return secs > 0.0 ? static_cast<double>(totals.instances_decided) / secs
                    : 0.0;
}

ServiceScenarioResult run_service(const ScenarioConfig& cfg) {
  if (const auto reason = harness::validate(cfg)) {
    throw std::invalid_argument("invalid scenario: " + *reason);
  }
  if (const auto reason = validate_service(cfg)) {
    throw std::invalid_argument("invalid scenario: " + *reason);
  }

  ServiceScenarioResult result;
  result.config = cfg;
  const auto reps = harness::run_repetitions(
      cfg, [](const ScenarioConfig& c, std::uint64_t rep) {
        return run_service_once(c, rep);
      });
  for (const harness::RepResult& rep : reps) {
    if (rep.crashed) {
      TURQ_WARN("service repetition %llu crashed: %s",
                static_cast<unsigned long long>(rep.rep_index),
                rep.error.c_str());
      ++result.failed_runs;
      continue;
    }
    const RunResult& run = rep.run;
    if (!run.agreement_held || !run.validity_held ||
        (run.audit.has_value() && !run.audit->passed())) {
      ++result.safety_violations;
    }
    if (run.audit.has_value()) {
      // Instance-grained merge: checked/violating count instances (from the
      // repetition summary below); the violation details ride the merged
      // per-repetition report.
      if (!result.audit.has_value()) result.audit.emplace();
      result.audit->violations += run.audit->violations.size();
      for (const audit::Violation& v : run.audit->violations) {
        ++result.audit->by_property[static_cast<std::size_t>(v.property)];
      }
    }
    if (run.service.has_value()) {
      const RepSummary& s = *run.service;
      if (result.audit.has_value()) {
        result.audit->checked_reps += s.audit_checked_instances;
        result.audit->violating_reps += s.audit_violating_instances;
      }
      RepSummary& t = result.totals;
      t.arrivals += s.arrivals;
      t.committed += s.committed;
      t.rejected += s.rejected;
      t.instances_launched += s.instances_launched;
      t.instances_decided += s.instances_decided;
      t.instances_failed += s.instances_failed;
      t.key_batches += s.key_batches;
      t.audit_checked_instances += s.audit_checked_instances;
      t.audit_violating_instances += s.audit_violating_instances;
      t.finished_at += s.finished_at;
      t.mux_frames += s.mux_frames;
      t.mux_payloads += s.mux_payloads;
      t.mux_splits += s.mux_splits;
      t.mux_late_drops += s.mux_late_drops;
      t.mux_superseded += s.mux_superseded;
    }
    if (!run.all_correct_decided) {
      ++result.failed_runs;
      continue;
    }
    result.latency_ms.add_all(run.latencies_ms);
    result.app_messages += run.app_messages;
    result.medium_total += run.medium;
  }
  return result;
}

}  // namespace turq::service
