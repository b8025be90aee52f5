#include "service/service.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/assert.hpp"
#include "crypto/onetime_sig.hpp"
#include "harness/deployment.hpp"
#include "harness/scheduler.hpp"
#include "net/frame_mux.hpp"
#include "runtime/sim_runtime.hpp"
#include "sim/simulator.hpp"
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
    base_rate_ = svc.offered_load;
    if (svc.arrival == Arrival::kBursty) {
      // mean rate = base * ((1 - frac) + frac * factor)  =>  solve for base.
      base_rate_ /=
          1.0 - svc.burst_fraction + svc.burst_fraction * svc.burst_factor;
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

/// One slot of the replicated queue: a consensus instance deciding the
/// admission of a batch of requests, with its processes and its shared
/// prepared-exchange cache.
struct Slot {
  Slot(const ScenarioConfig& cfg, std::uint32_t index)
      : seq(index), consensus(cfg, cfg.n) {}

  std::uint32_t seq;
  harness::ConsensusInstance consensus;  // every process is correct
  std::vector<std::unique_ptr<runtime::SimRuntime>> runtimes;
  std::vector<std::unique_ptr<turquois::Process>> procs;
  std::unique_ptr<turquois::ExchangePool> pool;
  std::vector<SimTime> request_arrivals;  // the admitted batch's stamps
  bool committed = false;
  /// Set at finalize: the latest time any node's CPU is busy with work
  /// queued so far, which includes every completion the crashed processes
  /// still have pending. The slot may be destroyed once time passes it.
  SimTime reclaim_at = 0;
};

/// One trusted-setup pass: the keys of `kb` consecutive instances, freed
/// when the last of them is reclaimed (processes and pools hold references).
struct KeyBatch {
  std::vector<turquois::KeyInfrastructure> keys;
  std::uint32_t reclaimed = 0;
};

RunResult run_service_rep(const ScenarioConfig& cfg, std::uint64_t rep_index) {
  const ServiceConfig& svc = cfg.service;
  // validate_service pins the plan to the failure-free role and a single
  // hop, so only ambient clauses inject and no relay is needed.
  harness::Repetition rep(cfg, rep_index, harness::Transport::kBroadcast);
  sim::Simulator& sim = rep.sim();

  turquois::Config tcfg = turquois::Config::for_group(cfg.n);
  tcfg.tick_interval = cfg.tick_interval;
  tcfg.tick_jitter = cfg.tick_jitter;
  tcfg.phases_per_epoch = svc.phases_per_instance;

  // Per physical node one frame mux (one radio — all in-flight instances
  // share its broadcast frames) beside the repetition's virtual CPU.
  net::FrameMuxConfig mux_cfg;
  mux_cfg.window = svc.mux_window;
  mux_cfg.max_payload_bytes =
      cfg.medium.max_frame_bytes - net::BroadcastEndpoint::kUdpIpOverhead;
  std::vector<std::unique_ptr<net::FrameMux>> muxes;
  for (ProcessId id = 0; id < cfg.n; ++id) {
    muxes.push_back(
        std::make_unique<net::FrameMux>(sim, rep.medium(), id, mux_cfg));
  }

  // Instance lifecycle (DESIGN.md §15): launch into `active`; finalize
  // (crash, retire ports) into `draining`; destroy once every CPU has run
  // what was queued at finalize; free the key batch after its last
  // instance. Declared after key_batches, so slots die before their keys.
  std::vector<KeyBatch> key_batches;
  std::vector<std::unique_ptr<Slot>> active;    // in flight, ascending seq
  std::vector<std::unique_ptr<Slot>> draining;  // finalized, CPUs busy
  // Traced even when no instance finishes.
  rep.exchange_pool.emplace();

  RunResult result;
  RepSummary sum;
  audit::AuditReport rep_audit;  // merged per-instance violations
  rep_audit.checked = cfg.audit;

  // Open-loop client arrivals, stamped into the replicated queue (or
  // rejected at the admission bound). Generation is lazy — each arrival
  // event schedules the next — so large request counts don't
  // pre-materialize their event queue.
  std::deque<SimTime> queue;
  ArrivalGen gen(svc, rep.root.derive("svc-arrivals", 0));
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

  // One trusted-setup pass keys a window's worth of instances.
  const std::uint32_t kb = svc.pipeline_depth;
  // Epochs are whole CONVERGE/LOCK/DECIDE cycles (validate_service), so
  // every epoch's chain holds as many keys as the first.
  const std::uint64_t keys_per_epoch =
      crypto::ots_key_count(1, svc.phases_per_instance);
  std::uint32_t next_seq = 0;

  // Key and authentication counters of an instance's processes, summed
  // once they are done: at finalize, or at the end of the run for an
  // instance that never decided.
  auto tally_keys = [&](const Slot& slot) {
    for (const auto& p : slot.procs) {
      sum.ots_keys += p->stats().key_rollovers * keys_per_epoch;
      sum.auth_failures += p->stats().auth_failures;
    }
  };

  auto launch = [&]() {
    const std::uint32_t seq = next_seq++;
    const std::uint32_t batch_index = seq / kb;
    if (batch_index >= key_batches.size()) {
      // One trusted-setup pass keys the next kb instances: one RNG draw
      // pass, one 8-way SHA-256 sweep, one RSA pair per process.
      Rng key_rng = rep.root.derive("svc-keys", batch_index);
      key_batches.push_back(
          {turquois::KeyInfrastructure::setup_batch(tcfg, key_rng, kb)});
      ++sum.key_batches;
      sum.ots_keys += std::uint64_t{kb} * cfg.n * keys_per_epoch;
    }
    const turquois::KeyInfrastructure& infra =
        key_batches[batch_index].keys[seq % kb];

    auto owned = std::make_unique<Slot>(cfg, seq);
    Slot* slot = owned.get();
    const std::size_t take = std::min<std::size_t>(svc.batch, queue.size());
    slot->request_arrivals.assign(queue.begin(),
                                  queue.begin() + static_cast<long>(take));
    queue.erase(queue.begin(), queue.begin() + static_cast<long>(take));
    slot->pool = std::make_unique<turquois::ExchangePool>(infra, tcfg);

    // Every process proposes kOne: the servers all hold the replicated
    // batch, so admission is the unanimous load (Validity then pins the
    // decision to kOne).
    Rng start_rng = rep.root.derive("svc-start", seq);
    for (ProcessId id = 0; id < cfg.n; ++id) {
      turquois::ProcessHooks hooks;
      hooks.exchange_pool = slot->pool.get();
      hooks.on_decide = [slot, id, &result, &sum, k = cfg.k()](
                            Value v, turquois::Phase phase, SimTime at) {
        slot->consensus.on_decide(id, v, phase, at);
        if (!slot->committed && slot->consensus.decided() >= k) {
          // The k-th process decided: the slot's batch is committed. Stamp
          // each request's end-to-end latency.
          slot->committed = true;
          for (const SimTime arrival : slot->request_arrivals) {
            result.latencies_ms.push_back(commit_latency_ms(arrival, at));
          }
          sum.committed += slot->request_arrivals.size();
        }
      };
      if (audit::ConsensusAuditor* auditor = slot->consensus.auditor_for(id)) {
        hooks.on_phase = [id, auditor](turquois::Phase phase, SimTime at) {
          auditor->on_phase(id, phase, at);
        };
      }
      slot->runtimes.push_back(
          std::make_unique<runtime::SimRuntime>(sim, rep.cpu(id)));
      slot->procs.push_back(std::make_unique<turquois::Process>(
          *slot->runtimes.back(), muxes[id]->port(seq), tcfg, infra, id,
          rep.root.derive("svc-proc",
                          static_cast<std::uint64_t>(seq) * cfg.n + id),
          cfg.costs, std::move(hooks)));
      sim.schedule_at(
          slot->consensus.start(start_rng, id, Value::kOne, sim.now()),
          [p = slot->procs.back().get()] { p->propose(Value::kOne); });
    }
    active.push_back(std::move(owned));
    ++sum.instances_launched;
  };

  auto finalize = [&](Slot& slot) {
    ++sum.instances_decided;
    slot.consensus.judge(result, /*unanimous=*/true);
    for (const auto& p : slot.procs) {
      slot.consensus.check_decide_quorum(*p, tcfg);
    }
    // σ accounting is per repetition, not per instance, so each instance's
    // report skips the σ-liveness clause (finish with no summary); the
    // deadline verdict is true by construction — the instance is finalized
    // because all n processes decided.
    if (const auto report =
            slot.consensus.finish(std::nullopt, /*all_decided=*/true)) {
      ++sum.audit_checked_instances;
      if (!report->passed()) ++sum.audit_violating_instances;
      for (const audit::Violation& v : report->violations) {
        rep_audit.violations.push_back(v);
      }
    }
    tally_keys(slot);
    for (const auto& p : slot.procs) {
      result.app_messages += p->stats().broadcasts;
      p->crash();  // closes the instance port before the mux retires it
    }
    *rep.exchange_pool += slot.pool->stats();
    for (ProcessId id = 0; id < cfg.n; ++id) {
      muxes[id]->retire(slot.seq);
      // No new work can reach the crashed processes, but deliveries before
      // the crash queued completions that capture them and pool entries.
      slot.reclaim_at = std::max(slot.reclaim_at, rep.cpu(id).free_at());
    }
    if (slot.reclaim_at > sim.now()) ++sum.instances_drained;
  };

  // Between slices reclaim drained instances, finalize fully decided ones,
  // refill the pipeline window from the queue, and test for completion.
  // Refilling between slices quantizes launch times to the slice boundary —
  // deterministically.
  rep.run([&] {
    for (auto it = draining.begin(); it != draining.end();) {
      if (sim.now() <= (*it)->reclaim_at) {
        ++it;
        continue;
      }
      // Destroy the drained slot, then its key batch after the batch's last.
      KeyBatch& batch = key_batches[(*it)->seq / kb];
      it = draining.erase(it);
      ++sum.instances_reclaimed;
      if (++batch.reclaimed == kb) {
        batch.keys = std::vector<turquois::KeyInfrastructure>{};
      }
    }
    for (auto it = active.begin(); it != active.end();) {
      if ((*it)->consensus.all_decided()) {
        finalize(**it);
        draining.push_back(std::move(*it));
        it = active.erase(it);
      } else {
        ++it;
      }
    }
    while (active.size() < svc.pipeline_depth && !queue.empty()) launch();
    return sum.arrivals < svc.total_requests || !queue.empty() ||
           !active.empty();
  });
  sum.finished_at = sim.now();
  sum.instances_failed = active.size();
  for (const auto& slot : active) tally_keys(*slot);
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
  rep.measure(result);
  if (cfg.audit) result.audit = std::move(rep_audit);
  result.service = sum;
  rep.report(result);
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

harness::ScenarioResult run_service(const ScenarioConfig& cfg) {
  if (const auto reason = harness::validate(cfg)) {
    throw std::invalid_argument("invalid scenario: " + *reason);
  }
  if (const auto reason = validate_service(cfg)) {
    throw std::invalid_argument("invalid scenario: " + *reason);
  }
  return harness::pool_repetitions(
      cfg, harness::run_repetitions(cfg, run_service_once));
}

}  // namespace turq::service
