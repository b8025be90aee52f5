// Tests for the multi-instance consensus service stack: the per-node frame
// multiplexer, the batched trusted setup, and the service driver itself.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "crypto/onetime_sig.hpp"
#include "faultplan/spec.hpp"
#include "harness/scheduler.hpp"
#include "net/frame_mux.hpp"
#include "net/medium.hpp"
#include "service/service.hpp"
#include "sim/simulator.hpp"
#include "turquois/config.hpp"
#include "turquois/key_infra.hpp"

namespace turq {
namespace {

Bytes make_payload(std::size_t len, std::uint8_t tag) {
  Bytes b(len);
  for (std::size_t i = 0; i < len; ++i) {
    b[i] = static_cast<std::uint8_t>(tag + i * 3);
  }
  return b;
}

// ---------------------------------------------------------------- FrameMux --

TEST(FrameMux, PacksStagedInstancesIntoOneFrame) {
  sim::Simulator sim;
  net::Medium medium(sim, net::MediumConfig{}, Rng(1));
  net::FrameMux tx(sim, medium, 0);
  net::FrameMux rx(sim, medium, 1);

  std::vector<std::pair<std::uint32_t, Bytes>> got;
  for (std::uint32_t inst : {3u, 7u, 11u}) {
    rx.port(inst).set_handler([&got, inst](ProcessId src, BytesView p) {
      EXPECT_EQ(src, 0u);
      got.emplace_back(inst, Bytes(p.begin(), p.end()));
    });
  }
  tx.port(3).send(make_payload(40, 1));
  tx.port(7).send(make_payload(50, 2));
  tx.port(11).send(make_payload(60, 3));
  sim.run();

  // One coalescing window, one frame, three sub-payloads.
  EXPECT_EQ(tx.stats().frames_sent, 1u);
  EXPECT_EQ(tx.stats().payloads_sent, 3u);
  EXPECT_EQ(tx.stats().frame_splits, 0u);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].first, 3u);
  EXPECT_EQ(got[0].second, make_payload(40, 1));
  EXPECT_EQ(got[1].first, 7u);
  EXPECT_EQ(got[1].second, make_payload(50, 2));
  EXPECT_EQ(got[2].first, 11u);
  EXPECT_EQ(got[2].second, make_payload(60, 3));
  EXPECT_EQ(rx.stats().payloads_routed, 3u);
  EXPECT_EQ(rx.stats().late_drops, 0u);
}

TEST(FrameMux, StagingIsLatestWinsWithinTheWindow) {
  sim::Simulator sim;
  net::Medium medium(sim, net::MediumConfig{}, Rng(1));
  net::FrameMux tx(sim, medium, 0);
  net::FrameMux rx(sim, medium, 1);

  std::vector<Bytes> got;
  rx.port(5).set_handler([&got](ProcessId, BytesView p) {
    got.emplace_back(p.begin(), p.end());
  });
  tx.port(5).send(make_payload(30, 9));   // superseded before the flush
  tx.port(5).send(make_payload(30, 77));  // the payload that airs
  sim.run();

  EXPECT_EQ(tx.stats().superseded, 1u);
  EXPECT_EQ(tx.stats().frames_sent, 1u);
  EXPECT_EQ(tx.stats().payloads_sent, 1u);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], make_payload(30, 77));
}

TEST(FrameMux, RoutesUnknownInstancesToLateDrops) {
  sim::Simulator sim;
  net::Medium medium(sim, net::MediumConfig{}, Rng(1));
  net::FrameMux tx(sim, medium, 0);
  net::FrameMux rx(sim, medium, 1);

  int got = 0;
  rx.port(1).set_handler([&got](ProcessId, BytesView) { ++got; });
  rx.retire(1);                       // receiver finished this instance
  tx.port(1).send(make_payload(20, 4));
  tx.port(2).send(make_payload(20, 5));  // rx never opened instance 2
  sim.run();

  EXPECT_EQ(got, 0);
  EXPECT_EQ(rx.stats().late_drops, 2u);
  EXPECT_EQ(rx.stats().payloads_routed, 0u);
}

TEST(FrameMux, SplitsOversizedFlushesAcrossFrames) {
  sim::Simulator sim;
  net::Medium medium(sim, net::MediumConfig{}, Rng(1));
  net::FrameMux tx(sim, medium, 0);
  net::FrameMux rx(sim, medium, 1);

  // Four 800-byte payloads exceed the ~2276-byte mux budget: the flush
  // must split but every payload still arrives, in staging order.
  std::vector<std::uint32_t> got;
  for (std::uint32_t inst : {0u, 1u, 2u, 3u}) {
    rx.port(inst).set_handler(
        [&got, inst](ProcessId, BytesView p) {
          EXPECT_EQ(p.size(), 800u);
          got.push_back(inst);
        });
    tx.port(inst).send(make_payload(800, static_cast<std::uint8_t>(inst)));
  }
  sim.run();

  EXPECT_GE(tx.stats().frames_sent, 2u);
  EXPECT_EQ(tx.stats().frame_splits, tx.stats().frames_sent - 1);
  EXPECT_EQ(tx.stats().payloads_sent, 4u);
  EXPECT_EQ(got, (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

// -------------------------------------------------------------- setup_batch --

TEST(KeyInfraBatch, BatchedSetupKeysVerifyAndStayDisjoint) {
  turquois::Config cfg = turquois::Config::for_group(4);
  cfg.phases_per_epoch = 12;
  Rng rng(42);
  const auto batch = turquois::KeyInfrastructure::setup_batch(cfg, rng, 3);
  ASSERT_EQ(batch.size(), 3u);

  for (const auto& infra : batch) {
    ASSERT_EQ(infra.n(), 4u);
    for (ProcessId id = 0; id < 4; ++id) {
      // The RSA-signed VK array of every process checks out...
      EXPECT_TRUE(crypto::verify_key_array(infra.signed_array(id),
                                           infra.rsa_public(id)));
      // ...and a revealed secret authenticates its (phase, value) slot.
      const Bytes& sk = infra.chain(id).secret_key(2, Value::kOne);
      EXPECT_TRUE(
          crypto::ots_verify(infra.verification_keys(id), 2, Value::kOne, sk));
    }
  }

  // One RSA pair per process across the whole batch (amortized trapdoor
  // key), but DISJOINT one-time secrets per instance: instance 0's
  // revealed SK must never authenticate the same slot of instance 1.
  for (ProcessId id = 0; id < 4; ++id) {
    EXPECT_EQ(batch[0].rsa_public(id).n, batch[1].rsa_public(id).n);
    const Bytes& sk0 = batch[0].chain(id).secret_key(2, Value::kOne);
    const Bytes& sk1 = batch[1].chain(id).secret_key(2, Value::kOne);
    EXPECT_NE(sk0, sk1);
    EXPECT_FALSE(
        crypto::ots_verify(batch[1].verification_keys(id), 2, Value::kOne,
                           sk0));
  }
}

TEST(KeyInfraBatch, BatchedSetupIsDeterministicInTheSeed) {
  turquois::Config cfg = turquois::Config::for_group(4);
  cfg.phases_per_epoch = 9;
  Rng a(7);
  Rng b(7);
  const auto x = turquois::KeyInfrastructure::setup_batch(cfg, a, 2);
  const auto y = turquois::KeyInfrastructure::setup_batch(cfg, b, 2);
  for (std::size_t inst = 0; inst < 2; ++inst) {
    for (ProcessId id = 0; id < 4; ++id) {
      EXPECT_EQ(x[inst].chain(id).secret_key(3, Value::kZero),
                y[inst].chain(id).secret_key(3, Value::kZero));
      EXPECT_EQ(x[inst].verification_keys(id).serialize(),
                y[inst].verification_keys(id).serialize());
    }
  }
}

// ------------------------------------------------------------------ service --

harness::ScenarioConfig small_service_config() {
  harness::ScenarioConfig cfg;
  cfg.n = 4;
  cfg.seed = 99;
  cfg.repetitions = 2;
  cfg.service.enabled = true;
  cfg.service.pipeline_depth = 4;
  cfg.service.batch = 4;
  cfg.service.offered_load = 4000.0;
  cfg.service.total_requests = 32;
  return cfg;
}

TEST(Service, CommitLatencyIsStrictlyPositiveEvenForSameTickCommits) {
  // Half-open tick semantics: a request admitted and committed in the same
  // simulator instant is charged one quantum, never a literal zero — the
  // pre-fix stamping (commit - arrival) produced 0.0 here.
  EXPECT_GT(service::commit_latency_ms(5 * kMillisecond, 5 * kMillisecond),
            0.0);
  EXPECT_DOUBLE_EQ(
      service::commit_latency_ms(2 * kMillisecond, 5 * kMillisecond), 3.0);
  // Half-open charging only kicks in at the degenerate boundary; any real
  // gap is reported exactly.
  EXPECT_DOUBLE_EQ(service::commit_latency_ms(0, 1), 1e-6);
}

TEST(Service, MinimumObservedLatencyIsPositive) {
  const harness::ScenarioConfig cfg = small_service_config();
  const harness::ScenarioResult r = service::run_service(cfg);
  ASSERT_GT(r.latency_ms.count(), 0u);
  EXPECT_GT(r.latency_ms.percentile(0.0), 0.0);  // min sample
}

TEST(Service, CommitsEveryRequestAndAuditsEveryInstance) {
  const harness::ScenarioConfig cfg = small_service_config();
  const harness::ScenarioResult r = service::run_service(cfg);

  EXPECT_EQ(r.failed_runs, 0u);
  EXPECT_EQ(r.safety_violations, 0u);
  ASSERT_TRUE(r.service_total.has_value());
  EXPECT_EQ(r.service_total->arrivals, 64u);  // 2 reps x 32 requests
  EXPECT_EQ(r.service_total->committed, 64u);
  EXPECT_EQ(r.service_total->rejected, 0u);
  EXPECT_EQ(r.service_total->instances_failed, 0u);
  EXPECT_GE(r.service_total->instances_launched, 2u);
  EXPECT_EQ(r.service_total->instances_decided, r.service_total->instances_launched);
  // One latency sample per committed request.
  EXPECT_EQ(r.latency_ms.count(), 64u);
  EXPECT_GT(r.latency_ms.mean(), 0.0);
  // Every constituent instance was audited, none violating.
  ASSERT_TRUE(r.audit.has_value());
  EXPECT_EQ(r.audit->checked_reps, r.service_total->instances_decided);
  EXPECT_EQ(r.audit->violating_reps, 0u);
  EXPECT_TRUE(r.audit->passed());
  // The mux actually multiplexed: fewer frames than instance payloads.
  EXPECT_GT(r.service_total->mux_frames, 0u);
  EXPECT_GE(r.service_total->mux_payloads, r.service_total->mux_frames);
  EXPECT_GT(r.service_total->committed_per_sim_sec(), 0.0);
  EXPECT_GT(r.service_total->instances_per_sim_sec(), 0.0);
}

TEST(Service, BurstyArrivalsCommitEverything) {
  harness::ScenarioConfig cfg = small_service_config();
  cfg.repetitions = 1;
  cfg.service.arrival = service::Arrival::kBursty;
  const harness::ScenarioResult r = service::run_service(cfg);
  EXPECT_EQ(r.failed_runs, 0u);
  ASSERT_TRUE(r.service_total.has_value());
  EXPECT_EQ(r.service_total->committed, 32u);
  ASSERT_TRUE(r.audit.has_value());
  EXPECT_TRUE(r.audit->passed());
}

TEST(Service, PoissonArrivalsRealizeTheOfferedLoad) {
  // 2 000 requests offered at 1 000 req/s arrive over about 2 s of
  // simulated time. Dividing the Poisson rate by the bursty boost (1.875
  // at the default burst knobs) stretched them over about 3.75 s.
  harness::ScenarioConfig cfg = small_service_config();
  // 11 Mb/s and W = B = 8: capacity well above the offered load.
  cfg.medium.broadcast_rate_bps = 11e6;
  cfg.service.pipeline_depth = 8;
  cfg.service.batch = 8;
  cfg.service.offered_load = 1000.0;
  cfg.service.total_requests = 2000;
  const harness::RunResult run = service::run_service_once(cfg, 0);
  ASSERT_TRUE(run.service.has_value());
  EXPECT_EQ(run.service->committed, 2000u);
  EXPECT_GT(run.service->finished_at, 1800 * kMillisecond);
  EXPECT_LT(run.service->finished_at, 2400 * kMillisecond);
}

TEST(Service, TinyQueueCapacityBackpressuresExcessLoad) {
  harness::ScenarioConfig cfg = small_service_config();
  cfg.repetitions = 1;
  cfg.service.pipeline_depth = 1;
  cfg.service.batch = 1;
  cfg.service.queue_capacity = 2;
  cfg.service.offered_load = 50000.0;  // far above one slot's service rate
  const harness::ScenarioResult r = service::run_service(cfg);
  ASSERT_TRUE(r.service_total.has_value());
  EXPECT_GT(r.service_total->rejected, 0u);
  EXPECT_EQ(r.service_total->committed + r.service_total->rejected, r.service_total->arrivals);
  EXPECT_EQ(r.latency_ms.count(), r.service_total->committed);
}

TEST(Service, PooledResultsAreBitIdenticalAcrossJobCounts) {
  harness::ScenarioConfig cfg = small_service_config();
  cfg.repetitions = 4;
  cfg.jobs = 1;
  const harness::ScenarioResult seq = service::run_service(cfg);
  cfg.jobs = 4;
  const harness::ScenarioResult par = service::run_service(cfg);

  ASSERT_TRUE(seq.service_total.has_value() && par.service_total.has_value());
  EXPECT_EQ(seq.latency_ms.count(), par.latency_ms.count());
  EXPECT_EQ(seq.latency_ms.mean(), par.latency_ms.mean());
  EXPECT_EQ(seq.latency_ms.percentile(0.99), par.latency_ms.percentile(0.99));
  EXPECT_EQ(seq.service_total->committed, par.service_total->committed);
  EXPECT_EQ(seq.service_total->instances_decided, par.service_total->instances_decided);
  EXPECT_EQ(seq.service_total->finished_at, par.service_total->finished_at);
  EXPECT_EQ(seq.service_total->mux_frames, par.service_total->mux_frames);
  EXPECT_EQ(seq.app_messages, par.app_messages);
  EXPECT_EQ(seq.medium_total.deliveries, par.medium_total.deliveries);
  ASSERT_TRUE(seq.audit.has_value() && par.audit.has_value());
  EXPECT_EQ(*seq.audit, *par.audit);
}

TEST(Service, SigmaTrackingPlanCarriesTheRepetitionSummary) {
  // The service runs on the deployment's repetition, so a σ-tracking plan
  // reports its per-round accounting like any single-instance run. The
  // per-instance auditors still skip the σ-liveness clause.
  harness::ScenarioConfig cfg = small_service_config();
  cfg.plan = *faultplan::plan_from_name("adaptive", nullptr);
  const harness::RunResult run = service::run_service_once(cfg, 0);
  ASSERT_TRUE(run.sigma.has_value());
  EXPECT_GT(run.sigma->rounds, 0u);
  EXPECT_GT(run.sigma->omissions, 0u);
  EXPECT_EQ(run.sigma->violating_rounds, 0u);
  ASSERT_TRUE(run.audit.has_value());
  EXPECT_TRUE(run.audit->passed());

  const harness::ScenarioResult r = service::run_service(cfg);
  ASSERT_TRUE(r.sigma.has_value());
  EXPECT_EQ(r.sigma->tracked_reps, 2u);
  EXPECT_EQ(r.sigma->eligible_reps, 2u);
  EXPECT_EQ(r.sigma->omissions, run.sigma->omissions +
                                    service::run_service_once(cfg, 1)
                                        .sigma->omissions);
  EXPECT_EQ(r.failed_runs, 0u);
}

TEST(Service, PoolCountsAuditedInstancesAndViolations) {
  // Pooled through run_scenario's merge, a service repetition counts its
  // audited instances, and one violating instance fails the audit.
  harness::RunResult run;
  run.all_correct_decided = true;
  run.latencies_ms = {1.0};
  run.service.emplace();
  run.service->committed = 1;
  run.service->audit_checked_instances = 5;
  run.service->audit_violating_instances = 1;
  run.audit.emplace();
  run.audit->checked = true;
  run.audit->violations.push_back(
      {audit::Property::kQuorumSanity, 0, "forged quorum"});
  std::vector<harness::RepResult> reps(2);
  for (std::uint64_t i = 0; i < reps.size(); ++i) {
    reps[i].rep_index = i;
    reps[i].run = run;
  }
  const harness::ScenarioResult r =
      harness::pool_repetitions(small_service_config(), reps);
  ASSERT_TRUE(r.audit.has_value());
  EXPECT_EQ(r.audit->checked_reps, 10u);
  EXPECT_EQ(r.audit->violating_reps, 2u);
  EXPECT_EQ(r.audit->violations, 2u);
  EXPECT_FALSE(r.audit->passed());
  ASSERT_TRUE(r.service_total.has_value());
  EXPECT_EQ(r.service_total->committed, 2u);
  EXPECT_EQ(r.latency_ms.count(), 2u);
}

TEST(Service, ValidateRejectsDegenerateConfigs) {
  harness::ScenarioConfig cfg = small_service_config();
  cfg.service.enabled = false;
  EXPECT_TRUE(service::validate_service(cfg).has_value());

  cfg = small_service_config();
  cfg.service.pipeline_depth = 0;
  EXPECT_TRUE(service::validate_service(cfg).has_value());

  cfg = small_service_config();
  cfg.service.phases_per_instance = 10;  // not a multiple of 3
  EXPECT_TRUE(service::validate_service(cfg).has_value());

  cfg = small_service_config();
  cfg.plan =
      faultplan::canned_plan(faultplan::Role::kByzantine, "Byzantine");
  EXPECT_TRUE(service::validate_service(cfg).has_value());

  cfg = small_service_config();
  cfg.service.arrival = service::Arrival::kBursty;
  cfg.service.burst_fraction = 1.5;
  EXPECT_TRUE(service::validate_service(cfg).has_value());

  EXPECT_FALSE(service::validate_service(small_service_config()).has_value());
  EXPECT_THROW(
      {
        harness::ScenarioConfig bad = small_service_config();
        bad.service.batch = 0;
        (void)service::run_service(bad);
      },
      std::invalid_argument);
}

}  // namespace
}  // namespace turq
