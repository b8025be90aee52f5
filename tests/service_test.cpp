// Tests for the multi-instance consensus service stack: the per-node frame
// multiplexer, the batched trusted setup, and the service driver itself.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/onetime_sig.hpp"
#include "crypto/sha256.hpp"
#include "crypto/toy_rsa.hpp"
#include "faultplan/spec.hpp"
#include "harness/scheduler.hpp"
#include "net/frame_mux.hpp"
#include "net/medium.hpp"
#include "service/service.hpp"
#include "sim/simulator.hpp"
#include "trace/metrics.hpp"
#include "trace/sink.hpp"
#include "trace/trace.hpp"
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

/// make_payload() as the shared object a DatagramPort sends.
net::FramedPayload shared_payload(std::size_t len, std::uint8_t tag) {
  return net::FramedPayload::copy_of(make_payload(len, tag));
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
  tx.port(3).send(shared_payload(40, 1));
  tx.port(7).send(shared_payload(50, 2));
  tx.port(11).send(shared_payload(60, 3));
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
  tx.port(5).send(shared_payload(30, 9));   // superseded before the flush
  tx.port(5).send(shared_payload(30, 77));  // the payload that airs
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
  tx.port(1).send(shared_payload(20, 4));
  tx.port(2).send(shared_payload(20, 5));  // rx never opened instance 2
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
    tx.port(inst).send(shared_payload(800, static_cast<std::uint8_t>(inst)));
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
      EXPECT_TRUE(crypto::verify_key_array(infra.verification_keys(id),
                                           infra.signature(id),
                                           infra.rsa_public(id)));
      // ...and a revealed secret authenticates its (phase, value) slot.
      const BytesView sk = infra.chain(id).secret_key(2, Value::kOne);
      EXPECT_TRUE(
          crypto::ots_verify(infra.verification_keys(id), 2, Value::kOne, sk));
    }
  }

  // One RSA pair per process across the whole batch (amortized trapdoor
  // key), but DISJOINT one-time secrets per instance: instance 0's
  // revealed SK must never authenticate the same slot of instance 1.
  for (ProcessId id = 0; id < 4; ++id) {
    EXPECT_EQ(batch[0].rsa_public(id).n, batch[1].rsa_public(id).n);
    const BytesView sk0 = batch[0].chain(id).secret_key(2, Value::kOne);
    const BytesView sk1 = batch[1].chain(id).secret_key(2, Value::kOne);
    EXPECT_NE(to_hex(sk0), to_hex(sk1));
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
      EXPECT_EQ(to_hex(x[inst].chain(id).secret_key(3, Value::kZero)),
                to_hex(y[inst].chain(id).secret_key(3, Value::kZero)));
      EXPECT_EQ(x[inst].verification_keys(id), y[inst].verification_keys(id));
    }
  }
}

// The secrets of a chain's first `phases` phases, concatenated in
// (phase, value) order.
Bytes all_secrets(const crypto::OneTimeKeyChain& chain,
                  crypto::Phase phases) {
  Bytes out;
  const crypto::Phase first = chain.public_keys().first_phase();
  for (crypto::Phase phase = first; phase < first + phases; ++phase) {
    for (const Value v : {Value::kZero, Value::kOne, Value::kBottom}) {
      if (!crypto::ots_value_allowed(phase, v)) continue;
      const BytesView sk = chain.secret_key(phase, v);
      out.insert(out.end(), sk.begin(), sk.end());
    }
  }
  return out;
}

TEST(KeyInfraBatch, SetupMatchesPerProcessReference) {
  // setup() is setup_batch(…, 1); it must hand out exactly the keys that
  // per-process assembly from the primitives gives.
  for (const std::uint32_t n : {4u, 64u}) {
    SCOPED_TRACE(n);
    const turquois::Config cfg = turquois::Config::for_group(n);
    Rng rng(42);
    const auto infra = turquois::KeyInfrastructure::setup(cfg, rng);
    ASSERT_EQ(infra.n(), n);
    for (ProcessId id = 0; id < n; ++id) {
      Rng chain_rng = rng.derive("ots-chain", id);
      const auto chain = crypto::OneTimeKeyChain::generate(
          id, 1, cfg.phases_per_epoch, chain_rng);
      Rng rsa_rng = rng.derive("rsa", id);
      const crypto::RsaKeyPair rsa = crypto::rsa_generate(rsa_rng);

      EXPECT_EQ(all_secrets(infra.chain(id), cfg.phases_per_epoch),
                all_secrets(chain, cfg.phases_per_epoch));
      EXPECT_EQ(infra.verification_keys(id), chain.public_keys());
      EXPECT_EQ(infra.rsa_public(id).n, rsa.pub.n);
      EXPECT_EQ(infra.rsa_public(id).e, rsa.pub.e);
      EXPECT_EQ(infra.signature(id),
                crypto::sign_key_array(chain.public_keys(), rsa));
    }
  }
}

// One SHA-256 over every key byte a setup hands out for one epoch (`phases`
// phases long): per instance and process, the VK array's canonical
// serialization, its RSA signature (8 bytes, big-endian) and every one-time
// secret.
std::string key_material_digest(
    const std::vector<turquois::KeyInfrastructure>& infras,
    crypto::Phase phases, std::uint32_t epoch = 0) {
  crypto::Sha256 h;
  for (const auto& infra : infras) {
    for (ProcessId id = 0; id < infra.n(); ++id) {
      h.update(infra.chain(id, epoch).public_keys().serialize());
      const std::uint64_t sig = infra.signature(id, epoch);
      std::uint8_t sig_be[8];
      for (int i = 0; i < 8; ++i) {
        sig_be[i] = static_cast<std::uint8_t>(sig >> (56 - 8 * i));
      }
      h.update(BytesView(sig_be, 8));
      h.update(all_secrets(infra.chain(id, epoch), phases));
    }
  }
  const crypto::Digest d = h.finalize();
  return to_hex(BytesView(d.data(), d.size()));
}

TEST(KeyInfraBatch, KeyMaterialMatchesKnownAnswer) {
  // Constants generated before the VK arrays were stored as their
  // canonical bytes: a setup at n=4 (12 phases, 3 instances) and the n=64
  // one a failure-free deployment hoists (512 phases). Any change to a
  // secret, VK or signature moves them.
  turquois::Config small = turquois::Config::for_group(4);
  small.phases_per_epoch = 12;
  Rng small_rng(2010);
  EXPECT_EQ(key_material_digest(
                turquois::KeyInfrastructure::setup_batch(small, small_rng, 3),
                small.phases_per_epoch),
            "b2c2d3f32cddac5fd34fe1f0f80a2219a98549c5e5db4825959567828c0ba157");

  turquois::Config large = turquois::Config::for_group(64);
  large.phases_per_epoch = 512;
  Rng large_rng(2010);
  std::vector<turquois::KeyInfrastructure> one;
  one.push_back(turquois::KeyInfrastructure::setup(large, large_rng));
  EXPECT_EQ(key_material_digest(one, large.phases_per_epoch),
            "f002ca337bb1779732ffc7500fd58b579b3e377ceee9c850050b6afecbe0138f");
}

TEST(KeyInfraBatch, RolloverKeyMaterialMatchesKnownAnswer) {
  // Epochs 1 and 2 of the small known-answer setup, pinned when rollover
  // was introduced: any change to a later epoch's stream, secret, VK or
  // signature moves them.
  turquois::Config small = turquois::Config::for_group(4);
  small.phases_per_epoch = 12;
  Rng rng(2010);
  const auto batch = turquois::KeyInfrastructure::setup_batch(small, rng, 3);
  EXPECT_EQ(key_material_digest(batch, small.phases_per_epoch, 1),
            "d07482ba214c46e1ae74c5b7641966cad4f6da6e6c9f2c99eb34184067285e45");
  EXPECT_EQ(key_material_digest(batch, small.phases_per_epoch, 2),
            "78021a7a0fb9f4025253353f2129150ab79d5508b045839107eedf12e8458b89");
}

TEST(KeyInfraBatch, LaterEpochsVerifyUnderTheirOwnersKey) {
  turquois::Config cfg = turquois::Config::for_group(4);
  cfg.phases_per_epoch = 6;
  Rng rng(42);
  const auto batch = turquois::KeyInfrastructure::setup_batch(cfg, rng, 3);
  for (std::uint32_t inst = 0; inst < batch.size(); ++inst) {
    const auto& infra = batch[inst];
    for (ProcessId id = 0; id < 4; ++id) {
      Rng rsa_rng = rng.derive("rsa", id);
      const crypto::RsaKeyPair rsa = crypto::rsa_generate(rsa_rng);
      for (std::uint32_t epoch = 1; epoch <= 3; ++epoch) {
        SCOPED_TRACE(testing::Message() << "instance " << inst << " p" << id
                                        << " epoch " << epoch);
        // Per-epoch reference from the primitives: the stream of this
        // (process, instance, epoch), signed with the process's RSA pair.
        Rng chain_rng = rng.derive("ots-epoch", id)
                            .derive("instance", inst)
                            .derive("epoch", epoch);
        const auto reference = crypto::OneTimeKeyChain::generate(
            id, 6 * epoch + 1, 6, chain_rng);
        EXPECT_EQ(all_secrets(infra.chain(id, epoch), 6),
                  all_secrets(reference, 6));
        EXPECT_EQ(infra.chain(id, epoch).public_keys(),
                  reference.public_keys());
        EXPECT_EQ(infra.signature(id, epoch),
                  crypto::sign_key_array(reference.public_keys(), rsa));

        const crypto::VerificationKeyArray& vk =
            infra.chain(id, epoch).public_keys();
        EXPECT_EQ(vk.owner(), id);
        EXPECT_EQ(vk.first_phase(), 6 * epoch + 1);
        EXPECT_EQ(vk.num_phases(), 6u);
        EXPECT_TRUE(crypto::verify_key_array(vk, infra.signature(id, epoch),
                                             infra.rsa_public(id)));
        EXPECT_FALSE(crypto::verify_key_array(vk, infra.signature(id, epoch),
                                              infra.rsa_public((id + 1) % 4)));
        for (crypto::Phase phase = 6 * epoch + 1; phase <= 6 * epoch + 6;
             ++phase) {
          EXPECT_EQ(infra.epoch_of(phase), epoch);
          // Receivers look up the same array the owner signs from.
          EXPECT_EQ(&infra.verification_keys(id, phase), &vk);
          const BytesView sk = infra.secret_key(id, phase, Value::kOne);
          EXPECT_TRUE(crypto::ots_verify(vk, phase, Value::kOne, sk));
          // Epoch 0's array does not cover a later epoch's phases.
          EXPECT_FALSE(crypto::ots_verify(infra.verification_keys(id), phase,
                                          Value::kOne, sk));
        }
      }
    }
  }
}

TEST(KeyInfraBatch, EverySecretIsDisjointAcrossInstancesAndEpochs) {
  turquois::Config cfg = turquois::Config::for_group(4);
  cfg.phases_per_epoch = 6;
  Rng rng(42);
  const auto batch = turquois::KeyInfrastructure::setup_batch(cfg, rng, 3);
  std::set<std::string> seen;
  std::size_t total = 0;
  for (const auto& infra : batch) {
    for (ProcessId id = 0; id < 4; ++id) {
      for (std::uint32_t epoch = 0; epoch <= 3; ++epoch) {
        const Bytes secrets = all_secrets(infra.chain(id, epoch), 6);
        for (std::size_t off = 0; off < secrets.size(); off += 32) {
          seen.insert(to_hex(BytesView(secrets.data() + off, 32)));
          ++total;
        }
      }
    }
  }
  // 3 instances × 4 processes × 4 epochs × 14 keys (two DECIDE phases).
  EXPECT_EQ(total, 3u * 4u * 4u * 14u);
  EXPECT_EQ(seen.size(), total);
}

TEST(KeyInfraBatch, RolloverBytesDoNotDependOnRequestOrder) {
  // Three copies of one setup, their later epochs built in order, in
  // reverse, and by four threads at once (the harness shares one
  // infrastructure across --jobs workers): every byte must agree.
  turquois::Config cfg = turquois::Config::for_group(4);
  cfg.phases_per_epoch = 6;
  const auto make = [&] {
    Rng rng(2010);
    return turquois::KeyInfrastructure::setup_batch(cfg, rng, 3);
  };
  const auto forward = make();
  for (const auto& infra : forward) {
    for (ProcessId id = 0; id < 4; ++id) {
      for (std::uint32_t epoch = 1; epoch <= 3; ++epoch) {
        (void)infra.chain(id, epoch);
      }
    }
  }
  const auto reverse = make();
  for (std::size_t inst = 3; inst-- > 0;) {
    for (ProcessId id = 4; id-- > 0;) {
      for (std::uint32_t epoch = 3; epoch >= 1; --epoch) {
        (void)reverse[inst].verification_keys(id, 6 * epoch + 1);
      }
    }
  }
  const auto threaded = make();
  std::vector<std::thread> workers;
  for (std::uint32_t t = 0; t < 4; ++t) {
    workers.emplace_back([&threaded, t] {
      // Each thread walks every (instance, process, epoch) from its own
      // starting point, so first requests land on different threads.
      for (std::uint32_t k = 0; k < 3 * 4 * 3; ++k) {
        const std::uint32_t i = (k + 9 * t) % 36;
        const auto& infra = threaded[i / 12];
        const ProcessId id = (i / 3) % 4;
        const std::uint32_t epoch = i % 3 + 1;
        (void)infra.secret_key(id, 6 * epoch + 2, Value::kZero);
        (void)infra.signature(id, epoch);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (std::uint32_t epoch = 1; epoch <= 3; ++epoch) {
    SCOPED_TRACE(epoch);
    const std::string want = key_material_digest(forward, 6, epoch);
    EXPECT_EQ(key_material_digest(reverse, 6, epoch), want);
    EXPECT_EQ(key_material_digest(threaded, 6, epoch), want);
  }
}

TEST(KeyInfraBatch, BatchSignaturesMatchScalarSigning) {
  turquois::Config cfg = turquois::Config::for_group(16);
  cfg.phases_per_epoch = 48;
  Rng rng(42);
  const auto batch = turquois::KeyInfrastructure::setup_batch(cfg, rng, 8);
  ASSERT_EQ(batch.size(), 8u);
  for (ProcessId id = 0; id < cfg.n; ++id) {
    Rng rsa_rng = rng.derive("rsa", id);
    const crypto::RsaKeyPair rsa = crypto::rsa_generate(rsa_rng);
    for (std::size_t inst = 0; inst < batch.size(); ++inst) {
      EXPECT_EQ(batch[inst].signature(id),
                crypto::sign_key_array(batch[inst].verification_keys(id), rsa))
          << "process " << id << " instance " << inst;
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

TEST(Service, ReclaimsAnInstanceOnlyAfterItsQueuedCompletionsRan) {
  // A slow verifier keeps every node's CPU queued with receive completions
  // past the slice in which an instance finalizes. Those completions
  // capture the crashed processes and their pool entries, so destroying
  // an instance at finalize would use freed memory (an ASan build reports
  // it). Each instance must wait for the drain, and the run must still
  // commit everything.
  harness::ScenarioConfig cfg = small_service_config();
  cfg.costs.sha256_base = 200 * kMicrosecond;  // ots_verify() ~ 0.2 ms
  const harness::RunResult run = service::run_service_once(cfg, 0);
  EXPECT_TRUE(run.all_correct_decided);
  ASSERT_TRUE(run.service.has_value());
  const service::RepSummary& sum = *run.service;
  EXPECT_EQ(sum.committed, cfg.service.total_requests);
  EXPECT_EQ(run.latencies_ms.size(), cfg.service.total_requests);
  EXPECT_EQ(sum.instances_decided, sum.instances_launched);
  ASSERT_TRUE(run.audit.has_value());
  EXPECT_TRUE(run.audit->passed());
  // Every instance finalized with work still queued, and some of them were
  // destroyed before the run ended: a reclaim waited for a drain.
  EXPECT_EQ(sum.instances_drained, sum.instances_decided);
  EXPECT_GT(sum.instances_reclaimed, 0u);
}

/// Sums each trace counter over the repetitions; events are ignored.
class CounterSink final : public trace::Sink {
 public:
  void on_event(const trace::TraceEvent& /*event*/) override {}
  void on_metrics(const trace::MetricsRegistry& metrics) override {
    for (const auto& [name, counter] : metrics.counters()) {
      totals[name] += counter.value();
    }
  }

  std::map<std::string, std::uint64_t> totals;
};

TEST(Service, AmbientLossRollsInstancesPastTheFirstKeyEpoch) {
  // 20 % frame loss keeps some instance undecided past phase 6, the last
  // phase of its first key epoch, so its processes roll over to freshly
  // keyed chains. Every request must still commit, no receiver may reject
  // a message as forged, and the audit stays clean.
  harness::ScenarioConfig cfg = small_service_config();
  cfg.plan = *faultplan::plan_from_name("iid(p=0.2)", nullptr);
  ASSERT_EQ(cfg.service.phases_per_instance, 6u);
  CounterSink sink;
  cfg.trace_sink = &sink;
  const harness::ScenarioResult r = service::run_service(cfg);

  EXPECT_EQ(r.failed_runs, 0u);
  EXPECT_EQ(r.safety_violations, 0u);
  ASSERT_TRUE(r.service_total.has_value());
  const service::RepSummary& sum = *r.service_total;
  EXPECT_EQ(sum.committed, 2 * cfg.service.total_requests);
  EXPECT_EQ(sum.instances_failed, 0u);
  EXPECT_EQ(sum.auth_failures, 0u);
  // Each instance's processes start on the key batches' epoch-0 chains of
  // 14 keys per 6 phases; each rollover draws one more such chain.
  const std::uint64_t keyed =
      sum.key_batches * cfg.service.pipeline_depth * cfg.n;
  EXPECT_GT(sum.ots_keys, keyed * 14);
#if TURQ_TRACE_ENABLED
  const std::uint64_t rollovers = sink.totals["turquois.key_rollovers"];
  EXPECT_EQ(sum.ots_keys, (keyed + rollovers) * 14);
#endif
  ASSERT_TRUE(r.audit.has_value());
  EXPECT_TRUE(r.audit->passed());
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
