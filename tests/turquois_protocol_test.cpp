// Integration tests for the Turquois protocol over the simulated medium.
//
// Each test builds a full stack (simulator, 802.11b medium, broadcast
// endpoints, key infrastructure, processes), runs consensus, and checks the
// problem's three properties: validity, agreement, termination.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/serialize.hpp"
#include "crypto/cost_model.hpp"
#include "net/broadcast_endpoint.hpp"
#include "net/broadcast_service.hpp"
#include "net/fault_injector.hpp"
#include "net/medium.hpp"
#include "runtime/sim_runtime.hpp"
#include "sim/cpu.hpp"
#include "sim/simulator.hpp"
#include "turquois/config.hpp"
#include "turquois/exchange_pool.hpp"
#include "turquois/key_infra.hpp"
#include "adversary/strategies.hpp"
#include "turquois/process.hpp"
#include "turquois/validation.hpp"

namespace turq::turquois {
namespace {

/// Self-contained Turquois deployment for tests.
class Cluster {
 public:
  /// The last `insiders` processes run the value-inversion attack. With
  /// `shared_pool` every process receives through one ExchangePool, as a
  /// harness deployment does; otherwise each builds its own.
  Cluster(std::uint32_t n, std::uint64_t seed,
          net::MediumConfig medium_cfg = {}, std::uint32_t insiders = 0,
          bool shared_pool = false)
      : Cluster(Config::for_group(n), seed, medium_cfg, insiders,
                shared_pool) {}

  Cluster(const Config& cfg, std::uint64_t seed,
          net::MediumConfig medium_cfg = {}, std::uint32_t insiders = 0,
          bool shared_pool = false)
      : cfg_(cfg),
        root_rng_(seed),
        medium_(sim_, medium_cfg, root_rng_.derive("medium", 0)),
        keys_(KeyInfrastructure::setup(cfg_, root_rng_)) {
    if (shared_pool) pool_ = std::make_unique<ExchangePool>(keys_, cfg_);
    for (ProcessId id = 0; id < cfg_.n; ++id) {
      cpus_.push_back(std::make_unique<sim::VirtualCpu>(sim_));
      runtimes_.push_back(
          std::make_unique<runtime::SimRuntime>(sim_, *cpus_.back()));
      endpoints_.push_back(
          std::make_unique<net::BroadcastEndpoint>(sim_, medium_, id));
      ProcessHooks hooks;
      hooks.exchange_pool = pool_.get();
      if (id >= cfg_.n - insiders) {
        hooks.mutate_outgoing = adversary::turquois_value_inversion();
      }
      processes_.push_back(std::make_unique<Process>(
          *runtimes_.back(), *endpoints_.back(), cfg_, keys_, id,
          root_rng_.derive("process", id), costs_, std::move(hooks)));
    }
  }

  Config& config() { return cfg_; }
  const KeyInfrastructure& keys() const { return keys_; }
  /// The shared pool; null unless built with `shared_pool`.
  ExchangePool* pool() { return pool_.get(); }
  sim::Simulator& simulator() { return sim_; }
  net::Medium& medium() { return medium_; }
  Process& process(ProcessId id) { return *processes_[id]; }
  std::uint32_t n() const { return cfg_.n; }

  void propose_all(const std::vector<Value>& values) {
    for (ProcessId id = 0; id < cfg_.n; ++id) {
      if (id < values.size()) processes_[id]->propose(values[id]);
    }
  }

  /// Runs until every process in `expected` decides, or `timeout`.
  /// Returns true if all decided in time.
  bool run_until_decided(const std::vector<ProcessId>& expected,
                         SimDuration timeout = 30 * kSecond) {
    const SimTime deadline = sim_.now() + timeout;
    while (sim_.now() < deadline) {
      bool all = true;
      for (const ProcessId id : expected) {
        all = all && processes_[id]->decided();
      }
      if (all) return true;
      if (sim_.run_until(std::min(deadline, sim_.now() + 5 * kMillisecond)) ==
              0 &&
          sim_.idle()) {
        break;  // nothing left to run
      }
    }
    bool all = true;
    for (const ProcessId id : expected) all = all && processes_[id]->decided();
    return all;
  }

  std::vector<ProcessId> all_ids() const {
    std::vector<ProcessId> ids(cfg_.n);
    for (ProcessId i = 0; i < cfg_.n; ++i) ids[i] = i;
    return ids;
  }

  /// Asserts agreement + validity among decided processes in `group`.
  void check_safety(const std::vector<ProcessId>& group,
                    const std::vector<Value>& proposals) {
    std::optional<Value> decided_value;
    for (const ProcessId id : group) {
      if (!processes_[id]->decided()) continue;
      const Value d = processes_[id]->decision();
      EXPECT_TRUE(is_binary(d));
      if (decided_value.has_value()) {
        EXPECT_EQ(*decided_value, d) << "agreement violated by p" << id;
      } else {
        decided_value = d;
      }
      // Validity: the decision must be some process's proposal.
      const bool proposed = std::find(proposals.begin(), proposals.end(), d) !=
                            proposals.end();
      EXPECT_TRUE(proposed) << "decision " << to_string(d) << " never proposed";
    }
  }

 private:
  Config cfg_;
  Rng root_rng_;
  sim::Simulator sim_;
  net::Medium medium_;
  KeyInfrastructure keys_;
  crypto::CostModel costs_;
  std::unique_ptr<ExchangePool> pool_;
  std::vector<std::unique_ptr<sim::VirtualCpu>> cpus_;
  std::vector<std::unique_ptr<runtime::SimRuntime>> runtimes_;
  std::vector<std::unique_ptr<net::BroadcastEndpoint>> endpoints_;
  std::vector<std::unique_ptr<Process>> processes_;
};

std::vector<Value> unanimous(std::uint32_t n, Value v) {
  return std::vector<Value>(n, v);
}

std::vector<Value> divergent(std::uint32_t n) {
  std::vector<Value> out(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    out[i] = (i % 2 == 1) ? Value::kOne : Value::kZero;  // odd ids propose 1
  }
  return out;
}

TEST(TurquoisProtocol, UnanimousOneFourProcesses) {
  Cluster cluster(4, /*seed=*/1);
  const auto proposals = unanimous(4, Value::kOne);
  cluster.propose_all(proposals);
  ASSERT_TRUE(cluster.run_until_decided(cluster.all_ids()));
  cluster.check_safety(cluster.all_ids(), proposals);
  for (const ProcessId id : cluster.all_ids()) {
    EXPECT_EQ(cluster.process(id).decision(), Value::kOne);
  }
}

TEST(TurquoisProtocol, UnanimousZeroFourProcesses) {
  Cluster cluster(4, /*seed=*/2);
  const auto proposals = unanimous(4, Value::kZero);
  cluster.propose_all(proposals);
  ASSERT_TRUE(cluster.run_until_decided(cluster.all_ids()));
  for (const ProcessId id : cluster.all_ids()) {
    EXPECT_EQ(cluster.process(id).decision(), Value::kZero);
  }
}

TEST(TurquoisProtocol, DivergentFourProcesses) {
  Cluster cluster(4, /*seed=*/3);
  const auto proposals = divergent(4);
  cluster.propose_all(proposals);
  ASSERT_TRUE(cluster.run_until_decided(cluster.all_ids()));
  cluster.check_safety(cluster.all_ids(), proposals);
}

TEST(TurquoisProtocol, UnanimousDecidesInFirstCycle) {
  // With unanimous proposals and no faults, processes decide by the end of
  // the first CONVERGE/LOCK/DECIDE cycle (phase 3 -> 4), per the paper.
  Cluster cluster(7, /*seed=*/4);
  cluster.propose_all(unanimous(7, Value::kOne));
  ASSERT_TRUE(cluster.run_until_decided(cluster.all_ids()));
  for (const ProcessId id : cluster.all_ids()) {
    EXPECT_LE(cluster.process(id).phase(), 5u);
  }
}

class TurquoisGroupSizes : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(TurquoisGroupSizes, UnanimousAllSizes) {
  Cluster cluster(GetParam(), /*seed=*/100 + GetParam());
  const auto proposals = unanimous(GetParam(), Value::kOne);
  cluster.propose_all(proposals);
  ASSERT_TRUE(cluster.run_until_decided(cluster.all_ids()));
  cluster.check_safety(cluster.all_ids(), proposals);
}

TEST_P(TurquoisGroupSizes, DivergentAllSizes) {
  Cluster cluster(GetParam(), /*seed=*/200 + GetParam());
  const auto proposals = divergent(GetParam());
  cluster.propose_all(proposals);
  ASSERT_TRUE(cluster.run_until_decided(cluster.all_ids()));
  cluster.check_safety(cluster.all_ids(), proposals);
}

INSTANTIATE_TEST_SUITE_P(PaperGroupSizes, TurquoisGroupSizes,
                         ::testing::Values(4u, 7u, 10u, 13u, 16u));

TEST(TurquoisProtocol, FailStopCrashesBeforeStart) {
  // f = (n-1)/3 processes crash before proposing; the rest must decide.
  for (const std::uint32_t n : {4u, 7u, 10u}) {
    Cluster cluster(n, /*seed=*/300 + n);
    const std::uint32_t f = (n - 1) / 3;
    std::vector<ProcessId> alive;
    std::vector<Value> proposals = divergent(n);
    for (ProcessId id = 0; id < n; ++id) {
      if (id < f) {
        cluster.process(id).crash();
      } else {
        alive.push_back(id);
      }
    }
    for (const ProcessId id : alive) {
      cluster.process(id).propose(proposals[id]);
    }
    ASSERT_TRUE(cluster.run_until_decided(alive, 60 * kSecond))
        << "n=" << n << ": survivors failed to decide";
    cluster.check_safety(alive, proposals);
  }
}

TEST(TurquoisProtocol, SafetyUnderTotalOmission) {
  // With 100% loss no process can decide (progress requires quorums that
  // include other processes' messages) — but safety must hold: nothing bad
  // happens, nobody decides on garbage.
  Cluster cluster(4, /*seed=*/5);
  net::TargetedOmission jam([](ProcessId, ProcessId, SimTime) { return true; });
  cluster.medium().set_fault_injector(&jam);
  cluster.propose_all(divergent(4));
  EXPECT_FALSE(
      cluster.run_until_decided(cluster.all_ids(), 2 * kSecond));
  for (const ProcessId id : cluster.all_ids()) {
    // Everyone self-delivers only its own messages: quorum needs 3 distinct
    // senders, so no progress past phase 1.
    EXPECT_EQ(cluster.process(id).phase(), 1u);
    EXPECT_FALSE(cluster.process(id).decided());
  }
}

TEST(TurquoisProtocol, ProgressResumesAfterJamming) {
  // Jam the first 500 ms, then let the network behave: the fairness
  // assumption kicks in and consensus completes.
  Cluster cluster(4, /*seed=*/6);
  net::JammingWindows jam({{0, 500 * kMillisecond}});
  cluster.medium().set_fault_injector(&jam);
  cluster.propose_all(unanimous(4, Value::kOne));
  ASSERT_TRUE(cluster.run_until_decided(cluster.all_ids(), 30 * kSecond));
  for (const ProcessId id : cluster.all_ids()) {
    EXPECT_EQ(cluster.process(id).decision(), Value::kOne);
  }
}

TEST(TurquoisProtocol, LossyNetworkStillTerminates) {
  Cluster cluster(7, /*seed=*/7);
  net::IidLoss loss(0.2, Rng(42));
  cluster.medium().set_fault_injector(&loss);
  const auto proposals = divergent(7);
  cluster.propose_all(proposals);
  ASSERT_TRUE(cluster.run_until_decided(cluster.all_ids(), 120 * kSecond));
  cluster.check_safety(cluster.all_ids(), proposals);
}

class TurquoisSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TurquoisSeeds, DivergentSevenProcessesManySeeds) {
  Cluster cluster(7, GetParam());
  const auto proposals = divergent(7);
  cluster.propose_all(proposals);
  ASSERT_TRUE(cluster.run_until_decided(cluster.all_ids(), 120 * kSecond));
  cluster.check_safety(cluster.all_ids(), proposals);
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, TurquoisSeeds,
                         ::testing::Range<std::uint64_t>(1000, 1010));

/// Every message in `view`, in ascending phase and then sender order.
std::vector<Message> view_messages(const View& view) {
  std::vector<Message> out;
  const Message* top = view.highest_phase_message();
  if (top == nullptr) return out;
  std::vector<const Message*> at;
  for (Phase phase = 1; phase <= top->phase; ++phase) {
    at.clear();
    view.append_at(at, phase, std::nullopt, view.size());
    for (const Message* m : at) out.push_back(*m);
  }
  return out;
}

TEST(TurquoisReceivePath, PrivatePoolsRunLikeOneSharedPool) {
  // Verdicts and summaries are pure functions of the payload bytes, so
  // whether the receivers share one pool or each hold a private one must
  // change nothing a process does.
  const auto proposals = divergent(7);
  Cluster shared(7, /*seed=*/1003, {}, 0, /*shared_pool=*/true);
  Cluster private_pools(7, /*seed=*/1003);
  shared.propose_all(proposals);
  private_pools.propose_all(proposals);
  ASSERT_TRUE(shared.run_until_decided(shared.all_ids(), 120 * kSecond));
  ASSERT_TRUE(
      private_pools.run_until_decided(private_pools.all_ids(), 120 * kSecond));
  EXPECT_EQ(shared.simulator().now(), private_pools.simulator().now());
  for (const ProcessId id : shared.all_ids()) {
    const Process& a = shared.process(id);
    const Process& b = private_pools.process(id);
    EXPECT_EQ(a.decision(), b.decision()) << "p" << id;
    EXPECT_EQ(a.decide_phase(), b.decide_phase()) << "p" << id;
    EXPECT_EQ(a.phase(), b.phase()) << "p" << id;
    EXPECT_EQ(a.stats(), b.stats()) << "p" << id;
    EXPECT_EQ(view_messages(a.view()), view_messages(b.view())) << "p" << id;
    EXPECT_EQ(a.explain_pending(), b.explain_pending()) << "p" << id;
  }
}

TEST(TurquoisReceivePath, CorrectProcessesPublishWhatTheyEncodeInsidersDoNot) {
  // Every payload a correct process encodes is in the shared pool before
  // it airs, held in the very buffer that airs, with the datagram its
  // bytes decode to and the verdicts a fresh check gives. An insider's
  // mutated broadcast is never published: its entry is a receive-side
  // copy of the bytes.
  constexpr std::uint32_t kInsiders = 2;
  Cluster cluster(7, /*seed=*/12, {}, kInsiders, /*shared_pool=*/true);
  struct Sent {
    ProcessId src;
    const std::uint8_t* frame;
    std::string payload;
  };
  std::vector<Sent> sent;
  cluster.medium().set_broadcast_tap([&](ProcessId src, BytesView frame) {
    const BytesView payload = frame.first(frame.size() - net::kUdpIpOverhead);
    sent.push_back(
        {src, frame.data(), std::string(payload.begin(), payload.end())});
  });
  const auto proposals = divergent(7);
  cluster.propose_all(proposals);
  std::vector<ProcessId> correct;
  for (ProcessId id = 0; id < 7 - kInsiders; ++id) correct.push_back(id);
  ASSERT_TRUE(cluster.run_until_decided(correct, 120 * kSecond));

  ExchangePool& pool = *cluster.pool();
  std::set<std::string> seen;
  std::size_t published = 0;
  std::size_t mutated = 0;
  for (const Sent& s : sent) {
    if (!seen.insert(s.payload).second) continue;  // first airing only
    const bool insider = s.src >= 7 - kInsiders;
    const std::uint64_t decodes = pool.stats().decodes;
    const ExchangePool::Prepared& entry =
        pool.acquire(s.src, as_bytes(s.payload));
    ASSERT_TRUE(entry.datagram.has_value());
    EXPECT_EQ(entry.datagram, Datagram::decode(entry.payload));
    VerifyMemo fresh;
    std::vector<std::uint8_t> verdicts;
    fresh.check_batch(cluster.keys(), cluster.config(), *entry.datagram,
                      verdicts);
    EXPECT_EQ(entry.auth, verdicts);
    if (insider) {
      EXPECT_NE(entry.buffer->data(), s.frame) << "p" << s.src;
      ++mutated;
    } else {
      EXPECT_EQ(entry.buffer->data(), s.frame) << "p" << s.src;
      EXPECT_EQ(pool.stats().decodes, decodes) << "p" << s.src;
      ++published;
    }
  }
  EXPECT_GT(published, 0u);
  EXPECT_GT(mutated, 0u);
}

// --------------------------------------------------------------- Byzantine

TEST(TurquoisByzantine, ValueInversionCannotBreakValidity) {
  // All correct processes propose 1; f insiders flip values and push ⊥.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const std::uint32_t f = 2;
    Cluster cluster(7, seed, {}, f);
    std::vector<ProcessId> correct;
    for (ProcessId id = 0; id < 7; ++id) {
      if (id < 7 - f) correct.push_back(id);
      cluster.process(id).propose(Value::kOne);
    }
    ASSERT_TRUE(cluster.run_until_decided(correct, 60 * kSecond))
        << "seed " << seed;
    for (const ProcessId id : correct) {
      EXPECT_EQ(cluster.process(id).decision(), Value::kOne) << "seed " << seed;
    }
  }
}

TEST(TurquoisByzantine, DivergentUnderAttackStillTerminates) {
  // Regression for the coin-value catch-up deadlock: without the
  // corroboration rule, Byzantine + divergent runs stalled ~35% of the
  // time (a straggler could never validate coin-derived values whose ⊥
  // justification cannot be attached recursively).
  for (const std::uint64_t seed : {10u, 11u, 12u, 13u, 14u, 15u}) {
    const std::uint32_t f = 2;
    Cluster cluster(7, seed, {}, f);
    std::vector<ProcessId> correct;
    const auto proposals = divergent(7);
    for (ProcessId id = 0; id < 7; ++id) {
      if (id < 7 - f) correct.push_back(id);
      cluster.process(id).propose(proposals[id]);
    }
    ASSERT_TRUE(cluster.run_until_decided(correct, 120 * kSecond))
        << "seed " << seed;
    cluster.check_safety(correct, proposals);
  }
}

TEST(TurquoisByzantine, SilentByzantineIsJustFailStop) {
  // Byzantine processes that never propose behave like crashed ones;
  // the correct majority decides regardless.
  Cluster cluster(10, 77);
  std::vector<ProcessId> correct;
  for (ProcessId id = 0; id < 7; ++id) {
    correct.push_back(id);
    cluster.process(id).propose(Value::kZero);
  }
  // ids 7..9 never propose (silent).
  ASSERT_TRUE(cluster.run_until_decided(correct, 60 * kSecond));
  for (const ProcessId id : correct) {
    EXPECT_EQ(cluster.process(id).decision(), Value::kZero);
  }
}

/// One correct process (p0) is cut off from the network until long after
/// the rest decide; once reconnected it must import the decision via the
/// catch-up machinery (transitive phase rule + decision certificates).
/// What that scenario did, run at a given key-epoch length.
struct StragglerRun {
  bool others_decided = false;           // within 2 s
  bool straggler_decided_early = false;  // by then
  bool straggler_decided = false;        // within 30 s more
  std::vector<Value> decisions;
  std::vector<Phase> phases;
  std::vector<Process::Stats> stats;
  SimTime end = 0;
  std::size_t events = 0;
};

StragglerRun run_straggler(std::uint32_t phases_per_epoch) {
  Config cfg = Config::for_group(7);
  cfg.phases_per_epoch = phases_per_epoch;
  Cluster cluster(cfg, 31);
  net::TargetedOmission cutoff([](ProcessId src, ProcessId dst, SimTime now) {
    return (src == 0 || dst == 0) && now < 1 * kSecond;
  });
  cluster.medium().set_fault_injector(&cutoff);
  cluster.propose_all(unanimous(7, Value::kOne));
  StragglerRun run;
  run.others_decided =
      cluster.run_until_decided({1, 2, 3, 4, 5, 6}, 2 * kSecond);
  run.straggler_decided_early = cluster.process(0).decided();
  run.straggler_decided = cluster.run_until_decided({0}, 30 * kSecond);
  for (ProcessId id = 0; id < cluster.n(); ++id) {
    Process& p = cluster.process(id);
    run.decisions.push_back(p.decided() ? p.decision() : Value::kBottom);
    run.phases.push_back(p.phase());
    run.stats.push_back(p.stats());
  }
  run.end = cluster.simulator().now();
  run.events = cluster.simulator().events_executed();
  return run;
}

TEST(TurquoisByzantine, StragglerCatchesUpToDecision) {
  const StragglerRun run = run_straggler(kPhasesPerEpoch);
  ASSERT_TRUE(run.others_decided);
  EXPECT_FALSE(run.straggler_decided_early);
  ASSERT_TRUE(run.straggler_decided);
  EXPECT_EQ(run.decisions[0], Value::kOne);
}

TEST(TurquoisByzantine, StragglerSignsPastTheFirstKeyEpoch) {
  // The straggler scenario at a 6-phase key epoch: the straggler climbs far
  // past phase 6 to catch up, so broadcasts span several epochs. Each one
  // must be signed with its epoch's rolled-over keys: no receiver may
  // reject a single message as unauthentic.
  const StragglerRun run = run_straggler(6);
  ASSERT_TRUE(run.others_decided && run.straggler_decided);
  EXPECT_EQ(run.decisions[0], Value::kOne);
  EXPECT_GT(run.phases[0], 6u);
  std::uint64_t rollovers = 0;
  for (ProcessId id = 0; id < run.stats.size(); ++id) {
    EXPECT_EQ(run.stats[id].auth_failures, 0u) << "p" << id;
    EXPECT_GT(run.stats[id].messages_authenticated, 0u) << "p" << id;
    rollovers += run.stats[id].key_rollovers;
  }
  EXPECT_GT(rollovers, 0u);
}

TEST(TurquoisByzantine, KeyEpochLengthChangesNothingSimulated) {
  // Key bytes never steer the protocol and every secret is 32 bytes in
  // every epoch, so rolling over every 6 phases must give the very run a
  // single 512-phase epoch gives, down to the event count.
  const StragglerRun rolled = run_straggler(6);
  const StragglerRun single = run_straggler(512);
  ASSERT_TRUE(single.straggler_decided);
  EXPECT_EQ(rolled.decisions, single.decisions);
  EXPECT_EQ(rolled.phases, single.phases);
  EXPECT_EQ(rolled.end, single.end);
  EXPECT_EQ(rolled.events, single.events);
  for (ProcessId id = 0; id < rolled.stats.size(); ++id) {
    EXPECT_EQ(single.stats[id].key_rollovers, 0u);
    Process::Stats without = rolled.stats[id];
    without.key_rollovers = 0;
    EXPECT_EQ(without, single.stats[id]) << "p" << id;
  }
}

/// Decodes every frame a process hands to the medium and checks the
/// attachments of justified datagrams: at most Process::kMaxAttachments,
/// one per (sender, phase), each authentic.
class JustificationAudit final : public net::BroadcastService {
 public:
  JustificationAudit(net::Medium& medium, const KeyInfrastructure& keys,
                     const Config& cfg)
      : medium_(medium), keys_(keys), cfg_(cfg), last_(cfg.n) {}

  void attach(ProcessId id, ReceiveHandler handler) override {
    medium_.attach(id, std::move(handler));
  }
  void detach(ProcessId id) override { medium_.detach(id); }
  void broadcast(ProcessId src, FramePayload frame,
                 bool replace_queued) override {
    // A re-send hands over the same frame object; check each once.
    if (frame != last_[src]) {
      inspect(*frame);
      last_[src] = frame;
    }
    medium_.broadcast(src, std::move(frame), replace_queued);
  }

  std::uint64_t justified = 0;  // distinct justified datagrams seen
  std::uint64_t capped = 0;     // ... carrying exactly the cap

 private:
  void inspect(const Bytes& frame) {
    ASSERT_GE(frame.size(), net::BroadcastEndpoint::kUdpIpOverhead);
    const auto d = Datagram::decode(BytesView(frame).first(
        frame.size() - net::BroadcastEndpoint::kUdpIpOverhead));
    ASSERT_TRUE(d.has_value());
    if (d->justification.empty()) return;
    ++justified;
    EXPECT_LE(d->justification.size(), Process::kMaxAttachments);
    if (d->justification.size() == Process::kMaxAttachments) ++capped;
    std::set<std::pair<ProcessId, Phase>> picked;
    for (const Message& m : d->justification) {
      EXPECT_TRUE(picked.insert({m.sender, m.phase}).second)
          << "duplicate attachment p" << m.sender << " phase " << m.phase;
      EXPECT_TRUE(authentic(keys_, cfg_, m))
          << "forged attachment p" << m.sender << " phase " << m.phase;
    }
  }

  net::Medium& medium_;
  const KeyInfrastructure& keys_;
  const Config& cfg_;
  std::vector<FramePayload> last_;  // per sender, held so pointers stay unique
};

TEST(TurquoisJustification, CapHoldsWhenQuorumExceedsIt) {
  // At n = 128 a quorum is 86 messages, twice the attachment cap, and the
  // 2 Mb/s channel cannot carry 128 senders' ticks: processes stall and
  // re-send justified state, so the selection is cut short every time.
  constexpr std::uint32_t n = 128;
  const Config cfg = Config::for_group(n);
  ASSERT_GT(cfg.quorum_size(), 2 * Process::kMaxAttachments);
  Rng root(0x128);
  sim::Simulator sim;
  net::Medium medium(sim, net::MediumConfig{}, root.derive("medium", 0));
  const KeyInfrastructure keys = KeyInfrastructure::setup(cfg, root);
  const crypto::CostModel costs;
  JustificationAudit audit(medium, keys, cfg);
  std::vector<std::unique_ptr<sim::VirtualCpu>> cpus;
  std::vector<std::unique_ptr<runtime::SimRuntime>> runtimes;
  std::vector<std::unique_ptr<net::BroadcastEndpoint>> endpoints;
  std::vector<std::unique_ptr<Process>> processes;
  const auto proposals = divergent(n);
  for (ProcessId id = 0; id < n; ++id) {
    cpus.push_back(std::make_unique<sim::VirtualCpu>(sim));
    runtimes.push_back(std::make_unique<runtime::SimRuntime>(sim, *cpus.back()));
    endpoints.push_back(
        std::make_unique<net::BroadcastEndpoint>(sim, audit, id));
    processes.push_back(std::make_unique<Process>(
        *runtimes.back(), *endpoints.back(), cfg, keys, id,
        root.derive("process", id), costs));
  }
  for (ProcessId id = 0; id < n; ++id) processes[id]->propose(proposals[id]);
  sim.run_until(3 * kSecond);

  EXPECT_GT(audit.justified, 0u);
  EXPECT_GT(audit.capped, 0u) << "the cap never bound";
}

TEST(TurquoisByzantine, ReplayedStatusCannotForgeDecision) {
  // The one-time signature does not cover the status field (§6.1 caveat).
  // Construct the replay directly against the validator: an authentic
  // message re-labelled `decided` must fail semantic validation when no
  // decide-phase quorum exists.
  Config cfg = Config::for_group(4);
  Rng rng(5);
  const KeyInfrastructure keys = KeyInfrastructure::setup(cfg, rng);
  const BytesView sk = keys.chain(1).secret_key(4, Value::kOne);
  Message honest{.sender = 1,
                 .phase = 4,
                 .value = Value::kOne,
                 .status = Status::kUndecided,
                 .from_coin = false,
                 .auth_sk = Bytes(sk.begin(), sk.end())};
  Message replayed = honest;
  replayed.status = Status::kDecided;
  EXPECT_TRUE(authentic(keys, cfg, replayed));  // the forgery authenticates…

  View empty_view;
  const SemanticValidator validator(cfg, empty_view);
  EXPECT_FALSE(validator.status_valid(replayed));  // …but cannot validate
}

/// A port that hands inbound payloads straight to the process's handler
/// and keeps whatever the process sends, delivering it nowhere: no
/// loopback, no medium.
class InjectPort final : public net::DatagramPort {
 public:
  void set_handler(net::DatagramHandler handler) override {
    handler_ = std::move(handler);
  }
  void send(net::FramedPayload payload) override {
    sent_.push_back(std::move(payload));
  }
  void close() override {}
  void deliver(ProcessId src, BytesView payload) { handler_(src, payload); }
  void deliver(ProcessId src, const net::FramedPayload& framed) {
    deliver(src, framed.payload());
  }
  /// Every payload the process sent, in order.
  [[nodiscard]] const std::vector<net::FramedPayload>& sent() const {
    return sent_;
  }

 private:
  net::DatagramHandler handler_;
  std::vector<net::FramedPayload> sent_;
};

/// A datagram from `sender` at phase 1 revealing `key`, encoded by hand so
/// that the key may be longer than an AuthKey holds.
Bytes phase1_datagram(ProcessId sender, Value v, BytesView key) {
  Writer w;
  w.u8(0x54);  // datagram tag
  w.u32(sender);
  w.u32(1);  // phase
  w.u8(static_cast<std::uint8_t>(v));
  w.u8(static_cast<std::uint8_t>(Status::kUndecided));
  w.u8(0);  // from_coin
  w.bytes(key);
  w.u16(0);  // no justification
  return w.take();
}

TEST(TurquoisCodec, OversizedKeyIsMalformedNotAnAuthFailure) {
  // A revealed key longer than 32 bytes can never hash to a VK (VK is the
  // hash of a 32-byte SK), so the decoder drops its datagram as malformed:
  // the exchange pool records a malformed entry and the receiving process
  // neither ingests it nor counts an authentication failure. Controls: the
  // genuine key is accepted, and a wrong 32-byte key is an auth failure.
  const Config cfg = Config::for_group(4);
  Rng rng(11);
  const KeyInfrastructure keys = KeyInfrastructure::setup(cfg, rng);
  const crypto::CostModel costs;
  sim::Simulator sim;
  sim::VirtualCpu cpu(sim);
  runtime::SimRuntime rt(sim, cpu);
  InjectPort port;
  ExchangePool pool(keys, cfg);
  ProcessHooks hooks;
  hooks.exchange_pool = &pool;
  Process p(rt, port, cfg, keys, 0, Rng(12), costs, std::move(hooks));
  p.propose(Value::kOne);

  const BytesView genuine = keys.chain(1).secret_key(1, Value::kOne);
  Bytes oversized(genuine.begin(), genuine.end());
  oversized.push_back(0x00);
  const Bytes too_long = phase1_datagram(1, Value::kOne, oversized);
  EXPECT_FALSE(pool.acquire(1, too_long).datagram.has_value());

  port.deliver(1, too_long);
  sim.run_until(kSecond);
  EXPECT_EQ(p.stats().datagrams_received, 0u);
  EXPECT_EQ(p.stats().messages_authenticated, 0u);
  EXPECT_EQ(p.stats().auth_failures, 0u);
  EXPECT_FALSE(p.view().has(1, 1));

  Bytes wrong(genuine.begin(), genuine.end());
  wrong.back() ^= 0x01;
  port.deliver(1, phase1_datagram(1, Value::kOne, wrong));
  sim.run_until(2 * kSecond);
  EXPECT_EQ(p.stats().datagrams_received, 1u);
  EXPECT_EQ(p.stats().auth_failures, 1u);
  EXPECT_FALSE(p.view().has(1, 1));

  port.deliver(1, phase1_datagram(1, Value::kOne, genuine));
  sim.run_until(3 * kSecond);
  EXPECT_EQ(p.stats().datagrams_received, 2u);
  EXPECT_EQ(p.stats().messages_authenticated, 1u);
  EXPECT_TRUE(p.view().has(1, 1));
}

// ------------------------------------------------- receive-path filtering

/// A lone receiver (process 0) fed crafted datagrams through an InjectPort,
/// receiving through an exchange pool passed in its hooks (`pooled`) or
/// through the private one it builds without. Nothing it sends goes
/// anywhere, so its view holds only what the tests deliver.
class Receiver {
 public:
  Receiver(bool pooled, Config cfg, Mutator mutator = {}, ProcessId id = 0)
      : cfg_(cfg),
        keys_rng_(21),
        keys_(KeyInfrastructure::setup(cfg_, keys_rng_)),
        cpu_(sim_),
        rt_(sim_, cpu_) {
    if (pooled) pool_ = std::make_unique<ExchangePool>(keys_, cfg_);
    ProcessHooks hooks;
    hooks.exchange_pool = pool_.get();
    hooks.mutate_outgoing = std::move(mutator);
    process_ = std::make_unique<Process>(rt_, port_, cfg_, keys_, id,
                                         Rng(22), costs_, std::move(hooks));
    process_->propose(Value::kOne);
  }

  /// A message carrying the sender's genuine one-time key.
  Message signed_msg(ProcessId sender, Phase phase, Value v,
                     Status status = Status::kUndecided) const {
    const BytesView sk = keys_.secret_key(sender, phase, v);
    return Message{.sender = sender,
                   .phase = phase,
                   .value = v,
                   .status = status,
                   .from_coin = false,
                   .auth_sk = sk};
  }

  /// Delivers `d` from `src` and runs the receiver past its CPU charge.
  void deliver(ProcessId src, const Datagram& d) {
    port_.deliver(src, d.encode());
    sim_.run_until(sim_.now() + 50 * kMillisecond);
  }

  /// Hands `d` to the receiver and runs nothing: whatever it queues stays
  /// pending in the simulator.
  void inject(ProcessId src, const Datagram& d) {
    port_.deliver(src, d.encode());
  }

  Process& process() { return *process_; }
  sim::Simulator& simulator() { return sim_; }
  const std::vector<net::FramedPayload>& sent() const { return port_.sent(); }
  const sim::VirtualCpu& cpu() const { return cpu_; }
  const crypto::CostModel& costs() const { return costs_; }

  /// The receive-side counters: broadcasts come from the receiver's own
  /// ticks and datagrams_received counts every delivery.
  Process::Stats receive_stats() const {
    Process::Stats s = process_->stats();
    s.broadcasts = 0;
    s.datagrams_received = 0;
    return s;
  }

  std::size_t pending() const {
    const std::string dump = process_->explain_pending();
    return static_cast<std::size_t>(std::count(dump.begin(), dump.end(), '\n'));
  }

 private:
  Config cfg_;
  Rng keys_rng_;
  KeyInfrastructure keys_;
  crypto::CostModel costs_;
  sim::Simulator sim_;
  sim::VirtualCpu cpu_;
  runtime::SimRuntime rt_;
  InjectPort port_;
  std::unique_ptr<ExchangePool> pool_;
  std::unique_ptr<Process> process_;
};

Datagram datagram_of(const std::vector<Message>& messages) {
  Datagram d;
  d.main = messages.back();
  d.justification.assign(messages.begin(), messages.end() - 1);
  return d;
}

class ReceiveFilter : public ::testing::TestWithParam<bool> {};

TEST_P(ReceiveFilter, StatusVariantsOfOnePairBothReachPending) {
  // The one-time signature does not cover the status (§6.1 caveat), so an
  // insider can replay an honest message with another status. Both
  // variants carry the same (sender, phase); the filter passes the pair
  // once it is absent from V, and both become candidates.
  Receiver r(GetParam(), Config::for_group(4));
  const Message honest = r.signed_msg(1, 4, Value::kOne);
  Message replayed = honest;
  replayed.status = Status::kDecided;
  r.deliver(1, datagram_of({replayed, honest}));
  EXPECT_EQ(r.pending(), 2u);
  EXPECT_EQ(r.process().stats().messages_authenticated, 2u);
  EXPECT_FALSE(r.process().view().has(1, 4));

  // A later variant of the same still-absent pair is a candidate too.
  Message coin = honest;
  coin.from_coin = true;
  r.deliver(1, datagram_of({coin}));
  EXPECT_EQ(r.pending(), 3u);
  EXPECT_EQ(r.process().stats().messages_authenticated, 3u);
}

TEST_P(ReceiveFilter, DatagramWithNothingNewChangesNothing) {
  Receiver r(GetParam(), Config::for_group(4));
  const Message a = r.signed_msg(1, 1, Value::kOne);
  const Message b = r.signed_msg(2, 1, Value::kZero);
  r.deliver(1, datagram_of({a}));
  r.deliver(2, datagram_of({b}));
  r.deliver(3, datagram_of({r.signed_msg(3, 4, Value::kOne)}));  // pending
  ASSERT_TRUE(r.process().view().has(1, 1));
  ASSERT_TRUE(r.process().view().has(2, 1));
  ASSERT_EQ(r.pending(), 1u);

  const Process::Stats before = r.receive_stats();
  const std::uint64_t received = r.process().stats().datagrams_received;
  const std::string pending_before = r.process().explain_pending();
  const Phase phase_before = r.process().phase();
  const std::size_t view_before = r.process().view().size();
  // Every pair is already in V: a duplicate, a variant with another status
  // and a copy with a forged key (V's gate comes before authentication).
  Message variant = a;
  variant.status = Status::kDecided;
  Message forged = b;
  forged.auth_sk.back() ^= 0x01;
  r.deliver(2, datagram_of({a, variant, forged, b}));

  EXPECT_EQ(r.process().stats().datagrams_received, received + 1);
  EXPECT_EQ(r.receive_stats(), before);
  EXPECT_EQ(r.process().explain_pending(), pending_before);
  EXPECT_EQ(r.process().phase(), phase_before);
  EXPECT_EQ(r.process().view().size(), view_before);
}

TEST_P(ReceiveFilter, DatagramWithNothingNewQueuesNoCompletion) {
  // V only grows, so a datagram whose every pair V holds is charged its
  // receive and verification cost at once and queues no completion; the
  // CPU timeline moves exactly as if the completion had been queued.
  Receiver r(GetParam(), Config::for_group(4));
  const Message a = r.signed_msg(1, 1, Value::kOne);
  const Message b = r.signed_msg(2, 1, Value::kZero);
  r.deliver(1, datagram_of({a}));
  r.deliver(2, datagram_of({b}));
  ASSERT_TRUE(r.process().view().has(1, 1));
  ASSERT_TRUE(r.process().view().has(2, 1));

  const auto cost_of = [&](std::size_t contained) {
    return r.costs().udp_recv +
           static_cast<SimDuration>(contained) * r.costs().ots_verify();
  };
  const std::size_t pending = r.simulator().pending();
  const SimTime free_at = r.cpu().free_at();
  const SimDuration busy = r.cpu().total_busy();
  r.inject(2, datagram_of({a, b}));
  EXPECT_EQ(r.simulator().pending(), pending);
  EXPECT_EQ(r.cpu().free_at(), free_at + cost_of(2));
  EXPECT_EQ(r.cpu().total_busy(), busy + cost_of(2));

  // Six phases overflow the summary, which counts as fresh even though the
  // phase-1 pairs are in V: the completion is queued behind that charge.
  std::vector<Message> spanning = {a};
  for (Phase p = 2; p <= 6; ++p) {
    spanning.push_back(r.signed_msg(1, p, Value::kOne));
  }
  ASSERT_TRUE(
      ExchangeSummary::of(datagram_of(spanning), Config::for_group(4)).overflow);
  r.inject(1, datagram_of(spanning));
  EXPECT_EQ(r.simulator().pending(), pending + 1);
  EXPECT_EQ(r.cpu().free_at(), free_at + cost_of(2) + cost_of(6));
  EXPECT_EQ(r.cpu().total_busy(), busy + cost_of(2) + cost_of(6));
  r.simulator().run_until(r.cpu().free_at());
  EXPECT_EQ(r.pending(), 5u);  // phases 2..6 of sender 1
}

TEST_P(ReceiveFilter, OutOfRangeSenderOrPhaseIsDropped) {
  Config cfg = Config::for_group(4);
  cfg.max_phase = 8;
  Receiver r(GetParam(), cfg);
  Message stranger = r.signed_msg(1, 1, Value::kOne);
  stranger.sender = 7;  // no such process in n = 4
  const Message too_deep = r.signed_msg(2, 9, Value::kOne);
  r.deliver(1, datagram_of({stranger, too_deep, r.signed_msg(1, 1, Value::kOne)}));

  EXPECT_TRUE(r.process().view().has(1, 1));
  EXPECT_EQ(r.process().view().size(), 1u);
  EXPECT_EQ(r.pending(), 0u);
  EXPECT_EQ(r.process().stats().messages_authenticated, 1u);
  EXPECT_EQ(r.process().stats().auth_failures, 0u);
}

TEST_P(ReceiveFilter, DatagramSpanningManyPhasesBehavesLikeSmallOnes) {
  // Six distinct phases overflow the summary, which then makes every
  // message a candidate; the outcome must match the same messages
  // delivered in datagrams the summary holds whole.
  Receiver big(GetParam(), Config::for_group(4));
  Receiver small(GetParam(), Config::for_group(4));
  std::vector<Message> messages = {big.signed_msg(1, 1, Value::kOne),
                                   big.signed_msg(2, 1, Value::kZero)};
  for (Phase p = 2; p <= 6; ++p) {
    messages.push_back(big.signed_msg(1, p, Value::kOne));
  }
  Message forged = big.signed_msg(3, 5, Value::kOne);
  forged.auth_sk.back() ^= 0x01;
  messages.insert(messages.begin() + 4, forged);
  Message stranger = messages.front();
  stranger.sender = 9;
  messages.insert(messages.begin() + 2, stranger);
  // Again, so the big datagram also carries pairs V will already hold.
  messages.push_back(messages.front());

  const Datagram whole = datagram_of(messages);
  ASSERT_TRUE(ExchangeSummary::of(whole, Config::for_group(4)).overflow);
  big.deliver(1, whole);
  for (std::size_t i = 0; i < messages.size(); i += 3) {
    const std::size_t end = std::min(messages.size(), i + 3);
    const Datagram part = datagram_of(
        std::vector<Message>(messages.begin() + static_cast<long>(i),
                             messages.begin() + static_cast<long>(end)));
    ASSERT_FALSE(ExchangeSummary::of(part, Config::for_group(4)).overflow);
    small.deliver(1, part);
  }

  EXPECT_EQ(big.process().explain_pending(), small.process().explain_pending());
  EXPECT_EQ(big.pending(), 5u);  // phases 2..6 of sender 1
  EXPECT_EQ(big.process().view().size(), small.process().view().size());
  EXPECT_EQ(big.process().view().size(), 2u);
  const Process::Stats& b = big.process().stats();
  const Process::Stats& s = small.process().stats();
  EXPECT_EQ(b.messages_authenticated, s.messages_authenticated);
  EXPECT_EQ(b.auth_failures, s.auth_failures);
  EXPECT_EQ(b.auth_failures, 1u);
  EXPECT_EQ(b.accepted, s.accepted);
  EXPECT_EQ(big.process().phase(), small.process().phase());
}

// "PoolLess": the hooks pass no pool, so the process uses its private one.
INSTANTIATE_TEST_SUITE_P(PoolOnOff, ReceiveFilter, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return param.param ? "Pooled" : "PoolLess";
                         });

// ------------------------------------------------------- broadcast memo

/// A receiver of n = 7 (quorum 5) with no tick jitter, so that each tick
/// sends exactly one broadcast.
Config memo_config() {
  Config cfg = Config::for_group(7);
  cfg.tick_jitter = 0;
  return cfg;
}

/// Runs the receiver in 1 ms steps until `done()` holds.
template <typename Done>
void run_until(Receiver& r, Done done) {
  for (int ms = 0; ms < 1000 && !done(); ++ms) {
    r.simulator().run_until(r.simulator().now() + kMillisecond);
  }
  ASSERT_TRUE(done());
}

/// Delivers value-1 messages at `phase` from `senders`, the last one
/// injected, and runs until the receiver leaves the phase, so that the
/// test sees the next phase's broadcasts from the first. Returns the
/// number of sends up to and including the next phase's entry broadcast.
std::size_t complete_phase(Receiver& r, Phase phase,
                           const std::vector<ProcessId>& senders,
                           Status status = Status::kUndecided) {
  for (std::size_t i = 0; i + 1 < senders.size(); ++i) {
    r.deliver(senders[i],
              datagram_of({r.signed_msg(senders[i], phase, Value::kOne,
                                        status)}));
  }
  const ProcessId last = senders.back();
  r.inject(last,
           datagram_of({r.signed_msg(last, phase, Value::kOne, status)}));
  run_until(r, [&] { return r.process().phase() > phase; });
  return r.sent().size();
}

/// The buffer of the receiver's `i`-th send.
const Bytes* buffer(const Receiver& r, std::size_t i) {
  return r.sent()[i].frame().get();
}

std::vector<Message> attachments(const net::FramedPayload& sent) {
  const std::optional<Datagram> d = Datagram::decode(sent.payload());
  return d.has_value() ? d->justification : std::vector<Message>{};
}

TEST(TurquoisBroadcastMemo, LateMessagesTheRulesSkipKeepTheResentBuffer) {
  // At DECIDE phase 3 with a binary value, before the stall escalates to
  // root evidence, the rules read only the phase-2 book. Phase-1 messages
  // arriving then change nothing the broadcast attaches, so the next
  // re-send hands the port the very buffer of the last one.
  Receiver r(true, memo_config());
  complete_phase(r, 1, {1, 2, 3, 4, 5});
  const std::size_t entered = complete_phase(r, 2, {1, 2, 3, 4, 5});
  ASSERT_EQ(r.process().phase(), 3u);
  run_until(r, [&] { return r.sent().size() == entered + 1; });
  ASSERT_EQ(attachments(r.sent().back()).size(), 5u);

  r.inject(6, datagram_of({r.signed_msg(6, 1, Value::kOne)}));
  run_until(r, [&] { return r.process().view().has(6, 1); });
  ASSERT_EQ(r.sent().size(), entered + 1);
  run_until(r, [&] { return r.sent().size() == entered + 2; });
  EXPECT_EQ(r.process().phase(), 3u);
  EXPECT_EQ(buffer(r, entered + 1), buffer(r, entered));
}

TEST(TurquoisBroadcastMemo, GrowthOfARequestedBookRepicksTheAttachments) {
  // A process that decided at phase 3 and stalls at phase 6 attaches the
  // phase-5 quorum and, for its status, the phase-3 quorum of its value:
  // the one rule that reads the phase-3 book. That book gains sender 1,
  // which sorts before the five attached, so the next re-send is a new
  // buffer whose attachments are what a fresh pick of the grown view gives.
  Receiver r(true, memo_config());
  complete_phase(r, 1, {1, 2, 3, 4, 5});
  complete_phase(r, 2, {1, 2, 3, 4, 5});
  complete_phase(r, 3, {2, 3, 4, 5, 6});
  ASSERT_EQ(r.process().status(), Status::kDecided);
  complete_phase(r, 4, {1, 2, 3, 4, 5}, Status::kDecided);
  const std::size_t entered =
      complete_phase(r, 5, {1, 2, 3, 4, 5}, Status::kDecided);
  ASSERT_EQ(r.process().phase(), 6u);
  run_until(r, [&] { return r.sent().size() == entered + 1; });
  const auto quorum = [&](Phase phase, std::vector<ProcessId> senders,
                          Status status) {
    std::vector<Message> out;
    for (ProcessId s : senders) {
      out.push_back(r.signed_msg(s, phase, Value::kOne, status));
    }
    return out;
  };
  std::vector<Message> expected =
      quorum(5, {1, 2, 3, 4, 5}, Status::kDecided);
  const std::vector<Message> phase3 =
      quorum(3, {2, 3, 4, 5, 6}, Status::kUndecided);
  expected.insert(expected.end(), phase3.begin(), phase3.end());
  EXPECT_EQ(attachments(r.sent().back()), expected);

  r.inject(1, datagram_of({r.signed_msg(1, 3, Value::kOne)}));
  run_until(r, [&] { return r.process().view().has(1, 3); });
  run_until(r, [&] { return r.sent().size() == entered + 2; });
  EXPECT_NE(buffer(r, entered + 1), buffer(r, entered));
  expected.resize(5);
  const std::vector<Message> grown =
      quorum(3, {1, 2, 3, 4, 5}, Status::kUndecided);
  expected.insert(expected.end(), grown.begin(), grown.end());
  EXPECT_EQ(attachments(r.sent()[entered + 1]), expected);
}

TEST(TurquoisBroadcastMemo, InsiderResendsRunTheMutatorEveryTick) {
  // A mutator may consume randomness, so a stalled insider runs it on
  // every broadcast and encodes a new buffer each time, while a correct
  // process in the same state re-sends one buffer.
  std::uint64_t mutations = 0;
  Receiver insider(true, memo_config(), [&](Message&) { ++mutations; });
  Receiver correct(true, memo_config());
  for (Receiver* r : {&insider, &correct}) {
    complete_phase(*r, 1, {1, 2, 3, 4, 5});
    ASSERT_EQ(r->process().phase(), 2u);
    r->simulator().run_until(r->simulator().now() + 100 * kMillisecond);
  }
  EXPECT_EQ(mutations, insider.process().stats().broadcasts);
  const std::size_t sends = insider.sent().size();
  ASSERT_GE(sends, 10u);
  ASSERT_EQ(correct.sent().size(), sends);
  for (std::size_t i = sends - 5; i < sends; ++i) {
    EXPECT_FALSE(attachments(insider.sent()[i]).empty());
    EXPECT_NE(buffer(insider, i), buffer(insider, i - 1));
    EXPECT_EQ(buffer(correct, i), buffer(correct, i - 1));
  }
}

TEST(TurquoisJustification, StalledLeaderCarriesTheEvidenceOfItsBottom) {
  // The divergent livelock at n = 7 (quorum 5, half quorum 3, f + 1 = 3):
  // the laggard never receives the leader's own phase-4 message. A ⊥ at
  // DECIDE phase 6 needs three 0s and three 1s at phase 4; the leader holds
  // them, the laggard lacks the leader's one. The leader (p0) enters phase 6
  // on p2's ⊥, reaches phase 7 undecided with its own ⊥ in its phase-6
  // quorum, and stalls there. The laggard (p1) sits at phase 6 with three
  // valid 0s and the two ⊥s pending, one short of a quorum. Only the
  // leader's stall escalation can carry the missing message.
  Config cfg = Config::for_group(7);
  cfg.tick_jitter = 0;
  Receiver leader(true, cfg);
  Receiver laggard(true, cfg, {}, 1);
  const auto sent_main = [](const net::FramedPayload& p) {
    return Datagram::decode(p.payload())->main;
  };
  const auto loop_back = [&](Phase phase) {
    for (const net::FramedPayload& p : leader.sent()) {
      if (sent_main(p).phase == phase) {
        leader.deliver(0, *Datagram::decode(p.payload()));
        return;
      }
    }
    FAIL() << "the leader never sent phase " << phase;
  };
  const auto to_both = [&](const Message& m) {
    leader.deliver(m.sender, datagram_of({m}));
    laggard.deliver(m.sender, datagram_of({m}));
  };

  // A ⊥ quorum at phase 3: both flip a coin into phase 4.
  for (ProcessId s = 2; s < 7; ++s) {
    to_both(leader.signed_msg(s, 3, Value::kBottom));
  }
  ASSERT_EQ(leader.process().phase(), 4u);
  ASSERT_EQ(laggard.process().phase(), 4u);
  const Value coin = leader.process().value();
  const Value other = coin == Value::kZero ? Value::kOne : Value::kZero;
  loop_back(4);
  for (ProcessId s = 2; s < 7; ++s) {
    Message m = leader.signed_msg(s, 4, s < 5 ? other : coin);
    m.from_coin = true;
    to_both(m);
  }
  ASSERT_TRUE(leader.process().view().has(0, 4));
  ASSERT_FALSE(laggard.process().view().has(0, 4));

  // Phase 6: p2's ⊥ first, then three 0s.
  to_both(leader.signed_msg(2, 6, Value::kBottom));
  for (ProcessId s = 4; s < 7; ++s) {
    to_both(leader.signed_msg(s, 6, Value::kZero));
  }
  ASSERT_EQ(leader.process().phase(), 6u);
  ASSERT_EQ(leader.process().value(), Value::kBottom);
  loop_back(6);
  ASSERT_EQ(leader.process().phase(), 7u);
  ASSERT_EQ(leader.process().status(), Status::kUndecided);

  // The laggard hears the leader's first, unjustified send of phases 5 and
  // 6, as if the leader had left each at once, and every phase-7 send:
  // first up to the third, the last one before the stall escalates.
  leader.simulator().run_until(leader.simulator().now() + 100 * kMillisecond);
  std::size_t relayed = 0;
  std::size_t phase7_sends = 0;
  std::set<Phase> heard;
  const auto relay = [&](std::size_t max_phase7_sends) {
    for (; relayed < leader.sent().size(); ++relayed) {
      const Message main = sent_main(leader.sent()[relayed]);
      if (main.phase == 7 && ++phase7_sends > max_phase7_sends) return;
      if (main.phase != 4 &&
          (main.phase == 7 || heard.insert(main.phase).second)) {
        laggard.deliver(
            0, *Datagram::decode(leader.sent()[relayed].payload()));
      }
    }
  };
  relay(3);
  ASSERT_EQ(phase7_sends, 4u);
  EXPECT_EQ(laggard.process().phase(), 6u);
  EXPECT_EQ(laggard.process().view().count_phase(6), 3u);

  relay(leader.sent().size());
  EXPECT_TRUE(laggard.process().view().has(0, 4));
  EXPECT_GT(laggard.process().phase(), 6u);
}

TEST(TurquoisDiagnostics, ExplainPendingJudgesByTheDrainRules) {
  // Two authentic phase-5 messages with different values: neither is
  // corroborated (f + 1 = 2 senders per (phase, value) needed) and V holds
  // no phase-4 quorum, but two distinct senders claim phase 5, so the
  // transitive phase rule admits the phase. explain_pending() must say so,
  // as drain_pending() judges it; its value rule still fails.
  Receiver r(true, Config::for_group(4));
  r.deliver(1, datagram_of({r.signed_msg(1, 5, Value::kZero)}));
  EXPECT_EQ(r.process().explain_pending(),
            "  <s=1 phi=5 v=0 st=undecided coin=0> phase=0 value=0 "
            "status=0 corr=0\n");
  r.deliver(2, datagram_of({r.signed_msg(2, 5, Value::kOne)}));
  EXPECT_EQ(r.process().explain_pending(),
            "  <s=1 phi=5 v=0 st=undecided coin=0> phase=1 value=0 "
            "status=0 corr=0\n"
            "  <s=2 phi=5 v=1 st=undecided coin=0> phase=1 value=0 "
            "status=0 corr=0\n");
}

}  // namespace
}  // namespace turq::turquois
