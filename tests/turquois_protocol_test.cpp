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
      : cfg_(Config::for_group(n)),
        root_rng_(seed),
        medium_(sim_, medium_cfg, root_rng_.derive("medium", 0)),
        keys_(KeyInfrastructure::setup(cfg_, root_rng_)) {
    if (shared_pool) pool_ = std::make_unique<ExchangePool>(keys_, cfg_);
    for (ProcessId id = 0; id < n; ++id) {
      cpus_.push_back(std::make_unique<sim::VirtualCpu>(sim_));
      runtimes_.push_back(
          std::make_unique<runtime::SimRuntime>(sim_, *cpus_.back()));
      endpoints_.push_back(
          std::make_unique<net::BroadcastEndpoint>(sim_, medium_, id));
      ProcessHooks hooks;
      hooks.exchange_pool = pool_.get();
      if (id >= n - insiders) {
        hooks.mutate_outgoing = adversary::turquois_value_inversion();
      }
      processes_.push_back(std::make_unique<Process>(
          *runtimes_.back(), *endpoints_.back(), cfg_, keys_, id,
          root_rng_.derive("process", id), costs_, std::move(hooks)));
    }
  }

  Config& config() { return cfg_; }
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

TEST(TurquoisByzantine, StragglerCatchesUpToDecision) {
  // One correct process is cut off from the network until long after the
  // rest decide; once reconnected it must import the decision via the
  // catch-up machinery (transitive phase rule + decision certificates).
  Cluster cluster(7, 31);
  const ProcessId straggler = 0;
  net::TargetedOmission cutoff([](ProcessId src, ProcessId dst, SimTime now) {
    return (src == 0 || dst == 0) && now < 1 * kSecond;
  });
  cluster.medium().set_fault_injector(&cutoff);
  cluster.propose_all(unanimous(7, Value::kOne));

  std::vector<ProcessId> others = {1, 2, 3, 4, 5, 6};
  ASSERT_TRUE(cluster.run_until_decided(others, 2 * kSecond));
  EXPECT_FALSE(cluster.process(straggler).decided());

  ASSERT_TRUE(cluster.run_until_decided({straggler}, 30 * kSecond));
  EXPECT_EQ(cluster.process(straggler).decision(), Value::kOne);
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
/// and drops whatever the process sends: no loopback, no medium.
class InjectPort final : public net::DatagramPort {
 public:
  void set_handler(net::DatagramHandler handler) override {
    handler_ = std::move(handler);
  }
  void send(SharedBytes) override {}
  void close() override {}
  void deliver(ProcessId src, const Bytes& payload) { handler_(src, payload); }

 private:
  net::DatagramHandler handler_;
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
  Receiver(bool pooled, Config cfg)
      : cfg_(cfg),
        keys_rng_(21),
        keys_(KeyInfrastructure::setup(cfg_, keys_rng_)),
        cpu_(sim_),
        rt_(sim_, cpu_) {
    if (pooled) pool_ = std::make_unique<ExchangePool>(keys_, cfg_);
    ProcessHooks hooks;
    hooks.exchange_pool = pool_.get();
    process_ = std::make_unique<Process>(rt_, port_, cfg_, keys_, 0, Rng(22),
                                         costs_, std::move(hooks));
    process_->propose(Value::kOne);
  }

  /// A message carrying the sender's genuine one-time key.
  Message signed_msg(ProcessId sender, Phase phase, Value v,
                     Status status = Status::kUndecided) const {
    const BytesView sk = keys_.chain(sender).secret_key(phase, v);
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

  Process& process() { return *process_; }

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
