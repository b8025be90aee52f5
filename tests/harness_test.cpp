// Tests for the experiment harness: every protocol under every canned
// fault plan must complete with safety intact, and the table machinery must
// format results faithfully.
#include <gtest/gtest.h>

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "baselines/bracha/bracha.hpp"
#include "faultplan/spec.hpp"
#include "harness/deployment.hpp"
#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "harness/table.hpp"
#include "service/service.hpp"
#include "trace/sink.hpp"
#include "trace/trace.hpp"

namespace turq::harness {
namespace {

faultplan::FaultPlan canned(faultplan::Role role) {
  switch (role) {
    case faultplan::Role::kFailStop:
      return faultplan::canned_plan(role, "fail-stop");
    case faultplan::Role::kByzantine:
      return faultplan::canned_plan(role, "Byzantine");
    default:
      return faultplan::canned_plan(role, "failure-free");
  }
}

ScenarioConfig quick(Protocol p, std::uint32_t n, ProposalDist dist,
                     faultplan::Role role) {
  ScenarioConfig cfg;
  cfg.protocol = p;
  cfg.n = n;
  cfg.distribution = dist;
  cfg.plan = canned(role);
  cfg.repetitions = 3;
  cfg.seed = 4207;
  return cfg;
}

// Split step-2 tallies (StepMachine::split_tallies) of every Bracha process
// over `reps` repetitions of the divergent load at `seed`, each repetition
// built as harness::deploy builds it (its latencies must match run_once's).
std::uint64_t bracha_split_tallies(std::uint32_t n, std::uint64_t seed,
                                   std::uint64_t reps) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kBracha;
  cfg.n = n;
  cfg.distribution = ProposalDist::kDivergent;
  cfg.seed = seed;
  const bracha::Config bcfg = bracha::Config::for_group(n);
  std::uint64_t split = 0;
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    Deployment d(cfg, rep, Transport::kAuthenticatedTcp, nullptr);
    std::vector<std::unique_ptr<bracha::Process>> procs;
    for (ProcessId id = 0; id < n; ++id) {
      runtime::Runtime& rt = d.add_node(id);
      bracha::ProcessHooks hooks;
      hooks.on_decide = [&d, id](Value v, std::uint32_t round, SimTime at) {
        d.instance().on_decide(id, v, round, at);
      };
      procs.push_back(std::make_unique<bracha::Process>(
          rt, d.host(id), bcfg, id, d.root.derive("proc", id), cfg.costs,
          bracha::Strategy::kHonest, std::move(hooks)));
    }
    d.start(procs);
    d.run([&d] { return !d.instance().all_decided(); });
    for (const auto& p : procs) split += p->split_tallies();
    EXPECT_EQ(d.collect(0).latencies_ms, run_once(cfg, rep).latencies_ms)
        << "n=" << n << " rep " << rep;
  }
  return split;
}

// The finding behind ROADMAP item 9's Bracha anomaly, at `turquois_sim
// --protocol bracha --dist divergent --seed 5 --reps 5`: at n=10 and n=16
// no step-2 tally splits, so the divergent load decides in round 1 exactly
// as the unanimous load does and prints the same latency line; at n=7 and
// n=13 some tallies split and those runs go on to later rounds. A harness
// check that a divergent cell exercises disagreement would read this count.
TEST(HarnessBracha, DivergentLoadSplitsStepTwoOnlyAtSomeSizes) {
  EXPECT_GT(bracha_split_tallies(7, 5, 5), 0u);
  EXPECT_EQ(bracha_split_tallies(10, 5, 5), 0u);
  EXPECT_GT(bracha_split_tallies(13, 5, 5), 0u);
  EXPECT_EQ(bracha_split_tallies(16, 5, 5), 0u);
}

class HarnessGrid
    : public ::testing::TestWithParam<std::tuple<Protocol, faultplan::Role>> {
};

TEST_P(HarnessGrid, CompletesWithSafety) {
  const auto [protocol, load] = GetParam();
  const ScenarioResult r = run_scenario(
      quick(protocol, 4, ProposalDist::kDivergent, load));
  EXPECT_EQ(r.safety_violations, 0u);
  EXPECT_EQ(r.failed_runs, 0u);
  EXPECT_FALSE(r.latency_ms.empty());
  EXPECT_GT(r.mean(), 0.0);
}

/// Every registered protocol, so a new descriptor joins the grid unasked.
std::vector<Protocol> registered_protocols() {
  std::vector<Protocol> out;
  for (const ProtocolInfo& info : protocols()) out.push_back(info.protocol);
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocolsAllLoads, HarnessGrid,
    ::testing::Combine(::testing::ValuesIn(registered_protocols()),
                       ::testing::Values(faultplan::Role::kNone,
                                         faultplan::Role::kFailStop,
                                         faultplan::Role::kByzantine)));

TEST(Harness, UnanimousValidityEnforced) {
  // Under the unanimous load every correct process proposes 1; deciding 0
  // would be recorded as a validity violation. It must never happen.
  for (const Protocol p : registered_protocols()) {
    const ScenarioResult r = run_scenario(
        quick(p, 4, ProposalDist::kUnanimous, faultplan::Role::kByzantine));
    EXPECT_EQ(r.safety_violations, 0u) << to_string(p);
  }
}

TEST(Harness, LatencySamplesOnePerCorrectProcess) {
  ScenarioConfig cfg = quick(Protocol::kTurquois, 7, ProposalDist::kUnanimous,
                             faultplan::Role::kNone);
  const RunResult r = run_once(cfg, 0);
  EXPECT_TRUE(r.all_correct_decided);
  EXPECT_EQ(r.latencies_ms.size(), 7u);
  for (const double l : r.latencies_ms) EXPECT_GT(l, 0.0);
}

TEST(Harness, FailStopExcludesCrashedFromSamples) {
  ScenarioConfig cfg = quick(Protocol::kTurquois, 7, ProposalDist::kUnanimous,
                             faultplan::Role::kFailStop);
  const RunResult r = run_once(cfg, 0);
  EXPECT_TRUE(r.all_correct_decided);
  EXPECT_EQ(r.latencies_ms.size(), 5u);  // n - f = 7 - 2
  EXPECT_TRUE(r.k_decided);
}

TEST(Harness, RunsAreReproducible) {
  const ScenarioConfig cfg = quick(Protocol::kTurquois, 4,
                                   ProposalDist::kDivergent,
                                   faultplan::Role::kNone);
  const RunResult a = run_once(cfg, 1);
  const RunResult b = run_once(cfg, 1);
  EXPECT_EQ(a.latencies_ms, b.latencies_ms);
  EXPECT_EQ(a.decision, b.decision);
  // A different repetition index gives a different world.
  const RunResult c = run_once(cfg, 2);
  EXPECT_NE(a.latencies_ms, c.latencies_ms);
}

TEST(Harness, TurquoisFasterThanBaselines) {
  // The paper's headline, at miniature scale.
  const double turquois =
      run_scenario(quick(Protocol::kTurquois, 7, ProposalDist::kUnanimous,
                         faultplan::Role::kNone))
          .mean();
  const double abba =
      run_scenario(quick(Protocol::kAbba, 7, ProposalDist::kUnanimous,
                         faultplan::Role::kNone))
          .mean();
  const double bracha =
      run_scenario(quick(Protocol::kBracha, 7, ProposalDist::kUnanimous,
                         faultplan::Role::kNone))
          .mean();
  EXPECT_LT(turquois, abba);
  EXPECT_LT(abba, bracha);
}

TEST(Harness, ByzantineLoadSlowsTurquoisDown) {
  const double clean =
      run_scenario(quick(Protocol::kTurquois, 7, ProposalDist::kDivergent,
                         faultplan::Role::kNone))
          .mean();
  const double attacked =
      run_scenario(quick(Protocol::kTurquois, 7, ProposalDist::kDivergent,
                         faultplan::Role::kByzantine))
          .mean();
  EXPECT_GT(attacked, clean * 0.8);  // must not be *faster* than clean
}

TEST(Table, FormatCell) {
  ScenarioResult r;
  r.latency_ms.add(10.0);
  r.latency_ms.add(14.0);
  // sd = sqrt(8), se = 2, t(1) = 12.706 -> half-width 25.41.
  EXPECT_EQ(format_cell(r), "12.00 ± 25.41");

  ScenarioResult empty;
  empty.failed_runs = 3;
  EXPECT_EQ(format_cell(empty), "n/a (3 failed)");

  r.safety_violations = 1;
  EXPECT_NE(format_cell(r).find("SAFETY"), std::string::npos);
}

TEST(Table, RunAndRenderSmallGrid) {
  TableSpec spec;
  spec.title = "test table";
  spec.plan = canned(faultplan::Role::kNone);
  spec.group_sizes = {4};
  spec.protocols = {Protocol::kTurquois};
  spec.distributions = {ProposalDist::kUnanimous, ProposalDist::kDivergent};

  ScenarioConfig base;
  base.repetitions = 2;
  base.seed = 99;
  const auto results = run_table(spec, base);
  ASSERT_EQ(results.size(), 2u);

  const std::string rendered = render_table(spec, results);
  EXPECT_NE(rendered.find("test table"), std::string::npos);
  EXPECT_NE(rendered.find("n = 4"), std::string::npos);
  EXPECT_NE(rendered.find("Turquois unanimous"), std::string::npos);
  EXPECT_NE(rendered.find("Turquois divergent"), std::string::npos);
}

// A perf report is a pure function of its PerfReport: fixed key order,
// metrics in declaration order, and the host's wall-clock only on the
// environment line. write_perf_json writes exactly those bytes.
TEST(PerfReport, WritesDeterministicJson) {
  PerfReport report;
  report.name = "fixture";
  report.quick = true;
  report.seed = 7;
  report.add("sim_events_per_wall_s", 24968733.2, "1/s", Domain::kHost,
             Better::kHigher)
      .max_drop = kThroughputMaxDrop;
  report.add("steady_state_allocs", 0.0, "count", Domain::kHost,
             Better::kLower)
      .limit = 0.0;
  report.add("speedup_vs_sequential", 6.5, "x", Domain::kSim, Better::kHigher)
      .limit = 5.0;
  report.grid.push_back(PerfCell{.protocol = "Crain",
                                 .plan = "failure-free",
                                 .topology = "single-hop",
                                 .n = 4,
                                 .reps = 2,
                                 .decisions = 8,
                                 .mean_ms = 44.94334,
                                 .p99_ms = 54.7659,
                                 .messages = 136,
                                 .failed_runs = 0});
  report.jobs = 4;
  report.wall_seconds = 0.136;

  const std::string json = to_json(report);
  EXPECT_EQ(json,
            "{\n"
            "  \"schema\": \"turquois-perf/1\",\n"
            "  \"name\": \"fixture\",\n"
            "  \"quick\": true,\n"
            "  \"seed\": 7,\n"
            "  \"metrics\": [\n"
            "    {\"name\": \"sim_events_per_wall_s\", \"value\": 24968733.2, "
            "\"unit\": \"1/s\", \"domain\": \"host\", \"better\": \"higher\", "
            "\"bound\": {\"max_drop\": 0.3}},\n"
            "    {\"name\": \"steady_state_allocs\", \"value\": 0, "
            "\"unit\": \"count\", \"domain\": \"host\", \"better\": \"lower\", "
            "\"bound\": {\"ceiling\": 0}},\n"
            "    {\"name\": \"speedup_vs_sequential\", \"value\": 6.5, "
            "\"unit\": \"x\", \"domain\": \"sim\", \"better\": \"higher\", "
            "\"bound\": {\"floor\": 5}}\n"
            "  ],\n"
            "  \"grid\": [\n"
            "    {\"protocol\": \"Crain\", \"plan\": \"failure-free\", "
            "\"topology\": \"single-hop\", \"n\": 4, "
            "\"reps\": 2, \"decisions\": 8, \"mean_ms\": 44.9433, "
            "\"p99_ms\": 54.7659, \"messages\": 136, "
            "\"msgs_per_decision\": 17.0000, \"failed_runs\": 0}\n"
            "  ],\n"
            "  \"environment\": {\"jobs\": 4, \"wall_clock_seconds\": 0.136}\n"
            "}\n");
  EXPECT_EQ(to_json(report), json);

  // Another run's wall-clock moves the environment line and nothing else.
  PerfReport later = report;
  later.wall_seconds = 12.5;
  const std::string later_json = to_json(later);
  const auto env = json.find("  \"environment\"");
  ASSERT_NE(env, std::string::npos);
  EXPECT_EQ(later_json.substr(0, env), json.substr(0, env));
  EXPECT_NE(later_json, json);

  const std::string path =
      ::testing::TempDir() + "harness_test_perf_report.json";
  ASSERT_TRUE(write_perf_json(report, path));
  std::ifstream in(path, std::ios::binary);
  std::stringstream written;
  written << in.rdbuf();
  EXPECT_EQ(written.str(), json);
  std::remove(path.c_str());
}

// A bench's exit status reads the declared floors and ceilings.
TEST(PerfReport, FinishFailsOnABrokenLimit) {
  PerfReport report;
  report.name = "fixture";
  report.add("speedup_vs_sequential", 5.0, "x", Domain::kSim, Better::kHigher)
      .limit = 5.0;
  EXPECT_EQ(finish_perf_report(report, ""), 0);
  report.metrics[0].value = 4.99;
  EXPECT_EQ(finish_perf_report(report, ""), 1);
  report.metrics[0].value = 6.0;
  report.add("steady_state_allocs", 1.0, "count", Domain::kHost,
             Better::kLower);
  EXPECT_EQ(finish_perf_report(report, ""), 0)
      << "an unbounded metric never fails";
  report.metrics[1].limit = 0.0;
  EXPECT_EQ(finish_perf_report(report, ""), 1);
}

// ------------------------------------------------------ deployment golden --

// One deployment row of the golden: a scenario and its label.
struct GoldenRow {
  std::string label;
  ScenarioConfig cfg;
};

std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

using ull = unsigned long long;

/// Canonical text form of every RunResult field.
std::string dump(const RunResult& r) {
  std::string out;
  out += fmt("  decided all=%d k=%d agreement=%d validity=%d decision=%s\n",
             r.all_correct_decided ? 1 : 0, r.k_decided ? 1 : 0,
             r.agreement_held ? 1 : 0, r.validity_held ? 1 : 0,
             r.decision.has_value() ? to_string(*r.decision).c_str() : "-");
  out += "  latencies_ms";
  for (const double l : r.latencies_ms) out += fmt(" %.17g", l);
  out += "\n";
  const net::MediumStats& m = r.medium;
  out += fmt("  medium bcast=%llu ucast=%llu retries=%llu collisions=%llu "
             "collided=%llu drops=%llu deliveries=%llu omissions=%llu "
             "unreachable=%llu hidden=%llu bytes=%llu airtime=%lld\n",
             ull{m.broadcast_frames}, ull{m.unicast_frames},
             ull{m.mac_retries}, ull{m.collisions}, ull{m.frames_collided},
             ull{m.unicast_drops}, ull{m.deliveries}, ull{m.omissions},
             ull{m.unreachable}, ull{m.hidden_terminal}, ull{m.bytes_on_air},
             static_cast<long long>(m.airtime));
  out += fmt("  app_messages=%llu\n", ull{r.app_messages});
  const net::TcpHost::Stats& t = r.tcp;
  out += fmt("  tcp messages=%llu segments=%llu retransmitted=%llu rto=%llu "
             "fast=%llu auth_failures=%llu\n",
             ull{t.messages_sent}, ull{t.segments_sent},
             ull{t.segments_retransmitted}, ull{t.rto_fires},
             ull{t.fast_retransmits}, ull{t.auth_failures});
  if (r.sigma.has_value()) {
    const faultplan::SigmaSummary& s = *r.sigma;
    out += fmt("  sigma bound=%lld rounds=%llu violating=%llu omissions=%llu "
               "max_round=%llu\n",
               static_cast<long long>(s.bound), ull{s.rounds},
               ull{s.violating_rounds}, ull{s.omissions},
               ull{s.max_round_omissions});
  } else {
    out += "  sigma -\n";
  }
  if (r.audit.has_value()) {
    out += fmt("  audit checked=%d violations=%zu\n", r.audit->checked ? 1 : 0,
               r.audit->violations.size());
    for (const audit::Violation& v : r.audit->violations) {
      out += fmt("    %s p%lld: %s\n", audit::to_string(v.property),
                 v.process == audit::kNoProcess
                     ? -1LL
                     : static_cast<long long>(v.process),
                 v.detail.c_str());
    }
  } else {
    out += "  audit -\n";
  }
  if (r.spatial.has_value()) {
    const spatial::SpatialStats& s = *r.spatial;
    out += fmt("  spatial samples=%llu partitions=%llu partitioned=%llu "
               "hops=%llu pairs=%llu cs=%llu origin=%llu forwards=%llu "
               "suppressed=%llu duplicates=%llu deliveries=%llu\n",
               ull{s.samples}, ull{s.partition_events},
               ull{s.partitioned_samples}, ull{s.path_hops_sum},
               ull{s.path_pairs}, ull{s.cs_domains_sum},
               ull{s.relay.origin_frames}, ull{s.relay.forwards},
               ull{s.relay.suppressed}, ull{s.relay.duplicates},
               ull{s.relay.deliveries});
  } else {
    out += "  spatial -\n";
  }
  if (r.service.has_value()) {
    const service::RepSummary& s = *r.service;
    out += fmt("  service arrivals=%llu committed=%llu rejected=%llu "
               "launched=%llu decided=%llu failed=%llu key_batches=%llu "
               "audit_checked=%llu audit_violating=%llu finished_at=%lld "
               "mux_frames=%llu mux_payloads=%llu mux_splits=%llu "
               "mux_late_drops=%llu mux_superseded=%llu\n",
               ull{s.arrivals}, ull{s.committed}, ull{s.rejected},
               ull{s.instances_launched}, ull{s.instances_decided},
               ull{s.instances_failed}, ull{s.key_batches},
               ull{s.audit_checked_instances},
               ull{s.audit_violating_instances},
               static_cast<long long>(s.finished_at), ull{s.mux_frames},
               ull{s.mux_payloads}, ull{s.mux_splits}, ull{s.mux_late_drops},
               ull{s.mux_superseded});
  } else {
    out += "  service -\n";
  }
  return out;
}

/// One repetition of a golden row: the service driver for service rows,
/// the deployment builder otherwise.
RunResult run_row(const ScenarioConfig& cfg, std::uint64_t rep,
                  const ScenarioSetup* setup) {
  if (cfg.service.enabled) return service::run_service_once(cfg, rep);
  return run_once(cfg, rep, setup);
}

#if TURQ_TRACE_ENABLED
/// FNV-1a over a traced repetition's JSONL bytes: pins the stats and trace
/// hooks (TCP host metrics, exchange-pool counters) alongside the result.
std::string trace_digest(const ScenarioConfig& cfg, std::uint64_t rep) {
  std::ostringstream jsonl;
  trace::JsonlSink sink(jsonl);
  ScenarioConfig traced = cfg;
  traced.trace_sink = &sink;
  (void)run_row(traced, rep, nullptr);
  sink.close();
  const std::string bytes = jsonl.str();
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return fmt("  trace bytes=%zu fnv=%016llx\n", bytes.size(), ull{h});
}
#endif

std::vector<GoldenRow> golden_rows() {
  std::vector<GoldenRow> rows;
  const auto add = [&rows](Protocol p, std::uint32_t n, const char* plan,
                           TurquoisAttack attack, const char* topology,
                           bool relay) {
    ScenarioConfig cfg;
    cfg.protocol = p;
    cfg.n = n;
    cfg.distribution = ProposalDist::kDivergent;
    cfg.plan = *faultplan::plan_from_name(plan, nullptr);
    cfg.attack = attack;
    cfg.seed = 12;
    cfg.repetitions = 2;
    cfg.run_timeout = 5 * kSecond;
    std::string error;
    EXPECT_TRUE(spatial::parse_topology(topology, &cfg.spatial, &error))
        << error;
    cfg.relay_enabled = relay;
    std::string label = to_string(p) + " n=" + std::to_string(n) + " " +
                        cfg.fault_label() + " attack=" + to_string(attack) +
                        " topology=" + topology;
    if (!relay) label += " relay=off";
    rows.push_back({label, cfg});
  };
  for (const ProtocolInfo& info : protocols()) {
    for (const std::uint32_t n : {4u, 7u}) {
      for (const char* plan : {"none", "failstop", "byzantine", "adaptive"}) {
        add(info.protocol, n, plan, TurquoisAttack::kValueInversion, "single",
            true);
        if (info.byzantine_attacks && std::string(plan) == "byzantine") {
          add(info.protocol, n, plan, TurquoisAttack::kDecidedCoinForge,
              "single", true);
        }
      }
    }
  }
  for (const Protocol p : {Protocol::kTurquois, Protocol::kAbsMac}) {
    for (const std::uint32_t n : {4u, 7u}) {
      add(p, n, "none", TurquoisAttack::kValueInversion, "grid(r=150)", true);
      add(p, n, "none", TurquoisAttack::kValueInversion, "grid(r=150)", false);
    }
  }
  add(Protocol::kBracha, 7, "none", TurquoisAttack::kValueInversion,
      "grid(r=150)", true);
  // Turquois at n=64: the quorum (43) exceeds the 42-attachment cap on a
  // justified datagram, so these rows pin which messages a stalled process
  // selects, not only how many.
  for (const char* plan : {"none", "byzantine;adaptive"}) {
    add(Protocol::kTurquois, 64, plan, TurquoisAttack::kValueInversion,
        "single", true);
  }

  // The pipelined service on the same medium: group size × pipeline depth ×
  // arrival process, then backpressure, a deadline that strands instances,
  // and ambient iid loss. σ-tracking plans are pinned by service_test.
  const auto add_service = [&rows](std::uint32_t n, std::uint32_t depth,
                                   service::Arrival arrival,
                                   const char* variant) {
    ScenarioConfig cfg;
    cfg.n = n;
    cfg.seed = 12;
    cfg.repetitions = 2;
    cfg.service.enabled = true;
    cfg.service.pipeline_depth = depth;
    cfg.service.batch = 4;
    cfg.service.arrival = arrival;
    cfg.service.total_requests = 24;
    const std::string v = variant;
    if (v == "tiny-queue") {
      cfg.service.batch = 1;
      cfg.service.queue_capacity = 2;
      cfg.service.offered_load = 50000.0;
    } else if (v == "short-timeout") {
      cfg.run_timeout = 800 * kMillisecond;
    } else if (v == "iid") {
      cfg.plan = *faultplan::plan_from_name("iid(p=0.05)", nullptr);
    }
    std::string label = "Service n=" + std::to_string(n) +
                        " W=" + std::to_string(depth) + " " +
                        service::to_string(arrival) + " " +
                        cfg.fault_label();
    if (!v.empty()) label += " " + v;
    rows.push_back({label, cfg});
  };
  for (const std::uint32_t n : {4u, 16u}) {
    for (const std::uint32_t depth : {1u, 8u}) {
      for (const service::Arrival arrival :
           {service::Arrival::kPoisson, service::Arrival::kBursty}) {
        add_service(n, depth, arrival, "");
      }
    }
  }
  add_service(4, 1, service::Arrival::kPoisson, "tiny-queue");
  add_service(16, 8, service::Arrival::kPoisson, "short-timeout");
  add_service(4, 8, service::Arrival::kPoisson, "iid");
  return rows;
}

// The deployment contract: every protocol under every fault role, both
// Turquois attacks, single-hop and multi-hop (relay on and off), each
// repetition run with and without a hoisted ScenarioSetup, plus the
// pipelined service. Any change to
// the order in which a deployment builds its objects, draws its streams or
// schedules its events moves these bytes. Regenerate after an intentional
// change by running, from the build directory,
//   UPDATE_DEPLOYMENT_GOLDEN=1 ./tests/harness_test
//       --gtest_filter=Deployment.GoldenRunResults
TEST(Deployment, GoldenRunResults) {
  std::string text;
  for (const GoldenRow& row : golden_rows()) {
    text += "[" + row.label + "]\n";
    const auto setup = make_scenario_setup(row.cfg);
    for (std::uint64_t rep = 0; rep < row.cfg.repetitions; ++rep) {
      const std::string plain = dump(run_row(row.cfg, rep, nullptr));
      if (!row.cfg.service.enabled) {
        EXPECT_EQ(dump(run_row(row.cfg, rep, setup.get())), plain)
            << row.label << " rep " << rep << ": hoisted setup diverges";
      }
      text += " rep " + std::to_string(rep) + "\n" + plain;
    }
#if TURQ_TRACE_ENABLED
    text += trace_digest(row.cfg, 0);
#endif
  }

  if (std::getenv("UPDATE_DEPLOYMENT_GOLDEN") != nullptr) {
#if !TURQ_TRACE_ENABLED
    GTEST_SKIP() << "regenerate from a build with tracing enabled";
#endif
    std::ofstream out(DEPLOYMENT_GOLDEN_FILE, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << DEPLOYMENT_GOLDEN_FILE;
    out << text;
    GTEST_SKIP() << "golden file updated";
  }

  std::ifstream golden_in(DEPLOYMENT_GOLDEN_FILE, std::ios::binary);
  ASSERT_TRUE(golden_in) << "missing golden file " << DEPLOYMENT_GOLDEN_FILE;
  std::string expected;
  for (std::string line; std::getline(golden_in, line);) {
#if !TURQ_TRACE_ENABLED
    if (line.rfind("  trace ", 0) == 0) continue;
#endif
    expected += line + "\n";
  }
  EXPECT_EQ(text, expected);
}

}  // namespace
}  // namespace turq::harness
